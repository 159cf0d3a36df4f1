"""Complete Kloosterman sums K_d(m, n) = sum_{x in (Z/d)^*} e_d(mx + n xbar).

The sums are real (x -> -x pairs conjugate terms), so the public value is
the real part with the accumulated imaginary part checked to be noise.
K_1 := 1 by the empty-group convention; the divisor-sum decomposition
needs the d = 1 term to contribute a unit.

Three routes, used against each other in the tests:

  * scalar evaluation over the unit group with a shared twiddle table,
  * batch over a: K_d(m, a) for many a through one length-d inverse DFT
    of the unit-indexed phase vector (K_d(m, .) is the Fourier transform
    of y -> e_d(m ybar) on Z_d),
  * full table: all K_d(m, n) at once from one row per divisor g of d.
    For a unit u, K_d(g u, n) = K_d(g, u n) (substitute x -> ubar x), so
    every row m with gcd(m, d) = g is a gather of the row K_d(g, .),
    which is one batch-over-a transform; row 0 is the g = d row.

The unit group is built with whole-array operations and one route for
every d: the units are what is left after clearing the multiples of each
prime factor of d, and the inverses of the units below d/2 come from a
product tree (Montgomery's batch inversion, one tree level per numpy
step): pairwise products mod d going up, a single pow(root, -1, d), and
child inverse = parent inverse * sibling mod d going down, about three
multiplications per unit.  It is exact in int64 for d <= 1e8 because
every product stays below d^2 <= 1e16 < 2^63.  The units above d/2 take
inv(d - u) = d - inv(u).

Classical identities (symmetry, degeneration to Ramanujan sums, twisted
multiplicativity, Weil's bound) are test oracles, not used in evaluation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arith import divisors, factorize, tau_of
from .errors import InvalidModulus, WindowTooLarge

TWIDDLE_CAP = 10**7  # above this, phases are computed on the fly per call
_TABLE_CAP = 4096  # full d x d tables: 8 d^2 bytes of float64
_TABLE_BLOCK = 1 << 20  # table entries gathered per step (8 MiB of int64 indices)

_IMAG_SLACK = 1e-9  # per-unit allowance on the accumulated imaginary part


def _units(d: int) -> np.ndarray:
    """Residues in [1, d) prime to d, ascending: clear the multiples of each p | d."""
    keep = np.ones(d, dtype=bool)
    for p, _ in factorize(d):
        keep[::p] = False
    return np.flatnonzero(keep).astype(np.int64)


def _batch_inverse(units: np.ndarray, d: int) -> np.ndarray:
    """u^-1 mod d for every u in units (all prime to d, d >= 2), by a product tree.

    Going up, each level holds the pairwise products mod d of the one
    below, an odd-length level padded with 1.  The root is inverted once;
    going down, the inverse of a child is its parent's inverse times its
    sibling.  Exact while d^2 < 2^63.
    """
    levels = [units]
    while len(levels[-1]) > 1:
        level = levels[-1]
        if len(level) % 2:
            level = np.append(level, 1)
            levels[-1] = level
        levels.append(level[0::2] * level[1::2] % d)
    inv = np.array([pow(int(levels[-1][0]), -1, d)], dtype=np.int64)
    for level in reversed(levels[:-1]):
        inv = inv[: len(level) // 2]  # drop the padding's inverse
        down = np.empty(len(level), dtype=np.int64)
        down[0::2] = inv * level[1::2] % d
        down[1::2] = inv * level[0::2] % d
        inv = down
    return inv[: len(units)]


@functools.lru_cache(maxsize=64)
def _evaluator(d: int) -> "KloostermanEvaluator":
    return KloostermanEvaluator.build(d)


@dataclass(frozen=True)
class KloostermanEvaluator:
    """Unit group of Z/d with inverses and the e_d twiddle table."""

    d: int
    units: np.ndarray
    inverses: np.ndarray
    twiddle: np.ndarray | None  # e_d(k), k = 0..d-1; None above TWIDDLE_CAP

    @classmethod
    def build(cls, d: int) -> "KloostermanEvaluator":
        if d < 1:
            raise InvalidModulus(f"modulus must be >= 1, got {d}")
        if d > 10**8:
            # unit/inverse tables alone would be GBs; also keeps the int64
            # product tree and index arithmetic overflow-free
            # (products below d^2 <= 10^16 << 2^63)
            raise WindowTooLarge(f"complete sums over d = {d} are beyond desk scale")
        if d == 1:
            return cls(
                d=1,
                units=np.zeros(0, dtype=np.int64),
                inverses=np.zeros(0, dtype=np.int64),
                twiddle=np.ones(1, dtype=np.complex128),
            )
        units = _units(d)
        phi = len(units)
        # Only the lower half is inverted; the units are symmetric under
        # u -> d - u and inv(d - u) = d - inv(u).
        lower = _batch_inverse(units[: (phi + 1) // 2], d)
        inverses = np.concatenate([lower, d - lower[: phi // 2][::-1]])
        twiddle = None
        if d <= TWIDDLE_CAP:
            # e_d(s i + j) = e_d(s i) e_d(j) for 0 <= i, j < s, s^2 >= d:
            # two tables of s phases and one outer product
            s = math.isqrt(d - 1) + 1
            fine = np.exp(2j * np.pi / d * np.arange(s))
            coarse = np.exp(2j * np.pi / d * (s * np.arange(s)))
            twiddle = np.outer(coarse, fine).ravel()[:d]
        return cls(d=d, units=units, inverses=inverses, twiddle=twiddle)

    @property
    def phi(self) -> int:
        return len(self.units) if self.d > 1 else 1

    def _phases(self, idx: np.ndarray) -> np.ndarray:
        if self.twiddle is not None:
            return self.twiddle[idx]
        return np.exp(2j * np.pi / self.d * idx)

    def value_complex(self, m: int, n: int) -> complex:
        if self.d == 1:
            return 1.0 + 0.0j
        m %= self.d
        n %= self.d
        idx = (m * self.units + n * self.inverses) % self.d
        return complex(self._phases(idx).sum())

    def value(self, m: int, n: int) -> float:
        z = self.value_complex(m, n)
        if abs(z.imag) > _IMAG_SLACK * max(self.phi, 1):
            raise FloatingPointError(
                f"K_{self.d}({m},{n}) imaginary part {z.imag:.3e} exceeds tolerance"
            )
        return z.real

    def batch_over_a(self, m: int, a_values, method: str = "auto") -> np.ndarray:
        """K_d(m, a) for each a in a_values; 'direct', 'fft' or 'auto'."""
        a_arr = np.asarray(list(a_values), dtype=np.int64) % self.d
        if self.d == 1:
            return np.ones(len(a_arr))
        if method == "auto":
            direct_cost = len(a_arr) * max(self.phi, 1)
            fft_cost = 8 * self.d * max(math.log2(self.d), 1)
            method = "fft" if direct_cost > fft_cost and self.twiddle is not None else "direct"
        if method == "direct":
            f = self._phases(m % self.d * self.units % self.d)
            out = np.empty(len(a_arr))
            for i, a in enumerate(a_arr):
                z = (f * self._phases(int(a) * self.inverses % self.d)).sum()
                out[i] = z.real
            return out
        if method != "fft":
            raise ValueError(f"unknown method {method!r}")
        return self.over_inverses(self._phases(m % self.d * self.units % self.d)).real[a_arr]

    def over_inverses(self, t: np.ndarray) -> np.ndarray:
        """sum_x t[i] e_d(a xbar) for every a in [0, d), x = units[i]; d >= 2.

        t is scattered to the inverses and summed by one length-d inverse DFT.
        """
        g = np.zeros(self.d, dtype=np.complex128)
        g[self.inverses] = t
        return self.d * np.fft.ifft(g)


def kloosterman(d: int, m: int, n: int) -> float:
    """K_d(m, n) as a real number."""
    return _evaluator(d).value(m, n)


def kloosterman_batch_over_a(d: int, m: int, a_values, method: str = "auto") -> np.ndarray:
    return _evaluator(d).batch_over_a(m, a_values, method=method)


def kloosterman_table(d: int) -> np.ndarray:
    """All K_d(m, n) as a d x d real array, row m, column n."""
    if d < 1:
        raise InvalidModulus(f"modulus must be >= 1, got {d}")
    if d > _TABLE_CAP:
        raise WindowTooLarge(f"full table for d = {d} exceeds the {_TABLE_CAP} cap")
    if d == 1:
        return np.ones((1, 1))
    ev = _evaluator(d)
    table = np.empty((d, d))
    n = np.arange(d, dtype=np.int64)
    block = max(1, _TABLE_BLOCK // d)
    for g in divisors(d):
        gu = g * ev.units % d
        row = ev.over_inverses(ev._phases(gu)).real  # K_d(g, .)
        # the rows m = g u mod d over the units u, each with one such u;
        # for g = d that is m = 0 alone
        rows, first = np.unique(gu, return_index=True)
        for lo in range(0, len(rows), block):
            u = ev.units[first[lo : lo + block]]
            table[rows[lo : lo + block]] = row[u[:, None] * n[None, :] % d]
    return table


@dataclass(frozen=True)
class WeilCheck:
    value: float
    bound: float
    ok: bool


def check_weil(d: int, m: int, n: int) -> WeilCheck:
    """|K_d(m,n)| against tau(d) gcd(m,n,d)^(1/2) d^(1/2)."""
    v = kloosterman(d, m, n)
    g = math.gcd(m % d if d > 1 else 0, n % d if d > 1 else 0, d)
    bound = tau_of(d) * math.sqrt(g) * math.sqrt(d)
    return WeilCheck(value=v, bound=bound, ok=abs(v) <= bound + 1e-6)
