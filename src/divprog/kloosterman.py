"""Complete Kloosterman sums K_d(m, n) = sum_{x in (Z/d)^*} e_d(mx + n xbar).

The sums are real (x -> -x pairs conjugate terms), so the public value is
the real part with the accumulated imaginary part checked to be noise.
The unit group of Z/1 is {0} (gcd(0, 1) = 1, and 0 is its own inverse),
so the general sum gives K_1(m, n) = e_1(0) = 1: the unit that the d = 1
term of the divisor-sum decomposition needs, with no special case.

Three routes, used against each other in the tests:

  * scalar evaluation over the unit group with a shared twiddle table,
    summed in blocks of _VALUE_BLOCK units, so its scratch stays at a
    few MiB at any d; the imaginary part of the total is checked once,
    against phi(d),
  * batch over a: K_d(m, a) for many a, either through one length-d
    inverse DFT of the unit-indexed phase vector (K_d(m, .) is the
    Fourier transform of y -> e_d(m ybar) on Z_d), or directly, with no
    FFT: the phases e_d(m x) are scattered to y = xbar and summed against
    e_d(a y) for each a.  The direct sum splits y = s i + j with
    s = isqrt(d - 1) + 1, so e_d(a y) = e_d(a s i) e_d(a j) and a block
    of a values costs one s x s contraction (phase_sums; its adjoint
    phase_grid serves the brute bilinear sum).  Its scratch is one grid
    of 16 s^2 >= 16 d bytes, no less than the fft route's length-d
    array, plus phase tables of _PHASE_BLOCK entries, so auto picks the
    route by time alone,
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

One evaluator per d (units, inverses, twiddle table) is kept in a
least-recently-used cache bounded by the bytes of its arrays
(cache.CACHE_BYTES), not by its number of entries: a pass over many
small moduli keeps them all, and an evaluator near d = 1e7 (220-320 MB)
fills it on its own.

Classical identities (symmetry, degeneration to Ramanujan sums, twisted
multiplicativity, Weil's bound) are test oracles, not used in evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import batch_inverse, divisors, reduced_residues, tau_of
from .cache import ByteLRU
from .errors import ConfigInvalid, InvalidModulus, WindowTooLarge

TWIDDLE_CAP = 10**7  # above this, phases are computed on the fly per call
_TABLE_CAP = 4096  # full d x d tables: 8 d^2 bytes of float64
_TABLE_BLOCK = 1 << 20  # table entries gathered per step (8 MiB of int64 indices)
_PHASE_BLOCK = 1 << 16  # split-phase entries per block of frequencies (1 MiB of complex128)
_VALUE_BLOCK = 1 << 16  # units summed per step of the scalar (1 MiB of complex128 phases)

_FFT_OVER_DIRECT = 3.0  # auto: fft when len(a) s^2 > this * d log2 d (fit in batch_over_a)
_IMAG_SLACK = 1e-9  # allowance on an accumulated imaginary part, per unit of sum |term|


def _side(d: int) -> int:
    """The least s with s^2 >= d: every y in [0, d) is s i + j with 0 <= i, j < s."""
    return math.isqrt(d - 1) + 1


@ByteLRU
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
        units = reduced_residues(d)
        phi = len(units)
        # Only the lower half is inverted; the units are symmetric under
        # u -> d - u and inv(d - u) = d - inv(u).
        lower = batch_inverse(units[: (phi + 1) // 2], d)
        inverses = np.concatenate([lower, d - lower[: phi // 2][::-1]])
        twiddle = None
        if d <= TWIDDLE_CAP:
            # e_d(s i + j) = e_d(s i) e_d(j) for 0 <= i, j < s, s^2 >= d:
            # two tables of s phases and one outer product
            s = _side(d)
            fine = np.exp(2j * np.pi / d * np.arange(s))
            coarse = np.exp(2j * np.pi / d * (s * np.arange(s)))
            twiddle = np.outer(coarse, fine).ravel()[:d]
        return cls(d=d, units=units, inverses=inverses, twiddle=twiddle)

    @property
    def side(self) -> int:
        return _side(self.d)

    @property
    def phi(self) -> int:
        return len(self.units)

    def _phases(self, idx: np.ndarray) -> np.ndarray:
        if self.twiddle is not None:
            return self.twiddle[idx]
        return np.exp(2j * np.pi / self.d * idx)

    def value(self, m: int, n: int) -> float:
        d, mr, nr = self.d, m % self.d, n % self.d
        total = 0j
        for lo in range(0, self.phi, _VALUE_BLOCK):
            hi = lo + _VALUE_BLOCK
            idx = mr * self.units[lo:hi] + nr * self.inverses[lo:hi]
            # idx %= d, exactly: on a block this size, int64 // by a scalar
            # (numpy precomputes a multiplier) and a multiply-subtract are
            # ~2.4x faster than %, which divides element by element
            idx -= idx // d * d
            total += self._phases(idx).sum()
        return float(self._real_part(total, f"{m},{n}", self.phi))

    def _real_part(self, z: np.ndarray, label: str, scale: float) -> np.ndarray:
        """z.real, after checking every |Im z| against the slack per unit of scale.

        scale is sum |t| over the terms t summed into each z, which bounds
        |z|; for unit phases, as in every Kloosterman sum, it is phi(d).
        """
        worst = np.abs(z.imag).max(initial=0.0)
        if worst > _IMAG_SLACK * scale:
            raise FloatingPointError(
                f"K_{self.d}({label}) imaginary part {worst:.3e} exceeds tolerance"
            )
        return z.real

    def batch_over_a(self, m: int, a_values, method: str = "auto") -> np.ndarray:
        """K_d(m, a) for each a in a_values; 'direct', 'fft' or 'auto'."""
        a_arr = np.asarray(list(a_values), dtype=np.int64) % self.d
        if method == "auto":
            # Fitted on 2 cores with numpy 2.4: direct costs 2.2-3.4 ns per
            # a per grid cell (s^2 ~ d), fft one length-d transform.  The two
            # took equal time at len(a) near 8 (d = 4096), 22-32 (smooth d
            # from 30030 to 1e6), and 30, 34, 72, 122, 141 at the primes
            # 1009, 2039, 10007, 100003, 999983, where the FFT is Bluestein's.
            # Equal time is c d log2 d / s^2 values of a with c from 0.7 to
            # 7.4; c = 3 errs by at most ~3x either way.
            direct_cost = len(a_arr) * self.side**2
            fft_cost = _FFT_OVER_DIRECT * self.d * math.log2(self.d)
            method = "fft" if direct_cost > fft_cost else "direct"
        if method not in ("direct", "fft"):
            raise ConfigInvalid(f"unknown method {method!r}")
        t = self._phases(m % self.d * self.units % self.d)
        if method == "fft":
            z = self.over_inverses(t)[a_arr]
        else:
            g = np.zeros(self.side**2, dtype=np.complex128)
            g[self.inverses] = t
            z = self.phase_sums(g, a_arr)
        return self._real_part(z, f"{m}, a", self.phi)

    def _split_phases(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """e_d(k s i) and e_d(k j) for 0 <= i, j < s: two (len(k), s) tables."""
        s = self.side
        j = np.arange(s, dtype=np.int64)
        coarse = self._phases(k[:, None] * (s * j % self.d) % self.d)
        fine = self._phases(k[:, None] * j % self.d)
        return coarse, fine

    def phase_sums(self, g: np.ndarray, a: np.ndarray) -> np.ndarray:
        """sum_y g[y] e_d(a y) over y in [0, s^2), for each a in a (residues in [0, d)).

        g is a flat s x s grid, y = s i + j, and e_d(a y) = e_d(a s i) e_d(a j):
        each block of a values is one contraction of the grid with the fine
        phases, weighted by the coarse ones.
        """
        s = self.side
        grid = g.reshape(s, s)
        out = np.empty(len(a), dtype=np.complex128)
        block = max(1, _PHASE_BLOCK // s)
        for lo in range(0, len(a), block):
            coarse, fine = self._split_phases(a[lo : lo + block])
            # einsum, not @: OpenBLAS runs these complex shapes several
            # times slower with two threads than with one
            out[lo : lo + block] = (coarse * np.einsum("ij,aj->ai", grid, fine)).sum(1)
        return out

    def phase_grid(self, w: np.ndarray, n: np.ndarray) -> np.ndarray:
        """sum_k w[k] e_d(n[k] x) for every x in [0, s^2), as a flat s x s grid.

        The adjoint of phase_sums: per block of n, one contraction of the
        weighted coarse phases with the fine ones.
        """
        s = self.side
        grid = np.zeros((s, s), dtype=np.complex128)
        block = max(1, _PHASE_BLOCK // s)
        for lo in range(0, len(n), block):
            coarse, fine = self._split_phases(n[lo : lo + block])
            coarse *= w[lo : lo + block, None]
            # contiguous in k: einsum's inner loop runs over the summed index
            grid += np.einsum("ik,jk->ij", coarse.T.copy(), fine.T.copy())
        return grid.ravel()

    def over_inverses(self, t: np.ndarray) -> np.ndarray:
        """sum_x t[i] e_d(a xbar) for every a in [0, d), x = units[i].

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
    ev = _evaluator(d)
    table = np.empty((d, d))
    n = np.arange(d, dtype=np.int64)
    block = max(1, _TABLE_BLOCK // d)
    for g in divisors(d):
        gu = g * ev.units % d
        row = ev._real_part(ev.over_inverses(ev._phases(gu)), f"{g}, .", ev.phi)  # K_d(g, .)
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
    g = math.gcd(m, n, d)
    bound = tau_of(d) * math.sqrt(g) * math.sqrt(d)
    return WeilCheck(value=v, bound=bound, ok=abs(v) <= bound + 1e-6)
