"""Complete Kloosterman sums K_d(m, n) = sum_{x in (Z/d)^*} e_d(mx + n xbar).

The sums are real (x -> -x pairs conjugate terms), so the public value is
the real part with the accumulated imaginary part checked to be noise.
The unit group of Z/1 is {0} (gcd(0, 1) = 1, and 0 is its own inverse),
so the general sum gives K_1(m, n) = e_1(0) = 1: the unit that the d = 1
term of the divisor-sum decomposition needs, with no special case.

Routes, used against each other in the tests:

  * scalar evaluation over the unit group with the evaluator's phases,
    summed in blocks of _VALUE_BLOCK units, so its scratch stays at a
    few MiB at any d; the imaginary part of the total is checked once,
    against phi(d),
  * unit sums sum_i t_i e_d(a xbar_i) for many a, any weights t on the
    units x_i (unit_sums): t is scattered to y = xbar and summed by one
    length-d inverse DFT, or directly, with no FFT: y = s i + j with
    s = isqrt(d - 1) + 1, so e_d(a y) = e_d(a s i) e_d(a j) and a block of
    a values costs one matrix product with the s x s grid (its adjoint
    phase_grid serves the brute bilinear sum).  The direct scratch, a grid
    of 16 s^2 >= 16 d bytes plus phase tables of _PHASE_BLOCK entries, is
    no less than the fft route's, so auto picks by time alone.
    batch_over_a is K_d(m, .) with t_i = e_d(m x_i), and fold is
    sum_r W[r] K_d(r, .) with t = d ifft(W) at the units,
  * full table: all K_d(m, n) at once from one row per divisor g of d.
    For a unit u, K_d(g u, n) = K_d(g, u n) (substitute x -> ubar x), so
    every row m with gcd(m, d) = g is a gather of the row K_d(g, .),
    which is one fft unit sum; row 0 is the g = d row.

The unit group is built with whole-array operations and one route for
every d: the units are what is left after clearing the multiples of each
prime factor of d, and the inverses of the units below d/2 come from a
product tree (Montgomery's batch inversion, one tree level per numpy
step): pairwise products mod d going up, a single pow(root, -1, d), and
child inverse = parent inverse * sibling mod d going down, about three
multiplications per unit.  It is exact in int64 for d <= 1e8 because
every product stays below d^2 <= 1e16 < 2^63.  The units above d/2 take
inv(d - u) = d - inv(u).  Units and inverses are stored as int32 (d <=
1e8 < 2^31), and every product of one with a residue is formed in int64.

The phases e_d(k) come from two tables of s = isqrt(d - 1) + 1 entries,
coarse[i] = e_d(s i) and fine[j] = e_d(j), as coarse[k // s] fine[k % s].
For d <= TWIDDLE_CAP = 2^19 the evaluator also keeps their outer product,
the length-d twiddle table, and gathers from it; above the cap it forms
the product per call.  Both routes give the same bits.  The cap is where
the product stops costing much more than the gather, while saving 16 d
bytes: on 2 cores with numpy 2.4 (best of 7, two runs), the scalar sum
over the products took 3.0, 1.3, 1.3, 0.86-1.04, 0.93-0.97 and 0.65-0.68
times the table route's time at the primes d = 100003, 262139, 524287,
999983, 1999993 and 3999971.

An evaluator takes 8 bytes per unit, 32 s bytes of phase tables, and 16 d
bytes of twiddle table for d <= TWIDDLE_CAP.  One per d is kept in a
least-recently-used cache bounded by the bytes of its arrays
(cache.CACHE_BYTES), not by its number of entries: a pass over many
small moduli keeps them all, and an evaluator near d = 1e7 takes about
80 MB.

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

TWIDDLE_CAP = 1 << 19  # above this, phases are the product of two s-length tables per call
_TABLE_CAP = 4096  # full d x d tables: 8 d^2 bytes of float64
_TABLE_BLOCK = 1 << 16  # table entries gathered per step (512 KiB of int64 indices)
_PHASE_BLOCK = 1 << 16  # split-phase entries per block of frequencies (1 MiB of complex128)
_VALUE_BLOCK = 1 << 16  # units summed per step of the scalar (1 MiB of complex128 phases)

_FFT_OVER_DIRECT = 16.0  # auto: fft when len(a) s^2 > this * d log2 d (fit in unit_sums)
_IMAG_SLACK = 1e-9  # allowance on an accumulated imaginary part, per unit of sum |term|


def _side(d: int) -> int:
    """The least s with s^2 >= d: every y in [0, d) is s i + j with 0 <= i, j < s."""
    return math.isqrt(d - 1) + 1


@ByteLRU
def _evaluator(d: int) -> "KloostermanEvaluator":
    return KloostermanEvaluator.build(d)


@dataclass(frozen=True)
class KloostermanEvaluator:
    """Unit group of Z/d with inverses, and the e_d phase tables."""

    d: int
    units: np.ndarray  # int32, exact since d <= 1e8 < 2^31
    inverses: np.ndarray  # int32
    coarse: np.ndarray  # e_d(s i), i = 0..s-1
    fine: np.ndarray  # e_d(j), j = 0..s-1
    twiddle: np.ndarray | None  # their outer product, e_d(k) for k < d; None above TWIDDLE_CAP

    @classmethod
    def build(cls, d: int) -> "KloostermanEvaluator":
        if d < 1:
            raise InvalidModulus(f"modulus must be >= 1, got {d}")
        if d > 10**8:
            # unit/inverse tables alone would be GBs; also keeps the int64
            # product tree and index arithmetic overflow-free
            # (products below d^2 <= 10^16 << 2^63) and the units in int32
            raise WindowTooLarge(f"complete sums over d = {d} are beyond desk scale")
        units = reduced_residues(d)
        phi = len(units)
        # Only the lower half is inverted; the units are symmetric under
        # u -> d - u and inv(d - u) = d - inv(u).
        lower = batch_inverse(units[: (phi + 1) // 2], d)
        inverses = np.concatenate([lower, d - lower[: phi // 2][::-1]])
        # e_d(s i + j) = e_d(s i) e_d(j) for 0 <= i, j < s, s^2 >= d
        s = _side(d)
        fine = np.exp(2j * np.pi / d * np.arange(s))
        coarse = np.exp(2j * np.pi / d * (s * np.arange(s)))
        twiddle = np.outer(coarse, fine).ravel()[:d] if d <= TWIDDLE_CAP else None
        return cls(d=d, units=units.astype(np.int32), inverses=inverses.astype(np.int32),
                   coarse=coarse, fine=fine, twiddle=twiddle)

    @property
    def side(self) -> int:
        return _side(self.d)

    @property
    def phi(self) -> int:
        return len(self.units)

    def _phases(self, k: np.ndarray) -> np.ndarray:
        """e_d(k) for residues k in [0, d): the twiddle table's entries, bit for bit."""
        if self.twiddle is not None:
            return self.twiddle[k]
        s = self.side
        i = k // s
        out = self.coarse[i]
        out *= self.fine[k - i * s]
        return out

    def value(self, m: int, n: int) -> float:
        d, mr, nr = self.d, m % self.d, n % self.d
        total = 0j
        for lo in range(0, self.phi, _VALUE_BLOCK):
            hi = lo + _VALUE_BLOCK
            idx = np.multiply(self.units[lo:hi], mr, dtype=np.int64)
            idx += np.multiply(self.inverses[lo:hi], nr, dtype=np.int64)
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
        """K_d(m, a) for each a in a_values; 'direct', 'fft' or 'auto' (see unit_sums)."""
        a = np.asarray(list(a_values), dtype=np.int64) % self.d
        t = self._phases(np.multiply(self.units, m % self.d, dtype=np.int64) % self.d)
        return self._real_part(self.unit_sums(t, a, method), f"{m}, a", self.phi)

    def unit_sums(self, t: np.ndarray, a: np.ndarray, method: str) -> np.ndarray:
        """sum_i t[i] e_d(a xbar_i) for each a in a (residues in [0, d)), x_i = units[i].

        t is scattered to y = xbar.  'fft': one length-d inverse DFT gives
        every a.  'direct', no FFT: on the flat s x s grid y = s i + j,
        e_d(a y) = e_d(a s i) e_d(a j), so each block of a values is one
        matrix product of the fine phases with the grid, weighted by the
        coarse ones.  'auto' picks the cheaper of the two.
        """
        if method == "auto":
            # Fitted on 2 cores with numpy 2.4 and OpenBLAS 0.3 at two
            # threads: direct costs one BLAS product per block (s^2 ~ d
            # cells per a), fft one length-d transform.  The two took equal
            # time at len(a) near 23 (d = 4096), 96-480 (smooth d from 30030
            # to 1e6: 30030, 65536, 720720, 1e6), and 120, 132, 216, 1344,
            # 2688 at the primes 1009, 2039, 10007, 100003, 999983, where
            # the FFT is Bluestein's.  Equal time is c d log2 d / s^2 values
            # of a with c from 1.9 to 135; c = 16 errs by at most ~8x in
            # len(a) either way.
            direct_cost = len(a) * self.side**2
            fft_cost = _FFT_OVER_DIRECT * self.d * math.log2(self.d)
            method = "fft" if direct_cost > fft_cost else "direct"
        if method == "fft":
            g = np.zeros(self.d, dtype=np.complex128)
            g[self.inverses] = t
            return (self.d * np.fft.ifft(g))[a]
        if method != "direct":
            raise ConfigInvalid(f"unknown method {method!r}")
        s = self.side
        grid = np.zeros(s * s, dtype=np.complex128)
        grid[self.inverses] = t
        grid = grid.reshape(s, s)
        out = np.empty(len(a), dtype=np.complex128)
        block = max(1, _PHASE_BLOCK // s)
        for lo in range(0, len(a), block):
            coarse, fine = self._split_phases(a[lo : lo + block])
            # a BLAS product: 10-20x faster than numpy's own einsum loop on
            # these complex shapes, with one OpenBLAS thread or two
            out[lo : lo + block] = (coarse * (fine @ grid.T)).sum(1)
        return out

    def _split_phases(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """e_d(k s i) and e_d(k j) for 0 <= i, j < s: two (len(k), s) tables."""
        s = self.side
        j = np.arange(s, dtype=np.int64)
        coarse = self._phases(k[:, None] * (s * j % self.d) % self.d)
        fine = self._phases(k[:, None] * j % self.d)
        return coarse, fine

    def phase_grid(self, w: np.ndarray, n: np.ndarray) -> np.ndarray:
        """sum_k w[k] e_d(n[k] x) for every x in [0, s^2), as a flat s x s grid.

        The adjoint of the direct unit sums: per block of n, one matrix
        product of the weighted coarse phases with the fine ones.
        """
        s = self.side
        grid = np.zeros((s, s), dtype=np.complex128)
        block = max(1, _PHASE_BLOCK // s)
        for lo in range(0, len(n), block):
            coarse, fine = self._split_phases(n[lo : lo + block])
            coarse *= w[lo : lo + block, None]
            grid += coarse.T @ fine
        return grid.ravel()


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
        gu = np.multiply(ev.units, g, dtype=np.int64) % d
        row = ev._real_part(ev.unit_sums(ev._phases(gu), n, "fft"), f"{g}, .", ev.phi)  # K_d(g, .)
        # the rows m = g u mod d over the units u, each with one such u;
        # for g = d that is m = 0 alone
        rows, first = np.unique(gu, return_index=True)
        for lo in range(0, len(rows), block):
            idx = ev.units[first[lo : lo + block], None] * n
            idx -= idx // d * d  # idx %= d, as in value: cache-sized blocks make // pay
            table[rows[lo : lo + block]] = row[idx]
    return table


def fold(d: int, W: np.ndarray, a_values) -> np.ndarray:
    """sum_r W[r] K_d(r, a) for each a in a_values, for real W of length d.

    Summed over r first, sum_r W[r] e_d(r x) is T(x) = d ifft(W)(x), so the
    fold is the fft unit sum of T over the units: two length-d DFTs.  It is
    real (T(-x) is the conjugate of T(x)); its imaginary part is checked
    against sum |T(x)| over the units, which bounds every value.
    """
    ev = _evaluator(d)
    T = (d * np.fft.ifft(W))[ev.units]
    a = np.asarray(a_values, dtype=np.int64) % d
    return ev._real_part(ev.unit_sums(T, a, "fft"), "W, a", float(np.abs(T).sum()))


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
