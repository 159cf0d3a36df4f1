"""Multiplicative characters mod a prime, moment statistics, congruence counts.

Characters are indexed through one discrete-log table: fix a primitive
root g of p, let ind(x) be the log of x base g, and set

    chi_j(x) = e(j * ind(x) / (p - 1)),   j = 0 .. p-2,   chi_j(0) = 0.

chi_0 is principal, chi_j * chi_k = chi_{j+k mod p-1}, and orthogonality
(1/(p-1)) sum_j chi_j(a) = [a = 1 mod p] all come for free.

The log table is built by baby-step/giant-step in O(sqrt p) Python
steps: with m = ceil(sqrt(p-1)), the baby steps g^j (j < m) and the
giant steps g^(mk) give every g^(mk+j) in one outer product mod p, in
int64 (exact for p < 3e9, far beyond any table that fits in memory).
Since ind is a bijection from the units onto 0..p-2, a histogram over
the index group is a plain scatter hist[ind(x)] = count(x): every bin is
written exactly once.

The fourth moment

    sum_{chi != chi_0} | sum_{x=K}^{K+H} chi(x) |^4 = (p-1) M - N^4

is Parseval on the index group: with N the number of x in [K, K+H] not
divisible by p (counted with multiplicity, so H may exceed p) and c_k
the number of pairs with ind(x1) + ind(x2) = k mod p-1, orthogonality
gives M = sum_k c_k^2 = #{x1 x2 = x3 x4 mod p}.  While the (H+1)^2 pairs
cost less than the transform (a fitted multiple of p log2 p), c is
binned from the pair sums of the window's logs and the moment is an
exact integer.  Otherwise the inner sums of all characters at once are
the length (p-1) inverse DFT of the index histogram of the window.  The
pair route reads only the log table, never the product histograms
below, so the congruence count stays an independent check of the
moment.  The O(pH) double loop stays as the oracle.

The product-congruence count

    #{(x1..x4) in H1 x .. x H4 : p does not divide x1..x4,
      x1 x2 = x3 x4 mod p}

is a dot product of two product-residue histograms (one histogram with
itself when the second pair of boxes repeats the first), never the
4-fold loop except as a small-case oracle.  For large boxes a product histogram
is the cyclic convolution of two index histograms over Z/(p-1), computed
as a linear convolution at the least power-of-two FFT length of at least
2(p-1)-1 (p-1 may have a large prime factor, where a length-(p-1) FFT is
slow), folded mod p-1 and rounded.  Its reference envelope is
H1H2H3H4/p + sqrt(H1H2H3H4).

Gauss sums follow the convention tau(chi) = sum_z conj(chi)(z) e_p(z),
with eta(chi) = conj(tau)/tau the unimodular factor in the twisted
Poisson formula.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arith import is_prime, primitive_root
from .cache import ByteLRU
from .errors import InvalidRange, NotPrime, NotPrimitive

_BRUTE_CAP = 4 * 10**6  # pair-enumeration ceiling for the histogram route
_PAIR_BLOCK = 1 << 20  # pair sums binned per step (8 MiB of int64)
_DFT_OVER_PAIRS = 0.5  # moment: pairs while (H+1)^2 <= this * p log2 p (fit in fourth_moment)
_BRUTE_TERMS = 10**6  # window length ceiling of the literal fourth-moment loop


@dataclass(frozen=True)
class CharacterTable:
    """Discrete-log table for the full character group mod an odd prime."""

    p: int
    g: int
    index: np.ndarray  # index[x] = ind_g(x) for x in [1, p-1]; index[0] = -1

    @classmethod
    def build(cls, p: int) -> "CharacterTable":
        if not is_prime(p) or p == 2:
            raise NotPrime(f"need an odd prime, got {p}")
        g = primitive_root(p)
        # baby steps g^j (j < m) and giant steps g^(mk): g^(mk + j) is one
        # outer product mod p, read row by row in order of the exponent
        m = math.isqrt(p - 2) + 1
        baby = [1]
        for _ in range(m - 1):
            baby.append(baby[-1] * g % p)
        step = baby[-1] * g % p
        giant = [1]
        for _ in range((p - 2) // m):
            giant.append(giant[-1] * step % p)
        powers = np.outer(giant, baby) % p
        index = np.full(p, -1, dtype=np.int64)
        index[powers.ravel()[: p - 1]] = np.arange(p - 1)
        return cls(p=p, g=g, index=index)

    @functools.cached_property
    def zeta_powers(self) -> np.ndarray:
        """e(k / (p-1)) for k = 0 .. p-2, built on first use."""
        return np.exp(2j * np.pi / (self.p - 1) * np.arange(self.p - 1))

    @property
    def order(self) -> int:
        return self.p - 1

    def chi(self, j: int, x: int) -> complex:
        """chi_j(x); zero on multiples of p."""
        x %= self.p
        if x == 0:
            return 0j
        return complex(self.zeta_powers[j * self.index[x] % (self.p - 1)])

    def chi_row(self, j: int) -> np.ndarray:
        """chi_j on 0..p-1 as one array (0 at x = 0)."""
        row = np.zeros(self.p, dtype=np.complex128)
        xs = np.arange(1, self.p)
        row[xs] = self.zeta_powers[j % (self.p - 1) * self.index[xs] % (self.p - 1)]
        return row

    def conductor_is_primitive(self, j: int) -> bool:
        """Prime modulus: primitive iff non-principal."""
        return j % (self.p - 1) != 0


@ByteLRU
def character_table(p: int) -> CharacterTable:
    return CharacterTable.build(p)


def _residue_counts(p: int, K: int, H: int) -> np.ndarray:
    """How often each residue r = 0..p-1 appears among {K, ..., K+H}."""
    r = np.arange(p, dtype=np.int64)
    return (K + H - r) // p - (K - 1 - r) // p


def fourth_moment(p: int, K: int, H: int) -> float:
    """sum over non-principal chi of |sum_{x=K}^{K+H} chi(x)|^4."""
    if H < 0:
        raise InvalidRange(f"need H >= 0, got {H}")
    table = character_table(p)
    n = p - 1
    # Fitted on 2 cores with numpy 2.4: pairs cost 10-13 ns per pair, the
    # DFT 3-6 ns per p log2 p where p-1 is smooth (65537, 786433) and
    # 13-23 ns where numpy's FFT is Bluestein's (10007, 100003, 999983).
    # The two took equal time at (H+1)^2 = c p log2 p with c from 0.12 to
    # 0.54 (smooth) and 1.1 to 2.1 (Bluestein), 0.6 to 6.5 at p <= 1009,
    # where both take under 0.1 ms near the boundary; c = 0.5 errs by at
    # most ~4x either way.  A window of 1501 at p = 999983: pairs 30 ms,
    # DFT 468 ms; of 3001 at p = 100003: pairs 106 ms, DFT 29 ms.
    if (H + 1) ** 2 > _DFT_OVER_PAIRS * p * math.log2(p):
        cnt = _residue_counts(p, K, H)
        hist = np.zeros(n, dtype=np.float64)
        hist[table.index[1:]] = cnt[1:]  # index is a bijection onto 0..p-2
        inner = n * np.fft.ifft(hist)  # inner[j] = sum_x chi_j(x), all j at once
        mags = np.abs(inner[1:]) ** 2
        return float(np.sum(mags * mags))
    xs = np.arange(K, K + H + 1, dtype=np.int64) % p
    logs = table.index[xs[xs != 0]]
    N = len(logs)
    c = np.zeros(n, dtype=np.int64)  # c[k] = #{ind(x1) + ind(x2) = k mod p-1}
    block = max(1, _PAIR_BLOCK // max(N, 1))
    for lo in range(0, N, block):
        c += np.bincount(((logs[lo : lo + block, None] + logs) % n).ravel(), minlength=n)
    # sum c_k^2 <= N^4 fits int64; (p-1) times it may not
    return float(n * int(np.dot(c, c)) - N**4)


def fourth_moment_brute(p: int, K: int, H: int) -> float:
    """Literal double loop over characters and x; the test oracle."""
    if H < 0:
        raise InvalidRange(f"need H >= 0, got {H}")
    if H + 1 > _BRUTE_TERMS:
        raise InvalidRange(f"brute force over {H + 1} terms exceeds budget")
    table = character_table(p)
    xs = np.arange(K, K + H + 1, dtype=np.int64) % p
    xs = xs[xs != 0]
    total = 0.0
    for j in range(1, p - 1):
        s = table.zeta_powers[j * table.index[xs] % (p - 1)].sum()
        total += abs(s) ** 4
    return total


def gauss_sum(table: CharacterTable, j: int) -> complex:
    """tau(chi_j) = sum_{z=1}^{p} conj(chi_j)(z) e_p(z)."""
    p = table.p
    z = np.arange(1, p)
    phases = np.exp(2j * np.pi / p * z)
    chibar = np.conj(table.zeta_powers[j % (p - 1) * table.index[z] % (p - 1)])
    return complex(np.sum(chibar * phases))


def eta_factor(table: CharacterTable, j: int) -> complex:
    """conj(tau)/tau; unimodular for primitive chi_j."""
    if not table.conductor_is_primitive(j):
        raise NotPrimitive(f"chi_{j} mod {table.p} is principal")
    t = gauss_sum(table, j)
    return t.conjugate() / t


def _box_length(box: tuple[int, int]) -> int:
    lo, hi = box
    if hi < lo:
        raise InvalidRange(f"box ({lo}, {hi}) has negative length")
    return hi - lo + 1


def _product_histogram(p: int, box1: tuple[int, int], box2: tuple[int, int]) -> np.ndarray:
    """Counts of x1*x2 mod p over the two boxes, zero factors excluded."""
    H1, H2 = _box_length(box1), _box_length(box2)
    if H1 * H2 <= _BRUTE_CAP:
        x1 = np.arange(box1[0], box1[1] + 1, dtype=np.int64) % p
        x2 = np.arange(box2[0], box2[1] + 1, dtype=np.int64) % p
        x1 = x1[x1 != 0]
        x2 = x2[x2 != 0]
        prods = x1[:, None] * x2[None, :] % p
        return np.bincount(prods.ravel(), minlength=p).astype(np.int64)
    # large boxes: count residues first, convolve over the index group
    table = character_table(p)
    n = p - 1
    h1 = np.zeros(n)
    h2 = np.zeros(n)
    h1[table.index[1:]] = _residue_counts(p, box1[0], box1[1] - box1[0])[1:]
    h2[table.index[1:]] = _residue_counts(p, box2[0], box2[1] - box2[0])[1:]
    # the cyclic convolution is the linear one folded mod p-1; the linear one
    # runs at a power-of-two FFT length, since p-1 may have a large prime factor
    size = 1 << (2 * n - 2).bit_length()
    lin = np.fft.irfft(np.fft.rfft(h1, size) * np.fft.rfft(h2, size), size)
    conv = lin[:n]
    conv[: n - 1] += lin[n : 2 * n - 1]
    # conv[k] counts pairs with ind(x1)+ind(x2) = k mod p-1, i.e. x1 x2 = g^k
    out = np.zeros(p, dtype=np.int64)
    out[1:] = np.rint(conv[table.index[1:]]).astype(np.int64)
    return out


def multiplicative_congruence_count(
    p: int,
    box1: tuple[int, int],
    box2: tuple[int, int],
    box3: tuple[int, int],
    box4: tuple[int, int],
) -> int:
    """Exact count of x1 x2 = x3 x4 mod p with no factor divisible by p."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    h12 = _product_histogram(p, box1, box2)
    if (box3, box4) in ((box1, box2), (box2, box1)):
        return int(np.dot(h12, h12))
    h34 = _product_histogram(p, box3, box4)
    return int(np.dot(h12, h34))


def multiplicative_congruence_count_brute(
    p: int,
    box1: tuple[int, int],
    box2: tuple[int, int],
    box3: tuple[int, int],
    box4: tuple[int, int],
) -> int:
    """4-fold loop oracle; only for small boxes."""
    if any(_box_length(b) > 64 for b in (box1, box2, box3, box4)):
        raise InvalidRange("brute-force oracle is limited to boxes of length <= 64")
    count = 0
    for x1 in range(box1[0], box1[1] + 1):
        for x2 in range(box2[0], box2[1] + 1):
            if x1 * x2 % p == 0:
                continue
            lhs = x1 * x2 % p
            for x3 in range(box3[0], box3[1] + 1):
                for x4 in range(box4[0], box4[1] + 1):
                    if x3 * x4 % p == 0:
                        continue
                    if lhs == x3 * x4 % p:
                        count += 1
    return count


@dataclass(frozen=True)
class CongruenceBoundReport:
    count: int
    p: int
    lengths: tuple[int, int, int, int]
    envelope: float
    ratio: float


def congruence_bound_report(
    count: int,
    p: int,
    box1: tuple[int, int],
    box2: tuple[int, int],
    box3: tuple[int, int],
    box4: tuple[int, int],
) -> CongruenceBoundReport:
    """count against the two-term envelope H../p + sqrt(H..)."""
    lengths = tuple(_box_length(b) for b in (box1, box2, box3, box4))
    prod = math.prod(lengths)
    envelope = prod / p + math.sqrt(prod)
    return CongruenceBoundReport(
        count=count, p=p, lengths=lengths, envelope=envelope, ratio=count / envelope
    )
