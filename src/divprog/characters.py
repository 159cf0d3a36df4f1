"""Multiplicative characters mod a prime, moment statistics, congruence counts.

Characters are indexed through one discrete-log table: fix a primitive
root g of p, let ind(x) be the log of x base g, and set

    chi_j(x) = e(j * ind(x) / (p - 1)),   j = 0 .. p-2,   chi_j(0) = 0.

chi_0 is principal, chi_j * chi_k = chi_{j+k mod p-1}, and orthogonality
(1/(p-1)) sum_j chi_j(a) = [a = 1 mod p] all come for free.  The table is
p, g and ind alone for every prime (g = 1 for p = 2); values of chi are
computed from ind where they are used.

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
exact integer.  Pair binning forms each unordered pair once, in blocks
of rows: a block against the later columns counts 2 per pair, its own
square 1 per ordered pair.  Otherwise the inner sums of all characters
at once are the length (p-1) inverse DFT of the index histogram of the
window.  The pair route reads only the log table, never the product
histograms below, so the congruence count stays an independent check of
the moment.  The O(pH) double loop stays as the oracle.

The product-congruence count

    #{(x1..x4) in H1 x .. x H4 : p does not divide x1..x4,
      x1 x2 = x3 x4 mod p}

is a dot product of two product-residue histograms (one histogram with
itself when the second pair of boxes repeats the first), never the
4-fold loop except as a small-case oracle.  For small boxes a product
histogram bins the residue products pair by pair, each unordered pair
once when the two boxes are equal.  For large boxes it is the cyclic
convolution of two index histograms over Z/(p-1), computed as a linear
convolution at the least power-of-two FFT length of at least
2(p-1)-1 (p-1 may have a large prime factor, where a length-(p-1) FFT is
slow), folded mod p-1 and rounded.  Its reference envelope is
H1H2H3H4/p + sqrt(H1H2H3H4).  Both dot products (sum c_k^2 <= N^4, the
count <= H1H2H3H4) are int64 while that bound is below 2^63, Python ints above.

Gauss sums follow the convention tau(chi) = sum_z conj(chi)(z) e_p(z),
with eta(chi) = conj(tau)/tau the unimodular factor in the twisted
Poisson formula.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .arith import is_prime, primitive_root
from .cache import ByteLRU
from .errors import InvalidRange, NotPrime, NotPrimitive

_BRUTE_CAP = 4 * 10**6  # pair-enumeration ceiling for the histogram route
_PAIR_BLOCK = 1 << 18  # pairs binned per step (2 MiB of int64 scratch)
_DFT_OVER_PAIRS = 0.5  # moment: pairs while (H+1)^2 <= this * p log2 p (fit in fourth_moment)
_BRUTE_TERMS = 10**6  # window length ceiling of the literal fourth-moment loop


@dataclass(frozen=True)
class CharacterTable:
    """Discrete-log table for the full character group mod a prime."""

    p: int
    g: int
    index: np.ndarray  # index[x] = ind_g(x) for x in [1, p-1]; index[0] = -1

    @classmethod
    def build(cls, p: int) -> "CharacterTable":
        g = primitive_root(p)  # NotPrime unless p is prime
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

    def chi(self, j: int, x: int) -> complex:
        """chi_j(x); zero on multiples of p."""
        x %= self.p
        if x == 0:
            return 0j
        return complex(_chi_values(self, j, x))

    def chi_row(self, j: int) -> np.ndarray:
        """chi_j on 0..p-1 as one array (0 at x = 0)."""
        row = np.zeros(self.p, dtype=np.complex128)
        row[1:] = _chi_values(self, j, np.arange(1, self.p))
        return row

    def conductor_is_primitive(self, j: int) -> bool:
        """Prime modulus: primitive iff non-principal."""
        return j % (self.p - 1) != 0


def _chi_values(table: CharacterTable, j: int, x):
    """chi_j at the units x (an array or one residue): e(k / (p-1)), k = j ind(x)."""
    n = table.p - 1
    return np.exp(2j * np.pi / n * (j % n * table.index[x] % n))


@ByteLRU
def character_table(p: int) -> CharacterTable:
    return CharacterTable.build(p)


def _exact_dot(u: np.ndarray, v: np.ndarray, bound: int) -> int:
    """u . v of nonnegative int64 counts whose dot is at most bound, exactly."""
    if bound < 2**63:  # no partial sum can wrap
        return int(np.dot(u, v))
    return sum(map(operator.mul, u.tolist(), v.tolist()))


def _pair_histogram(fold, m: int, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """hist[k] = #{(i, j) : fold(x_i, y_j) = k} over every ordered pair, as a length-m int64 array.

    fold(a, b, out, tmp) writes the values of the rows a (a column) against
    the columns b into out, already reduced into [0, m); tmp is scratch of
    the same shape.  Without y the pairs are those of x with itself, and
    each unordered pair is formed once: a block of rows against the
    columns after it counts 2 per pair, and the block's own square counts
    1 per ordered pair, diagonal included.  A block holds at most
    max(_PAIR_BLOCK, number of columns) pairs, in two reused buffers.
    """
    cols = x if y is None else y
    hist = np.zeros(m, dtype=np.int64)
    step = max(1, _PAIR_BLOCK // max(len(cols), 1))
    size = min(step, len(x)) * len(cols)
    vals, tmp = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)

    def bin_block(a: np.ndarray, b: np.ndarray, weight: int) -> None:
        shape = (len(a), len(b))
        out = vals[: len(a) * len(b)].reshape(shape)
        fold(a[:, None], b, out, tmp[: out.size].reshape(shape))
        np.add.at(hist, out.ravel(), weight)

    for lo in range(0, len(x), step):
        rows = x[lo : lo + step]
        if y is not None:
            bin_block(rows, y, 1)
        else:
            bin_block(rows, rows, 1)
            if lo + step < len(x):
                bin_block(rows, x[lo + step :], 2)
    return hist


def _residue_counts(p: int, K: int, H: int) -> np.ndarray:
    """How often each residue r = 0..p-1 appears among {K, ..., K+H}."""
    r = np.arange(p, dtype=np.int64)
    return (K + H - r) // p - (K - 1 - r) // p


def fourth_moment(p: int, K: int, H: int) -> float | int:
    """sum over non-principal chi of |sum_{x=K}^{K+H} chi(x)|^4; the pair route's is an exact int."""
    if H < 0:
        raise InvalidRange(f"need H >= 0, got {H}")
    table = character_table(p)
    n = p - 1
    # Measured on 2 cores with numpy 2.4, each unordered pair formed once:
    # pairs cost 4-5 ns per ordered pair for p >= 65537 (6-8 ns at
    # p = 1009 and 10007, where a call takes under 1 ms), the DFT 3-4 ns
    # per p log2 p where p-1 is smooth (65537, 786433) and 8-15 ns where
    # numpy's FFT is Bluestein's (10007, 100003, 999983).  The two take
    # equal time at (H+1)^2 = c p log2 p with c from 0.7 to 1.0 (smooth),
    # 1.1 to 3.6 (Bluestein) and 0.6 at p = 1009.  c = 0.5 was fitted
    # when pairs cost 10-13 ns and is kept, so that every route choice and
    # int or float result stays as it was; a refit belongs with an exact
    # long-window route.  A window of 1501 at p = 999983: pairs 10 ms, DFT
    # 275 ms; of 3001 at p = 100003: pairs 23 ms, DFT 14 ms.
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

    def add_mod_n(a, b, out, tmp):
        np.add(a, b, out=out)
        # logs lie in [0, n), so subtracting (sum >= n) n folds every sum
        # mod n, in half the time of a subtraction masked with where=
        np.greater_equal(out, n, out=tmp)
        tmp *= n
        out -= tmp

    c = _pair_histogram(add_mod_n, n, logs)  # c[k] = #{ind(x1) + ind(x2) = k mod p-1}
    return n * _exact_dot(c, c, N**4) - N**4


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
        total += abs(_chi_values(table, j, xs).sum()) ** 4
    return total


def gauss_sum(table: CharacterTable, j: int) -> complex:
    """tau(chi_j) = sum_{z=1}^{p} conj(chi_j)(z) e_p(z)."""
    p = table.p
    z = np.arange(1, p)
    phases = np.exp(2j * np.pi / p * z)
    chibar = np.conj(_chi_values(table, j, z))
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

        def mul_mod_p(a, b, out, tmp):
            np.multiply(a, b, out=out)
            # out %= p, as out - (out // p) p
            np.floor_divide(out, p, out=tmp)
            tmp *= p
            out -= tmp

        return _pair_histogram(mul_mod_p, p, x1, None if box2 == box1 else x2)
    # large boxes: count residues first, convolve over the index group
    table = character_table(p)
    n = p - 1
    # the cyclic convolution is the linear one folded mod p-1; the linear one
    # runs at a power-of-two FFT length, since p-1 may have a large prime factor
    size = 1 << (2 * n - 2).bit_length()

    def spectrum(box: tuple[int, int]) -> np.ndarray:
        h = np.zeros(n)
        h[table.index[1:]] = _residue_counts(p, box[0], box[1] - box[0])[1:]
        return np.fft.rfft(h, size)

    f1 = spectrum(box1)
    f2 = f1 if box2 == box1 else spectrum(box2)
    lin = np.fft.irfft(f1 * f2, size)
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
    bound = math.prod(_box_length(b) for b in (box1, box2, box3, box4))
    h12 = _product_histogram(p, box1, box2)
    if (box3, box4) in ((box1, box2), (box2, box1)):
        return _exact_dot(h12, h12, bound)
    return _exact_dot(h12, _product_histogram(p, box3, box4), bound)


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
            lhs = x1 * x2 % p
            if lhs == 0:
                continue
            for x3 in range(box3[0], box3[1] + 1):
                for x4 in range(box4[0], box4[1] + 1):
                    if lhs == x3 * x4 % p:  # so p divides neither x3 nor x4
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
