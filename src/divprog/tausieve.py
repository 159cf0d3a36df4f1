"""Windowed divisor-function sieve and divisor sums over progressions.

tau(n) counts divisors.  The sieve marks a window [start, start+len) by
walking divisors d and bumping every multiple; symmetry d <-> n/d means we
only walk d <= sqrt(n), add 2 per pair, and correct perfect squares by 1.
Everything is exact integer arithmetic.  This divisor walk, sieve_tau,
gives tau(n) to the Voronoi expansion's dual sum and is the oracle the
tests fold by n mod q against the naive route below.

S(X; a, q) = sum of tau(n) over n <= X, n = a mod q comes in four exact
routes that the tests play against each other:

  * naive: tau(2^k m) = (k + 1) tau(m) for odd m, so only odd m <= X are
    sieved, in cache-sized segments of the index i = (m - 1) / 2, walking
    odd divisors only; a segment's start offsets for all its divisors are
    computed as one array.  Column sums of tau by i mod q / gcd(2, q) run
    along; each time the sieve passes X >> k (k = floor(log2 X) down to 0)
    they are folded, times k + 1, into the residues 2^k m mod q,
  * hyperbola: count lattice points dm <= X with dm = a mod q per residue
    class in O(sqrt(X) * q) without materializing tau, taking the d in
    blocks of about _HYPERBOLA_BLOCK / q with one bincount per block,
  * set: S at a set of A reduced residues only, in O(A sqrt(X)) time
    whatever q is, with no length-q array: e = a dbar mod q for each d
    prime to q, the dbar of all d <= sqrt(X) from one product tree, and
    (residue, d) pairs taken in blocks of _SET_BLOCK; needs q <= _FOLD_Q_MAX
    so a dbar stays in int64.  For a set large enough that a whole vector
    costs less, it reads the set off the vector instead,
  * single: one residue, any residue, by a Python loop of O(sqrt(X))
    modular solves; it shares no code with the other routes and stays as
    their scalar oracle, too slow for more than a few residues at large X.
    It is also the route for one residue on its own (the CLI's tau --a).

Every route takes 1 <= q <= X < 2^40, the range the naive, hyperbola and
set routes stay exact in with int64 and float64; the first two also need
memory for q sums.

The identity sum_a S(X; a, q) = sum_{n<=X} tau(n), with the right side
computed by the classical 2*sum floor(X/d) - floor(sqrt(X))^2 formula, is
the row-sum check every vector route must pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import batch_inverse
from .errors import ConfigInvalid, InvalidModulus, InvalidRange, NonReducedResidue, WindowTooLarge

_MEMORY_BUDGET = 2 * 2**30  # bytes a sieve window or a naive-route sum vector may take
_WINDOW_CAP = 2**40  # windows must sit below this
_SEGMENT = 1 << 19  # odd entries per naive-route segment (1 MiB of uint16)
_FOLD_BLOCK = 1 << 14  # residues per naive-route fold step (128 KiB per int64 temporary)
_FOLD_Q_MAX = math.isqrt(2**63 - 1)  # naive-route fold and set-route products stay in int64
_COLUMN_WIDTH = 1024  # column sums run over rows of about this many entries
_HYPERBOLA_BLOCK = 1 << 13  # (d, residue) entries per hyperbola step (64 KiB per int64 temporary)
_SET_BLOCK = 1 << 14  # (residue, d) entries per set-route step (128 KiB per int64 temporary)


@dataclass(frozen=True)
class TauTable:
    """tau(n) for n in [start, start + len(values))."""

    start: int
    values: np.ndarray

    def __getitem__(self, n: int) -> int:
        return int(self.values[n - self.start])

    @property
    def stop(self) -> int:
        return self.start + len(self.values)


def sieve_tau(start: int, length: int) -> TauTable:
    """Exact tau on [start, start+length), deep windows allowed."""
    if start < 1 or length < 1:
        raise InvalidRange(f"need start >= 1 and length >= 1, got {start}, {length}")
    end = start + length
    if end > _WINDOW_CAP:
        raise InvalidRange(f"window reaches {end}, beyond the {_WINDOW_CAP} cap")
    if 4 * length > _MEMORY_BUDGET:
        raise WindowTooLarge(f"window of {length} entries exceeds {_MEMORY_BUDGET} byte budget")
    tau = np.zeros(length, dtype=np.uint32)
    dmax = math.isqrt(end - 1)
    for d in range(1, dmax + 1):
        lo = max(start, d * (d + 1))
        first = -(-lo // d) * d
        if first < end:
            tau[first - start :: d] += 2
    e = math.isqrt(start - 1) + 1
    while e * e < end:
        tau[e * e - start] += 1
        e += 1
    return TauTable(start=start, values=tau)


def total_divisor_sum(X: int) -> int:
    """sum_{n <= X} tau(n) by the hyperbola identity; exact."""
    if X < 1:
        raise InvalidRange(f"need X >= 1, got {X}")
    r = math.isqrt(X)
    d = np.arange(1, r + 1, dtype=np.int64)
    return int(2 * np.sum(X // d)) - r * r


@dataclass(frozen=True)
class ProgressionSumVector:
    """S(X; a, q) for every residue a, index a = 0..q-1."""

    X: int
    q: int
    sums: np.ndarray

    def __getitem__(self, a: int) -> int:
        return int(self.sums[a % self.q])

    def total(self) -> int:
        return int(self.sums.sum())


def _add_columns(cols: np.ndarray, values: np.ndarray, start: int) -> None:
    """cols[(start + t) % len(cols)] += values[t] for every t, in int64."""
    P = len(cols)
    o = start % P
    head = min(len(values), -start % P)
    cols[o : o + head] += values[:head]
    rest = values[head:]
    # numpy sums down axis 0 one row at a time, so a short P pays per row:
    # sum rows of k P entries first, then fold their k groups of P
    for width in (P * max(1, _COLUMN_WIDTH // P), P):
        full = len(rest) - len(rest) % width
        if full:
            wide = rest[:full].reshape(-1, width).sum(axis=0, dtype=np.int64)
            cols += wide.reshape(-1, P).sum(axis=0)
            rest = rest[full:]
    cols[: len(rest)] += rest


def _sieve_odd(buf: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """tau(m) at the odd m = 2i + 1 for lo <= i < hi, written into buf[: hi - lo]."""
    n = hi - lo
    tau = buf[:n]
    tau.fill(0)
    m_lo, m_hi = 2 * lo + 1, 2 * hi - 1
    # for every odd d <= sqrt(m_hi) at once: the least odd cofactor e > d
    # with d*e >= m_lo, and its index; odd multiples of d sit 2d apart, which
    # is d apart in the index i.  Products stay below 2^42 in int64.
    d = np.arange(1, math.isqrt(m_hi) + 1, 2, dtype=np.int64)
    e = -(-np.maximum(m_lo, d * (d + 2)) // d) | 1
    first = (d * e - 1) // 2 - lo
    hit = first < n
    two = np.uint16(2)  # a numpy scalar: no Python-int conversion per strided add
    for f, step in zip(first[hit].tolist(), d[hit].tolist()):
        tau[f::step] += two
    e = np.arange(math.isqrt(m_lo - 1) + 1 | 1, math.isqrt(m_hi) + 1, 2, dtype=np.int64)
    tau[(e * e - 1) // 2 - lo] += 1
    return tau


def _fold_band(S: np.ndarray, cols: np.ndarray, k: int) -> None:
    """S[2^k (2j + 1) mod q] += (k + 1) * cols[j], over the j < len(cols).

    With g = gcd(2^k, q) and q_g = q / g, the residue is g * (c (2j + 1) mod q_g)
    for the unit c = 2^k / g mod q_g, and it depends on j only mod
    P_g = q_g / gcd(2, q_g), on which it is injective.  So cols is first summed
    by j mod P_g and then added at distinct positions.
    """
    q = len(S)
    g = math.gcd(1 << k, q)
    qg = q // g
    Pg = qg // math.gcd(2, qg)
    if len(cols) > Pg:
        w = np.zeros(Pg, dtype=np.int64)
        _add_columns(w, cols, 0)
    else:
        w = cols
    c = pow(2, k, q) // g  # 2^k mod q = g * (c mod q_g)
    for j0 in range(0, len(w), _FOLD_BLOCK):
        block = w[j0 : j0 + _FOLD_BLOCK]
        u = np.arange(2 * j0 + 1, 2 * (j0 + len(block)), 2, dtype=np.int64) % qg
        S[g * (c * u % qg)] += (k + 1) * block


def _progressions_naive(X: int, q: int) -> np.ndarray:
    # tau(2^k m) = (k + 1) tau(m) for odd m, so S(X; a, q) sums (k + 1) tau(m)
    # over odd m <= X >> k with 2^k m = a mod q.  Sieve tau over the odd
    # m = 2i + 1 only, in increasing order, and keep cols[j], the sum of tau(m)
    # over the i = j mod P seen so far (m mod q depends only on i mod P).  Once
    # every odd m <= X >> k is in, fold (k + 1) cols into S; the bands
    # (X >> (k+1), X >> k] are crossed for k = floor(log2 X) down to 0.
    # Exactness: S and cols are int64, and every partial sum is below
    # sum_{n<=X} tau(n) < 2^45 for X < 2^40.  The fold multiplies a residue
    # below q by 2^k mod q (taken with pow), so its products stay below
    # q^2 < 2^63 for q <= _FOLD_Q_MAX (about 3e9, whose int64 sums alone
    # take 24 GB); larger q are refused.
    if 8 * q > _MEMORY_BUDGET or q > _FOLD_Q_MAX:
        raise WindowTooLarge(f"q = {q} needs {8 * q} bytes of sums; the budget is {_MEMORY_BUDGET}")
    P = q // math.gcd(2, q)
    S = np.zeros(q, dtype=np.int64)
    cols = np.zeros(P, dtype=np.int64)
    n_odd = (X + 1) // 2
    # tau(n) <= 6720 for n < 2^40, so uint16 holds every tau value
    buf = np.empty(min(_SEGMENT, _MEMORY_BUDGET // 2, n_odd), dtype=np.uint16)
    k = X.bit_length() - 1
    for lo in range(0, n_odd, len(buf)):
        hi = min(lo + len(buf), n_odd)
        tau = _sieve_odd(buf, lo, hi)
        done = lo
        # band k ends once the odd m <= X >> k are in
        while k >= 0 and (end := ((X >> k) + 1) // 2) <= hi:
            _add_columns(cols, tau[done - lo : end - lo], done)
            _fold_band(S, cols[: min(P, end)], k)
            done, k = end, k - 1
        _add_columns(cols, tau[done - lo :], done)
    return S


def _progressions_hyperbola(X: int, q: int) -> np.ndarray:
    # Every partial bucket sum is an integer no larger than sum_{n<=X} tau(n)
    # < X (log X + 1) < 2^45 for X < _WINDOW_CAP = 2^40, so float64 (exact
    # to 2^53) adds the bincount weights without rounding.
    r = np.arange(q, dtype=np.int64)
    buckets = np.zeros(q, dtype=np.float64)
    D = math.isqrt(X)
    rows = max(1, _HYPERBOLA_BLOCK // q)
    for d0 in range(1, D + 1, rows):
        d = np.arange(d0, min(d0 + rows, D + 1), dtype=np.int64)[:, None]
        cnt = (X // d - r) // q - (d - 1 - r) // q
        idx = d * r % q
        buckets += np.bincount(idx.ravel(), weights=cnt.ravel().astype(np.float64), minlength=q)
    S = 2 * buckets.astype(np.int64)
    e = np.arange(1, D + 1, dtype=np.int64)
    np.subtract.at(S, e * e % q, 1)
    return S


def _hyperbola_max_q(X: int) -> int:
    """Largest q for which method="auto" takes the hyperbola route."""
    # Fitted costs on 2 cores with numpy 2.4: hyperbola fills isqrt(X) q
    # (d, residue) entries at about 1.3e-8 s each, in blocks of
    # _HYPERBOLA_BLOCK entries, so below q = 2^13 there is no per-d overhead;
    # naive costs 4.5-9.6 ns per n <= X, the per-divisor loop growing with
    # isqrt(X).  The two took equal time at q near 570 (X = 4e6), 1020 (1e7),
    # 2350 (3e7) and 7200 (1e8), each the mean of two linear fits in q.
    return X // 14500 + 300


def _check_progression(X: int, q: int) -> None:
    """The range the int64 routes are exact in: 1 <= q <= X < 2^40."""
    if X < 1:
        raise InvalidRange(f"need X >= 1, got {X}")
    if q < 1 or q > X:
        raise InvalidRange(f"need 1 <= q <= X, got q = {q}, X = {X}")
    if X >= _WINDOW_CAP:
        raise InvalidRange(f"need X < {_WINDOW_CAP}, got {X}")


def divisor_sum_progressions(X: int, q: int, method: str = "auto") -> ProgressionSumVector:
    """All S(X; a, q) at once.  method in {auto, naive, hyperbola}."""
    _check_progression(X, q)
    if method == "auto":
        method = "hyperbola" if q <= _hyperbola_max_q(X) else "naive"
    if method == "naive":
        sums = _progressions_naive(X, q)
    elif method == "hyperbola":
        sums = _progressions_hyperbola(X, q)
    else:
        raise ConfigInvalid(f"unknown method {method!r}")
    return ProgressionSumVector(X=X, q=q, sums=sums)


def _pairs_max_residues(X: int, q: int) -> int:
    """Most distinct residues for which progression_sums_set counts pairs."""
    # Fitted on 2 cores with numpy 2.4: the pairs cost 9-13 ns per
    # (residue, d) pair, d <= isqrt(X), over a fixed 0.3-1 ms.  A vector
    # costs 16-19 ns per hyperbola entry (isqrt(X) q of them, more than the
    # pairs of any A < q) and 4-12 ns per n <= X on the naive route.  With
    # naive the two took equal time near A = 330 at (1e5, 2153), 560 at
    # (1e6, 9973) and 2300 at (1e7, 46411), against bounds 221, 700 and 2213.
    # Only d prime to q make pairs, so for q with small prime factors the
    # bound is low: at (1e7, 720720) pairs took 30 ms against 110 ms at
    # A = 4426.
    if q <= _hyperbola_max_q(X):
        return q
    return 7 * X // (10 * math.isqrt(X))


def progression_sums_set(X: int, q: int, residues) -> np.ndarray:
    """S(X; a, q) for each reduced residue a in residues, in O(A sqrt(X)) for A distinct.

    Returns int64 sums in the order of residues, which may repeat.  A unit a
    is hit only by pairs d e with d prime to q, and then e = a dbar mod q, so

        S = 2 sum_{d <= sqrt(X), (d, q) = 1} #{d <= e <= X/d : e = a dbar}
            - #{e <= sqrt(X) : e^2 = a}.

    With X/d = Q_h q + r_h and d - 1 = Q_l q + r_l, a class c in [0, q) has
    Q_h - Q_l - [c > r_h] + [c > r_l] members in [d, X/d]; the Q part does
    not depend on a, so each (a, d) costs one product mod q and two
    comparisons.  The dbar come from one product tree, and a dbar < q^2
    stays in int64 for q <= _FOLD_Q_MAX.  Above _pairs_max_residues(X, q)
    distinct residues the whole vector costs less, and the sums are read
    off divisor_sum_progressions instead.
    """
    _check_progression(X, q)
    if q > _FOLD_Q_MAX:
        raise InvalidModulus(f"need q <= {_FOLD_Q_MAX} for int64 products a dbar, got {q}")
    a = np.asarray(residues, dtype=np.int64) % q
    bad = np.gcd(a, q) != 1
    if bad.any():
        raise NonReducedResidue(f"{int(a[bad][0])} shares a factor with {q}")
    a, where = np.unique(a, return_inverse=True)
    if len(a) > _pairs_max_residues(X, q):
        return divisor_sum_progressions(X, q).sums[a][where]
    D = math.isqrt(X)
    d = np.arange(1, D + 1, dtype=np.int64)
    d = d[np.gcd(d, q) == 1]
    dbar = batch_inverse(d % q, q)
    Qh, rh = np.divmod(X // d, q)
    Ql, rl = np.divmod(d - 1, q)
    over = np.zeros(len(a), dtype=np.int64)
    cols = min(len(d), _SET_BLOCK)
    rows = max(1, _SET_BLOCK // cols)
    for i in range(0, len(a), rows):
        ai = a[i : i + rows, None]
        for j in range(0, len(d), cols):
            c = ai * dbar[j : j + cols] % q
            over[i : i + rows] += (c > rl[j : j + cols]).sum(axis=1)
            over[i : i + rows] -= (c > rh[j : j + cols]).sum(axis=1)
    e = np.arange(1, D + 1, dtype=np.int64)
    squares = np.sort(e * e % q)
    lo, hi = np.searchsorted(squares, np.stack([a, a + 1]))  # the run of squares equal to a
    S = 2 * (int(np.sum(Qh - Ql)) + over) - (hi - lo)
    return S[where]


def progression_sum_single(X: int, q: int, a: int) -> int:
    """S(X; a, q) for one residue in O(sqrt(X)) time, O(1) space."""
    _check_progression(X, q)
    a %= q
    total = 0
    D = math.isqrt(X)
    for d in range(1, D + 1):
        g = math.gcd(d, q)
        if a % g:
            continue
        qq = q // g
        m0 = (a // g) * pow(d // g, -1, qq) % qq  # pow(., -1, 1) is 0
        hi = X // d
        total += 2 * ((hi - m0) // qq - (d - 1 - m0) // qq)
    # remove the double-counted diagonal d = m
    e = np.arange(1, D + 1, dtype=np.int64)
    total -= int(np.count_nonzero(e * e % q == a))
    return total
