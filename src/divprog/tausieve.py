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
    sieved, in segments of _SEGMENT = 2^20 entries (2 MiB) of the index
    i = (m - 1) / 2, on two levels.  Each 1 MiB piece of a segment takes
    the odd d <= 15, laid down as one precomputed wheel of period 45045 =
    lcm(1, 3, ..., 15) in the index, and the odd d < 257, whose strided adds
    touch every cache line of the piece; the odd d >= 257 skip lines and are
    walked once per segment.  Each d is one strided add, the start offsets
    of a level computed as one array.  Column sums of tau by i mod
    q / gcd(2, q) run along; each time the sieve passes X >> k
    (k = floor(log2 X) down to 0) band k is added, times k + 1, at the
    residues 2^k m mod q.  With q = 2^v q_o, q_o odd, a band k < v is
    one strided add to the residues 2^k (2j + 1); the bands k >= v land on
    the multiples of 2^v and are summed mod q_o by Horner's rule over the
    doubling map u -> 2u mod q_o (a copy and two strided adds per band),
    then added once.  No residue is multiplied or reduced,
  * hyperbola: count lattice points d m <= X, d <= sqrt(X), d <= m, per
    residue class without materializing tau.  For one d the m = r mod q
    land on d r mod q, and their count depends on r only through two
    remainders mod q, so the d are grouped by their class d mod q: each
    class costs one row of q counts (a running sum over r) and one weighted
    bincount, O(q min(q, sqrt(X)) + sqrt(X)) in all, the rows taken in
    blocks of about _HYPERBOLA_BLOCK entries,
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

from .arith import batch_inverse, count_units, reduced_mod
from .errors import ConfigInvalid, InvalidModulus, InvalidRange, WindowTooLarge

_MEMORY_BUDGET = 2 * 2**30  # bytes a sieve window or a naive-route sum vector may take
_WINDOW_CAP = 2**40  # windows must sit below this
_SEGMENT = 1 << 20  # odd entries per naive-route segment (2 MiB of uint16)
_PIECE = 1 << 19  # odd entries the wheel and the odd d < _LARGE_D fill at a time (1 MiB)
_LARGE_D = 257  # odd d from here up are walked once per segment, not once per piece
_FOLD_Q_MAX = math.isqrt(2**63 - 1)  # set-route products a dbar stay in int64
_WHEEL = 45045  # lcm(1, 3, ..., 15): the odd d <= 15 repeat with this period in the index
_COLUMN_WIDTH = 1024  # column sums run over rows of about this many entries
_HYPERBOLA_BLOCK = 1 << 15  # (class, residue) entries per hyperbola block (256 KiB of int64)
_SET_BLOCK = 1 << 14  # (residue, d) entries per set-route step (128 KiB per int64 temporary)


@dataclass(frozen=True)
class TauTable:
    """tau(n) for n in [start, start + len(values))."""

    start: int
    values: np.ndarray

    def __getitem__(self, n: int) -> int:
        return int(self.values[n - self.start])


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
            rows = rest[:full].reshape(-1, width)
            wide = rows[0] if len(rows) == 1 else rows.sum(axis=0, dtype=np.int64)
            cols += wide.reshape(-1, P).sum(axis=0, dtype=np.int64) if width > P else wide
            rest = rest[full:]
    cols[: len(rest)] += rest


def _wheel() -> tuple[np.ndarray, np.ndarray]:
    """The odd d <= 15 over one period of the index, and what it overcounts at m <= 225.

    pattern[i] = 2 #{odd d <= 15 : d | 2i + 1}.  The walk counts a pair d < e
    by its smaller member and a square once.  Past m = 225 every d <= 15
    has a cofactor above d, so the pattern is exact there; at m = d e <= 225
    with odd e <= d it counts 2 (e < d, e's pair) or 1 (e = d, the square)
    too many, and fix holds that excess by index.
    """
    pattern = np.zeros(_WHEEL, dtype=np.uint16)
    fix = np.zeros(113, dtype=np.uint16)  # the odd m <= 225
    for d in range(1, 16, 2):
        pattern[(d - 1) // 2 :: d] += 2
        e = np.arange(1, d + 1, 2)
        fix[(d * e - 1) // 2] += np.where(e < d, 2, 1).astype(np.uint16)
    return pattern, fix


_WHEEL_PATTERN, _WHEEL_FIX = _wheel()


def _add_pairs(tau: np.ndarray, lo: int, d_lo: int, d_hi: int) -> None:
    """Add 2 at index i - lo for each pair d < e, d e = 2i + 1, odd d in [d_lo, d_hi), d_lo odd."""
    m_lo, m_hi = 2 * lo + 1, 2 * (lo + len(tau)) - 1
    # for every such d at once: the least odd cofactor e > d with d*e >= m_lo,
    # and its index; odd multiples of d sit 2d apart, which is d apart in the
    # index i.  Products stay below 2^42 in int64.
    d = np.arange(d_lo, min(d_hi, math.isqrt(m_hi) + 1), 2, dtype=np.int64)
    e = -(-np.maximum(m_lo, d * (d + 2)) // d) | 1
    first = (d * e - 1) // 2 - lo
    hit = first < len(tau)
    two = np.uint16(2)  # a numpy scalar: no Python-int conversion per strided add
    for f, step in zip(first[hit].tolist(), d[hit].tolist()):
        tau[f::step] += two


def _sieve_odd(buf: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """tau(m) at the odd m = 2i + 1 for lo <= i < hi, written into buf[: hi - lo]."""
    tau = buf[: hi - lo]
    # pieces of _PIECE entries take the odd d < _LARGE_D, whose strided adds
    # touch every cache line of the piece; the larger d skip lines and are
    # walked once over the whole window
    for p in range(lo, hi, _PIECE):
        piece = tau[p - lo : p - lo + _PIECE]
        # the odd d <= 15: piece[t] = pattern[(p + t) % _WHEEL], then the fix
        o = p % _WHEEL
        head = min(len(piece), _WHEEL - o)
        piece[:head] = _WHEEL_PATTERN[o : o + head]
        rest = piece[head:]
        full = len(rest) - len(rest) % _WHEEL
        rest[:full].reshape(-1, _WHEEL)[:] = _WHEEL_PATTERN
        rest[full:] = _WHEEL_PATTERN[: len(rest) - full]
        if p < len(_WHEEL_FIX):
            t = min(len(piece), len(_WHEEL_FIX) - p)
            piece[:t] -= _WHEEL_FIX[p : p + t]
        _add_pairs(piece, p, 17, _LARGE_D)
    m_lo, m_hi = 2 * lo + 1, 2 * hi - 1
    _add_pairs(tau, lo, max(17, _LARGE_D | 1), math.isqrt(m_hi) + 1)
    e = np.arange(max(17, math.isqrt(m_lo - 1) + 1 | 1), math.isqrt(m_hi) + 1, 2, dtype=np.int64)
    tau[(e * e - 1) // 2 - lo] += 1
    return tau


def _progressions_naive(X: int, q: int) -> np.ndarray:
    # tau(2^k m) = (k + 1) tau(m) for odd m, so S(X; a, q) sums (k + 1) tau(m)
    # over odd m <= X >> k with 2^k m = a mod q.  Sieve tau over the odd
    # m = 2i + 1 only, in increasing order, and keep cols[j], the sum of tau(m)
    # over the i = j mod P seen so far (m mod q depends only on i mod P).  Once
    # every odd m <= X >> k is in, add band k, (k + 1) cols, to S; the bands
    # (X >> (k+1), X >> k] are crossed for k = floor(log2 X) down to 0.
    # With q = 2^v q_o, band k < v lands on the residues 2^k (2j + 1), j < L =
    # q / 2^(k+1), at m = 2j + 1 mod 2L, i.e. i = j mod L.  Band k >= v lands
    # on 2^v (2^(k-v) m mod q_o): with c_k[u] the cols summed by m = u mod q_o
    # and D the doubling map, (D c)[2u mod q_o] = c[u], its share of
    # S[:: 2^v] is (k + 1) D^(k-v) c_k, so h = D h + (k + 1) c_k over the
    # bands k >= v in the order they finish leaves that sum in h.
    # Exactness: S, cols, h and every band are int64 sums of tau values, each
    # below sum_{n<=X} tau(n) < 2^45 for X < 2^40; no residue is multiplied.
    if 8 * q > _MEMORY_BUDGET:
        raise WindowTooLarge(f"q = {q} needs {8 * q} bytes of sums; the budget is {_MEMORY_BUDGET}")
    v = (q & -q).bit_length() - 1
    qo = q >> v
    P = q >> min(v, 1)
    S = np.zeros(q, dtype=np.int64)
    cols = np.zeros(P, dtype=np.int64)
    # h by u mod q_o: S itself for odd q, else its own array (S[:: 2^v] would miss cache)
    h = S if v == 0 else np.zeros(qo, dtype=np.int64)
    spare = np.empty(qo, dtype=np.int64)  # h before its doubling
    w = np.empty(max(qo, P >> 1), dtype=np.int64)  # one band's column sums
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
            seen = cols[: min(P, end)]
            if k == 0 < v:  # band 0 on the odd residues is cols itself
                S[1::2] += seen
            else:
                band = w[: qo if k >= v else P >> k]
                band.fill(0)
                _add_columns(band, seen, 0)
                band *= k + 1
                if k < v:
                    S[1 << k :: 2 << k] += band
                else:  # (D h)[2u] = h[u]; band[j] holds m = 2j + 1 mod q_o, odd u first
                    spare[:] = h
                    half = (qo + 1) // 2
                    np.add(spare[:half], band[qo // 2 :], out=h[0::2])
                    np.add(spare[half:], band[: qo // 2], out=h[1::2])
                    if k == v > 0:
                        S[:: 1 << v] += h
            done, k = end, k - 1
        _add_columns(cols, tau[done - lo :], done)
    return S


def _progressions_hyperbola(X: int, q: int) -> np.ndarray:
    # S = 2 sum_{d <= D} #{m : d <= m <= X/d} at residue d m mod q, less one
    # at each square e^2, e <= D = isqrt(X).  With X//d = Qh q + rh and
    # d - 1 = Ql q + rl, the m = r mod q in [d, X/d] number
    # Qh - Ql + [r > rl] - [r > rh]; d r mod q and rl = c - 1 mod q depend on
    # d only through its class c = d mod q.  So class c adds the row
    # C_c + #{rl < r} - #{rh < r} over its d (C_c the sum of their Qh - Ql)
    # at c r mod q, one weighted bincount per block of rows.  A row is a
    # step function of r: its steps are sorted and np.repeat lays down the
    # running sum.  The d come sorted by class, so a block reads one slice.
    # Exactness: every level and partial bucket sum is an integer no larger
    # than sum_{n<=X} tau(n) < 2^45 for X < 2^40, so float64 (exact to 2^53)
    # holds it.
    D = math.isqrt(X)
    width = min(q, D + 1)  # the classes c < width hold every d <= D
    d = (np.arange(D // q + 1, dtype=np.int64)[:, None] * q + np.arange(width)).T.ravel()
    d = d[(d >= 1) & (d <= D)]
    cls = d % q
    Qh = X // d // q
    C = np.bincount(cls, weights=Qh - (d - 1) // q, minlength=width)
    rh_col = X // d - Qh * q + 1  # the column where -[r > rh] steps
    count = np.bincount(cls, minlength=width)  # d per class
    start = np.cumsum(count) - count  # where each class begins in d
    r = np.arange(q + 1, dtype=np.int64)
    buckets = np.zeros(q, dtype=np.float64)
    rows = max(1, _HYPERBOLA_BLOCK // q)
    # one block's residues c r mod q, reused: fresh block-sized temporaries
    # would cost page faults whenever the allocator hands them back
    product = np.empty((rows, q + 1), dtype=np.int64)
    quotient = np.empty_like(product)
    for c0 in range(0, width, rows):
        c1 = min(c0 + rows, width)
        c = np.arange(c0, c1, dtype=np.int64)
        row = (c - c0) * (q + 1)  # rows of q + 1 columns; the last holds 0
        s0, s1 = start[c0], start[c1 - 1] + count[c1 - 1]
        # the steps of each row: C_c at column 0, count at rl + 1, -1 at each
        # rh + 1 and -C_c at column q, so every row sums to 0 and one running
        # sum over the block restarts at each row
        at = np.concatenate((row, row + (c - 1) % q + 1, row + q,
                             np.repeat(row, count[c0:c1]) + rh_col[s0:s1]))
        step = np.concatenate((C[c0:c1], count[c0:c1], -C[c0:c1], np.full(s1 - s0, -1.0)))
        order = np.argsort(at, kind="stable")
        at = at[order]
        level = np.concatenate(([0.0], np.cumsum(step[order])))
        weights = np.repeat(level, np.diff(at, prepend=0, append=len(c) * (q + 1)))
        idx = np.multiply(c[:, None], r, out=product[: len(c)])
        quo = np.floor_divide(idx, q, out=quotient[: len(c)])  # not %: numpy
        quo *= q  # divides by a scalar faster than it takes a remainder
        idx -= quo
        buckets += np.bincount(idx.ravel(), weights=weights, minlength=q)
    S = 2 * buckets.astype(np.int64)
    e = np.arange(1, D + 1, dtype=np.int64)
    np.subtract.at(S, e * e % q, 1)
    return S


def _hyperbola_max_q(X: int) -> int:
    """Largest q for which method="auto" takes the hyperbola route."""
    # Fitted costs on 2 cores with numpy 2.4: hyperbola spends 4-7 ns per
    # (class, residue) entry, min(q, isqrt(X)) q of them; naive 1.8-5 ns per
    # n <= X, the per-divisor loop growing with isqrt(X).  From medians of
    # 3-41 alternating runs of the two at primes q between 0.45 and 1.3
    # isqrt(X), they took equal time near q = 0.59 isqrt(X) at X = 1e5, 0.62
    # (1e6), 0.69 (1e7), 0.87 (1e8), 0.88 (3e8) and 1.1 (1e9); this bound is
    # isqrt(X) times 0.53, 0.63, 0.75, 0.84, 0.91 and 0.94 there.  At 1e4
    # hyperbola stays faster up to q near 1.6 isqrt(X), both under 0.2 ms.
    return math.isqrt(X) * X.bit_length() // 32


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
    # Fitted on 2 cores with numpy 2.4: the pairs cost 4.5-6.5 ns per
    # (residue, d) pair, d <= isqrt(X) prime to q, so the bounds divide by
    # the count U of those d.  In medians of 7-21 alternating runs, pairs
    # fitted linearly in A, the naive vector took equal time near A = 161
    # at (1e5, 2153), 320 at (1e6, 9973), 1399 at (1e7, 46411) and 8500 at
    # (1e7, 720720), where only 605 of the 3162 d are prime to q, against
    # bounds 126, 400, 1265 and 6611 here.  The hyperbola vector,
    # O(q min(q, isqrt(X))), took equal time near A = 0.8-1.0 q
    # min(q, isqrt(X)) / U: 39 at (1e6, 199), 167 at (1e6, 449), 62
    # at (1e7, 463) and 1030 at (1e7, 2003), against 35, 181, 61 and 1142.
    D = math.isqrt(X)
    U = int(count_units(q, D))
    if q <= _hyperbola_max_q(X):
        return 9 * q * min(q, D) // (10 * U)
    return 2 * X // (5 * U)


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
    a, where = np.unique(reduced_mod(residues, q), return_inverse=True)
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
