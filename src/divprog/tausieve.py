"""Windowed divisor-function sieve and divisor sums over progressions.

tau(n) counts divisors.  The sieve marks a window [start, start+len) by
walking divisors d and bumping every multiple; symmetry d <-> n/d means we
only walk d <= sqrt(n), add 2 per pair, and correct perfect squares by 1.
Everything is exact int64 / uint32.

S(X; a, q) = sum of tau(n) over n <= X, n = a mod q comes in three exact
routes that the tests play against each other:

  * naive: sieve tau on [1, X] in cache-sized segments whose length is a
    multiple of q, and sum each segment's (rows, q) view down its columns,
  * hyperbola: count lattice points dm <= X with dm = a mod q per residue
    class in O(sqrt(X) * q) without materializing tau,
  * single: same counting for one residue only, O(sqrt(X)) modular solves.

The identity sum_a S(X; a, q) = sum_{n<=X} tau(n), with the right side
computed by the classical 2*sum floor(X/d) - floor(sqrt(X))^2 formula, is
the row-sum check every route must pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRange, WindowTooLarge

DEFAULT_MEMORY_BUDGET = 2 * 2**30  # bytes
_WINDOW_CAP = 2**40  # windows must sit below this
_SEGMENT = 1 << 19  # target tau entries per naive-route segment (2 MiB of uint32)


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


def sieve_tau(start: int, length: int, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> TauTable:
    """Exact tau on [start, start+length), deep windows allowed."""
    if start < 1 or length < 1:
        raise InvalidRange(f"need start >= 1 and length >= 1, got {start}, {length}")
    end = start + length
    if end > _WINDOW_CAP:
        raise InvalidRange(f"window reaches {end}, beyond the {_WINDOW_CAP} cap")
    if 4 * length > memory_budget:
        raise WindowTooLarge(f"window of {length} entries exceeds {memory_budget} byte budget")
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


def _column_sums(values: np.ndarray, q: int) -> np.ndarray:
    """Sums of values[i] over i = c mod q, for c = 0..q-1, in int64."""
    full = len(values) - len(values) % q
    cols = values[:full].reshape(-1, q).sum(axis=0, dtype=np.int64)
    cols[: len(values) - full] += values[full:]
    return cols


def _progressions_naive(X: int, q: int, memory_budget: int) -> np.ndarray:
    # Segments are whole multiples of q, so every segment starts at n = 1 mod q
    # and column c of each segment holds n = 1 + c mod q.  Each segment's tau
    # is a temporary, freed before the next one is sieved.
    seg = q * max(1, min(_SEGMENT, memory_budget // 4) // q)
    cols = np.zeros(q, dtype=np.int64)
    for start in range(1, X + 1, seg):
        cols += _column_sums(sieve_tau(start, min(seg, X - start + 1), memory_budget).values, q)
    return np.roll(cols, 1)


def _progressions_hyperbola(X: int, q: int) -> np.ndarray:
    # Every partial bucket sum is an integer no larger than sum_{n<=X} tau(n)
    # < X (log X + 1) < 2^45 for X < _WINDOW_CAP = 2^40, so float64 (exact
    # to 2^53) adds the bincount weights without rounding.
    r = np.arange(q, dtype=np.int64)
    buckets = np.zeros(q, dtype=np.float64)
    D = math.isqrt(X)
    for d in range(1, D + 1):
        hi = X // d
        cnt = (hi - r) // q - (d - 1 - r) // q
        idx = d * r % q
        buckets += np.bincount(idx, weights=cnt.astype(np.float64), minlength=q)
    S = 2 * buckets.astype(np.int64)
    e = np.arange(1, D + 1, dtype=np.int64)
    np.subtract.at(S, e * e % q, 1)
    return S


def divisor_sum_progressions(
    X: int,
    q: int,
    method: str = "auto",
    memory_budget: int = DEFAULT_MEMORY_BUDGET,
) -> ProgressionSumVector:
    """All S(X; a, q) at once.  method in {auto, naive, hyperbola}."""
    if X < 1:
        raise InvalidRange(f"need X >= 1, got {X}")
    if q < 1 or q > X:
        raise InvalidRange(f"need 1 <= q <= X, got q = {q}, X = {X}")
    if X >= _WINDOW_CAP:
        raise InvalidRange(f"need X < {_WINDOW_CAP}, got {X}")
    if method == "auto":
        # Fitted costs: hyperbola makes isqrt(X) passes over q buckets at about
        # 1.2e-8 s per bucket plus a fixed 700 buckets' worth per pass; naive
        # costs about 2x that per sieved entry (1.3x at X = 1e5, 3x at 3e7, as
        # the sieve's per-divisor loop grows with isqrt(X)).  On 2 cores with
        # numpy 2.4 this picks the faster route on every rung q ~ X^(2/3) and
        # on (1e7, 463), where hyperbola wins about 10x.
        method = "hyperbola" if math.isqrt(X) * (q + 700) <= 2 * X else "naive"
    if method == "naive":
        sums = _progressions_naive(X, q, memory_budget)
    elif method == "hyperbola":
        sums = _progressions_hyperbola(X, q)
    else:
        raise ValueError(f"unknown method {method!r}")
    return ProgressionSumVector(X=X, q=q, sums=sums)


def progression_sum_single(X: int, q: int, a: int) -> int:
    """S(X; a, q) for one residue in O(sqrt(X)) time, O(1) space."""
    if X < 1:
        raise InvalidRange(f"need X >= 1, got {X}")
    if q < 1 or q > X:
        raise InvalidRange(f"need 1 <= q <= X, got q = {q}, X = {X}")
    a %= q
    total = 0
    D = math.isqrt(X)
    for d in range(1, D + 1):
        g = math.gcd(d, q)
        if a % g:
            continue
        qq = q // g
        m0 = (a // g) * pow(d // g, -1, qq) % qq if qq > 1 else 0
        hi = X // d
        total += 2 * ((hi - m0) // qq - (d - 1 - m0) // qq)
    # remove the double-counted diagonal d = m
    e = np.arange(1, D + 1, dtype=np.int64)
    total -= int(np.count_nonzero(e * e % q == a))
    return total
