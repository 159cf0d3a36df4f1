"""Main terms, error terms, and their averages over residue sets.

For the divisor sum S(X; a, q) the expected size is

    M(X; a, q) = (X/q) * P(log X; q, a),
    P(T; q, a) = sum_{d | q} (r_d(a)/d) * (T - 2 log d + 2 gamma - 1),

with r_d the Ramanujan sum and gamma Euler's constant, hard-coded below to
twenty digits so nothing here depends on a special-function library.  The
error term is R = S - M with S exact from the sieve module.  When
gcd(a, q) = 1 the polynomial collapses to the closed form

    M = (phi(q)/q^2) X (log X + 2 gamma - 1) - (2X/q) sum_{d|q} mu(d) log d / d,

kept here as an independent route for the tests.

Averages over a residue set A of reduced residues:

    D(X; A, q) = sum |R|,   E(X; A, q) = sum R,

take R at the members of A only (error_set): S from the sieve module's set
route, and M, the same for every reduced residue, from the class gcd = 1 of
the vector's main term, so a small set builds no length-q array; error_sums
adds them up.  The exceptional set collects the a in [1, p-1] whose signed
R reaches X^(1/3 - kappa).  Interval sets mean {B+1, ..., B+A} reduced
mod q, with the non-reduced members dropped and counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import (
    _squarefree_divisors, divisors, euler_phi, factorize, is_prime, mobius, ramanujan_sum,
)
from .bessel import EULER_GAMMA
from .errors import InvalidRange, NotPrime
from .tausieve import divisor_sum_progressions, progression_sum_single, progression_sums_set


@dataclass(frozen=True)
class MainTermPolynomial:
    """P(T; q, a) = c1*T + c0, with the per-divisor terms kept for audit."""

    q: int
    a: int
    divisor_terms: tuple[tuple[int, int], ...]  # (d, r_d(a)) for d | q
    c1: float
    c0: float

    @classmethod
    def build(cls, q: int, a: int) -> "MainTermPolynomial":
        if q < 2:
            raise InvalidRange(f"need q >= 2, got {q}")
        a %= q
        terms = tuple((d, ramanujan_sum(d, a)) for d in divisors(q))
        c1 = math.fsum(r / d for d, r in terms)
        c0 = math.fsum(r / d * (2 * EULER_GAMMA - 1 - 2 * math.log(d)) for d, r in terms)
        return cls(q=q, a=a, divisor_terms=terms, c1=c1, c0=c0)

    def evaluate(self, T: float) -> float:
        return self.c1 * T + self.c0

    def evaluate_term_by_term(self, T: float) -> float:
        """The defining double sum, no coefficient collection (audit route)."""
        return math.fsum(
            r / d * (T - 2 * math.log(d) + 2 * EULER_GAMMA - 1) for d, r in self.divisor_terms
        )


def main_term(X: int, q: int, a: int) -> float:
    """M(X; a, q) = (X/q) P(log X; q, a)."""
    if X < 1:
        raise InvalidRange(f"need X >= 1, got {X}")
    return X / q * MainTermPolynomial.build(q, a).evaluate(math.log(X))


def main_term_coprime(X: int, q: int) -> float:
    """Closed form of M for gcd(a, q) = 1; independent of a."""
    _check_main_term_args(X, q)
    phi = euler_phi(q)
    tail = math.fsum(mobius(d) * math.log(d) / d for d in divisors(q))
    return phi / q**2 * X * (math.log(X) + 2 * EULER_GAMMA - 1) - 2 * X / q * tail


def _check_main_term_args(X: int, q: int) -> None:
    if X < 1 or q < 2:
        raise InvalidRange(f"need X >= 1 and q >= 2, got {X}, {q}")


def _divisor_sums(X: int, q: int, divs: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending divisors and X/q sum_d (r_d/d)(log X - 2 log d + 2 gamma - 1) per row of r.

    The columns of r follow divs, in any order; the d-sum is accumulated
    along ascending d, one term after another, the order the scalar
    polynomial uses.
    """
    T = math.log(X)
    order = np.argsort(divs)
    divs, r = divs[order], r[..., order]
    weight = np.array([T - 2 * math.log(d) + 2 * EULER_GAMMA - 1 for d in divs.tolist()])
    terms = r / divs
    terms *= weight
    M = np.add.accumulate(terms, axis=-1, out=terms)[..., -1]
    return divs, X / q * M


def _class_main_terms(X: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted divisors g of q and M(X; a, q) for the class gcd(a, q) = g.

    r_d(a) depends on a only through g = gcd(a, q), and it is multiplicative
    in d: for p^e || q, d = p^a d' and g = p^b g', the factor is
    c_{p^a}(p^b) = 1 if a = 0, phi(p^a) if b >= a, -p^(a-1) if b = a - 1 and
    0 otherwise.  So the table r[g, d] is the Kronecker product of one
    (e + 1) x (e + 1) table per prime power, its rows then put in ascending
    order.  Every reduced residue takes the first value, the class g = 1.
    """
    _check_main_term_args(X, q)
    divs = np.ones(1, dtype=np.int64)
    r = np.ones((1, 1), dtype=np.int64)
    for p, e in factorize(q):
        c = np.zeros((e + 1, e + 1), dtype=np.int64)  # c[b, a] = c_{p^a}(p^b)
        c[:, 0] = 1
        for a in range(1, e + 1):
            c[a:, a] = p**a - p ** (a - 1)
            c[a - 1, a] = -(p ** (a - 1))
        divs = np.multiply.outer(divs, [p**a for a in range(e + 1)]).ravel()
        r = (r[:, None, :, None] * c[None, :, None, :]).reshape(len(divs), len(divs))  # kron(r, c)
    return _divisor_sums(X, q, divs, r[np.argsort(divs)])


def main_term_vector(X: int, q: int) -> np.ndarray:
    """M(X; a, q) for all residues a = 0..q-1 at once.

    The classes are written by divisor strides: gcd(a, q) is the largest
    divisor of q that divides a, so writing the value of each divisor g to
    every g-th residue, in ascending g, leaves the value of gcd(a, q) at a.
    That is sigma(q)/q writes per residue, and no gcd is taken.
    """
    divs, V = _class_main_terms(X, q)
    out = np.full(q, V[0])
    for g, v in zip(divs[1:].tolist(), V[1:].tolist()):
        out[::g] = v
    return out


@dataclass(frozen=True)
class ErrorTermRecord:
    X: int
    q: int
    a: int
    S: int
    M: float
    R: float


def error_term(X: int, q: int, a: int) -> ErrorTermRecord:
    """R(X; a, q) = S - M for a single residue."""
    a %= q
    S = progression_sum_single(X, q, a)
    M = main_term(X, q, a)
    return ErrorTermRecord(X=X, q=q, a=a, S=S, M=M, R=S - M)


@dataclass(frozen=True)
class ErrorVector:
    """S, M, R for every residue class mod q at a single X."""

    X: int
    q: int
    S: np.ndarray
    M: np.ndarray
    R: np.ndarray


def error_vector(X: int, q: int) -> ErrorVector:
    S = divisor_sum_progressions(X, q).sums
    M = main_term_vector(X, q)
    return ErrorVector(X=X, q=q, S=S, M=M, R=S - M)


def interval_residues(q: int, B: int, A: int) -> tuple[list[int], int]:
    """{B+1, ..., B+A} reduced mod q, filtered to reduced residues.

    Returns (residues, dropped), dropped counting the non-reduced members.
    """
    if A < 1 or B < 0:
        raise InvalidRange(f"need A >= 1 and B >= 0, got A = {A}, B = {B}")
    out = []
    dropped = 0
    for n in range(B + 1, B + A + 1):
        a = n % q
        if math.gcd(a, q) == 1:
            out.append(a)
        else:
            dropped += 1
    return out, dropped


def reduced_main_term(X: int, q: int) -> float:
    """M(X; a, q) at every reduced residue a: main_term_vector's class gcd = 1.

    The same float as main_term_vector(X, q)[a] for gcd(a, q) = 1, with no
    length-q array (main_term_coprime is the closed form, a separate route).
    The row g = 1 of _class_main_terms' table is r_d(1) = mu(d); the
    non-squarefree d, where mu(d) = 0, only add +-0.0 to the d-sum.
    """
    _check_main_term_args(X, q)
    return float(_divisor_sums(X, q, *_squarefree_divisors(q))[1])


def error_set(X: int, q: int, residues: list[int]) -> np.ndarray:
    """R(X; a, q) at each reduced residue a in residues, in order, repeats kept.

    S comes from progression_sums_set, which counts pairs for a small set and
    reads a large one off the whole vector; a non-reduced residue raises
    NonReducedResidue.  M is reduced_main_term, so each R is the same float
    as error_vector(X, q).R[a].  The interval and set sweeps and the CLI's
    voronoi-check read R here; the CLI's errors takes S and M from the same
    two functions, to print both.
    """
    M = reduced_main_term(X, q)  # first: it refuses q < 2 cheaply
    return progression_sums_set(X, q, residues) - M


def error_sums(R: np.ndarray) -> tuple[float, float]:
    """(D, E) = (sum |R|, sum R), each correctly rounded."""
    vals = R.tolist()
    return math.fsum(map(abs, vals)), math.fsum(vals)


def exceptional_threshold(X: int, kappa: float) -> float:
    """X^(1/3 - kappa), the size of R that makes a residue exceptional."""
    return X ** (1 / 3 - kappa)


def exceptional_members(R: np.ndarray, X: int, kappa: float) -> list[int]:
    """Residues a in [1, len(R) - 1] with R[a] >= X^(1/3 - kappa)."""
    return (np.flatnonzero(R[1:] >= exceptional_threshold(X, kappa)) + 1).tolist()


def exceptional_set(X: int, p: int, kappa: float) -> list[int]:
    """Residues a in [1, p-1] with signed R(X; a, p) >= X^(1/3 - kappa)."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if not 0 < kappa < 1 / 3:
        raise InvalidRange(f"need kappa in (0, 1/3), got {kappa}")
    if p > X:
        raise InvalidRange(f"need p <= X, got p = {p}, X = {X}")
    return exceptional_members(error_vector(X, p).R, X, kappa)
