"""Bilinear Kloosterman sums over shifted intervals, and empirical exponents.

For intervals I = {B+1, ..., B+A} and J = {M+1, ..., M+N} inside [1, d-1]
and weights |alpha_a| <= 1, |nu_n| <= 1:

    S_d(alpha, nu; I, J) = sum_{a in I} sum_{n in J} alpha_a nu_n K_d(n, a).

Two evaluation routes:

  * brute force, any alpha: T(x) = sum_n nu_n e_d(n x) on every x, then
    sum_x T(x) e_d(a xbar) for each a in I, both as s x s contractions with
    no FFT (s = isqrt(d - 1) + 1: phase_grid and the direct unit_sums of
    kloosterman.py).  Scratch: two grids of 16 s^2 bytes, about 32 d in
    all, more than the evaluator's own 8 bytes per unit (plus 16 d of
    twiddle table for d <= TWIDDLE_CAP),
  * for alpha identically 1, the collapsed kernel
        sum_{x in (Z/d)^*} T(x) G_I(xbar),   G_I(y) = sum_{a in I} e_d(ay),
    where T(x) = sum_n nu_n e_d(nx) comes from one length-d inverse DFT
    and sum_x T(x) e_d(a xbar), for every a at once, from one more.

The reference bounds these sums are measured against:

  * initial-interval, prime modulus, general alpha:
        (A N^(1/2) p^(1/2) + A^(13/16) N^(13/16) p^(43/64)) * p^o(1),
    valid when p^(1/4) <= AN <= p^(5/4) and N <= A p^(1/4); the side
    conditions act as measurement filters here, never as preconditions,
  * any modulus, alpha == 1:
        N^(3/4) (A^(1/8) d + A^(1/2) d^(3/4)) * d^o(1).

exponent_fit regresses log|S| on (log A, log N, log d) and reports the
worst observed ratio against each bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InsufficientSpread, IntervalOutOfRange, InvalidRange
from .kloosterman import _evaluator


def _check_interval(d: int, B: int, length: int, name: str) -> None:
    if length < 1 or B < 0 or B + length > d - 1:
        raise IntervalOutOfRange(
            f"{name} = {{{B + 1}, ..., {B + length}}} must sit inside [1, {d - 1}]"
        )


@dataclass(frozen=True)
class BilinearInstance:
    """One sum specification: modulus, the two intervals, the two weights."""

    d: int
    I: tuple[int, int]  # (B, A): residues B+1 .. B+A
    J: tuple[int, int]  # (M, N): residues M+1 .. M+N
    alpha: np.ndarray = field(repr=False)
    nu: np.ndarray = field(repr=False)

    def __post_init__(self):
        B, A = self.I
        M, N = self.J
        _check_interval(self.d, B, A, "I")
        _check_interval(self.d, M, N, "J")
        alpha = np.asarray(self.alpha, dtype=np.complex128)
        nu = np.asarray(self.nu, dtype=np.complex128)
        if alpha.shape != (A,) or nu.shape != (N,):
            raise InvalidRange(f"weights must have shapes ({A},) and ({N},)")
        if np.abs(alpha).max() > 1 + 1e-12 or np.abs(nu).max() > 1 + 1e-12:
            raise InvalidRange("weight magnitudes must not exceed 1")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "nu", nu)


def bilinear_sum(inst: BilinearInstance) -> complex:
    """Brute-force evaluation: the defining double sum over the unit group, no FFT."""
    ev = _evaluator(inst.d)
    B, A = inst.I
    M, N = inst.J
    T = ev.phase_grid(inst.nu, np.arange(M + 1, M + N + 1, dtype=np.int64))
    I = np.arange(B + 1, B + A + 1, dtype=np.int64)
    return complex(inst.alpha @ ev.unit_sums(T[ev.units], I, "direct"))


def bilinear_sum_unweighted_a(inst: BilinearInstance) -> complex:
    """Fast route for alpha == 1: two length-d DFTs."""
    if not np.allclose(inst.alpha, 1.0, rtol=0, atol=1e-12):
        raise InvalidRange("fast path requires alpha identically 1")
    ev = _evaluator(inst.d)
    d = inst.d
    B, A = inst.I
    M, N = inst.J
    padded = np.zeros(d, dtype=np.complex128)
    padded[M + 1 : M + N + 1] = inst.nu  # J sits inside [1, d - 1]
    T = d * np.fft.ifft(padded)  # T[x] = sum_n nu_n e_d(n x)
    I = np.arange(B + 1, B + A + 1, dtype=np.int64)
    return complex(ev.unit_sums(T[ev.units], I, "fft").sum())


def bilinear_bound_initial_interval(A: int, N: int, p: int) -> float:
    """Reference bound for prime modulus, general weights, J = {1..N}."""
    return A * math.sqrt(N) * math.sqrt(p) + A ** (13 / 16) * N ** (13 / 16) * p ** (43 / 64)


def initial_interval_conditions(A: int, N: int, p: int) -> bool:
    """Side conditions under which the initial-interval bound applies."""
    return p ** 0.25 <= A * N <= p ** 1.25 and N <= A * p ** 0.25


def bilinear_bound_general(A: int, N: int, d: int) -> float:
    """Reference bound for any modulus, alpha == 1."""
    return N ** 0.75 * (A ** 0.125 * d + math.sqrt(A) * d ** 0.75)


@dataclass(frozen=True)
class Measurement:
    A: int
    N: int
    d: int
    abs_value: float
    initial_interval: bool = True  # J started at 1 (comparison caveat otherwise)


@dataclass(frozen=True)
class ExponentFit:
    exponents: tuple[float, float, float, float]  # (const, A, N, d)
    ratio_initial_interval: float | None
    ratio_general: float
    n_measurements: int
    n_in_conditions: int


def _dyadic_spread(values: Sequence[int]) -> int:
    return len({v.bit_length() for v in values})


def exponent_fit(measurements: Sequence[Measurement]) -> ExponentFit:
    """Least-squares exponents for |S| ~ C A^a N^b d^c, plus bound ratios.

    Needs at least 8 measurements spanning at least 2 dyadic ranges in
    each of A, N, d.  Zero measurements are dropped from the regression
    (log undefined) but still counted for ratios.
    """
    if len(measurements) < 8:
        raise InsufficientSpread(f"need >= 8 measurements, got {len(measurements)}")
    for attr in ("A", "N", "d"):
        if _dyadic_spread([getattr(m, attr) for m in measurements]) < 2:
            raise InsufficientSpread(f"measurements span a single dyadic range in {attr}")
    rows = [m for m in measurements if m.abs_value > 0]
    X = np.array([[1.0, math.log(m.A), math.log(m.N), math.log(m.d)] for m in rows])
    y = np.array([math.log(m.abs_value) for m in rows])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    in_cond = [
        m
        for m in measurements
        if m.initial_interval and initial_interval_conditions(m.A, m.N, m.d)
    ]
    ratio21 = (
        max(m.abs_value / bilinear_bound_initial_interval(m.A, m.N, m.d) for m in in_cond)
        if in_cond
        else None
    )
    ratio22 = max(m.abs_value / bilinear_bound_general(m.A, m.N, m.d) for m in measurements)
    return ExponentFit(
        exponents=tuple(float(c) for c in coef),
        ratio_initial_interval=ratio21,
        ratio_general=ratio22,
        n_measurements=len(measurements),
        n_in_conditions=len(in_cond),
    )
