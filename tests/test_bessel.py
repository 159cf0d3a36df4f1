import inspect
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from divprog import bessel
from divprog.bessel import (
    _HANKEL_TAIL,
    _modulus_phase_coeffs,
    _truncation,
    bessel_k0,
    bessel_k1,
    bessel_y0,
    bessel_y1,
)


def _mp_bessel(fn, order: int, x: float) -> float:
    """fn(order, x) from mpmath at 30 digits, rounded to a float."""
    with mpmath.workdps(30):
        return float(fn(order, mpmath.mpf(x)))

# K0, K1: the trapezoid rule on (2, 17], then the asymptotic bands (17, 25] and
# (25, 700]; 5 checks continuity inside the trapezoid band, 50, 100 and 200
# inside the last band
K_SWITCHOVERS = (5.0, 17.0, 25.0, 50.0, 100.0, 200.0)
# Y0, Y1: series -> Chebyshev (8, 17] -> modulus-phase bands (17, 25] and (25, inf)
Y_SWITCHOVERS = (8.0, 17.0, 25.0)


def test_spot_values_twenty_digits():
    assert abs(bessel_k0(1.0) - 0.42102443824070834) < 1e-15
    assert abs(bessel_y0(1.0) - 0.08825696421567696) < 1e-15


def test_k0_against_mpmath_sweep():
    xs = np.concatenate([
        np.linspace(0.01, 1.99, 40),
        np.linspace(2.0, 8.0, 40),       # the trapezoid rule on (2, 17]
        np.linspace(8.0, 120.0, 60),     # the trapezoid rule to 17, then asymptotic bands
        np.linspace(25.0, 50.0, 40),     # where the voronoi integrals take K1
        np.linspace(120.0, 699.0, 30),
    ])
    for x in xs:
        want = _mp_bessel(mpmath.besselk, 0, float(x))
        got = bessel_k0(float(x))
        assert abs(got - want) <= 5e-13 * abs(want), x


def test_k_trapezoid_band_to_double_precision():
    # the band (2, 17] of the trapezoid rule, ends included
    xs = np.concatenate([[2.0 + 1e-12, 2.0 + 1e-9], np.linspace(2.0, 17.0, 58)[1:-1],
                         [17.0 - 1e-9, 17.0]])
    assert len(xs) == 60
    for order, fn in ((0, bessel_k0), (1, bessel_k1)):
        got = fn(xs)
        for x, g in zip(xs, got):
            want = _mp_bessel(mpmath.besselk, order, float(x))
            assert abs(g - want) <= 1e-15 * want, (order, x)


@pytest.mark.parametrize("order", [0, 1])
def test_y_tables_are_what_the_generator_prints(order):
    script = Path(__file__).resolve().parents[1] / "demos" / "generate_bessel_table.py"
    out = subprocess.run([sys.executable, str(script), str(order), "8", "17"],
                         capture_output=True, text=True, check=True).stdout
    table = out[out.index("np.array(["):]
    assert f"_Y{order}_CHEBYSHEV = {table}" in inspect.getsource(bessel)


def test_k0_underflow_region_returns_zero():
    # exp(-700) ~ 1e-305; beyond the cut the function returns exact 0
    assert bessel_k0(701.0) == 0.0
    assert bessel_k0(10_000.0) == 0.0


def test_k0_asymptotic_shape():
    # sqrt(x) e^x K0(x) -> sqrt(pi/2)
    for x in (50.0, 200.0, 600.0):
        val = bessel_k0(x) * math.sqrt(x) * math.exp(x)
        assert abs(val - math.sqrt(math.pi / 2)) < 0.01


def test_y0_against_mpmath_envelope_relative():
    # near zeros relative error is meaningless; measure against the
    # oscillation envelope sqrt(2/(pi x)) instead
    xs = np.concatenate([
        np.linspace(0.01, 7.99, 60),
        np.linspace(8.0, 17.0, 60),      # Chebyshev route
        np.linspace(17.0, 400.0, 80),
        np.linspace(400.0, 5000.0, 40),
    ])
    for x in xs:
        want = _mp_bessel(mpmath.bessely, 0, float(x))
        got = bessel_y0(float(x))
        env = max(math.sqrt(2 / (math.pi * max(x, 1e-3))), abs(want))
        assert abs(got - want) <= 5e-13 * env, x


def test_against_scipy_as_second_oracle():
    xs = np.geomspace(0.05, 500, 200)
    k_ours = bessel_k0(xs)
    y_ours = bessel_y0(xs)
    assert np.allclose(k_ours, sp.k0(xs), rtol=1e-11, atol=1e-300)
    env = np.sqrt(2 / (np.pi * xs))
    assert np.max(np.abs(y_ours - sp.y0(xs)) / env) < 1e-11


def test_route_switchovers_are_continuous():
    for cut in (2.0,) + Y_SWITCHOVERS:
        lo = bessel_y0(cut - 1e-9) if cut > 2 else bessel_k0(cut - 1e-9)
        hi = bessel_y0(cut + 1e-9) if cut > 2 else bessel_k0(cut + 1e-9)
        assert abs(hi - lo) < 1e-8, cut
    for cut in K_SWITCHOVERS:  # relative: K0 is tiny at the far bands
        lo, hi = bessel_k0(cut - 1e-9), bessel_k0(cut + 1e-9)
        assert abs(hi - lo) < 1e-8 * lo, cut


def test_vectorized_matches_scalar():
    xs = np.array([0.5, 3.0, 9.0, 25.0, 650.0, 800.0])
    kv = bessel_k0(xs)
    yv = bessel_y0(xs)
    for i, x in enumerate(xs):
        assert kv[i] == bessel_k0(float(x))
        assert yv[i] == bessel_y0(float(x))
    assert isinstance(bessel_k0(1.5), float)


def test_domain_validation():
    with pytest.raises(ValueError):
        bessel_k0(0.0)
    with pytest.raises(ValueError):
        bessel_y0(-1.0)
    with pytest.raises(ValueError):
        bessel_k0(np.array([1.0, -2.0]))


# ------------------------------------------------------ K1, Y1 (by-parts kernels)

def test_order_one_spot_values():
    assert abs(bessel_k1(1.0) - 0.60190723019723457) < 1e-15
    assert abs(bessel_y1(1.0) - -0.78121282130028872) < 1e-15


def test_k1_against_mpmath_sweep():
    xs = np.concatenate([
        np.linspace(0.01, 1.99, 40),
        np.linspace(2.0, 8.0, 40),       # the trapezoid rule on (2, 17]
        np.linspace(8.0, 120.0, 60),     # the trapezoid rule to 17, then asymptotic bands
        np.linspace(25.0, 50.0, 40),     # where the voronoi integrals take K1
        np.linspace(120.0, 699.0, 30),
    ])
    for x in xs:
        want = _mp_bessel(mpmath.besselk, 1, float(x))
        got = bessel_k1(float(x))
        assert abs(got - want) <= 5e-13 * abs(want), x
    assert bessel_k1(701.0) == 0.0


def test_y1_against_mpmath_envelope_relative():
    xs = np.concatenate([
        np.linspace(0.01, 7.99, 60),
        np.linspace(8.0, 17.0, 60),      # Chebyshev route
        np.linspace(17.0, 400.0, 80),
        np.linspace(400.0, 5000.0, 40),
    ])
    for x in xs:
        want = _mp_bessel(mpmath.bessely, 1, float(x))
        got = bessel_y1(float(x))
        env = max(math.sqrt(2 / (math.pi * max(x, 1e-3))), abs(want))
        assert abs(got - want) <= 5e-13 * env, x


def test_order_one_against_scipy_as_second_oracle():
    xs = np.geomspace(0.05, 500, 200)
    assert np.allclose(bessel_k1(xs), sp.k1(xs), rtol=1e-11, atol=1e-300)
    env = np.sqrt(2 / (np.pi * xs))
    assert np.max(np.abs(bessel_y1(xs) - sp.y1(xs)) / np.maximum(env, np.abs(sp.y1(xs)))) < 1e-11


def test_order_one_route_switchovers_are_continuous():
    assert abs(bessel_k1(2.0 + 1e-9) - bessel_k1(2.0 - 1e-9)) < 1e-8
    for cut in K_SWITCHOVERS:
        lo, hi = bessel_k1(cut - 1e-9), bessel_k1(cut + 1e-9)
        assert abs(hi - lo) < 1e-8 * lo, cut
    for cut in Y_SWITCHOVERS:
        assert abs(bessel_y1(cut + 1e-9) - bessel_y1(cut - 1e-9)) < 1e-8, cut


def test_order_one_vectorized_matches_scalar():
    xs = np.array([0.5, 3.0, 9.0, 25.0, 650.0, 800.0])
    kv = bessel_k1(xs)
    yv = bessel_y1(xs)
    for i, x in enumerate(xs):
        assert kv[i] == bessel_k1(float(x))
        assert yv[i] == bessel_y1(float(x))
    assert isinstance(bessel_y1(1.5), float)
    with pytest.raises(ValueError):
        bessel_k1(0.0)
    with pytest.raises(ValueError):
        bessel_y1(np.array([1.0, -2.0]))


# ------------------------------------------------- Y past x = 17: modulus and phase

def test_far_arguments_against_mpmath():
    # the phase is reduced mod 2 pi exactly, so far arguments keep the
    # accuracy of small ones
    xs = np.geomspace(5000.0, 1e6, 60)
    for order, fn in ((0, bessel_y0), (1, bessel_y1)):
        got = fn(xs)
        for x, g in zip(xs, got):
            want = _mp_bessel(mpmath.bessely, order, float(x))
            assert abs(g - want) <= 1e-13 * math.sqrt(2 / (math.pi * x)), (order, x)


def _series_mul(a: list, b: list, n: int) -> list:
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n)]


def _series_div(a: list, b: list, n: int) -> list:
    out = []
    for k in range(n):
        out.append((a[k] - sum(out[i] * b[k - i] for i in range(k))) / b[0])
    return out


def _exact_modulus_phase(order: int, n: int) -> tuple[list, list]:
    """The t^2k coefficients of P^2 + Q^2 and the t^(2k-1) ones of atan(Q/P), t = 1/x.

    P and Q are the two halves of the Hankel expansion (DLMF 10.17.3-4):
    P = sum_j (-1)^j a_2j t^2j, Q = sum_j (-1)^j a_(2j+1) t^(2j+1).
    """
    mu = 4 * order * order
    size = 2 * n + 2
    a = [Fraction(1)]
    for k in range(1, size):
        a.append(a[-1] * (mu - (2 * k - 1) ** 2) / (8 * k))
    P = [(-1) ** (k // 2) * a[k] if k % 2 == 0 else Fraction(0) for k in range(size)]
    Q = [(-1) ** (k // 2) * a[k] if k % 2 == 1 else Fraction(0) for k in range(size)]
    modulus = [p + q for p, q in zip(_series_mul(P, P, size), _series_mul(Q, Q, size))]
    u = _series_div(Q, P, size)  # odd, u = O(t)
    u2 = _series_mul(u, u, size)
    atan = [Fraction(0)] * size
    power = u
    for j in range(size // 2):  # atan u = sum_j (-1)^j u^(2j+1) / (2j+1)
        atan = [c + Fraction((-1) ** j, 2 * j + 1) * p for c, p in zip(atan, power)]
        power = _series_mul(power, u2, size)
    return modulus[0:2 * n:2], atan[1:2 * n:2]


def test_modulus_phase_tables_against_exact_series():
    # M^2 = (2/(pi x)) (P^2 + Q^2) and theta = x - (2 nu + 1) pi/4 + atan(Q/P)
    for order in (0, 1):
        m, s = _modulus_phase_coeffs(order)
        m_exact, atan_exact = _exact_modulus_phase(order, 8)
        for k in range(8):
            assert math.isclose(m[k], m_exact[k], rel_tol=1e-15), (order, k)
        for k in range(1, 8):
            phase = -s[k] / (2 * k - 1)  # theta's coefficient of x^(1-2k)
            assert math.isclose(phase, atan_exact[k - 1], rel_tol=1e-15), (order, k)


def test_truncation_rule():
    # at lo = 1 the term sizes are the coefficients themselves
    falling = [10.0 ** (-4 * k) for k in range(8)]
    assert 1e-16 > _HANKEL_TAIL > 1e-20
    assert _truncation(falling, 1.0, 1, 0) == tuple(falling[:5])  # up to 1e-16; 1e-20 is under the tail
    # a divergent series, term sizes 1, 0.1, 0.02, 0.01, 0.02, 0.5 at x = 10 in
    # powers x^-(2k+1), is cut before its first term that is no smaller than the last
    sizes = [1.0, 0.1, 0.02, 0.01, 0.02, 0.5]
    coeffs = [(-1) ** k * size * 10.0 ** (2 * k + 1) for k, size in enumerate(sizes)]
    assert _truncation(coeffs, 10.0, 2, 1) == tuple(coeffs[:4])
    # a series that keeps falling and stays above the tail is kept whole
    halving = [0.5 ** k for k in range(6)]
    assert _truncation(halving, 1.0, 1, 0) == tuple(halving)
