import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from divprog.bessel import bessel_k0, bessel_k1, bessel_y0, bessel_y1, y0_envelope


def _mp_bessel(fn, order: int, x: float) -> float:
    """fn(order, x) from mpmath at 30 digits, rounded to a float."""
    with mpmath.workdps(30):
        return float(fn(order, mpmath.mpf(x)))

# K0, K1: Chebyshev (2, 5] -> (5, 17], then the asymptotic bands
K_SWITCHOVERS = (5.0, 17.0, 25.0, 50.0, 100.0, 200.0)


def test_spot_values_twenty_digits():
    assert abs(bessel_k0(1.0) - 0.42102443824070834) < 1e-15
    assert abs(bessel_y0(1.0) - 0.08825696421567696) < 1e-15


def test_k0_against_mpmath_sweep():
    xs = np.concatenate([
        np.linspace(0.01, 1.99, 40),
        np.linspace(2.0, 8.0, 40),       # Chebyshev routes (2, 5] and (5, 17]
        np.linspace(8.0, 120.0, 60),     # Chebyshev to 17, then asymptotic bands
        np.linspace(120.0, 699.0, 30),
    ])
    for x in xs:
        want = _mp_bessel(mpmath.besselk, 0, float(x))
        got = bessel_k0(float(x))
        assert abs(got - want) <= 5e-13 * abs(want), x


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
        env = max(float(y0_envelope(max(x, 1e-3))), abs(want))
        assert abs(got - want) <= 5e-13 * env, x


def test_against_scipy_as_second_oracle():
    xs = np.geomspace(0.05, 500, 200)
    k_ours = bessel_k0(xs)
    y_ours = bessel_y0(xs)
    assert np.allclose(k_ours, sp.k0(xs), rtol=1e-11, atol=1e-300)
    env = np.sqrt(2 / (np.pi * xs))
    assert np.max(np.abs(y_ours - sp.y0(xs)) / env) < 1e-11


def test_route_switchovers_are_continuous():
    for cut in (2.0, 8.0, 17.0):
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


def test_y0_envelope_formula():
    for x in (1.0, 10.0, 123.0):
        assert math.isclose(y0_envelope(x), math.sqrt(2 / (math.pi * x)), rel_tol=1e-14)


# ------------------------------------------------------ K1, Y1 (by-parts kernels)

def test_order_one_spot_values():
    assert abs(bessel_k1(1.0) - 0.60190723019723457) < 1e-15
    assert abs(bessel_y1(1.0) - -0.78121282130028872) < 1e-15


def test_k1_against_mpmath_sweep():
    xs = np.concatenate([
        np.linspace(0.01, 1.99, 40),
        np.linspace(2.0, 8.0, 40),       # Chebyshev routes (2, 5] and (5, 17]
        np.linspace(8.0, 120.0, 60),     # Chebyshev to 17, then asymptotic bands
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
        env = max(float(y0_envelope(max(x, 1e-3))), abs(want))
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
    for cut in (8.0, 17.0):
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
