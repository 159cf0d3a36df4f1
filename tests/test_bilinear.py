import math

import numpy as np
import pytest

from divprog.bilinear import (
    BilinearInstance,
    Measurement,
    bilinear_bound_general,
    bilinear_bound_initial_interval,
    bilinear_sum,
    bilinear_sum_unweighted_a,
    exponent_fit,
    initial_interval_conditions,
)
from divprog.errors import InsufficientSpread, IntervalOutOfRange, InvalidRange
from divprog.kloosterman import kloosterman


def _reference(inst):
    """Triple loop against the scalar Kloosterman evaluator."""
    B, A = inst.I
    M, N = inst.J
    total = 0j
    for i, a in enumerate(range(B + 1, B + A + 1)):
        for j, n in enumerate(range(M + 1, M + N + 1)):
            total += inst.alpha[i] * inst.nu[j] * kloosterman(inst.d, n, a)
    return total


def _random_instance(rng, d, unweighted=False):
    A = int(rng.integers(1, d - 1))
    B = int(rng.integers(0, d - 1 - A))
    N = int(rng.integers(1, d - 1))
    M = int(rng.integers(0, d - 1 - N))
    alpha = np.ones(A) if unweighted else rng.uniform(-1, 1, A)
    nu = rng.uniform(-1, 1, N)
    return BilinearInstance(d=d, I=(B, A), J=(M, N), alpha=alpha, nu=nu)


def test_brute_matches_reference_small():
    rng = np.random.default_rng(5)
    for d in (3, 4, 7, 12, 25):
        inst = _random_instance(rng, d)
        got = bilinear_sum(inst)
        want = _reference(inst)
        assert abs(got - want) < 1e-8 * max(1.0, abs(want)), d


def test_brute_complex_weights_against_scalar_loop():
    # general complex alpha (no fast route) and nu, |weights| <= 1, at moduli
    # with s^2 = d (4, 9, 49) and with a padded grid
    rng = np.random.default_rng(9)
    for d in (2, 3, 4, 9, 10, 31, 49, 50, 97):
        for _ in range(3):
            A = int(rng.integers(1, d))
            N = int(rng.integers(1, d))
            B = int(rng.integers(0, d - A))
            M = int(rng.integers(0, d - N))
            alpha = rng.uniform(0, 1, A) * np.exp(2j * np.pi * rng.uniform(0, 1, A))
            nu = rng.uniform(0, 1, N) * np.exp(2j * np.pi * rng.uniform(0, 1, N))
            inst = BilinearInstance(d=d, I=(B, A), J=(M, N), alpha=alpha, nu=nu)
            want = _reference(inst)
            assert abs(bilinear_sum(inst) - want) < 1e-9 * max(1.0, abs(want)), (d, A, N)


def test_fast_matches_brute_exhaustive_moduli():
    rng = np.random.default_rng(6)
    for d in range(3, 102):
        inst = _random_instance(rng, d, unweighted=True)
        fast = bilinear_sum_unweighted_a(inst)
        brute = bilinear_sum(inst)
        assert abs(fast - brute) <= 1e-6 * max(1.0, abs(brute)), d


def test_fast_matches_brute_random_large():
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.integers(200, 10**4))
        inst = _random_instance(rng, d, unweighted=True)
        fast = bilinear_sum_unweighted_a(inst)
        brute = bilinear_sum(inst)
        assert abs(fast - brute) <= 1e-6 * max(1.0, abs(brute)), d


def test_singleton_intervals():
    d = 37
    inst = BilinearInstance(d=d, I=(4, 1), J=(10, 1), alpha=np.array([0.5]), nu=np.array([-1.0]))
    want = 0.5 * -1.0 * kloosterman(d, 11, 5)
    assert abs(bilinear_sum(inst) - want) < 1e-10


def test_full_interval_closure():
    # I = [1, d-1]: G_I(y) = -1 + d*[y = 0], so the collapsed kernel sums
    # nu against (d*[x = 0 over units] - 1) ... verified against brute force
    d = 53
    inst = BilinearInstance(d=d, I=(0, d - 2), J=(0, 10), alpha=np.ones(d - 2), nu=np.ones(10))
    assert abs(bilinear_sum_unweighted_a(inst) - bilinear_sum(inst)) < 1e-7


def test_linearity_in_nu():
    rng = np.random.default_rng(8)
    d = 61
    nu1 = rng.uniform(-0.5, 0.5, 12)
    nu2 = rng.uniform(-0.5, 0.5, 12)
    mk = lambda nu: BilinearInstance(d=d, I=(2, 9), J=(5, 12), alpha=np.ones(9), nu=nu)
    s12 = bilinear_sum_unweighted_a(mk(nu1 + nu2))
    s1 = bilinear_sum_unweighted_a(mk(nu1))
    s2 = bilinear_sum_unweighted_a(mk(nu2))
    assert abs(s12 - s1 - s2) < 1e-8


def test_fast_path_rejects_weighted_alpha():
    inst = BilinearInstance(d=11, I=(0, 3), J=(0, 3), alpha=np.array([1, 1, 0.5]), nu=np.ones(3))
    with pytest.raises(ValueError):
        bilinear_sum_unweighted_a(inst)


def test_fast_path_rejects_alpha_near_one():
    # alpha must be 1 to within an absolute 1e-12, with no relative slack;
    # 1 + 1e-6 is already refused by the weight bound |alpha| <= 1
    for a1 in (1 - 1e-6, 1 + 1e-6):
        with pytest.raises(InvalidRange):
            inst = BilinearInstance(d=101, I=(0, 3), J=(0, 3), alpha=[1, a1, 1], nu=np.ones(3))
            bilinear_sum_unweighted_a(inst)


def test_instance_validation():
    with pytest.raises(IntervalOutOfRange):
        # I reaches d
        BilinearInstance(d=10, I=(0, 10), J=(0, 2), alpha=np.ones(10), nu=np.ones(2))
    with pytest.raises(IntervalOutOfRange):
        BilinearInstance(d=10, I=(8, 2), J=(0, 2), alpha=np.ones(2), nu=np.ones(2))
    with pytest.raises(ValueError):
        BilinearInstance(d=10, I=(0, 2), J=(0, 2), alpha=np.ones(3), nu=np.ones(2))
    with pytest.raises(ValueError):
        BilinearInstance(d=10, I=(0, 2), J=(0, 2), alpha=np.array([2.0, 1.0]), nu=np.ones(2))


def test_bound_formulas_arithmetic():
    A, N, p = 32, 64, 997
    want21 = A * N**0.5 * p**0.5 + A ** (13 / 16) * N ** (13 / 16) * p ** (43 / 64)
    assert math.isclose(bilinear_bound_initial_interval(A, N, p), want21, rel_tol=1e-12)
    want22 = N**0.75 * (A**0.125 * p + A**0.5 * p**0.75)
    assert math.isclose(bilinear_bound_general(A, N, p), want22, rel_tol=1e-12)


def test_initial_interval_condition_edges():
    p = 625  # p^(1/4) = 5, p^(5/4) = 3125
    assert initial_interval_conditions(5, 1, p)       # AN = 5 at the lower edge
    assert not initial_interval_conditions(2, 2, p)   # AN = 4 below it
    assert not initial_interval_conditions(60, 60, p) # AN = 3600 above the upper
    assert not initial_interval_conditions(1, 6, p)   # N > A p^(1/4)


def test_exponent_fit_recovers_synthetic_law():
    meas = []
    for A in (8, 16, 32, 64):
        for N in (8, 32):
            for d in (128, 512):
                val = A**0.9 * N**0.55 * d**0.3
                meas.append(Measurement(A=A, N=N, d=d, abs_value=val))
    fit = exponent_fit(meas)
    c0, ea, en, ed = fit.exponents
    assert abs(c0) < 1e-9
    assert abs(ea - 0.9) < 1e-9
    assert abs(en - 0.55) < 1e-9
    assert abs(ed - 0.3) < 1e-9
    assert fit.n_measurements == 16
    assert fit.ratio_general > 0


def test_exponent_fit_spread_requirements():
    flat = [Measurement(A=8, N=8, d=101, abs_value=1.0)] * 10
    with pytest.raises(InsufficientSpread):
        exponent_fit(flat)
    with pytest.raises(InsufficientSpread):
        exponent_fit([Measurement(A=8, N=8, d=101, abs_value=1.0)] * 5)
