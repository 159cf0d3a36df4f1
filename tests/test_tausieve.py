import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divprog.arith import tau_of
from divprog import tausieve
from divprog.errors import InvalidRange, WindowTooLarge
from divprog.tausieve import (
    divisor_sum_progressions,
    progression_sum_single,
    sieve_tau,
    total_divisor_sum,
)


def test_sieve_values_match_factorization():
    tab = sieve_tau(1, 600)
    for n in range(1, 601):
        assert tab[n] == tau_of(n), n


def test_sieve_deep_window():
    # windows far from the origin exercise the lo = d*(d+1) start logic
    start = 10**9
    tab = sieve_tau(start, 150)
    for n in range(start, start + 150):
        assert tab[n] == tau_of(n), n


def test_sieve_window_bounds():
    tab = sieve_tau(50, 10)
    assert tab.start == 50 and tab.stop == 60
    with pytest.raises(InvalidRange):
        sieve_tau(0, 10)
    with pytest.raises(InvalidRange):
        sieve_tau(5, 0)
    with pytest.raises(WindowTooLarge):
        sieve_tau(1, 10**6, memory_budget=1000)


def test_total_divisor_sum_against_direct():
    running = 0
    for X in range(1, 400):
        running += tau_of(X)
        assert total_divisor_sum(X) == running


def test_total_divisor_sum_fixed_points():
    assert total_divisor_sum(1) == 1
    assert total_divisor_sum(10) == 27
    assert total_divisor_sum(100) == 482


def test_routes_agree_on_grid():
    for X in (1, 2, 10, 97, 1000, 4096, 30000):
        for q in (1, 2, 3, 7, 12, 101, 360):
            if q > X:
                continue
            hyp = divisor_sum_progressions(X, q, method="hyperbola")
            nai = divisor_sum_progressions(X, q, method="naive")
            assert np.array_equal(hyp.sums, nai.sums), (X, q)
            assert hyp.total() == total_divisor_sum(X), (X, q)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=20000), st.integers(min_value=1, max_value=400))
def test_routes_agree_random(X, q):
    if q > X:
        q = X
    hyp = divisor_sum_progressions(X, q, method="hyperbola")
    nai = divisor_sum_progressions(X, q, method="naive")
    assert np.array_equal(hyp.sums, nai.sums)
    assert hyp.total() == total_divisor_sum(X)


def test_single_route_matches_vector():
    rng = np.random.default_rng(0)
    for _ in range(40):
        X = int(rng.integers(10, 50000))
        q = int(rng.integers(1, min(X, 500) + 1))
        a = int(rng.integers(0, q))
        vec = divisor_sum_progressions(X, q)
        assert progression_sum_single(X, q, a) == vec[a], (X, q, a)


def test_negative_residue_indexing_wraps():
    vec = divisor_sum_progressions(100, 7)
    assert vec[-1] == vec[6]
    assert vec[13] == vec[6]


def test_argument_validation():
    with pytest.raises(InvalidRange):
        divisor_sum_progressions(0, 1)
    with pytest.raises(InvalidRange):
        divisor_sum_progressions(10, 11)
    with pytest.raises(InvalidRange):
        progression_sum_single(10, 0, 0)
    with pytest.raises(ValueError):
        divisor_sum_progressions(10, 2, method="nope")


def test_q_equals_one_collapses_to_total():
    for X in (1, 7, 500, 12345):
        vec = divisor_sum_progressions(X, 1)
        assert vec[0] == total_divisor_sum(X)


def _assert_routes_agree(X, q):
    auto = divisor_sum_progressions(X, q).sums
    naive = divisor_sum_progressions(X, q, method="naive").sums
    hyper = divisor_sum_progressions(X, q, method="hyperbola").sums
    assert np.array_equal(auto, naive), (X, q)
    assert np.array_equal(naive, hyper), (X, q)
    assert int(naive.sum()) == total_divisor_sum(X), (X, q)


def test_routes_agree_across_auto_boundary():
    # auto switches to naive once isqrt(X) * (q + 700) > 2 X; check the q on
    # either side of that switch, so the route choice cannot change a result
    for X in (10**6, 3 * 10**6 + 17):
        q_switch = 2 * X // math.isqrt(X) - 700  # largest q that takes hyperbola
        for q in (q_switch - 1, q_switch, q_switch + 1, q_switch + 2):
            _assert_routes_agree(X, q)


def test_naive_segment_edges(monkeypatch):
    # a 64-entry target segment puts every edge case within a small X
    monkeypatch.setattr(tausieve, "_SEGMENT", 64)
    for q in (1, 2, 7, 64, 65, 100):  # 65 and 100: q larger than the segment
        seg = q * max(1, 64 // q)
        for k in (1, 2, 5):
            for X in (k * seg - 1, k * seg, k * seg + 1):
                if q <= X:
                    _assert_routes_agree(X, q)
    for X in (1, 2, 63, 64, 65, 129, 1000):
        _assert_routes_agree(X, 1)
        _assert_routes_agree(X, X)


def test_progressions_reject_x_at_window_cap():
    cap = 2**40
    for method in ("auto", "naive", "hyperbola"):
        with pytest.raises(InvalidRange):
            divisor_sum_progressions(cap, 7, method=method)
        with pytest.raises(InvalidRange):
            divisor_sum_progressions(cap + 12345, cap, method=method)
