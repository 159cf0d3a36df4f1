import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divprog.arith import reduced_residues, tau_of
from divprog import tausieve
from divprog.errors import InvalidModulus, InvalidRange, NonReducedResidue, WindowTooLarge
from divprog.tausieve import (
    divisor_sum_progressions,
    progression_sum_single,
    progression_sums_set,
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


def test_sieve_window_bounds(monkeypatch):
    tab = sieve_tau(50, 10)
    assert tab.start == 50 and tab.start + len(tab.values) == 60
    with pytest.raises(InvalidRange):
        sieve_tau(0, 10)
    with pytest.raises(InvalidRange):
        sieve_tau(5, 0)
    monkeypatch.setattr(tausieve, "_MEMORY_BUDGET", 1000)
    with pytest.raises(WindowTooLarge):
        sieve_tau(1, 10**6)


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
    # check the q on either side of auto's switch, so the route choice cannot
    # change a result
    for X in (10**4, 10**5, 6 * 10**6 + 17, 10**7):
        q_switch = tausieve._hyperbola_max_q(X)  # largest q that takes hyperbola
        assert q_switch >= 2, X
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
    with pytest.raises(InvalidRange, match="need X <"):
        progression_sum_single(cap, 7, 1)
    for method in ("auto", "naive", "hyperbola"):
        with pytest.raises(InvalidRange):
            divisor_sum_progressions(cap, 7, method=method)
        with pytest.raises(InvalidRange):
            divisor_sum_progressions(cap + 12345, cap, method=method)


def _assert_naive_route_right(X, q):
    # against hyperbola, the row sum and the single route on a few residues
    naive = divisor_sum_progressions(X, q, method="naive").sums
    hyper = divisor_sum_progressions(X, q, method="hyperbola").sums
    assert np.array_equal(naive, hyper), (X, q)
    assert int(naive.sum()) == total_divisor_sum(X), (X, q)
    for a in {0, 1 % q, q // 2, q - 1}:
        assert naive[a] == progression_sum_single(X, q, a), (X, q, a)


def test_naive_band_edges_and_even_moduli():
    # X = 2^k m - 1, 2^k m, 2^k m + 1 put X >> k on both sides of a band end;
    # q = 2^s and 3 * 2^s take every gcd(2^k, q) case of the fold
    qs = [2**s for s in range(7)] + [3 * 2**s for s in range(6)]
    Xs = {x for k in range(1, 13) for m in (1, 3, 5) for x in (2**k * m - 1, 2**k * m, 2**k * m + 1)}
    for X in sorted(Xs):
        for q in qs:
            if q <= X:
                _assert_naive_route_right(X, q)


def test_naive_tiny_x():
    for X in range(1, 9):
        for q in range(1, X + 1):
            _assert_naive_route_right(X, q)


def test_naive_odd_segment_and_fold_block_edges(monkeypatch):
    # 64 odd entries per segment end segments at m = 128 j
    monkeypatch.setattr(tausieve, "_SEGMENT", 64)
    for j in (1, 2, 5, 16):
        for X in (128 * j - 2, 128 * j - 1, 128 * j, 128 * j + 1, 128 * j + 2):
            for q in (1, 2, 3, 4, 7, 16, 48, 63, 64, 65, 100, 128, 200):
                if q <= X:
                    _assert_naive_route_right(X, q)


def test_column_sums_across_fold_edges(monkeypatch):
    # rows of k P entries (k = width // P) are summed first and their k
    # groups folded; lengths around multiples of k P and of P cross every edge
    rng = np.random.default_rng(5)
    for width in (1, 2, 5, 8, 24):
        monkeypatch.setattr(tausieve, "_COLUMN_WIDTH", width)
        for P in (1, 2, 3, 4, 7, 8, 25):
            kP = P * max(1, width // P)
            for n in {0, 1, P - 1, P, P + 1, kP - 1, kP, kP + 1, 2 * kP + P - 1, 3 * kP + 1}:
                for start in (0, 1, P - 1, 2 * P + 1):
                    values = rng.integers(0, 6720, n).astype(np.uint16)
                    cols = np.arange(P, dtype=np.int64)
                    tausieve._add_columns(cols, values, start)
                    want = np.arange(P) + np.bincount((start + np.arange(n)) % P,
                                                      weights=values, minlength=P)
                    assert np.array_equal(cols, want.astype(np.int64)), (width, P, n, start)
    # and through the naive route, against hyperbola
    monkeypatch.setattr(tausieve, "_SEGMENT", 64)
    monkeypatch.setattr(tausieve, "_COLUMN_WIDTH", 8)
    for X in (255, 256, 257, 1000, 3001):
        for q in (1, 2, 3, 4, 6, 8, 9, 16, 17):
            _assert_naive_route_right(X, q)


def test_naive_small_memory_budget(monkeypatch):
    for q in (1, 7, 12, 97):
        for budget in (8 * q, 8 * q + 2, 1000):
            monkeypatch.setattr(tausieve, "_MEMORY_BUDGET", budget)
            _assert_naive_route_right(3001, q)
    monkeypatch.setattr(tausieve, "_MEMORY_BUDGET", 8 * 97 - 1)
    with pytest.raises(WindowTooLarge):
        divisor_sum_progressions(3001, 97, method="naive")


def test_naive_route_matches_divisor_walk():
    # sieve_tau over every n <= X, folded by n mod q; hyperbola is too slow at
    # q = 720720 = 2^4 * 45045, so the single route checks a few residues too
    cases = [(X, q) for X in (99_999, 100_000, 131_071, 131_073) for q in (463, 1024, 2153, 3 * 2**10, 9973)]
    cases += [(X, 720720) for X in (720720, 720721, 2 * 720720 - 1, 2 * 720720 + 1)]
    for X, q in cases:
        ref = np.bincount(np.arange(1, X + 1) % q, weights=sieve_tau(1, X).values, minlength=q)
        naive = divisor_sum_progressions(X, q, method="naive").sums
        assert np.array_equal(naive, ref), (X, q)
        for a in (0, 1, 16, 45045 % q, q // 2, q - 1):
            assert naive[a] == progression_sum_single(X, q, a), (X, q, a)


def test_hyperbola_blocks_of_d(monkeypatch):
    # blocks of 1, 3 or 7 classes d mod q, on X whose isqrt is no multiple of
    # the block (and one whose isqrt is shorter than the block)
    for rows in (1, 3, 7):
        for q in (1, 2, 7, 101, 360):
            monkeypatch.setattr(tausieve, "_HYPERBOLA_BLOCK", rows * q)
            for X in (20, 489, 1639, 2600, 10001):
                if q > X:
                    continue
                hyper = divisor_sum_progressions(X, q, method="hyperbola").sums
                naive = divisor_sum_progressions(X, q, method="naive").sums
                assert np.array_equal(hyper, naive), (rows, q, X)


@pytest.mark.parametrize("X", [1000**2, 1000**2 - 1])
def test_hyperbola_classes_against_naive_and_single(monkeypatch, X):
    # X a square and a square minus 1; q = 1, 2, 720, a prime below sqrt(X),
    # isqrt(X) and isqrt(X) + 1 group several d per class d mod q, and q above
    # sqrt(X) leaves one d per class.  Blocks of 1, 3 or 7 classes, and the
    # default block, end inside the range of classes.
    D = math.isqrt(X)
    for q in (1, 2, 720, 997, D, D + 1, 2003, 9973):
        naive = divisor_sum_progressions(X, q, method="naive").sums
        for block in (tausieve._HYPERBOLA_BLOCK, q, 3 * q, 7 * q + 5):
            monkeypatch.setattr(tausieve, "_HYPERBOLA_BLOCK", block)
            hyper = divisor_sum_progressions(X, q, method="hyperbola").sums
            assert np.array_equal(hyper, naive), (X, q, block)
        assert int(naive.sum()) == total_divisor_sum(X), (X, q)
        for a in {0, 1 % q, 2 % q, q // 2, q - 1, 45 % q}:
            assert naive[a] == progression_sum_single(X, q, a), (X, q, a)


def test_sieve_odd_pieces_and_large_divisor_cut(monkeypatch):
    # short pieces and a low cut put piece edges, the cut, the 113-entry fix
    # and a 45045-entry wheel period inside one window
    for piece, cut in ((1, 17), (7, 19), (1000, 21), (4096, 63), (45045, 257), (2**19, 1001)):
        monkeypatch.setattr(tausieve, "_PIECE", piece)
        monkeypatch.setattr(tausieve, "_LARGE_D", cut)
        for lo, n in ((0, 1), (0, 50000), (100, 2000), (45045 - 1500, 3001), (5 * 10**6 + 3, 4000)):
            if n > 5000 and piece < 1000:
                continue  # one Python step per entry
            buf = np.empty(n, dtype=np.uint16)
            tau = tausieve._sieve_odd(buf, lo, lo + n)
            ref = sieve_tau(2 * lo + 1, 2 * n - 1).values[::2]
            assert np.array_equal(tau, ref), (piece, cut, lo, n)
    # and through the naive route, pieces shorter than a segment
    monkeypatch.setattr(tausieve, "_SEGMENT", 64)
    monkeypatch.setattr(tausieve, "_PIECE", 24)
    monkeypatch.setattr(tausieve, "_LARGE_D", 21)
    for X in (127, 128, 129, 3001, 90091):
        for q in (1, 2, 7, 48, 101):
            _assert_naive_route_right(X, q)


def test_sieve_odd_matches_divisor_walk():
    # the odd entries of one segment: the first (m_lo = 1), one past 1e9 and
    # a deep one near 1e11
    n = tausieve._SEGMENT
    buf = np.empty(n, dtype=np.uint16)
    for lo in (0, 5 * 10**8 + 12345, 5 * 10**10 - 777):
        tau = tausieve._sieve_odd(buf, lo, lo + n)
        ref = sieve_tau(2 * lo + 1, 2 * n - 1).values[::2]
        assert np.array_equal(tau, ref), lo


def test_sieve_odd_wheel_fix_and_period_edges():
    # windows that start inside the fix for the odd m <= 225 (i < 113) or
    # cross a period of the 45045-entry wheel
    buf = np.empty(300, dtype=np.uint16)
    for lo in (0, 1, 7, 56, 111, 112, 113, 45045 - 3, 2 * 45045 - 1, 7 * 45045 + 100):
        for n in (1, 2, 50, 113, 300):
            tau = tausieve._sieve_odd(buf, lo, lo + n)
            assert np.array_equal(tau, sieve_tau(2 * lo + 1, 2 * n - 1).values[::2]), (lo, n)


def test_naive_segments_shorter_than_the_wheel_fix(monkeypatch):
    # 50 odd entries per segment: the fix spans three segments, and a wheel
    # period of 45045 entries spans many
    monkeypatch.setattr(tausieve, "_SEGMENT", 50)
    for X in (99, 100, 225, 226, 227, 451, 90089, 90090, 90091, 180181):
        tau = sieve_tau(1, X).values
        for q in (1, 2, 3, 16, 97, 720, 45045):
            if q <= X:
                ref = np.bincount(np.arange(1, X + 1) % q, weights=tau, minlength=q)
                naive = divisor_sum_progressions(X, q, method="naive").sums
                assert np.array_equal(naive, ref), (X, q)


def test_naive_two_adic_bands_mid_segment(monkeypatch):
    # q = 2^v u: bands k < v are strided adds, the rest run through the
    # doubling map mod u; with 64-entry segments the band ends of X fall
    # inside segments
    monkeypatch.setattr(tausieve, "_SEGMENT", 64)
    for X in (30011, 2**15 + 1000):
        for v in range(9):
            for u in (1, 3, 15, 105):
                _assert_naive_route_right(X, 2**v * u)
    monkeypatch.undo()
    for v in range(16):
        _assert_naive_route_right(40009, 2**v)


def test_set_route_against_both_vector_routes_across_auto_boundary(monkeypatch):
    # every reduced residue on the rungs either side of auto's switch, all
    # counted as pairs
    monkeypatch.setattr(tausieve, "_pairs_max_residues", lambda X, q: q)
    for X in (10**5 + 3, 10**6):
        q_switch = tausieve._hyperbola_max_q(X)
        for q in (q_switch - 1, q_switch, q_switch + 1):
            naive = divisor_sum_progressions(X, q, method="naive").sums
            hyper = divisor_sum_progressions(X, q, method="hyperbola").sums
            units = reduced_residues(q)
            got = progression_sums_set(X, q, units)
            assert got.dtype == np.int64 and got.shape == units.shape, (X, q)
            assert np.array_equal(got, naive[units]), (X, q)
            assert np.array_equal(got, hyper[units]), (X, q)


def test_set_route_composite_and_even_moduli():
    # q > sqrt(X) and q < sqrt(X), so some d wrap mod q; the units nearest
    # 0 and q, and units from the middle
    for X, q in ((10**5, 1260), (10**5, 4200), (10**7, 720720), (10**6, 12), (10**5, 2**11)):
        units = reduced_residues(q)
        residues = np.concatenate([units[:40], units[len(units) // 2 :][:40], units[-40:]])
        S = divisor_sum_progressions(X, q).sums
        got = progression_sums_set(X, q, residues)
        assert np.array_equal(got, S[residues]), (X, q)


def test_set_route_blocks_of_residues_and_d(monkeypatch):
    # blocks smaller than the 316 d <= sqrt(X) split the d; larger ones take
    # several residues per block, the last block short
    X, q = 10**5, 2153
    residues = np.arange(1, 101)
    want = divisor_sum_progressions(X, q).sums[residues]
    for block in (1, 7, 64, 316, 1000, 10**5):
        monkeypatch.setattr(tausieve, "_SET_BLOCK", block)
        assert np.array_equal(progression_sums_set(X, q, residues), want), block


def test_set_route_single_residues_and_repeats():
    X, q = 30000, 257
    S = divisor_sum_progressions(X, q).sums
    for a in (1, 2, 128, 256):
        assert progression_sums_set(X, q, [a]).tolist() == [progression_sum_single(X, q, a)]
    # repeats, any order, and residues outside [0, q) are answered per entry
    residues = [5, 3, 5, 260, -1, 3]
    assert progression_sums_set(X, q, residues).tolist() == [int(S[a % q]) for a in residues]
    assert progression_sums_set(X, q, []).tolist() == []
    # q = 1: the one residue 0 is a unit, and S is the whole divisor sum
    assert progression_sums_set(12345, 1, [0]).tolist() == [total_divisor_sum(12345)]


def test_set_route_reads_large_sets_off_the_vector(monkeypatch):
    # either side of _pairs_max_residues, at naive rungs (bound 2 X / (5 U),
    # U the count of d <= isqrt(X) prime to q) and a hyperbola rung (bound
    # 9 q min(q, isqrt(X)) / (10 U), below q); repeats do not count toward
    # the bound
    vector = tausieve.divisor_sum_progressions
    calls = []
    monkeypatch.setattr(tausieve, "divisor_sum_progressions",
                        lambda X, q: calls.append((X, q)) or vector(X, q))
    for X, q in ((10**6, 9973), (10**5, 1260), (10**5, 101)):
        units = reduced_residues(q)
        bound = tausieve._pairs_max_residues(X, q)
        S = vector(X, q).sums
        for A in (1, bound, bound + 1):
            residues = np.concatenate([units[:A], units[:A][::-1]])
            calls.clear()
            assert np.array_equal(progression_sums_set(X, q, residues), S[residues]), (X, q, A)
            assert calls == ([(X, q)] if len(units[:A]) > bound else []), (X, q, A)
    assert tausieve._pairs_max_residues(10**5, 101) == 9 * 101 * 101 // (10 * 313)


def test_set_route_prices_pairs_by_the_d_prime_to_q(monkeypatch):
    # at (1e7, 720720) only 605 of the 3162 d <= isqrt(X) are prime to q, so
    # 3000 residues still count pairs; past the bound the vector is read
    X, q = 10**7, 720720
    vector = tausieve.divisor_sum_progressions
    S = vector(X, q).sums
    calls = []
    monkeypatch.setattr(tausieve, "divisor_sum_progressions",
                        lambda X, q: calls.append((X, q)) or vector(X, q))
    units = reduced_residues(q)
    bound = tausieve._pairs_max_residues(X, q)
    assert bound == 2 * X // (5 * 605)
    for A, want in ((3000, []), (bound + 1, [(X, q)])):
        calls.clear()
        assert np.array_equal(progression_sums_set(X, q, units[:A]), S[units[:A]]), A
        assert calls == want, A


def test_set_route_rejects_non_reduced_residues():
    with pytest.raises(NonReducedResidue, match="^6 "):
        progression_sums_set(10**4, 1260, [1, 6, 11])
    with pytest.raises(NonReducedResidue):
        progression_sums_set(10**4, 101, [0])


def test_set_route_limits_raise_before_any_array(monkeypatch):
    # with numpy gone from the module, only checks made before the first
    # array can raise the package's own errors
    monkeypatch.setattr(tausieve, "np", None)
    cap = 2**40
    with pytest.raises(InvalidRange):
        progression_sums_set(cap, 7, [1])
    with pytest.raises(InvalidModulus):
        progression_sums_set(cap - 1, tausieve._FOLD_Q_MAX + 2, [1])
    with pytest.raises(InvalidRange):
        progression_sums_set(10, 11, [1])
    with pytest.raises(InvalidRange):
        progression_sums_set(0, 1, [0])
