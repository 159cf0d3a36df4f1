import math
import tracemalloc

import numpy as np
import pytest

from divprog import characters
from divprog.arith import is_prime
from divprog.characters import (
    CharacterTable,
    character_table,
    congruence_bound_report,
    eta_factor,
    fourth_moment,
    fourth_moment_brute,
    gauss_sum,
    multiplicative_congruence_count,
    multiplicative_congruence_count_brute,
)
from divprog.errors import InvalidRange, NotPrime, NotPrimitive
from divprog.poisson import BumpFunction, ProductTestFunction, poisson_tau_twisted


def test_table_construction_and_validation():
    t = character_table(13)
    assert sorted(t.index[1:]) == list(range(12))
    assert t.index[0] == -1
    with pytest.raises(NotPrime):
        CharacterTable.build(12)
    t = CharacterTable.build(2)  # the trivial group: g = 1, ind(1) = 0
    assert t.g == 1 and t.index.tolist() == [-1, 0]


def test_index_matches_sequential_walk():
    for p in (3, 5, 7, 13, 101, 100003):
        t = CharacterTable.build(p)
        want = np.full(p, -1, dtype=np.int64)
        x = 1
        for k in range(p - 1):
            want[x] = k
            x = x * t.g % p
        assert np.array_equal(t.index, want), p


def test_character_multiplicativity_and_orthogonality():
    t = character_table(11)
    p = t.p
    for j in (1, 3, 7):
        for x in range(1, p):
            for y in range(1, p):
                lhs = t.chi(j, x * y)
                rhs = t.chi(j, x) * t.chi(j, y)
                assert abs(lhs - rhs) < 1e-12
    # sum over x of a non-principal character vanishes
    for j in range(1, p - 1):
        s = sum(t.chi(j, x) for x in range(p))
        assert abs(s) < 1e-10
    # sum over characters picks out x = 1
    for x in range(1, p):
        s = sum(t.chi(j, x) for j in range(p - 1))
        expect = (p - 1) if x == 1 else 0
        assert abs(s - expect) < 1e-10
    assert t.chi(3, 0) == 0
    assert t.chi(3, 22) == 0  # multiples of p too


def test_chi_row_matches_scalar():
    t = character_table(17)
    for j in (0, 1, 5, 16, 33):
        row = t.chi_row(j)
        for x in range(17):
            assert abs(row[x] - t.chi(j, x)) < 1e-12


def test_fourth_moment_hand_cases():
    # p = 3, window {1, 2}: chi(1) + chi(2) = 1 - 1 = 0 for the only
    # non-principal character
    assert fourth_moment(3, 1, 1) == 0
    # p = 5, window {1}: each of the three non-principal sums is 1
    assert abs(fourth_moment(5, 1, 0) - 3.0) < 1e-12


def test_fourth_moment_fast_vs_brute():
    rng = np.random.default_rng(9)
    for p in (3, 5, 7, 13, 31, 61):
        for _ in range(6):
            K = int(rng.integers(-2 * p, 2 * p))
            H = int(rng.integers(0, 3 * p))  # deliberately allows H > p
            fast = fourth_moment(p, K, H)
            brute = fourth_moment_brute(p, K, H)
            assert abs(fast - brute) <= 1e-6 * max(1.0, brute), (p, K, H)


def test_fourth_moment_window_longer_than_modulus():
    # an exact multiple of p covers every residue the same number of
    # times; the nonzero residues then carry count H//p... sums cancel
    p = 7
    fast = fourth_moment(p, 1, 2 * p - 1)  # two full periods
    assert abs(fast) < 1e-8
    assert abs(fourth_moment_brute(p, 1, 2 * p - 1)) < 1e-8


def _moment_by_dft(monkeypatch, p, K, H):
    """The length (p-1) DFT route, whatever the window size."""
    with monkeypatch.context() as m:
        m.setattr(characters, "_DFT_OVER_PAIRS", 0.0)
        return fourth_moment(p, K, H)


def _moment_by_pairs(monkeypatch, p, K, H):
    """The pair route, whatever the window size."""
    with monkeypatch.context() as m:
        m.setattr(characters, "_DFT_OVER_PAIRS", math.inf)
        return fourth_moment(p, K, H)


def test_fourth_moment_pair_route_vs_brute_every_small_prime(monkeypatch):
    # negative starts, windows that start on or cover multiples of p,
    # H = 0, and windows of two or more full periods
    for p in range(3, 114):
        if not is_prime(p):
            continue
        windows = [(0, 0), (p, 0), (-p - 3, p // 2), (2 * p, p + 1), (-2 * p, 2 * p),
                   (-5, 2 * p + 7), (1, 3 * p)]
        for K, H in windows:
            pair = _moment_by_pairs(monkeypatch, p, K, H)
            brute = fourth_moment_brute(p, K, H)
            assert abs(pair - brute) <= 1e-9 * max(1.0, brute), (p, K, H)


def test_fourth_moment_pair_route_is_the_exact_count(monkeypatch):
    # (p-1) M - N^4 with M the 4-fold loop count over the window, as a
    # Python int, so that no digit is lost past 2^53; in one block of
    # pairs and in blocks of a few rows, the last one partial
    for p, K, H in ((5, 0, 9), (7, -3, 20), (13, 2, 30), (31, 40, 25), (61, -61, 40), (101, 7, 30)):
        box = (K, K + H)
        brute = multiplicative_congruence_count_brute(p, box, box, box, box)
        units = sum(1 for x in range(K, K + H + 1) if x % p)
        for block in (characters._PAIR_BLOCK, 100):
            monkeypatch.setattr(characters, "_PAIR_BLOCK", block)
            m = _moment_by_pairs(monkeypatch, p, K, H)
            assert type(m) is int
            assert m == (p - 1) * brute - units**4, (p, K, H, block)


def test_fourth_moment_pair_route_reads_only_the_log_table(monkeypatch):
    # the bench compares the moment with the congruence count, so the
    # moment must not be computed from the product histograms
    def forbidden(*args):
        raise AssertionError("the moment called the congruence count")

    monkeypatch.setattr(characters, "_product_histogram", forbidden)
    monkeypatch.setattr(characters, "multiplicative_congruence_count", forbidden)
    pair = _moment_by_pairs(monkeypatch, 101, 7, 30)
    assert abs(pair - _moment_by_dft(monkeypatch, 101, 7, 30)) <= 1e-12 * pair


def test_fourth_moment_route_by_cost(monkeypatch):
    # the route is seen through a spy on the transform; both routes agree
    calls = []
    real_ifft = np.fft.ifft

    def spy(x):
        calls.append(len(x))
        return real_ifft(x)

    monkeypatch.setattr(characters.np.fft, "ifft", spy)
    # a window of 1501 at p = 999983: pairs; of 3001 at p = 100003 and of
    # 2000 at p = 101: the DFT
    for p, K, H, route in ((999983, 123457, 1500, "pairs"), (100003, 4321, 3000, "dft"),
                           (101, 5, 1999, "dft")):
        calls.clear()
        m = fourth_moment(p, K, H)
        assert calls == ([] if route == "pairs" else [p - 1]), (p, H)
        other = (_moment_by_dft if route == "pairs" else _moment_by_pairs)(monkeypatch, p, K, H)
        assert abs(m - other) <= 1e-12 * m, (p, H)
    # either side of the boundary (H+1)^2 = c p log2 p
    p = 10007
    edge = math.isqrt(int(characters._DFT_OVER_PAIRS * p * math.log2(p)))
    for H, n_calls in ((edge - 1, 0), (edge + 1, 1)):
        calls.clear()
        fourth_moment(p, 3, H)
        assert len(calls) == n_calls, H


def test_table_holds_the_index_alone():
    character_table.cache_clear()
    t = character_table(7)
    t.chi(1, 2), t.chi_row(3), gauss_sum(t, 5), eta_factor(t, 5)
    poisson_tau_twisted(ProductTestFunction(BumpFunction(2.5, 1.6), BumpFunction(3.0, 2.2)), 7, 2)
    assert set(vars(t)) == {"p", "g", "index"}
    assert character_table(7) is t
    assert character_table.cache_info().nbytes == t.index.nbytes


def test_character_values_are_powers_of_one_root_of_unity():
    for p in (3, 7, 13, 101, 1009):
        t = character_table(p)
        zeta = np.exp(2j * np.pi / (p - 1) * np.arange(p - 1))
        xs = np.arange(1, p)
        for j in (0, 1, 2, p // 3, p - 2, -1):
            k = j * t.index[xs] % (p - 1)
            assert np.array_equal(t.chi_row(j)[1:], zeta[k]), (p, j)
            assert all(t.chi(j, int(x)) == zeta[kx] for x, kx in zip(xs[:50], k)), (p, j)
            z = np.arange(1, p)
            want = complex(np.sum(np.conj(zeta[k]) * np.exp(2j * np.pi / p * z)))
            assert gauss_sum(t, j) == want, (p, j)
        window = np.arange(5, 5 + 40) % p
        window = window[window != 0]
        want = sum(abs(zeta[j * t.index[window] % (p - 1)].sum()) ** 4 for j in range(1, p - 1))
        assert fourth_moment_brute(p, 5, 39) == want, p


def test_table_cache_counts_builds_and_clears():
    character_table.cache_clear()
    assert character_table.cache_info().misses == 0
    t = character_table(101)
    assert character_table(101) is t and character_table(103) is not t
    info = character_table.cache_info()
    assert (info.hits, info.misses, info.entries) == (1, 2, 2)
    character_table.cache_clear()
    assert character_table.cache_info() == (0, 0, 0, 0)
    assert character_table(101) is not t and character_table.cache_info().misses == 1


def test_fourth_moment_validation():
    with pytest.raises(InvalidRange):
        fourth_moment(7, 0, -1)
    with pytest.raises(InvalidRange):
        fourth_moment_brute(7, 0, 10**7)


def test_gauss_sum_magnitude_and_eta():
    for p in (5, 7, 11, 23):
        t = character_table(p)
        for j in range(1, p - 1):
            tau = gauss_sum(t, j)
            assert abs(abs(tau) - math.sqrt(p)) < 1e-10, (p, j)
            eta = eta_factor(t, j)
            assert abs(abs(eta) - 1.0) < 1e-12
        with pytest.raises(NotPrimitive):
            eta_factor(t, 0)
        with pytest.raises(NotPrimitive):
            eta_factor(t, p - 1)


def test_congruence_count_full_box_p5():
    # all 4^4 = 256 unit quadruples; products distribute evenly so the
    # count is sum of squares of the 4-value histogram: 4 * 16 = 64
    assert multiplicative_congruence_count(5, (1, 4), (1, 4), (1, 4), (1, 4)) == 64


def test_congruence_count_vs_brute_random():
    rng = np.random.default_rng(10)
    for _ in range(40):
        p = int(rng.choice([5, 7, 11, 13, 31, 61, 97]))
        boxes = []
        for _ in range(4):
            lo = int(rng.integers(-p, 2 * p))
            hi = lo + int(rng.integers(0, min(40, 2 * p)))
            boxes.append((lo, hi))
        fast = multiplicative_congruence_count(p, *boxes)
        brute = multiplicative_congruence_count_brute(p, *boxes)
        assert fast == brute, (p, boxes)


def test_congruence_count_squares_one_histogram_for_repeated_boxes(monkeypatch):
    real = characters._product_histogram
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(characters, "_product_histogram", spy)
    p = 31
    for b1, b2 in (((2, 9), (1, 17)), ((-40, 3), (30, 33)), ((5, 5), (5, 5))):
        for b3, b4 in ((b1, b2), (b2, b1)):
            calls.clear()
            fast = multiplicative_congruence_count(p, b1, b2, b3, b4)
            assert len(calls) == 1
            assert fast == multiplicative_congruence_count_brute(p, b1, b2, b3, b4)
    calls.clear()
    multiplicative_congruence_count(p, (2, 9), (1, 17), (2, 9), (1, 18))
    assert len(calls) == 2


def test_congruence_count_swap_symmetry():
    p = 31
    b = ((2, 9), (1, 17), (4, 6), (3, 20))
    assert multiplicative_congruence_count(p, *b) == multiplicative_congruence_count(
        p, b[2], b[3], b[0], b[1]
    )


def test_congruence_histogram_route_for_large_boxes():
    # boxes big enough to force the DFT-convolution branch
    p = 101
    big = (1, 3000)  # 3000^2 pairs > the pair-enumeration cap
    small = (1, 30)
    fast = multiplicative_congruence_count(p, big, big, small, small)
    # independent route: histogram the big product by direct modular loop
    h_big = np.zeros(p, dtype=np.int64)
    x1 = np.arange(1, 3001) % p
    x1 = x1[x1 != 0]
    for v in x1:
        np.add.at(h_big, v * x1 % p, 1)
    h_small = np.zeros(p, dtype=np.int64)
    xs = np.arange(1, 31) % p
    for v in xs:
        np.add.at(h_small, v * xs % p, 1)
    assert fast == int(np.dot(h_big, h_small))


def test_congruence_histogram_route_matches_pair_route(monkeypatch):
    boxes = [((3, 40), (17, 90)), ((1, 250), (5, 61)), ((200, 260), (1000, 1100)),
             ((7, 300), (7, 300))]
    # 1018 = 2 * 509: the folded linear convolution at a power-of-two length;
    # the pair route in one block and in blocks of a few rows, the last one
    # partial
    for p in (3, 101, 1009, 1019):
        pair = [characters._product_histogram(p, b1, b2) for b1, b2 in boxes]
        monkeypatch.setattr(characters, "_PAIR_BLOCK", 500)
        blocked = [characters._product_histogram(p, b1, b2) for b1, b2 in boxes]
        monkeypatch.setattr(characters, "_BRUTE_CAP", 0)
        hist = [characters._product_histogram(p, b1, b2) for b1, b2 in boxes]
        monkeypatch.undo()
        for h1, h2, h3 in zip(pair, blocked, hist):
            assert h1.dtype == np.int64
            assert np.array_equal(h1, h2) and np.array_equal(h1, h3), p


def test_congruence_histogram_route_transforms_equal_boxes_once(monkeypatch):
    # equal boxes share one forward transform, squared.  A box shifted by p
    # has the same residue counts but is another box, so it takes a second
    # transform of the same histogram: the counts agree to the last bit
    calls = []
    real_rfft = np.fft.rfft

    def spy(*args):
        calls.append(len(args[0]))
        return real_rfft(*args)

    monkeypatch.setattr(characters, "_BRUTE_CAP", 0)
    monkeypatch.setattr(characters.np.fft, "rfft", spy)
    p, box = 1019, (5, 700)
    once = characters._product_histogram(p, box, box)
    assert len(calls) == 1
    twice = characters._product_histogram(p, box, (5 + p, 700 + p))
    assert len(calls) == 3
    assert np.array_equal(once, twice)


def test_p2_runs_through_the_general_path(monkeypatch):
    boxes = [(1, 30)] * 4
    brute = multiplicative_congruence_count(2, *boxes)
    monkeypatch.setattr(characters, "_BRUTE_CAP", 0)
    assert multiplicative_congruence_count(2, *boxes) == brute == 15**4
    assert multiplicative_congruence_count_brute(2, *boxes) == brute
    assert multiplicative_congruence_count(2, *[(1, 3000)] * 4) == 1500**4
    for K, H in ((0, 0), (1, 0), (3, 10)):
        assert _moment_by_pairs(monkeypatch, 2, K, H) == 0
        assert _moment_by_dft(monkeypatch, 2, K, H) == 0
        assert fourth_moment_brute(2, K, H) == 0
    with pytest.raises(NotPrimitive):
        eta_factor(character_table(2), 1)


def test_congruence_count_is_exact_past_int64():
    # sum h^2 = 15375747014559362152 > 2^63: an int64 dot product wraps
    box = (1, 200000)
    h = characters._product_histogram(101, box, box)
    want = sum(v * v for v in h.tolist())
    assert want > 2**63
    assert multiplicative_congruence_count(101, box, box, box, box) == want
    other = (7, 190000)
    h2 = characters._product_histogram(101, other, box)
    want2 = sum(a * b for a, b in zip(h.tolist(), h2.tolist()))
    assert multiplicative_congruence_count(101, box, box, other, box) == want2 > 2**63
    # the pair route of fourth_moment squares its pair counts the same way
    c = np.full(3, 2**32, dtype=np.int64)
    assert characters._exact_dot(c, c, 3 * 2**64) == 3 * 2**64


def test_pair_routes_run_in_fixed_scratch():
    # past the log table (built first, outside the measurement), the pair
    # routes hold one length-p histogram and at most two blocks of
    # _PAIR_BLOCK int64 pairs, however many pairs the window has (1501^2
    # here); the third block is slack for masks and the window itself
    p, K, H = 999983, 123457, 1500
    box = (K, K + H)
    character_table(p)
    limit = 8 * p + 3 * characters._PAIR_BLOCK * 8
    for run in (lambda: fourth_moment(p, K, H),
                lambda: multiplicative_congruence_count(p, box, box, box, box)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (peak, limit)


def test_congruence_validation():
    with pytest.raises(NotPrime):
        multiplicative_congruence_count(10, (1, 2), (1, 2), (1, 2), (1, 2))
    with pytest.raises(InvalidRange):
        multiplicative_congruence_count(7, (3, 1), (1, 2), (1, 2), (1, 2))
    # every box is checked, by the product histogram that reads it or by
    # being equal to a box that was
    for k in range(1, 4):
        boxes = [(1, 2)] * 4
        boxes[k] = (3, 1)
        with pytest.raises(InvalidRange):
            multiplicative_congruence_count(7, *boxes)
    with pytest.raises(InvalidRange):
        multiplicative_congruence_count_brute(7, (1, 100), (1, 2), (1, 2), (1, 2))


def test_bound_report():
    count = multiplicative_congruence_count(13, (1, 6), (1, 6), (1, 6), (1, 6))
    rep = congruence_bound_report(count, 13, (1, 6), (1, 6), (1, 6), (1, 6))
    assert rep.lengths == (6, 6, 6, 6)
    prod = 6**4
    assert math.isclose(rep.envelope, prod / 13 + math.sqrt(prod), rel_tol=1e-12)
    assert math.isclose(rep.ratio, count / rep.envelope, rel_tol=1e-12)


def test_fourth_moment_envelope_constant_is_stable_under_doubling_p():
    """Fit C with moment/H^2 <= C p^0.15 on the lower half of a doubling
    chain of primes and require the same C to cover the doubled half.

    This is the stability property the p^0.15 envelope claims.  Measured
    behaviour: moment/H^2 at H ~ sqrt(p) grows essentially linearly in p
    (moment/(p H^2) drifts only by a log-size factor), so the normalized
    ratio doubles each time p does and no single C survives the doubling.
    The test states the property as given and is expected to fail; the
    p-normalized contrast assertion below it passes, and the moment values
    themselves are pinned by the exact identity with the congruence count
    (test_fourth_moment_matches_congruence_count_identity), so the failure
    is a property of the quantity, not of the implementation.
    """
    chain = (31, 61, 127, 251, 499, 997)
    ratios = {}
    for p in chain:
        H = math.isqrt(p)
        ratios[p] = (fourth_moment(p, 0, H) / H**2) / p**0.15

    # contrast: dividing by p instead of p^0.15 leaves only log-scale drift
    band = [(fourth_moment(p, 0, math.isqrt(p)) / math.isqrt(p) ** 2) / p for p in chain]
    assert max(band) / min(band) < 3.0
    assert max(ratios.values()) / min(ratios.values()) > 10.0

    C = max(ratios[p] for p in chain[:4])  # fitted on p <= 251
    worst = max(ratios[p] / (C + 1e-12) for p in chain[4:])  # applied to p >= 499
    assert worst <= 1.0, (
        f"envelope constant fitted on p <= 251 is exceeded {worst:.2f}x after doubling p"
    )


def test_fourth_moment_matches_congruence_count_identity():
    # summing |sum chi(x)|^4 over ALL characters counts solutions of
    # x1 x2 = x3 x4 with every factor in the window, weighted by p-1
    for p, K, H in ((13, 0, 5), (101, 7, 30), (199, 1, 398)):
        m = fourth_moment(p, K, H)
        xs = np.arange(K, K + H + 1)
        units = int(np.count_nonzero(xs % p != 0))
        box = (K, K + H)
        c = multiplicative_congruence_count(p, box, box, box, box)
        assert abs((m + units**4) - (p - 1) * c) <= 1e-6 * max(1, (p - 1) * c)
