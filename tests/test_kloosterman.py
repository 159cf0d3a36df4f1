import cmath
import dataclasses
import math

import numpy as np
import pytest

from divprog.arith import batch_inverse, euler_phi, is_prime, mod_inverse, ramanujan_sum
from divprog import cache as cache_module
from divprog import kloosterman as kloosterman_module
from divprog.bilinear import BilinearInstance, bilinear_sum
from divprog.errors import WindowTooLarge
from divprog.kloosterman import (
    KloostermanEvaluator,
    check_weil,
    kloosterman,
    kloosterman_batch_over_a,
    kloosterman_table,
)


def _brute(d, m, n):
    """Direct unit-group sum, complex arithmetic, no tricks."""
    if d == 1:
        return 1.0
    total = 0j
    for x in range(1, d):
        if math.gcd(x, d) == 1:
            xb = mod_inverse(x, d)
            total += cmath.exp(2j * cmath.pi * (m * x + n * xb) / d)
    assert abs(total.imag) < 1e-9 * max(1.0, abs(total))
    return total.real


def test_hand_values():
    assert kloosterman(1, 5, 9) == 1.0
    assert abs(kloosterman(3, 1, 1) - (-1.0)) < 1e-12
    # d = 5: x + xbar takes values 2, 4, 4, 3... just match the loop
    assert abs(kloosterman(5, 1, 1) - _brute(5, 1, 1)) < 1e-12


def test_against_brute_random():
    rng = np.random.default_rng(3)
    for _ in range(60):
        d = int(rng.integers(2, 400))
        m = int(rng.integers(-d, 2 * d))
        n = int(rng.integers(-d, 2 * d))
        assert abs(kloosterman(d, m, n) - _brute(d, m, n)) < 1e-8, (d, m, n)


def test_ramanujan_degeneration():
    for d in range(1, 80):
        assert abs(kloosterman(d, 7, 0) - ramanujan_sum(d, 7)) < 1e-9
        assert abs(kloosterman(d, 0, 11) - ramanujan_sum(d, 11)) < 1e-9
        assert abs(kloosterman(d, 0, 0) - euler_phi(d)) < 1e-9


def test_symmetry_and_periodicity():
    for d in range(2, 51):
        for m in range(d):
            for n in range(m, d):
                v = kloosterman(d, m, n)
                assert abs(v - kloosterman(d, n, m)) < 1e-9, (d, m, n)
        assert abs(kloosterman(d, 1 + d, 2) - kloosterman(d, 1, 2)) < 1e-9
        assert abs(kloosterman(d, 1, 2 - d) - kloosterman(d, 1, 2)) < 1e-9


def test_twisted_multiplicativity():
    # K_{d1 d2}(m, n) = K_{d1}(m, n*inv(d2)^2) * K_{d2}(m, n*inv(d1)^2)
    cases = 0
    for d1 in range(2, 31):
        for d2 in range(d1 + 1, 31):
            if math.gcd(d1, d2) != 1:
                continue
            i2 = mod_inverse(d2, d1)
            i1 = mod_inverse(d1, d2)
            for m, n in ((1, 1), (2, 3), (0, 5)):
                lhs = kloosterman(d1 * d2, m, n)
                rhs = kloosterman(d1, m, n * i2 * i2) * kloosterman(d2, m, n * i1 * i1)
                assert abs(lhs - rhs) < 1e-6 * max(1.0, abs(rhs)), (d1, d2, m, n)
                cases += 1
    assert cases > 100


def test_batch_over_a_matches_scalar():
    for d in (2, 12, 97, 360):
        a_vals = list(range(-3, d + 3))
        for method in ("direct", "fft"):
            got = kloosterman_batch_over_a(d, 5, a_vals, method=method)
            want = np.array([kloosterman(d, 5, a) for a in a_vals])
            assert np.allclose(got, want, atol=1e-8), (d, method)


@pytest.mark.parametrize("no_twiddle", [False, True])
def test_unit_sums_and_grid_match_loops(monkeypatch, no_twiddle):
    # s^2 = d at d in {4, 9, 49}, s^2 > d (a padded grid) elsewhere; at
    # d = 2040 blocks of 7 frequencies; with the cap below d the phases are
    # computed without the twiddle table.  Arbitrary complex t, not only
    # the unit-modulus phases batch_over_a feeds the unit sums
    if no_twiddle:
        monkeypatch.setattr(kloosterman_module, "TWIDDLE_CAP", 1)
    rng = np.random.default_rng(11)
    for d in (2, 3, 4, 9, 10, 49, 50, 97, 2040):
        ev = KloostermanEvaluator.build(d)
        assert (ev.twiddle is None) == no_twiddle
        s = ev.side
        assert (s - 1) ** 2 < d <= s * s
        cells = s * s
        t = rng.standard_normal(ev.phi) + 1j * rng.standard_normal(ev.phi)
        if d == 2040:
            monkeypatch.setattr(kloosterman_module, "_PHASE_BLOCK", 7 * s)
            a = rng.integers(0, d, 40)
        else:
            a = np.arange(d)
        inverses = [pow(u, -1, d) for u in ev.units.tolist()]
        for method in ("direct", "fft"):
            got = ev.unit_sums(t, a, method)
            for k, ak in enumerate(a):
                want = sum(tx * cmath.exp(2j * cmath.pi * int(ak) * y / d) for tx, y in zip(t, inverses))
                assert abs(got[k] - want) < 1e-10 * ev.phi, (d, int(ak), method)
        w = rng.standard_normal(len(a)) + 1j * rng.standard_normal(len(a))
        grid = ev.phase_grid(w, a)
        assert grid.shape == (cells,)
        for x in range(0, cells, max(1, cells // 60)):
            want = sum(wk * cmath.exp(2j * cmath.pi * int(ak) * x / d) for wk, ak in zip(w, a))
            assert abs(grid[x] - want) < 1e-10 * len(a), (d, x)
        m = int(rng.integers(0, d))
        direct = ev.batch_over_a(m, range(d), method="direct")
        assert np.allclose(direct, [ev.value(m, n) for n in range(d)], atol=1e-8), d


def test_batch_auto_matches_both_routes_across_boundary(monkeypatch):
    # auto takes fft once len(a) s^2 exceeds _FFT_OVER_DIRECT d log2 d,
    # whether or not the evaluator holds a twiddle table (second pass:
    # with the cap below d, as above TWIDDLE_CAP); the split phases are
    # built by the direct route alone, here in one block
    calls = []
    real = KloostermanEvaluator._split_phases

    def spy(self, k):
        calls.append(len(k))
        return real(self, k)

    monkeypatch.setattr(KloostermanEvaluator, "_split_phases", spy)
    for cap in (kloosterman_module.TWIDDLE_CAP, 1):
        monkeypatch.setattr(kloosterman_module, "TWIDDLE_CAP", cap)
        for d in (97, 1000, 2039):
            ev = KloostermanEvaluator.build(d)
            assert (ev.twiddle is None) == (cap == 1)
            edge = int(kloosterman_module._FFT_OVER_DIRECT * d * math.log2(d) / ev.side**2)
            for count, route in ((edge, "direct"), (edge + 1, "fft")):
                a_vals = [(7 * i + 3) % d for i in range(count)]
                calls.clear()
                auto = ev.batch_over_a(5, a_vals)
                assert calls == ([count] if route == "direct" else []), (d, count, cap)
                for method in ("direct", "fft"):
                    assert np.allclose(auto, ev.batch_over_a(5, a_vals, method=method), atol=1e-9), (d, method)


def test_split_phases_equal_the_twiddle_table_bit_for_bit(monkeypatch):
    # with the cap below d, every phase is coarse[k // s] fine[k % s]
    # formed per call: the same bits as the twiddle table, the outer
    # product of those two tables, on every route
    rng = np.random.default_rng(29)
    for d in (97, 1000, 2039):
        table = KloostermanEvaluator.build(d)
        monkeypatch.setattr(kloosterman_module, "TWIDDLE_CAP", 1)
        split = KloostermanEvaluator.build(d)
        assert table.twiddle is not None and split.twiddle is None
        assert np.array_equal(split._phases(np.arange(d)), table.twiddle), d
        for m, n in ((1, 1), (0, 5), (d - 1, 2 * d + 7), (17, -3)):
            assert split.value(m, n) == table.value(m, n), (d, m, n)
        a = rng.integers(0, d, 50)
        for method in ("direct", "fft"):
            got = split.batch_over_a(7, a, method)
            assert np.array_equal(got, table.batch_over_a(7, a, method)), (d, method)
        w = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        assert np.array_equal(split.phase_grid(w, a), table.phase_grid(w, a)), d
        kloosterman_module._evaluator.cache_clear()
        tab = kloosterman_table(d)
        monkeypatch.undo()
        kloosterman_module._evaluator.cache_clear()
        assert np.array_equal(tab, kloosterman_table(d)), d


def test_unit_products_are_formed_in_int64():
    # at d = 65537 the units reach 2^16, so u m and xbar n reach 2^32 for
    # m, n near d: an int32 product would wrap.  Against the defining sum
    # in Python integers
    d = 65537

    def direct_sum(m, n):
        phases = ((m * u + n * pow(u, -1, d)) % d for u in range(1, d))
        return sum(cmath.exp(2j * cmath.pi * k / d) for k in phases).real

    ev = KloostermanEvaluator.build(d)
    for m, n in ((d - 2, d - 5), (-3, 2 * d - 1)):
        assert abs(ev.value(m, n) - direct_sum(m, n)) < 1e-8, (m, n)
    a = [d - 1, d - 7]
    got = ev.batch_over_a(d - 3, a, method="direct")
    for k, ak in enumerate(a):
        assert abs(got[k] - direct_sum(d - 3, ak)) < 1e-8, ak


def test_fold_matches_scalar_sums():
    # sum_r W[r] K_d(r, a) for random real W, every a and some outside [0, d)
    rng = np.random.default_rng(7)
    for d in (1, 2, 12, 49, 97):
        W = rng.standard_normal(d)
        a = list(range(d)) + [-1, d + 3]
        got = kloosterman_module.fold(d, W, a)
        for k, ak in enumerate(a):
            want = sum(W[r] * kloosterman(d, r, ak) for r in range(d))
            assert abs(got[k] - want) < 1e-10 * d * np.abs(W).sum(), (d, ak)


def test_fold_checks_the_imaginary_part(monkeypatch):
    # one corrupted phase among the folded terms: the sum is no longer real
    real = KloostermanEvaluator.unit_sums

    def corrupted(self, t, a, method):
        t = t.copy()
        t[0] *= 1j
        return real(self, t, a, method)

    W = np.random.default_rng(8).standard_normal(13)
    kloosterman_module.fold(13, W, range(13))
    monkeypatch.setattr(KloostermanEvaluator, "unit_sums", corrupted)
    with pytest.raises(FloatingPointError, match=r"K_13\(W, a\) imaginary part"):
        kloosterman_module.fold(13, W, range(13))


def test_full_table_matches_scalar():
    # every entry: the table gathers each row m = g u from the row of
    # g = gcd(m, d), so prime powers and moduli with many divisors cover
    # every class, the row m = 0 included
    for d in (2, 3, 4, 16, 35, 60, 64, 97, 101, 210, 360):
        tab = kloosterman_table(d)
        assert tab.shape == (d, d)
        want = np.array([[kloosterman(d, m, n) for n in range(d)] for m in range(d)])
        assert np.max(np.abs(tab - want)) < 1e-8, d
    # d = 1024: every entry against the defining sum as one matrix product,
    # sum_x e_d(m x) e_d(n xbar), and the rows m = 0, 2^k and 3 2^k against
    # the scalar route
    d = 1024
    tab = kloosterman_table(d)
    ev = KloostermanEvaluator.build(d)
    r = np.arange(d)
    want = (np.exp(2j * np.pi * np.outer(r, ev.units) / d)
            @ np.exp(2j * np.pi * np.outer(ev.inverses, r) / d)).real
    assert np.max(np.abs(tab - want)) < 1e-8
    for m in [0] + [2**k for k in range(10)] + [3 * 2**k for k in range(9)]:
        assert np.max(np.abs(tab[m] - [kloosterman(d, m, n) for n in range(d)])) < 1e-8, m


def test_full_table_in_small_blocks_matches_scalar(monkeypatch):
    # blocks of 5 rows: several per divisor row, the last one partial
    # (96 = 19 * 5 + 1 unit rows at d = 97); the gather indices do not
    # depend on the blocking, so the table is bit-identical to one block
    for d in (60, 97):
        whole = kloosterman_table(d)
        monkeypatch.setattr(kloosterman_module, "_TABLE_BLOCK", 5 * d)
        tab = kloosterman_table(d)
        monkeypatch.undo()
        assert tab.tobytes() == whole.tobytes(), d
        want = np.array([[kloosterman(d, m, n) for n in range(d)] for m in range(d)])
        assert np.max(np.abs(tab - want)) < 1e-8, d


def test_blas_routes_repeat_bit_for_bit():
    # repeated passes must agree to the bit (the split-phase contractions
    # are BLAS products, threaded or not), and the direct batch must agree
    # with the fft one
    d = 100003
    a = [(37 * i + 11) % d for i in range(200)]
    direct = kloosterman_batch_over_a(d, 3, a, method="direct")
    assert direct.tobytes() == kloosterman_batch_over_a(d, 3, a, method="direct").tobytes()
    fft = kloosterman_batch_over_a(d, 3, a, method="fft")
    assert np.max(np.abs(direct - fft)) < 1e-9 * d
    rng = np.random.default_rng(20)
    inst = BilinearInstance(d=d, I=(4000, 150), J=(90000, 150),
                            alpha=rng.uniform(-1, 1, 150), nu=rng.uniform(-1, 1, 150))
    assert bilinear_sum(inst) == bilinear_sum(inst)


def test_fft_routes_check_the_imaginary_part(monkeypatch):
    # one corrupted phase: the fft batch and the table rows must raise, not
    # return the real part of a sum that is no longer real
    real = KloostermanEvaluator._phases

    def corrupted(self, idx):
        out = real(self, idx).copy()
        out[0] *= 1j
        return out

    monkeypatch.setattr(KloostermanEvaluator, "_phases", corrupted)
    with pytest.raises(FloatingPointError, match=r"K_13\(2, a\)"):
        kloosterman_batch_over_a(13, 2, range(13), method="fft")
    with pytest.raises(FloatingPointError, match=r"K_13\(1, \.\)"):
        kloosterman_table(13)


def test_weil_envelope_small_exhaustive():
    for d in range(1, 100):
        tab = kloosterman_table(d)
        for m in range(d):
            for n in range(d):
                chk = check_weil(d, m, n)
                assert chk.ok, (d, m, n, chk)
                assert abs(chk.value - tab[m, n]) < 1e-8


def _prev_prime(n):
    while not is_prime(n):
        n -= 1
    return n


def test_units_and_inverses_against_gcd_filter_and_pow():
    for d in (2, 3, 4, 8, 9, 60, 486, 720720):
        ev = KloostermanEvaluator.build(d)
        want = [x for x in range(1, d) if math.gcd(x, d) == 1]
        assert ev.units.dtype == ev.inverses.dtype == np.int32 and ev.units.tolist() == want, d
        assert ev.inverses.tolist() == [pow(u, -1, d) for u in want], d
    # d near 1e6: all units against a gcd filter, the inverses on a slice of
    # each half (the upper half is reflected from the lower one)
    for d in (_prev_prime(10**6), 2 * _prev_prime(500000)):
        ev = KloostermanEvaluator.build(d)
        x = np.arange(d)
        assert np.array_equal(ev.units, x[np.gcd(x, d) == 1])
        for lo in (0, len(ev.units) // 2 - 500, len(ev.units) - 1000):
            units = ev.units[lo : lo + 1000].tolist()
            assert ev.inverses[lo : lo + 1000].tolist() == [pow(u, -1, d) for u in units]


def test_batch_inverse_against_pow():
    # every d <= 3000 through the evaluator, whose lower half of phi(d)
    # units takes the product tree: odd-length levels, and phi/2 in {1, 2, 3}
    # at d in {3, 4, 6}, {5, 8, 10, 12} and {7, 9, 14, 18}
    for d in range(2, 3001):
        ev = KloostermanEvaluator.build(d)
        assert ev.inverses.tolist() == [pow(u, -1, d) for u in ev.units.tolist()], d
    # every prefix length up to 40 straight through the tree
    units = KloostermanEvaluator.build(3001).units
    for n in range(1, 41):
        got = batch_inverse(units[:n], 3001)
        assert got.tolist() == [pow(int(u), -1, 3001) for u in units[:n]], n
    # moduli near 1e6 as the bench draws them (primes and twice a prime) and
    # its batch modulus: u * inv = 1 mod d with inv in [0, d) is the same as
    # inv = pow(u, -1, d), checked for every unit in int64; the units go in
    # as int32, as the evaluator stores them, and the tree still multiplies
    # in int64
    for d in (997319, 998287, 998918, 999422, 100003):
        ev = KloostermanEvaluator.build(d)
        inv = batch_inverse(ev.units.astype(np.int32), d)
        assert np.array_equal(inv, ev.inverses), d
        assert np.all((inv >= 0) & (inv < d)) and np.all(ev.units * inv % d == 1), d


def test_modulus_one_through_the_unit_group():
    # Z/1 has the one unit 0 (gcd(0, 1) = 1), its own inverse, so every
    # route sums the single term e_1(0) = 1
    ev = KloostermanEvaluator.build(1)
    assert ev.units.tolist() == [0] and ev.inverses.tolist() == [0] and ev.phi == 1
    assert ev.value(3, -5) == 1.0
    for method in ("direct", "fft", "auto"):
        assert ev.batch_over_a(3, [0, 4, -2], method=method).tolist() == [1.0, 1.0, 1.0], method
        assert ev.batch_over_a(3, [], method=method).shape == (0,), method
    assert kloosterman_table(1).tolist() == [[1.0]]
    assert check_weil(1, 3, 5).bound == 1.0


def test_evaluator_reuse_and_phi():
    ev = KloostermanEvaluator.build(60)
    assert ev.phi == euler_phi(60)
    assert abs(ev.value(1, 1) - kloosterman(60, 1, 1)) < 1e-12


def test_evaluator_cache_hit_does_not_build(monkeypatch):
    kloosterman_module._evaluator.cache_clear()
    builds = []
    real = KloostermanEvaluator.build

    def spy(d):
        builds.append(d)
        return real(d)

    monkeypatch.setattr(KloostermanEvaluator, "build", staticmethod(spy))
    ev = kloosterman_module._evaluator(1009)
    assert kloosterman_module._evaluator(1009) is ev and builds == [1009]
    kloosterman(1009, 2, 3), kloosterman_batch_over_a(1009, 2, [1, 2])
    assert builds == [1009]
    info = kloosterman_module._evaluator.cache_info()
    assert (info.misses, info.entries) == (1, 1)
    assert info.nbytes == _array_bytes(ev)


def _array_bytes(ev):
    """The bytes of every array field of an evaluator."""
    fields = (getattr(ev, f.name) for f in dataclasses.fields(ev))
    return sum(a.nbytes for a in fields if isinstance(a, np.ndarray))


def test_evaluator_cache_is_bounded_by_bytes(monkeypatch):
    kloosterman_module._evaluator.cache_clear()

    def nbytes(d):
        return _array_bytes(KloostermanEvaluator.build(d))

    # about 24 bytes per residue: 1009 and 2039 fit, 3001 evicts both
    monkeypatch.setattr(cache_module, "CACHE_BYTES", 110_000)
    for d in (1009, 2039, 3001, 1009):
        kloosterman(d, 1, 1)
    info = kloosterman_module._evaluator.cache_info()
    assert (info.misses, info.entries) == (4, 2)
    assert info.nbytes == nbytes(3001) + nbytes(1009) <= 110_000 < nbytes(3001) + nbytes(2039)


def test_evaluator_bytes_above_the_twiddle_cap():
    # int32 units and inverses, the two s-length phase tables, no twiddle
    d = 999983
    kloosterman_module._evaluator.cache_clear()
    kloosterman(d, 1, 1)
    s = math.isqrt(d - 1) + 1
    assert d > kloosterman_module.TWIDDLE_CAP
    assert kloosterman_module._evaluator.cache_info().nbytes == 8 * euler_phi(d) + 32 * s
    kloosterman_module._evaluator.cache_clear()


def test_scalar_sum_in_blocks_matches_brute(monkeypatch):
    monkeypatch.setattr(kloosterman_module, "_VALUE_BLOCK", 97)
    for d in (1009, 2040):
        ev = KloostermanEvaluator.build(d)
        assert ev.phi > 3 * 97
        for m, n in ((1, 1), (0, 5), (17, -3), (d - 1, 2 * d + 7)):
            assert abs(ev.value(m, n) - _brute(d, m, n)) < 1e-9, (d, m, n)


def test_scalar_checks_the_imaginary_part_of_the_blocked_sum(monkeypatch):
    # one corrupted phase in the third block: the total is no longer real
    monkeypatch.setattr(kloosterman_module, "_VALUE_BLOCK", 97)
    real = KloostermanEvaluator._phases
    calls = []

    def corrupted(self, idx):
        out = real(self, idx).copy()
        calls.append(len(idx))
        if len(calls) == 3:
            out[5] *= 1j
        return out

    monkeypatch.setattr(KloostermanEvaluator, "_phases", corrupted)
    ev = KloostermanEvaluator.build(1009)
    with pytest.raises(FloatingPointError, match=r"K_1009\(4,-9\)"):
        ev.value(4, -9)
    assert calls[:3] == [97, 97, 97] and sum(calls) == ev.phi


def test_oversized_modulus_rejected():
    with pytest.raises(WindowTooLarge):
        KloostermanEvaluator.build(10**9)
