"""Acceptance suite: the eleven shipped guarantees, one test per line.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
guarantee; add -s to see the measured constants each test reports.  The
expensive shared computation (the error-vector grid with q ~ X^(2/3) up
to X = 1e7) is a module fixture used by the two envelope tests.
"""

import math

import numpy as np
import pytest

from divprog.arith import is_prime, ramanujan_sum, tau_of
from divprog.bilinear import (
    BilinearInstance,
    bilinear_bound_general,
    bilinear_bound_initial_interval,
    bilinear_sum,
    bilinear_sum_unweighted_a,
)
from divprog.characters import (
    congruence_bound_report,
    fourth_moment,
    fourth_moment_brute,
    multiplicative_congruence_count,
    multiplicative_congruence_count_brute,
)
from divprog.kloosterman import kloosterman, kloosterman_table
from divprog.mainterm import error_vector, main_term, main_term_coprime
from divprog.poisson import BumpFunction, ProductTestFunction, poisson_tau, poisson_tau_twisted
from divprog.sweeps import (
    ExperimentConfig,
    run_theorem_sweep,
    set_abs_error_bound,
    set_abs_regime,
)
from divprog.tausieve import divisor_sum_progressions, sieve_tau, total_divisor_sum
from divprog.voronoi import voronoi_error_terms

# the q ~ X^(2/3) ladder: largest prime below X^(2/3) at each decade
ERROR_GRID = ((10**4, 463), (10**5, 2153), (10**6, 9973), (10**7, 46411))


@pytest.fixture(scope="module")
def error_grid():
    out = {}
    for X, q in ERROR_GRID:
        out[(X, q)] = np.asarray(error_vector(X, q).R, dtype=np.float64)
    return out


def test_criterion_01_progression_sums_exact_against_bucket_oracle():
    """Sieve-and-bucket oracle agreement plus row-sum closure, under 60 s."""
    rng = np.random.default_rng(1)
    cases = []
    for X in (1, 2, 3, 10, 99, 100, 101, 1000, 9999, 10**4, 10**5):
        for q in (1, 2, 3, 7, 12, 100, 463, 500):
            if q <= X:
                cases.append((X, q))
    for _ in range(30):
        X = int(rng.integers(2, 10**5 + 1))
        q = int(rng.integers(1, min(X, 500) + 1))
        cases.append((X, q))
    checked = 0
    for X, q in cases:
        tau = sieve_tau(1, X).values
        vec = divisor_sum_progressions(X, q).sums
        idx = np.arange(1, X + 1, dtype=np.int64) % q
        oracle = np.bincount(idx, weights=tau.astype(np.float64), minlength=q).astype(np.int64)
        assert np.array_equal(vec, oracle), (X, q)
        assert int(vec.sum()) == total_divisor_sum(X)
        checked += 1
    # closure for every modulus in range at the top of the X range
    X = 10**5
    T = total_divisor_sum(X)
    for q in range(1, 501):
        assert divisor_sum_progressions(X, q).total() == T, q
    print(f"\n[criterion 1] {checked} oracle cases exact; row sums closed for all q <= 500")


def test_criterion_02_coprime_main_term_routes_agree():
    """Divisor-polynomial route vs closed coprime form, 1e-9 relative."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        q = int(rng.integers(1, 10**5 + 1))
        a = int(rng.integers(0, q)) if q > 1 else 0
        if q > 1 and math.gcd(a, q) != 1:
            a = 1  # every q has the unit 1
        X = int(rng.integers(max(q, 10), 10**6))
        full = main_term(X, q, a)
        closed = main_term_coprime(X, q)
        worst = max(worst, abs(full - closed) / max(1.0, abs(closed)))
    assert worst < 1e-9
    print(f"\n[criterion 2] 1000 random (q, a): worst relative gap {worst:.2e}")


def test_criterion_03_max_error_envelope_growth_per_decade(error_grid):
    """max_a |R| / X^(1/3) grows by < 2 per decade along q ~ X^(2/3)."""
    maxima = [float(np.max(np.abs(error_grid[(X, q)]))) / X ** (1 / 3) for X, q in ERROR_GRID]
    factors = [maxima[i + 1] / maxima[i] for i in range(len(maxima) - 1)]
    assert all(f < 2.0 for f in factors), (maxima, factors)
    print(f"\n[criterion 3] maxima {['%.3f' % m for m in maxima]}, decade factors {['%.3f' % f for f in factors]}")


def test_criterion_04_mean_square_error_growth_per_decade(error_grid):
    """sum_a R^2 / X grows by < 2.5 per decade along the same ladder."""
    moments = [float(np.dot(error_grid[(X, q)], error_grid[(X, q)])) / X for X, q in ERROR_GRID]
    factors = [moments[i + 1] / moments[i] for i in range(len(moments) - 1)]
    assert all(f < 2.5 for f in factors), (moments, factors)
    print(f"\n[criterion 4] moments {['%.3f' % m for m in moments]}, decade factors {['%.3f' % f for f in factors]}")


def test_criterion_05_dual_expansion_reconstructs_error_term():
    """|R_exact - R_dual| <= C (Y/q + 1)(Yq)^0.1 with C < 50, all residues."""
    worst = 0.0
    for X in (2000, 10**4):
        for q in (20, 50, 101):
            Y = math.sqrt(q * X)
            residues = [a for a in range(1, q) if math.gcd(a, q) == 1]
            terms = voronoi_error_terms(X, q, residues, Y)
            R = np.asarray(error_vector(X, q).R, dtype=np.float64)
            for t in terms:
                worst = max(worst, abs(R[t.a] - t.approx_R) / t.budget)
    assert worst < 50.0
    print(f"\n[criterion 5] fitted C = {worst:.3f} over 256 residues (limit 50)")


def test_criterion_06_kloosterman_envelope_symmetry_degeneration_multiplicativity():
    """Exhaustive |K| envelope to d = 499; symmetry and K(m, 0) = r_d(m)
    to 1e-9; twisted multiplicativity to 1e-6 on coprime pairs <= 30."""
    worst_sym = worst_ram = 0.0
    for d in range(1, 500):
        T = kloosterman_table(d)
        g = np.gcd.outer(np.gcd(np.arange(d), d), np.gcd(np.arange(d), d))
        bound = tau_of(d) * np.sqrt(d * g)
        assert (np.abs(T) <= bound + 1e-6).all(), d
        worst_sym = max(worst_sym, float(np.abs(T - T.T).max()))
        ram = np.array([ramanujan_sum(d, m) for m in range(d)], dtype=np.float64)
        worst_ram = max(worst_ram, float(np.abs(T[:, 0] - ram).max()))
    assert worst_sym < 1e-9 and worst_ram < 1e-9
    worst_mult = 0.0
    pairs = 0
    for d1 in range(2, 31):
        for d2 in range(d1 + 1, 31):
            if math.gcd(d1, d2) != 1:
                continue
            i2 = pow(d2, -2, d1)
            i1 = pow(d1, -2, d2)
            for m, n in ((1, 1), (2, 5), (7, 3)):
                lhs = kloosterman(d1 * d2, m, n)
                rhs = kloosterman(d1, m, n * i2 % d1) * kloosterman(d2, m, n * i1 % d2)
                worst_mult = max(worst_mult, abs(lhs - rhs))
                pairs += 1
    assert worst_mult < 1e-6
    print(
        f"\n[criterion 6] d <= 499 exhaustive envelope ok; symmetry {worst_sym:.1e}, "
        f"degeneration {worst_ram:.1e}, multiplicativity {worst_mult:.1e} over {pairs} checks"
    )


def test_criterion_07_bilinear_fast_equals_brute_and_ratio_reports():
    """Fast route vs phase-matrix route to 1e-6 relative (exhaustive to
    d = 101 plus 200 random cases to 1e4); sharpness reports at the three
    reference primes stay finite with < 2x variation.

    The reported ratio is the closed-form rms of |S| under each weight
    model (independent +-1 weights give E|S|^2 = sum of K^2 over the
    block; with the a-weights identically 1 it is the squared row sums),
    so the report is deterministic.  A seeded empirical mean at p = 251
    is checked against the closed form as a consistency gate.
    """
    rng = np.random.default_rng(7)
    worst = 0.0
    for d in range(3, 102):
        A = min(d - 1, 16)
        N = min(d - 1, 16)
        nu = rng.uniform(-1.0, 1.0, N)
        inst = BilinearInstance(d=d, I=(0, A), J=(0, N), alpha=np.ones(A), nu=nu)
        fast = bilinear_sum_unweighted_a(inst)
        brute = bilinear_sum(inst)
        worst = max(worst, abs(fast - brute) / max(1.0, abs(brute)))
    for _ in range(200):
        d = int(rng.integers(3, 10**4 + 1))
        A = int(rng.integers(1, min(d - 1, 256) + 1))
        N = int(rng.integers(1, min(d - 1, 256) + 1))
        B = int(rng.integers(0, d - A))
        M = int(rng.integers(0, d - N))
        nu = rng.uniform(-1.0, 1.0, N)
        inst = BilinearInstance(d=d, I=(B, A), J=(M, N), alpha=np.ones(A), nu=nu)
        fast = bilinear_sum_unweighted_a(inst)
        brute = bilinear_sum(inst)
        worst = max(worst, abs(fast - brute) / max(1.0, abs(brute)))
    assert worst < 1e-6

    r_weighted, r_rowsum = [], []
    for p in (251, 499, 997):
        A = N = round(math.sqrt(p))
        block = kloosterman_table(p)[1 : N + 1, 1 : A + 1]
        rms_both = math.sqrt(float(np.sum(block**2)))
        rms_rows = math.sqrt(float(np.sum(block.sum(axis=1) ** 2)))
        r_weighted.append(rms_both / bilinear_bound_initial_interval(A, N, p))
        r_rowsum.append(rms_rows / bilinear_bound_general(A, N, p))
    for ratios in (r_weighted, r_rowsum):
        assert all(math.isfinite(r) and r > 0 for r in ratios)
        assert max(ratios) / min(ratios) < 2.0, ratios

    # empirical cross-check of the closed form at the smallest prime
    p = 251
    A = N = round(math.sqrt(p))
    sq = []
    for seed in range(12):
        srng = np.random.default_rng(100 + seed)
        inst = BilinearInstance(
            d=p, I=(0, A), J=(0, N),
            alpha=srng.choice([-1.0, 1.0], A), nu=srng.choice([-1.0, 1.0], N),
        )
        sq.append(abs(bilinear_sum(inst)) ** 2)
    block = kloosterman_table(p)[1 : N + 1, 1 : A + 1]
    exact = float(np.sum(block**2))
    assert 0.5 < float(np.mean(sq)) / exact < 2.0
    print(
        f"\n[criterion 7] worst fast/brute gap {worst:.2e}; ratio spans "
        f"{max(r_weighted) / min(r_weighted):.3f} (weighted) and "
        f"{max(r_rowsum) / min(r_rowsum):.3f} (row-sum), both < 2"
    )


def test_criterion_08_fourth_moment_equality_and_fitted_envelope():
    """DFT moment = brute moment (1e-6) for p <= 199 with H up to 2p;
    envelope moment/H^2 <= C p^0.15 with one C fitted over p <= 997.

    The fitted C is the max of (moment/H^2) / p^0.15 over the grid, so
    the envelope inequality is tight by construction; the substantive
    content is the recorded C and the residual growth, which the
    companion stability property in test_characters.py
    (test_fourth_moment_envelope_constant_is_stable_under_doubling_p)
    examines and currently refutes: the normalized ratio roughly doubles
    per doubling of p instead of staying flat.
    """
    worst = 0.0
    count = 0
    for p in range(3, 200):  # mod 2 there are no nonprincipal characters
        if not is_prime(p):
            continue
        for K in (0, 1, 7):
            for H in (0, 1, p // 2, 2 * p):
                fast = fourth_moment(p, K, H)
                brute = fourth_moment_brute(p, K, H)
                worst = max(worst, abs(fast - brute) / max(1.0, abs(brute)))
                count += 1
    assert worst < 1e-6

    grid = []
    for p in (31, 61, 127, 251, 499, 997):
        for H in (max(1, p // 32), math.isqrt(p), p // 2):
            m = fourth_moment(p, 0, H)
            grid.append((p, H, (m / H**2) / p**0.15))
    C = max(r for _, _, r in grid)
    assert math.isfinite(C) and C > 0
    assert all(r <= C * (1 + 1e-12) for _, _, r in grid)
    residual = C / min(r for _, _, r in grid)
    print(
        f"\n[criterion 8] {count} equality cases worst gap {worst:.2e}; fitted "
        f"C = {C:.1f} (residual spread {residual:.0f}x across the grid; see the "
        f"stability property in test_characters.py for why no p-independent C exists)"
    )


def test_criterion_09_congruence_count_exact_and_bound_ratio():
    """Histogram count = 4-fold loop on 100 random boxes (p <= 97); the
    full-box p = 5 case returns 64; sweep ratios <= fitted C p^0.1."""
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = int(rng.choice([5, 7, 11, 13, 17, 29, 53, 97]))
        boxes = []
        for _ in range(4):
            lo = int(rng.integers(0, 2 * p))
            boxes.append((lo, lo + int(rng.integers(0, 20))))
        assert multiplicative_congruence_count(p, *boxes) == multiplicative_congruence_count_brute(p, *boxes)
    full = (1, 4)
    assert multiplicative_congruence_count(5, full, full, full, full) == 64

    C = 0.0
    for p in (101, 199, 397, 499, 797, 997):
        for H in (10, 32, 100):
            box = (1, H)
            c = multiplicative_congruence_count(p, box, box, box, box)
            rep = congruence_bound_report(c, p, box, box, box, box)
            assert math.isfinite(rep.ratio)
            C = max(C, rep.ratio / p**0.1)
    for p in (101, 997):
        for H in (10, 32, 100):
            box = (1, H)
            c = multiplicative_congruence_count(p, box, box, box, box)
            rep = congruence_bound_report(c, p, box, box, box, box)
            assert rep.ratio <= C * p**0.1 * (1 + 1e-12)
    print(f"\n[criterion 9] 100 boxes exact; p = 5 full box = 64; fitted C = {C:.3f}")


def test_criterion_10_lattice_sum_matches_dual_sum_plain_and_twisted():
    """Both summation routes agree to 1e-6 on the documented bump pair;
    every primitive character twist has |eta| = 1 to 1e-10."""
    g = ProductTestFunction(BumpFunction(2.5, 1.6), BumpFunction(3.0, 2.2))
    worst_plain = worst_twist = worst_eta = 0.0
    plain = twisted = 0
    for q in (5, 7, 11):
        for z in range(1, q):
            chk = poisson_tau(g, q, z)
            worst_plain = max(worst_plain, chk.residual / max(1.0, abs(chk.lhs)))
            plain += 1
        for j in range(1, q - 1):
            chk = poisson_tau_twisted(g, q, j)
            worst_twist = max(worst_twist, chk.residual / max(1.0, abs(chk.lhs)))
            worst_eta = max(worst_eta, abs(abs(chk.eta) - 1.0))
            twisted += 1
    assert worst_plain < 1e-6 and worst_twist < 1e-6
    assert worst_eta < 1e-10
    print(
        f"\n[criterion 10] {plain} plain residues worst {worst_plain:.2e}; "
        f"{twisted} twists worst {worst_twist:.2e}; |eta| off by {worst_eta:.1e}"
    )


def test_criterion_12_sweeps_deterministic_total_and_set_ratio_stable(tmp_path):
    """Reports are byte-identical under a fixed seed with every row fully
    regime-labeled; the arbitrary-set ratio on the pinned grid is finite
    with < 2x variation."""
    cfg = ExperimentConfig(
        experiment="set_abs",
        x_grid=(2000, 10**4),
        modulus_grid=(101, 499),
        set_kind="random",
        lengths=(8, "sqrt"),
        offsets=(0,),
        seed=1234,
    )
    r1 = run_theorem_sweep(cfg, tmp_path / "one")
    r2 = run_theorem_sweep(cfg, tmp_path / "two")
    for a, b in zip(r1.paths, r2.paths):
        assert open(a, "rb").read() == open(b, "rb").read()
    label_keys = ("in_regime_interval_abs", "in_regime_interval_signed", "in_regime_set_abs")
    for row in r1.rows:
        for key in label_keys:
            assert isinstance(row[key], bool)
    exc = ExperimentConfig(
        experiment="exceptional", x_grid=(2000,), modulus_grid=(11, 101), kappas=(0.05, 0.2),
    )
    e1 = run_theorem_sweep(exc, tmp_path / "exc")
    assert all(row["in_regime_exceptional"] is True for row in e1.rows)

    rng = np.random.default_rng(20260825)
    ratios = []
    for X in (10**5,):
        for p in (101, 199, 397):
            R = np.asarray(error_vector(X, p).R, dtype=np.float64)
            for A in (40, 80):
                assert set_abs_regime(A, X, p)
                picks = rng.choice(np.arange(1, p), size=A, replace=False)
                D = float(np.sum(np.abs(R[picks])))
                ratios.append(D / set_abs_error_bound(A, X, p))
    assert all(math.isfinite(r) and r > 0 for r in ratios)
    span = max(ratios) / min(ratios)
    assert span < 2.0, ratios
    print(
        f"\n[criterion 12] {len(r1.rows)} labeled rows byte-stable; "
        f"set-ratio span {span:.3f} over the pinned grid"
    )
