import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from divprog import voronoi
from divprog.cutoff import SmoothCutoff
from divprog.errors import InvalidRange, NonReducedResidue, SupportTooLarge
from divprog.kloosterman import kloosterman
from divprog.mainterm import error_vector
from divprog.tausieve import sieve_tau
from divprog.voronoi import (
    error_budget,
    truncation_thresholds,
    voronoi_error_terms,
    weight_u,
)


def test_truncation_threshold_arithmetic():
    U, V = truncation_thresholds(10, 2000.0, 300.0, eps=0.05)
    assert math.isclose(U, 100 / 2000.0, rel_tol=1e-12)
    assert math.isclose(V, 100 * 2000.0**1.05 / 300.0**2, rel_tol=1e-12)
    # V shrinks as Y grows, U does not depend on Y
    _, V2 = truncation_thresholds(10, 2000.0, 600.0, eps=0.05)
    assert V2 < V


def test_budget_formula():
    assert math.isclose(error_budget(20, 450.0), (450 / 20 + 1) * (450 * 20) ** 0.1, rel_tol=1e-12)


def _weight_oracle(d, n, sign, cutoff):
    """mpmath adaptive quadrature of the same integral, 30 digits.

    The cutoff is smooth except at Y, 2Y, X and X + Y, where its transitions
    start and end, so the integral is split there.
    """
    X, Y = cutoff.X, cutoff.Y
    with mpmath.workdps(30):
        c = 4 * mpmath.pi * mpmath.sqrt(n) / d

        def f(x):
            w = float(cutoff(float(x)))
            if w == 0.0:
                return mpmath.mpf(0)
            arg = c * mpmath.sqrt(x)
            k = mpmath.besselk(0, arg) if sign > 0 else mpmath.bessely(0, arg)
            return w * k

        val = mpmath.quad(f, [Y, 2 * Y, X, X + Y])
        pref = mpmath.mpf(4) / d if sign > 0 else -2 * mpmath.pi / d
        return float(pref * val)


def test_weight_values_against_mpmath():
    cutoff = SmoothCutoff(X=2000.0, Y=300.0)
    for d, n, sign in [(20, 1, +1), (20, 1, -1), (20, 7, -1), (10, 2, -1), (50, 3, +1)]:
        got = weight_u(d, n, sign, cutoff)
        want = _weight_oracle(d, n, sign, cutoff)
        scale = max(abs(want), 1e-10 * cutoff.X / d)
        assert abs(got.value - want) <= 1e-10 * scale, (d, n, sign, got.value, want)
        assert got.converged


def _direct_weight(d, n, sign, cutoff, order=32):
    """u_d^+-(n) from w K0 / w Y0 themselves: panel Gauss-Legendre over the
    whole support, a quarter phase interval (or one e-folding) per panel,
    24 windows per transition, K0 cut at argument 60."""
    c = 4 * math.pi * math.sqrt(n) / d
    X, Y = cutoff.X, cutoff.Y
    lo, hi = cutoff.support
    if sign > 0:
        hi = min(hi, (60.0 / c) ** 2)
        if hi <= lo:
            return 0.0
    step = math.pi / 4 if sign < 0 else 1.0
    zs = np.arange(c * math.sqrt(lo), c * math.sqrt(hi), step)
    splits = [(zs / c) ** 2, np.linspace(Y, 2 * Y, 25), np.linspace(X, X + Y, 25), [lo, hi]]
    edges = np.unique(np.clip(np.concatenate(splits), lo, hi))
    t, wts = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    x = mid[:, None] + half[:, None] * t[None, :]
    kernel = sp.k0 if sign > 0 else sp.y0
    vals = np.asarray(cutoff(x.ravel())).reshape(x.shape) * kernel(c * np.sqrt(x))
    integral = float(np.sum(half * (vals @ wts)))
    return (4.0 / d if sign > 0 else -2 * math.pi / d) * integral


def test_by_parts_weights_against_direct_quadrature_at_bench_scale():
    X, d = 1e6, 1009
    Y = math.sqrt(d * X)
    cutoff = SmoothCutoff(X=X, Y=Y)
    U, V = truncation_thresholds(d, X, Y)
    ns = np.array([1, 2, 3, 10, 57, 300, 1000, int(V)])
    for sign in (+1, -1):
        got = weight_u(d, ns, sign, cutoff)
        assert got.converged and got.value.shape == ns.shape
        for n, value in zip(ns, got.value):
            regime = X / d if n <= U else X**0.25 * math.sqrt(d) * n**-0.75
            want = _direct_weight(d, int(n), sign, cutoff)
            assert abs(value - want) <= 1e-8 * regime, (n, sign, value, want)


def test_cancelling_weight_converges_against_integrand_scale(monkeypatch):
    # u^-_46411(27221) at X = 1e7 is about 1e5 times smaller than its
    # integrand; its error estimate is measured against the integral of
    # |integrand|, so it needs no refinement and is not flagged
    X, d, n = 1e7, 46411, 27221
    cutoff = SmoothCutoff(X=X, Y=math.sqrt(d * X))
    got = weight_u(d, n, -1, cutoff)
    assert got.converged and got.error_estimate <= 1e-8
    monkeypatch.setattr(voronoi, "_TARGET", math.inf)
    assert got.panels == weight_u(d, n, -1, cutoff).panels
    want = _direct_weight(d, n, -1, cutoff)
    regime = X**0.25 * math.sqrt(d) * n**-0.75
    assert abs(got.value - want) <= 1e-8 * regime, (got.value, want)


def test_refined_weights_against_direct_quadrature(monkeypatch):
    # every weight refined: the second pass, on every panel cut in two,
    # must agree with the direct quadrature as the first does
    X, d = 1e6, 1009
    Y = math.sqrt(d * X)
    cutoff = SmoothCutoff(X=X, Y=Y)
    U, V = truncation_thresholds(d, X, Y)
    ns = np.array([1, 2, 3, 10, 57, 300, 1000, int(V)])
    for sign in (+1, -1):
        first = weight_u(d, ns, sign, cutoff)
        monkeypatch.setattr(voronoi, "_TARGET", -1.0)
        refined = weight_u(d, ns, sign, cutoff)
        monkeypatch.undo()
        assert refined.panels == 3 * first.panels
        # the refined value is the second pass's, not the first kept: the
        # two differ wherever the weight stands above rounding of its scale
        # (the K0 weight at n = 300, 7.6e-20, agrees to the bit)
        scale = np.where(ns <= U, X / d, X**0.25 * math.sqrt(d) * ns**-0.75)
        resolved = np.abs(first.value) > 1e-15 * scale
        assert resolved.sum() >= 5, sign
        assert np.all(refined.value[resolved] != first.value[resolved]), sign
        for n, value in zip(ns, refined.value):
            regime = X / d if n <= U else X**0.25 * math.sqrt(d) * n**-0.75
            want = _direct_weight(d, int(n), sign, cutoff)
            assert abs(value - want) <= 1e-8 * regime, (n, sign, value, want)
        # half of them refined: the batch refines the same weights as the
        # scalar calls do
        monkeypatch.setattr(voronoi, "_TARGET", float(np.median(first.error_estimate)))
        part = weight_u(d, ns, sign, cutoff)
        singles = [weight_u(d, int(n), sign, cutoff) for n in ns]
        monkeypatch.undo()
        assert first.panels < part.panels == sum(w.panels for w in singles) < refined.panels
        for value, w in zip(part.value, singles):
            assert abs(value - w.value) <= 1e-13 * abs(w.value)


def test_weight_array_matches_scalar_calls():
    cutoff = SmoothCutoff(X=2000.0, Y=300.0)
    ns = np.array([1, 2, 7, 40])
    for sign in (+1, -1):
        batch = weight_u(20, ns, sign, cutoff)
        singles = [weight_u(20, int(n), sign, cutoff) for n in ns]
        assert isinstance(batch.converged, bool) and isinstance(batch.panels, int)
        assert batch.panels == sum(w.panels for w in singles)
        for i, w in enumerate(singles):
            assert isinstance(w.value, float)
            assert abs(batch.value[i] - w.value) <= 1e-13 * max(abs(w.value), 1.0)
            assert abs(batch.error_estimate[i] - w.error_estimate) <= 1e-6


def test_panel_cap_raises_support_too_large():
    # z = 4 pi sqrt(n) sqrt(x) sweeps about 9000 phase intervals over [Y, 2Y]
    with pytest.raises(SupportTooLarge) as info:
        weight_u(1, 10**5, -1, SmoothCutoff(X=2000.0, Y=300.0))
    assert not isinstance(info.value, InvalidRange)


def test_weight_decay_past_truncation():
    # for n far beyond V the K0 argument is large on the whole support and
    # the weight is negligible against the n = 1 weight
    cutoff = SmoothCutoff(X=2000.0, Y=300.0)
    d = 10
    _, V = truncation_thresholds(d, 2000.0, 300.0)
    base = abs(weight_u(d, 1, +1, cutoff).value)
    far = abs(weight_u(d, int(4 * V) + 1, +1, cutoff).value)
    assert far < 1e-6 * base


def test_weight_validation():
    cutoff = SmoothCutoff(X=100.0, Y=10.0)
    with pytest.raises(InvalidRange):
        weight_u(5, 0, +1, cutoff)
    with pytest.raises(InvalidRange):
        weight_u(5, 1, 2, cutoff)


def test_identity_against_exact_error_terms():
    X, q = 2000, 20
    Y = math.sqrt(q * X**1.05)
    ev = error_vector(X, q)
    coprime = [a for a in range(1, q) if math.gcd(a, q) == 1]
    results = voronoi_error_terms(X, q, coprime, Y)
    budget = error_budget(q, Y)
    for r in results:
        resid = abs(float(ev.R[r.a]) - r.approx_R)
        assert resid <= budget, (r.a, resid, budget)
        assert r.budget == budget


def test_folded_expansion_matches_the_literal_kloosterman_sum():
    # (1/q) sum_d sum_n tau(n) [u+(n) K_d(-n, a) + u-(n) K_d(n, a)] term by
    # term with scalar Kloosterman sums; at Y = 50 the u+ terms move the sum
    # by ~3e-3, so putting them at class n instead of -n fails
    X, q, Y = 2000, 20, 50.0
    cutoff = SmoothCutoff(X=float(X), Y=Y)
    a_values = [1, 7, 13]
    want = np.zeros(len(a_values))
    scale = 0.0
    for d in (1, 2, 4, 5, 10, 20):
        n = np.arange(1, int(truncation_thresholds(d, float(X), Y)[1]) + 1)
        tau = sieve_tau(1, len(n)).values
        up = weight_u(d, n, +1, cutoff).value
        um = weight_u(d, n, -1, cutoff).value
        for k, nk in enumerate(n.tolist()):
            for i, a in enumerate(a_values):
                terms = tau[k] * up[k] * kloosterman(d, -nk, a), tau[k] * um[k] * kloosterman(d, nk, a)
                want[i] += sum(terms)
                scale += sum(map(abs, terms))
    got = [r.approx_R for r in voronoi_error_terms(X, q, a_values, Y)]
    assert np.max(np.abs(np.array(got) - want / q)) < 1e-12 * scale / q


def test_batch_matches_singletons():
    X, q, Y = 2000, 12, 320.0
    batch = voronoi_error_terms(X, q, [1, 5, 7], Y)
    for r in batch:
        single = voronoi_error_terms(X, q, [r.a], Y)[0]
        assert abs(single.approx_R - r.approx_R) < 1e-12


def test_truncation_report_shape():
    r = voronoi_error_terms(2000, 12, [1], 300.0)[0]
    ds = [e.d for e in r.truncation_report]
    assert ds == [1, 2, 3, 4, 6, 12]
    # small divisors fall below V < 1 and carry no terms
    by_d = {e.d: e for e in r.truncation_report}
    assert by_d[1].n_terms == 0
    assert by_d[12].n_terms >= 1
    assert all(e.n_flagged == 0 for e in r.truncation_report)


def test_non_reduced_residue_rejected():
    with pytest.raises(NonReducedResidue):
        voronoi_error_terms(2000, 12, [4], 300.0)


def test_identity_improves_with_larger_y():
    # the budget scales like Y/q; a bigger window must not blow the bound
    X, q = 2000, 12
    ev = error_vector(X, q)
    for Y in (120.0, 450.0, 900.0):
        r = voronoi_error_terms(X, q, [5], Y)[0]
        assert abs(float(ev.R[5]) - r.approx_R) <= r.budget
