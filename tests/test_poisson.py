import cmath
import math

import mpmath
import numpy as np
import pytest

from divprog import poisson
from divprog.characters import character_table
from divprog.errors import InvalidRange, SupportTooLarge
from divprog.poisson import (
    BumpFunction,
    ProductTestFunction,
    poisson_tau,
    poisson_tau_twisted,
)

BUMPS = ProductTestFunction(BumpFunction(2.5, 1.6), BumpFunction(3.0, 2.2))


def test_bump_evaluation_and_support():
    g = BumpFunction(2.0, 1.0)
    assert g.support == (1.0, 3.0)
    assert g(1.0) == 0.0 and g(3.0) == 0.0 and g(0.0) == 0.0
    assert abs(g(2.0) - math.exp(-1.0)) < 1e-15
    with pytest.raises(InvalidRange):
        BumpFunction(1.0, 0.0)


def test_bump_integral_against_mpmath():
    g = BumpFunction(2.5, 1.6)
    with mpmath.workdps(25):
        want = float(mpmath.quad(lambda x: mpmath.exp(-1 / (1 - ((x - 2.5) / 1.6) ** 2))
                                 if abs((x - 2.5) / 1.6) < 1 else mpmath.mpf(0),
                                 [0.9, 2.5, 4.1]))
    assert abs(g.integral() - want) < 1e-12


def test_bump_fourier_properties():
    g = BumpFunction(2.5, 1.6)
    # hat(0) is the plain integral
    assert abs(g.fourier(0.0)[0] - g.integral()) < 1e-12
    # conjugate symmetry for real g
    for u in (0.3, 1.7, 4.0):
        plus = g.fourier(u)[0]
        minus = g.fourier(-u)[0]
        assert abs(minus - plus.conjugate()) < 1e-12
    # against direct mpmath oscillatory quadrature
    u = 1.25
    with mpmath.workdps(25):
        want = complex(mpmath.quad(
            lambda x: mpmath.exp(-1 / (1 - ((x - 2.5) / 1.6) ** 2)) * mpmath.e ** (2j * mpmath.pi * u * x)
            if abs((x - 2.5) / 1.6) < 1 else mpmath.mpf(0),
            [0.9, 1.7, 2.5, 3.3, 4.1],
        ))
    got = g.fourier(u)[0]
    assert abs(got - want) < 1e-10


def test_bump_derivative_finite_difference():
    g = BumpFunction(3.0, 2.0)
    xs = np.linspace(1.2, 4.8, 37)
    h = 1e-6
    fd = (g(xs + h) - g(xs - h)) / (2 * h)
    assert np.allclose(g.deriv(xs), fd, atol=1e-7)


def test_product_function_validation():
    with pytest.raises(InvalidRange):
        ProductTestFunction(BumpFunction(1.0, 1.5), BumpFunction(3.0, 1.0))
    with pytest.raises(SupportTooLarge):
        ProductTestFunction(BumpFunction(99999.0, 50000.0), BumpFunction(3.0, 1.0))


def _lhs_brute(g, q, z):
    """Direct lattice double sum of g(m1, m2) e_q(z m1 m2)."""
    total = 0j
    for m1 in range(1, 10):
        for m2 in range(1, 10):
            w = float(g(m1, m2))
            if w:
                total += w * cmath.exp(2j * cmath.pi * z * m1 * m2 / q)
    return total


def test_plain_poisson_all_small_moduli():
    for q in (5, 7, 11):
        for z in range(1, q):
            if math.gcd(z, q) != 1:
                continue
            chk = poisson_tau(BUMPS, q, z)
            assert chk.residual < 1e-8, (q, z, chk.residual)
            assert abs(chk.lhs - _lhs_brute(BUMPS, q, z)) < 1e-12
            assert chk.freq_converged


def test_plain_poisson_q_one_degenerate():
    chk = poisson_tau(BUMPS, 1, 0)
    assert chk.residual < 1e-8


def test_poisson_empty_support_window():
    # bumps squeezed between lattice points: zero lattice sum, and the
    # dual side must cancel to the same zero
    tight = ProductTestFunction(BumpFunction(2.5, 0.4), BumpFunction(3.5, 0.4))
    chk = poisson_tau(tight, 7, 2)
    assert chk.lhs == 0
    assert abs(chk.rhs) < 1e-9


def test_twisted_poisson_all_primitive_characters():
    for q in (5, 7):
        table = character_table(q)
        for j in range(1, q - 1):
            chk = poisson_tau_twisted(BUMPS, q, j)
            assert chk.residual < 1e-8, (q, j, chk.residual)
            assert abs(abs(chk.eta) - 1.0) < 1e-10


def test_twisted_lhs_is_character_weighted_lattice_sum():
    q, j = 7, 2
    table = character_table(q)
    chk = poisson_tau_twisted(BUMPS, q, j)
    total = 0j
    for m1 in range(1, 10):
        for m2 in range(1, 10):
            w = float(BUMPS(m1, m2))
            if w:
                total += w * table.chi(j, m1 * m2)
    assert abs(chk.lhs - total) < 1e-12


def _fourier_full_phase_matrix(g, u):
    """ghat(u) with one phase per (u, node) on the same mesh, no separation."""
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    panels = 24 + int(math.ceil(2.0 * g.radius * np.abs(u).max()))
    xs, ws = poisson._gl_mesh(*g.support, panels)
    return np.exp(2j * np.pi * u[:, None] * xs[None, :]) @ (g(xs) * ws)


def test_bump_fourier_matches_full_phase_matrix_over_a_scan():
    # the scan's own blocks of 32 frequencies, each at its own panel count,
    # and once more in one call over the whole range
    for g, q in ((BUMPS.gx, 7), (BUMPS.gy, 13), (BumpFunction(30.0, 22.0), 263)):
        vals, ok = poisson._dual_frequencies(g, q)
        assert ok
        want = [_fourier_full_phase_matrix(g, [0.0])[0]]
        for m in range(0, len(vals) - 1, 32):
            want.extend(_fourier_full_phase_matrix(g, np.arange(m + 1, m + 33) / q))
        want = np.array(want)
        peak = np.abs(want).max()
        assert np.max(np.abs(vals - want)) < 1e-13 * peak, (g, q)
        u = np.arange(len(vals)) / q
        assert np.max(np.abs(g.fourier(u) - _fourier_full_phase_matrix(g, u))) < 1e-13 * peak


def _fourier_panel_phases(g, u):
    """ghat(u) with one phase e(u mid_p) per panel, each from its own exponential."""
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    panels = 24 + int(math.ceil(2.0 * g.radius * np.abs(u).max()))
    mid, h = poisson._panels(*g.support, panels)
    nodes, weights = poisson.gauss_legendre(16)
    gw = g(mid[:, None] + h * nodes[None, :]) * (h * weights)
    outer = np.exp(2j * np.pi * u[:, None] * mid[None, :])
    inner = np.exp(2j * np.pi * u[:, None] * (h * nodes)[None, :])
    return panels, ((outer @ gw) * inner).sum(axis=1)


def test_bump_fourier_separable_panel_phases():
    # radius 1/2: u over [0, P - 24] takes P panels, for P a perfect square
    # (B = sqrt P columns fill every row) and P = k^2 + 1 (one panel in the
    # last row, the rest zero-weight padding)
    g = BumpFunction(1.0, 0.5)
    counts = [k * k + e for k in range(5, 12) for e in (0, 1)] + [144]
    for P in counts:
        u = np.linspace(0.0, P - 24, 97)
        panels, want = _fourier_panel_phases(g, u)
        assert panels == P
        got = g.fourier(u)
        assert np.max(np.abs(got - want)) < 1e-13 * np.abs(want).max(), P


def test_bump_fourier_chunks_long_frequency_arrays(monkeypatch):
    g = BUMPS.gx
    u = np.linspace(-40.0, 40.0, 301)
    whole = g.fourier(u)
    monkeypatch.setattr(poisson, "_PHASE_CHUNK", 1000)  # about 3 frequencies a step
    assert np.max(np.abs(g.fourier(u) - whole)) < 1e-15 * np.abs(whole).max()


def test_bench_and_readme_checks_keep_their_cutoffs():
    # the frequency scan depends on the bump and q alone: the bench runs
    # q = 7, 11 plain and p = 7, 13 twisted, the README q = 7 with chi_2
    want = {7: (512, 384), 11: (800, 576), 13: (928, 672)}
    for q in (7, 11):
        chk = poisson_tau(BUMPS, q, 1)
        assert chk.m_cutoffs == want[q] and chk.freq_converged is True, q
    for p, j in ((7, 2), (13, 5)):
        chk = poisson_tau_twisted(BUMPS, p, j)
        assert chk.m_cutoffs == want[p] and chk.freq_converged is True, p


def _dual_sum_brute(g, q, weight_of_product):
    """The dual double sum over every frequency pair, no residue folding."""
    h1_pos, _ = poisson._dual_frequencies(g.gx, q)
    h2_pos, _ = poisson._dual_frequencies(g.gy, q)
    m2 = np.arange(1, len(h2_pos))
    total = 0j
    for m1 in range(-(len(h1_pos) - 1), len(h1_pos)):
        if m1 == 0:
            continue
        h1 = h1_pos[m1] if m1 > 0 else np.conj(h1_pos[-m1])
        row = (h2_pos[1:] * weight_of_product(m1 * m2)
               + np.conj(h2_pos[1:]) * weight_of_product(-m1 * m2))
        total += h1 * row.sum()
    return total / q


def test_dual_sum_matches_pair_sum():
    for q in (5, 7):
        eq = np.exp(2j * np.pi / q * np.arange(q))
        table = character_table(q)
        weights = [lambda prods, z=z: eq[(-z * prods) % q] for z in (1, 2)]
        weights += [lambda prods, j=j: np.conj(table.chi_row(j)[prods % q]) for j in (1, 2)]
        for w in weights:
            got, _, ok = poisson._dual_sum(BUMPS, q, w)
            want = _dual_sum_brute(BUMPS, q, w)
            assert ok and abs(got - want) < 1e-13 * max(1.0, abs(want)), q


def test_wide_bumps_past_the_dual_row_chunk():
    # q = 263 > 256 residue rows: the folded dual sum takes two row chunks
    wide = ProductTestFunction(BumpFunction(25.0, 20.0), BumpFunction(30.0, 22.0))
    plain = poisson_tau(wide, 263, 5)
    assert plain.freq_converged and plain.residual < 1e-8, plain
    assert min(plain.m_cutoffs) > 263
    twisted = poisson_tau_twisted(wide, 263, 7)
    assert twisted.freq_converged and twisted.residual < 1e-8, twisted
