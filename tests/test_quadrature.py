import numpy as np

from divprog.quadrature import gauss_kronrod, gauss_legendre


def test_kronrod_rule_is_exact_to_degree_37():
    nodes, kronrod, gauss = gauss_kronrod()
    assert nodes.size == 25 and np.all(np.diff(nodes) > 0)
    for k in range(38):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(kronrod @ nodes**k - exact) <= 1e-15, k
        if k < 24:
            assert abs(gauss @ nodes**k - exact) <= 1e-15, k


def test_kronrod_table_embeds_gauss_legendre_12():
    nodes, kronrod, gauss = gauss_kronrod()
    on_gauss = gauss != 0.0
    assert np.array_equal(np.flatnonzero(on_gauss), np.arange(1, 25, 2))
    want_nodes, want_weights = gauss_legendre(12)
    assert np.max(np.abs(nodes[on_gauss] - want_nodes)) <= 1e-15
    assert np.max(np.abs(gauss[on_gauss] - want_weights)) <= 1e-15
    assert not nodes.flags.writeable and not kronrod.flags.writeable
