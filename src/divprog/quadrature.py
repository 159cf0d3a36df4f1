"""The quadrature rules shared by voronoi and poisson.

gauss_legendre(n) is numpy's n-point rule.  gauss_kronrod() is the
nested pair G12/K25: the 12 Gauss-Legendre nodes plus the 13 zeros of the
Stieltjes polynomial E_13, with one set of Kronrod weights (exact to
degree 37) and the Gauss weights on the shared nodes (exact to degree
23).  Its table is frozen from demos/generate_kronrod_table.py (mpmath,
80-digit working precision); only the half x >= 0 is stored, the rule
being symmetric.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_KRONROD_NODES = (
    0.0,
    0.12523340851146891547,
    0.24850574832046927627,
    0.36783149899818019375,
    0.48133945047815709294,
    0.58731795428661744730,
    0.68405989547005589394,
    0.76990267419430468704,
    0.84355812416115324479,
    0.90411725637047485668,
    0.95053779594312129655,
    0.98156063424671925069,
    0.99693392252959542691,
)
_KRONROD_WEIGHTS = (
    0.12555689390547433530,
    0.12458416453615607344,
    0.12162630352394838325,
    0.11671205350175682629,
    0.11002260497764407264,
    0.10164973227906027772,
    0.091549468295049210528,
    0.079920275333601701493,
    0.067250907050839930305,
    0.053697017607756251229,
    0.038915230469299477115,
    0.023036084038982232591,
    0.0082577114331683957577,
)
_GAUSS_WEIGHTS = (  # on _KRONROD_NODES[1::2]
    0.24914704581340278500,
    0.23349253653835480876,
    0.20316742672306592175,
    0.16007832854334622633,
    0.10693932599531843096,
    0.047175336386511827195,
)


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


@lru_cache(maxsize=4)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], computed once per order and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    _read_only(nodes, weights)
    return nodes, weights


@lru_cache(maxsize=1)
def gauss_kronrod() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 25 nodes on [-1, 1], ascending, with the K25 and the G12 weights.

    The G12 weights are 0 on the 13 nodes that only the Kronrod rule uses,
    so both rules are dot products with the same 25 values.  Read-only.
    """
    half = np.array(_KRONROD_NODES)
    nodes = np.concatenate([-half[:0:-1], half])
    kronrod_half = np.array(_KRONROD_WEIGHTS)
    kronrod = np.concatenate([kronrod_half[:0:-1], kronrod_half])
    gauss_half = np.zeros(half.size)
    gauss_half[1::2] = _GAUSS_WEIGHTS
    gauss = np.concatenate([gauss_half[:0:-1], gauss_half])
    _read_only(nodes, kronrod, gauss)
    return nodes, kronrod, gauss
