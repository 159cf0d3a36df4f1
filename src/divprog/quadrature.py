"""The Gauss-Legendre rules shared by the quadratures in voronoi and poisson."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=4)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], computed once per order and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
