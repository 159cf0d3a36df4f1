"""The transform-side expansion of the progression error term R(X; a, q).

With a smooth cutoff w (see cutoff.SmoothCutoff) and kernels K0, Y0, the
weights attached to the dual sum are

    u_d^+(n) = (4/d)    int w(x) K0(4 pi sqrt(x n)/d) dx,
    u_d^-(n) = -(2pi/d) int w(x) Y0(4 pi sqrt(x n)/d) dx,

and the expansion reads

    R(X; a, q) ~ (1/q) sum_{d | q} sum_{n <= V(d)} tau(n)
                   [ u_d^+(n) K_d(-n, a) + u_d^-(n) K_d(n, a) ]

up to a truncation error of order (Y/q + 1) (Yq)^eps.  The thresholds

    U(d) = d^2 / X,    V(d) = d^2 X^(1+eps) / Y^2

separate the flat regime (|u| of order X/d for n <= U), the decay regime
(|u| of order X^(1/4) d^(1/2) n^(-3/4) up to V), and the negligible tail.

Weights: with c = 4 pi sqrt(n)/d, DLMF 10.6.6 and 10.29.4 give
d/dx[sqrt(x) Y1(c sqrt(x))] = (c/2) Y0(c sqrt(x)) and
d/dx[sqrt(x) K1(c sqrt(x))] = -(c/2) K0(c sqrt(x)), and w vanishes at
both ends of its support, so

    int w Y0(c sqrt x) dx = -(2/c) int w'(x) sqrt(x) Y1(c sqrt x) dx,
    int w K0(c sqrt x) dx =  (2/c) int w'(x) sqrt(x) K1(c sqrt x) dx.

w' is zero on the plateau [2Y, X], so only the two transitions [Y, 2Y]
and [X, X+Y] are integrated.  Each is cut into six windows of width Y/6,
and each window into equal steps of z = c sqrt(x) no wider than one
phase interval pi (Y1) or two e-foldings (K1; nothing past z = 50), with
the nested 12-point Gauss / 25-point Kronrod rule inside each panel (see
quadrature.py).  All weights of one (d, sign) are evaluated together, in
runs of weights of about _BLOCK_NODES nodes.  The factor w'(x) sqrt(x)
does not depend on n: the weights whose windows have the same panel
count (and end) share their panels, and the factor is evaluated once
per distinct panel.  The Kronrod value is the integral.  Its error
estimate is its distance from the Gauss value on the same nodes,
relative to the Kronrod value of int |w'(x) sqrt(x) kernel| (so a
cancelling weight is judged by the digits the sum can hold), floored at
1e-10 of the flat-regime magnitude X/d (without the floor, negligible
weights, such as K1 past the cut or decayed tails, read large relative
estimates).  The weights above the 1e-8 target are integrated again by
the same pipeline on every panel cut in two, checked against their
first value, and flagged if the two differ by more.  Convergence
problems are reported on the returned value, never raised.

The n-sum is folded per divisor into W[r], the sum of tau(n) u_d^-(n)
over n = r (d) and of tau(n) u_d^+(n) over n = -r (d) (u^+ pairs with
K_d(-n, a)); the block is sum_r W[r] K_d(r, a), every a at once by two
length-d DFTs (kloosterman.fold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cutoff import SmoothCutoff
from .bessel import bessel_k1, bessel_y1
from .errors import InvalidRange, SupportTooLarge
from .arith import divisors, reduced_mod
from .kloosterman import fold
from .quadrature import gauss_kronrod
from .tausieve import sieve_tau

_K_ARG_CUT = 50.0  # K1 below exp(-50); beyond this the integrand is dead
_MAX_PANELS = 4000  # per weight
_WINDOWS = 6  # per transition
_BLOCK_NODES = 16384  # kernel evaluations per block: few Python steps, temporaries of 128 KiB
_TARGET = 1e-8  # relative error estimate above which a weight is refined, then flagged


def truncation_thresholds(d: int, X: float, Y: float, eps: float = 0.05) -> tuple[float, float]:
    """(U(d), V(d)) for the flat / decay / tail regime boundaries."""
    return d * d / X, d * d * X ** (1.0 + eps) / (Y * Y)


def _windows(cutoff: SmoothCutoff, c: np.ndarray, oscillatory: bool,
             split: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sqrt of each window's ends, and its panel count; shape (windows, len(c)).

    Each transition is cut into _WINDOWS windows, and a window for scale c
    into as few equal steps of z = c sqrt(x) as keep each within pi (Y1)
    or 2 (K1), each step then into `split` equal parts.  So a split
    panel table nests in the unsplit one, and every cell, even one of a
    single step, gets new nodes.
    """
    Y, X = cutoff.Y, cutoff.X
    width = Y / _WINDOWS
    k = np.arange(_WINDOWS)
    starts = np.concatenate([Y + k * width, X + k * width])
    lo = np.broadcast_to(starts[:, None], (starts.size, len(c)))
    hi = lo + width
    if not oscillatory:
        hi = np.minimum(hi, (_K_ARG_CUT / c) ** 2)
    root_lo, root_hi = np.sqrt(lo), np.sqrt(np.maximum(hi, lo))
    step = math.pi if oscillatory else 2.0
    counts = split * np.ceil(c * (root_hi - root_lo) / step).astype(np.int64)
    per_weight = counts.sum(axis=0)
    cap = split * _MAX_PANELS
    if per_weight.size and per_weight.max() > cap:
        raise SupportTooLarge(
            f"weight quadrature needs {per_weight.max()} panels, over the cap of {cap}"
        )
    return root_lo, root_hi, counts


def _groups(per_weight: np.ndarray, nodes: int) -> list[slice]:
    """Runs of consecutive weights holding about _BLOCK_NODES nodes each."""
    first = (np.cumsum(per_weight) - per_weight) * nodes
    cuts = (np.flatnonzero(np.diff(first // _BLOCK_NODES)) + 1).tolist()
    bounds = [0, *cuts, per_weight.size]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _enumerate(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cell, j) of every panel, j = 0..counts[cell]-1 within each cell."""
    cell = np.repeat(np.arange(counts.size), counts)
    return cell, np.arange(cell.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _distinct_panels(root_lo: np.ndarray, root_hi: np.ndarray,
                     counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct panels of the windows from _windows, and each cell's first.

    A cell (window, weight) is cut into its count of equal steps of sqrt(x),
    which are equal steps of the kernel argument.  The cells of one window
    with one count and the window's largest end (all of them but the K1
    cells clipped at _K_ARG_CUT) cut the same panels; those are listed
    once.  Returns the index of each cell's first panel, shaped like
    counts, and the distinct panels' ends lo, hi.
    """
    n_windows = counts.shape[0]
    top = counts.max(initial=0) + 1
    shared = root_hi == root_hi.max(axis=1, keepdims=True, initial=0.0)
    own = n_windows * top + np.arange(counts.size).reshape(counts.shape)  # a key per cell
    key = np.where(shared, np.arange(n_windows)[:, None] * top + counts, own).ravel()
    live = np.flatnonzero(counts.ravel() > 0)
    _, rep, inverse = np.unique(key[live], return_index=True, return_inverse=True)
    rep = live[rep]  # one cell standing for each distinct key
    n = counts.ravel()[rep]
    first = np.zeros(counts.size, dtype=np.int64)
    first[live] = (np.cumsum(n) - n)[inverse]
    which, j = _enumerate(n)
    r0 = root_lo.ravel()[rep][which]
    dr = ((root_hi.ravel()[rep] - root_lo.ravel()[rep]) / n)[which]
    return first.reshape(counts.shape), (r0 + j * dr) ** 2, (r0 + (j + 1) * dr) ** 2


def _node_table(lo: np.ndarray, hi: np.ndarray,
                cutoff: SmoothCutoff) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(x) at the rule's nodes on each panel [lo, hi], and w'(x) sqrt(x) times the half width.

    Neither depends on the weight: each is evaluated once per distinct panel.
    """
    nodes, _, _ = gauss_kronrod()
    half = 0.5 * (hi - lo)
    x = (0.5 * (hi + lo))[:, None] + half[:, None] * nodes[None, :]
    root = np.sqrt(x)
    factor = cutoff.derivative(x.ravel()).reshape(x.shape) * root * half[:, None]
    return root, factor


def _integrals(cutoff: SmoothCutoff, c: np.ndarray, oscillatory: bool, kernel,
               split: int = 1) -> tuple[np.ndarray, int]:
    """int w'(x) sqrt(x) kernel(c sqrt(x)) dx per weight, and the panels used.

    The panels are those of _windows, each cut into `split`.  Columns: the
    25-point Kronrod value, the 12-point Gauss value on the same nodes, and
    the Kronrod value of the integrand's absolute value.  A block (from
    _groups) is a run of weights with its panels in every window, and one
    kernel call takes them all, so its arguments span several bands of the
    kernel (the Hankel expansion's term count follows its argument).
    """
    root_lo, root_hi, counts = _windows(cutoff, c, oscillatory, split)
    first, lo, hi = _distinct_panels(root_lo, root_hi, counts)
    root, factor = _node_table(lo, hi, cutoff)
    _, kronrod, gauss = gauss_kronrod()
    rules = np.column_stack([kronrod, gauss])
    per_weight = counts.sum(axis=0)
    out = np.zeros((len(c), 3))
    for g in _groups(per_weight, kronrod.size):
        size = g.stop - g.start
        cell, j = _enumerate(counts[:, g].ravel())
        owner = cell % size
        shape = first[:, g].ravel()[cell] + j
        z = c[g][owner][:, None] * root[shape]
        values = factor[shape] * kernel(z.ravel()).reshape(z.shape)
        sums = np.column_stack([values @ rules, np.abs(values) @ kronrod])
        for col in range(3):
            out[g, col] = np.bincount(owner, weights=sums[:, col], minlength=size)
    return out, int(per_weight.sum())


@dataclass(frozen=True)
class WeightValue:
    """One weight, or one array of weights when weight_u is given an array n.

    value and error_estimate follow n; converged (all of them) and panels
    (the total) stay scalar.
    """

    value: float | np.ndarray
    error_estimate: float | np.ndarray  # relative, against int |integrand| or the regime scale
    converged: bool
    panels: int


def weight_u(d: int, n, sign: int, cutoff: SmoothCutoff) -> WeightValue:
    """u_d^+(n) for sign=+1, u_d^-(n) for sign=-1; n an int or an int array."""
    n_arr = np.atleast_1d(np.asarray(n, dtype=np.int64))
    if n_arr.size and n_arr.min() < 1:
        raise InvalidRange(f"need n >= 1, got {n_arr.min()}")
    if sign not in (+1, -1):
        raise InvalidRange(f"sign must be +1 or -1, got {sign}")
    c = 4.0 * math.pi * np.sqrt(n_arr.astype(np.float64)) / d
    if sign > 0:
        kernel, prefactor = bessel_k1, 4.0 / d
        by_parts = 2.0 / c  # int w K0 = (2/c) int w' sqrt(x) K1
    else:
        kernel, prefactor = bessel_y1, -2.0 * math.pi / d
        by_parts = -2.0 / c  # int w Y0 = -(2/c) int w' sqrt(x) Y1
    floor = 1e-10 * cutoff.X / d  # 1e-10 of the flat-regime magnitude
    sums, n_panels = _integrals(cutoff, c, sign < 0, kernel)
    fine, coarse, mass = by_parts * sums.T
    err = np.abs(fine - coarse) / np.maximum(np.abs(mass), floor)
    redo = np.flatnonzero(err > _TARGET)
    if redo.size:
        sums, used = _integrals(cutoff, c[redo], sign < 0, kernel, split=2)
        refined, _, mass = by_parts[redo] * sums.T
        err[redo] = np.abs(refined - fine[redo]) / np.maximum(np.abs(mass), floor)
        fine[redo] = refined
        n_panels += used
    value = prefactor * fine
    if np.ndim(n) == 0:
        value, err = float(value[0]), float(err[0])
    return WeightValue(
        value=value,
        error_estimate=err,
        converged=bool(np.all(err <= _TARGET)),
        panels=int(n_panels),
    )


@dataclass(frozen=True)
class TruncationEntry:
    d: int
    V: float
    n_terms: int
    n_flagged: int


@dataclass(frozen=True)
class VoronoiErrorTerm:
    X: int
    q: int
    a: int
    Y: float
    eps: float
    approx_R: float
    budget: float
    truncation_report: tuple[TruncationEntry, ...]


def error_budget(q: int, Y: float) -> float:
    """(Y/q + 1) (Yq)^0.1: the truncation error scale of the expansion.

    The exponent 0.1 stands in for the epsilon of (Yq)^eps.
    """
    return (Y / q + 1.0) * (Y * q) ** 0.1


def voronoi_error_terms(
    X: int,
    q: int,
    a_values,
    Y: float,
    eps: float = 0.05,
) -> list[VoronoiErrorTerm]:
    """The expansion evaluated for several residues, sharing all weights."""
    if not math.isfinite(eps):
        raise InvalidRange(f"eps must be finite, got {eps}")
    a_arr = reduced_mod(a_values, q)
    cutoff = SmoothCutoff(X=float(X), Y=float(Y))
    totals = np.zeros(len(a_arr))
    report: list[TruncationEntry] = []
    for d in divisors(q):
        _, V = truncation_thresholds(d, float(X), float(Y), eps)
        nmax = int(V)
        if nmax < 1:
            report.append(TruncationEntry(d=d, V=V, n_terms=0, n_flagged=0))
            continue
        n = np.arange(1, nmax + 1, dtype=np.int64)
        tau = sieve_tau(1, nmax).values.astype(np.float64)
        up = weight_u(d, n, +1, cutoff)
        um = weight_u(d, n, -1, cutoff)
        flagged = int(np.count_nonzero(up.error_estimate > _TARGET)
                      + np.count_nonzero(um.error_estimate > _TARGET))
        r = n % d
        W = np.bincount(r, weights=tau * um.value, minlength=d)
        W += np.bincount(r, weights=tau * up.value, minlength=d)[-np.arange(d) % d]
        totals += fold(d, W, a_arr)
        report.append(TruncationEntry(d=d, V=V, n_terms=nmax, n_flagged=flagged))
    budget = error_budget(q, Y)
    rep = tuple(report)
    return [
        VoronoiErrorTerm(
            X=X, q=q, a=a, Y=Y, eps=eps, approx_R=float(t) / q, budget=budget,
            truncation_report=rep,
        )
        for a, t in zip(a_arr.tolist(), totals)
    ]
