"""Divisor-weighted Poisson summation for smooth 2-D test functions.

For g(x, y) = g1(x) g2(y) compactly supported in the open positive
quadrant, write tau_g(m) = sum_{m1 m2 = m} g(m1, m2).  With

    h(x, y) = (1/q) ghat(x/q, y/q),
    ghat(u, v) = int int g(x, y) e(ux + vy) dx dy,   e(t) = exp(2 pi i t),

and the boundary value

    tau_h(0) = int int (1/q + {x/q} d/dx + {y/q} d/dy) g(x, y) dx dy,

the two summation formulas implemented here are

    sum_m tau_g(m) e_q(z m)   = sum_n tau_h(n) e_q(-zbar n)        (plain)
    sum_m tau_g(m) chi(m)     = eta(chi) sum_n tau_h(n) chibar(n)  (twisted)

where zbar is the inverse of z mod q, chi is a primitive character,
eta(chi) = conj(tau(chi))/tau(chi) with the Gauss sum from the
characters module, and the dual sums run over ALL nonzero integer pairs
(m1, m2) of both signs with n = m1 m2 (the twisted case drops tau_h(0)
since chibar(0) = 0).

Both sides are returned; nothing is asserted here.  The dual side
truncates frequencies where |ghat_i(m/q)| falls below 1e-13 of its peak;
Fourier integrals use panel-composite Gauss-Legendre with one panel per
oscillation.  The panels share one half width h, so a node is
x = mid_p + h t_k and its phase separates, e(u x) = e(u mid_p) e(u h t_k):
a frequency costs P + 16 complex exponentials for P panels, not 16 P.

The dual weight depends on m1 m2 only mod q, so each side is first
folded by residue, H_i[r] = sum_{m = r mod q} h_i(m), and the double sum
runs over the pairs of residues that occur: at most min(q, 2 M_i) per
side instead of 2 M_i frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import mod_inverse
from .characters import character_table, eta_factor
from .errors import InvalidRange, SupportTooLarge
from .quadrature import gauss_legendre

_EXTENT_CAP = 1e5
_LATTICE_CAP = 4 * 10**6
_FREQ_CAP = 8192
_FREQ_TOL = 1e-13
_FREQ_RUN = 8  # consecutive sub-threshold magnitudes ending the scan
_PHASE_CHUNK = 1 << 16  # frequency x panel phases evaluated per step in fourier
_DUAL_ROWS = 256  # residue rows of the folded dual sum per step


def _panels(lo: float, hi: float, panels: int) -> tuple[np.ndarray, float]:
    """Midpoints and the common half width of `panels` equal panels of [lo, hi]."""
    h = 0.5 * (hi - lo) / panels
    return lo + h * np.arange(1, 2 * panels, 2), h


def _gl_mesh(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 16-point rule on `panels` equal panels of [lo, hi]."""
    nodes, weights = gauss_legendre(16)
    mid, h = _panels(lo, hi, panels)
    xs = (mid[:, None] + h * nodes[None, :]).ravel()
    return xs, np.tile(h * weights, panels)


@dataclass(frozen=True)
class BumpFunction:
    """exp(-1/(1-t^2)) bump rescaled to [center-radius, center+radius]."""

    center: float
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.radius) and self.radius > 0):
            raise InvalidRange(
                f"need a finite center and radius > 0, got {self.center}, {self.radius}")

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.radius, self.center + self.radius)

    def __call__(self, x) -> np.ndarray:
        t = (np.asarray(x, dtype=np.float64) - self.center) / self.radius
        out = np.zeros_like(t)
        m = np.abs(t) < 1.0
        out[m] = np.exp(-1.0 / (1.0 - t[m] * t[m]))
        return out

    def deriv(self, x) -> np.ndarray:
        t = (np.asarray(x, dtype=np.float64) - self.center) / self.radius
        out = np.zeros_like(t)
        m = np.abs(t) < 1.0
        tm = t[m]
        out[m] = np.exp(-1.0 / (1.0 - tm * tm)) * (-2.0 * tm) / (1.0 - tm * tm) ** 2
        return out / self.radius

    def integral(self) -> float:
        xs, ws = _gl_mesh(*self.support, 24)
        return float(np.sum(self(xs) * ws))

    def fourier(self, u) -> np.ndarray:
        """ghat(u) = int g(x) e(ux) dx, vectorized over u."""
        u_arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
        panels = 24 + int(math.ceil(2.0 * self.radius * np.abs(u_arr).max()))
        mid, h = _panels(*self.support, panels)
        nodes, weights = gauss_legendre(16)
        gw = self(mid[:, None] + h * nodes[None, :]) * (h * weights)  # panels x 16
        out = np.empty(len(u_arr), dtype=np.complex128)
        step = max(1, _PHASE_CHUNK // panels)
        for lo in range(0, len(u_arr), step):
            chunk = u_arr[lo : lo + step, None]
            # e(u x) = e(u mid_p) e(u h t_k) at the node x = mid_p + h t_k
            outer = np.exp(2j * np.pi * chunk * mid[None, :])
            inner = np.exp(2j * np.pi * chunk * (h * nodes)[None, :])
            out[lo : lo + step] = ((outer @ gw) * inner).sum(axis=1)
        return out

    def frac_weighted_deriv_integral(self, q: int) -> float:
        """int {x/q} g'(x) dx, panels split at the jumps of {x/q}."""
        lo, hi = self.support
        cuts = [lo, hi]
        k = math.floor(lo / q) + 1
        while k * q < hi:
            cuts.append(k * q)
            k += 1
        cuts = np.sort(np.asarray(cuts, dtype=np.float64))
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            xs, ws = _gl_mesh(a, b, 16)
            frac = xs / q - np.floor(xs / q)
            total += float(np.sum(frac * self.deriv(xs) * ws))
        return total


@dataclass(frozen=True)
class ProductTestFunction:
    """g(x, y) = gx(x) gy(y), supported in the open positive quadrant."""

    gx: BumpFunction
    gy: BumpFunction

    def __post_init__(self):
        for g in (self.gx, self.gy):
            lo, hi = g.support
            if lo < 0.0:
                raise InvalidRange("support must lie in the positive quadrant")
            if hi > _EXTENT_CAP:
                raise SupportTooLarge(f"support reaches {hi}, beyond the {_EXTENT_CAP} cap")

    def __call__(self, x, y) -> np.ndarray:
        return self.gx(x) * self.gy(y)


def _lattice_points(g: BumpFunction) -> np.ndarray:
    lo, hi = g.support
    return np.arange(max(1, math.ceil(lo)), math.floor(hi) + 1, dtype=np.int64)


def _dual_frequencies(g: BumpFunction, q: int) -> tuple[np.ndarray, bool]:
    """ghat(m/q) for m = 0..M, adaptively cut; (values, converged)."""
    vals = [g.fourier(np.array([0.0]))[0]]
    peak = abs(vals[0])
    run = 0
    m = 0
    while m < _FREQ_CAP:
        block = np.arange(m + 1, m + 33)
        hats = g.fourier(block / q)
        vals.extend(hats)
        m += 32
        for h in hats:
            run = run + 1 if abs(h) < _FREQ_TOL * peak else 0
            peak = max(peak, abs(h))
        if run >= _FREQ_RUN:
            return np.asarray(vals), True
    return np.asarray(vals), False


@dataclass(frozen=True)
class PoissonCheck:
    q: int
    z: int
    lhs: complex
    rhs: complex
    tau_h0: float
    m_cutoffs: tuple[int, int]
    freq_converged: bool

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def _lhs_lattice(g: ProductTestFunction, weight_of_product) -> complex:
    m1 = _lattice_points(g.gx)
    m2 = _lattice_points(g.gy)
    if len(m1) * len(m2) > _LATTICE_CAP:
        raise SupportTooLarge(f"{len(m1)}x{len(m2)} lattice points exceed the enumeration cap")
    v1 = g.gx(m1)
    v2 = g.gy(m2)
    prods = m1[:, None] * m2[None, :]
    return complex(np.sum((v1[:, None] * v2[None, :]) * weight_of_product(prods)))


def _tau_h0(g: ProductTestFunction, q: int) -> float:
    Ix = g.gx.integral()
    Iy = g.gy.integral()
    Jx = g.gx.frac_weighted_deriv_integral(q)
    Jy = g.gy.frac_weighted_deriv_integral(q)
    return Ix * Iy / q + Jx * Iy + Ix * Jy


def _fold_by_residue(h_pos: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Residues r that occur among m = +-1..+-M mod q, and H[r] = sum_{m = r} ghat(m/q).

    h_pos holds ghat(m/q) for m = 0..M; ghat(-m/q) is its conjugate.
    """
    M = len(h_pos) - 1
    m = np.concatenate([np.arange(-M, 0), np.arange(1, M + 1)])
    h = np.concatenate([np.conj(h_pos[M:0:-1]), h_pos[1:]])
    r, slot = np.unique(m % q, return_inverse=True)
    H = np.bincount(slot, weights=h.real) + 1j * np.bincount(slot, weights=h.imag)
    return r, H


def _dual_sum(g: ProductTestFunction, q: int, weight_of_product) -> tuple[complex, tuple[int, int], bool]:
    """sum over nonzero integer pairs of h(m1, m2) * weight(m1 m2)."""
    h1_pos, ok1 = _dual_frequencies(g.gx, q)
    h2_pos, ok2 = _dual_frequencies(g.gy, q)
    M1, M2 = len(h1_pos) - 1, len(h2_pos) - 1
    # g real: ghat(-u) = conj(ghat(u)); the weight depends on m1 m2 only mod q
    r1, H1 = _fold_by_residue(h1_pos, q)
    r2, H2 = _fold_by_residue(h2_pos, q)
    total = 0j
    for lo in range(0, len(r1), _DUAL_ROWS):
        rows = slice(lo, lo + _DUAL_ROWS)
        wmat = weight_of_product(r1[rows, None] * r2[None, :])
        total += np.sum((H1[rows, None] * H2[None, :]) * wmat)
    return total / q, (M1, M2), ok1 and ok2


def poisson_tau(g: ProductTestFunction, q: int, z: int) -> PoissonCheck:
    """Both sides of the plain summation formula; compare them yourself."""
    if q < 1:
        raise InvalidRange(f"need q >= 1, got {q}")
    zbar = mod_inverse(z, q)  # also enforces gcd(z, q) = 1
    eq = np.exp(2j * np.pi / q * np.arange(q))
    lhs = _lhs_lattice(g, lambda prods: eq[z % q * prods % q])
    tail, cutoffs, ok = _dual_sum(g, q, lambda prods: eq[(-zbar * prods) % q])
    t0 = _tau_h0(g, q)
    return PoissonCheck(
        q=q, z=z, lhs=lhs, rhs=t0 + tail, tau_h0=t0, m_cutoffs=cutoffs, freq_converged=ok
    )


@dataclass(frozen=True)
class TwistedPoissonCheck:
    p: int
    j: int
    lhs: complex
    rhs: complex
    eta: complex
    m_cutoffs: tuple[int, int]
    freq_converged: bool

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def poisson_tau_twisted(g: ProductTestFunction, p: int, j: int) -> TwistedPoissonCheck:
    """Both sides of the character-twisted formula for chi_j mod p."""
    table = character_table(p)
    eta = eta_factor(table, j)  # NotPrimitive for the principal index
    chi = table.chi_row(j)
    lhs = _lhs_lattice(g, lambda prods: chi[prods % p])
    tail, cutoffs, ok = _dual_sum(g, p, lambda prods: np.conj(chi[prods % p]))
    return TwistedPoissonCheck(
        p=p, j=j, lhs=lhs, rhs=eta * tail, eta=eta, m_cutoffs=cutoffs, freq_converged=ok
    )
