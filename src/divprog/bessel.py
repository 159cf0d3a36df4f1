"""The kernels K0, Y0 of the divisor-sum transform weights, and K1, Y1.

The weights are integrals of the cutoff against K0 and Y0; integrated by
parts they become integrals of the cutoff's derivative against K1 and Y1
(see voronoi.py), so the library evaluates only K1 and Y1, and K0 and Y0
are checked against mpmath and scipy alone.  All four functions are held
to an accuracy far below anything the oscillatory quadrature downstream
can feel; targets are ~1e-12 absolute against the local envelope
sqrt(2/(pi x)) and 1e-10 relative away from zeros.

Every kernel is built the same way, by one builder: its ascending series
near 0, its large-argument expansion past x = 17, and in between the
trapezoid rule on an integral of the kernel.  The four ascending series
are one recurrence in (+-x^2/4)^k / (k! (k + nu)!).  Both large-argument
expansions are summed on the same bands, (17, 25] and (25, inf), with one
truncation rule: each band sums the terms its lower end needs for the next
one to fall under 1e-17, or, where the divergent series never gets that
small, up to its smallest term.  The library never evaluates K1 past
voronoi._K_ARG_CUT = 50.

K0, K1 (positive, monotone decreasing):
  * x <= 2: ascending series (DLMF 10.31.2, 10.31.1)
        K0 = -(log(x/2) + gamma) I0(x) + sum_k H_k (x^2/4)^k / (k!)^2,
        K1 = 1/x + (log(x/2) + gamma) I1(x)
             - (x/4) sum_k (H_k + H_(k+1)) (x^2/4)^k / (k! (k+1)!),
    no cancellation for K0 and one digit for K1;
  * 2 < x <= 17: the trapezoid rule on K_nu = int_0^inf exp(-x cosh t)
    cosh(nu t) dt (DLMF 10.32.9), exp(-x) factored out,
        K_nu ~ h exp(-x) [1/2 + sum_(k=1..21) cosh(nu k h) exp(-x (cosh kh - 1))],
    h = 0.18.  The integrand is analytic in the strip |Im t| < pi/2, so the
    rule's relative error is about exp(x - pi^2/h) < 1e-16 at x = 17, and
    the terms past t = 3.78 are below exp(-41) of K at x = 2.  Against
    mpmath it reads under 1e-15 relative;
  * 17 < x <= 700: the large-argument expansion (DLMF 10.40.2)
        K_nu = sqrt(pi/(2x)) exp(-x) sum_k a_k(nu) / x^k,
        a_k(nu) = (mu - 1)(mu - 9)..(mu - (2k-1)^2) / (k! 8^k), mu = 4 nu^2,
    with 33 terms on (17, 25] (every one built, a_0 .. a_32; the first
    neglected term is < 2e-15 of the function at x = 17) and 20 on (25, 700];
  * x > 700: below the double-precision floor, flushed to exactly 0.

Y0, Y1 (oscillatory):
  * x <= 8: ascending series (DLMF 10.8.2, 10.8.1)
        Y0 = (2/pi)[(log(x/2) + gamma) J0(x)
                    + sum_k (-1)^(k+1) H_k (x^2/4)^k / (k!)^2],
        Y1 = -2/(pi x) + (2/pi)(log(x/2) + gamma) J1(x)
             - (x/(2 pi)) sum_k (H_k + H_(k+1)) (-x^2/4)^k / (k! (k+1)!);
    cancellation grows with x and caps the accuracy near 1e-13 at x = 8;
  * 8 < x <= 17: the trapezoid rule on Hankel's integral (checked against
    mpmath; expanding its last factor binomially in u = s^2 gives the
    large-argument expansion)
        H_nu^(1)(x) = sqrt(2/(pi x)) exp(i w) / Gamma(nu + 1/2)
                      int_R s^(2 nu) exp(-s^2) (1 + i s^2/(2x))^(nu - 1/2) ds,
    w = x - (2 nu + 1) pi/4 and Y_nu = Im H_nu^(1), at h = 0.45 on the nodes
    s = 0, +-h, .., +-14h (exp(-s^2) < 1e-17 past s = 6.3), in real
    arithmetic: sqrt(1 + ia) = c + ia/(2c), c = sqrt((1 + sqrt(1 + a^2))/2).
    sin w and cos w come from sin x and cos x, so x - (2 nu + 1) pi/4 is
    never rounded.  Against mpmath it reads under 7e-16 of the envelope;
  * x > 17: modulus and phase (DLMF 10.18.4), Y_nu = M_nu(x) sin(theta_nu(x)),
        M_nu^2 = (2/(pi x)) sum_k m_k x^(-2k),
        m_k = (1.3..(2k-1) / 2.4..(2k)) (mu - 1)(mu - 9)..(mu - (2k-1)^2) / 4^k
    (DLMF 10.18.17), and, from the Wronskian M_nu^2 theta_nu' = 2/(pi x)
    (DLMF 10.18.8),
        theta_nu = x - (2 nu + 1) pi/4 - sum_(k>=1) s_k x^(1-2k) / (2k - 1),
    with sum_k s_k y^k the reciprocal series of sum_k m_k y^k.  Both tables
    are built at import.  x is reduced mod 2 pi before the shift and the
    phase series are taken off: k = rint((x - (2 nu + 1) pi/4) / (2 pi)),
    r = x - k c1 - k c2 - k c3 with c1 + c2 + c3 = 2 pi, c1 = 6.28125 (8
    bits, so k c1 and its subtraction are exact for k < 2^45) and c2 of 23
    bits (exact for k < 2^30, x < 6e9); one sine of |theta| < pi + 0.03 per
    point.  The bands are (17, 25] with 18 terms of M^2 and 18 of the phase
    series (each series cut at its smallest term, < 5e-16 of the leading
    one) and (25, inf) with 10 and 10.  Against mpmath the route reads
    under 1e-15 of the envelope from x = 17 to 1e9.

Relative accuracy at an individual zero of Y_nu is meaningless in
doubles (the zero's location itself carries rounding); accuracy
statements near zeros are against the envelope sqrt(2/(pi x)).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InvalidRange

EULER_GAMMA = 0.57721566490153286061

_K_SERIES_TERMS = 20
_Y_SERIES_TERMS = 32
_HANKEL_MAX_TERMS = 32
_HANKEL_TAIL = 1e-17
_BANDS = (17.0, 25.0, np.inf)  # of the large-argument expansions; K's capped at _K_FLOOR
# 2 pi = _TWO_PI_1 + _TWO_PI_2 + _TWO_PI_3; the first two carry 8 and 23 significant bits
_TWO_PI_1 = 6.28125
_TWO_PI_2 = float.fromhex("0x1.fb5444p-10")
_TWO_PI_3 = float.fromhex("0x1.68c234c4c6629p-37")
_INV_2PI = 1.0 / (2.0 * np.pi)
_K_FLOOR = 700.0  # K0, K1 < 1e-305 beyond; flushed to 0
_K_SERIES_MAX = 2.0
_Y_SERIES_MAX = 8.0
_TRAPEZOID_STEP = 0.18  # h and the node count of the K rule, set by the band ends
_TRAPEZOID_NODES = 21
_Y_TRAPEZOID_STEP = 0.45  # h and the node count of the Y rule: s = 0, +-h, .., +-14h
_Y_TRAPEZOID_NODES = 14

_HARMONIC = np.cumsum(1.0 / np.arange(1, 64))  # _HARMONIC[k - 1] = H_k

def _ascending(x: np.ndarray, order: int, sign: float, terms: int) -> tuple:
    """log(x/2) + gamma, sum_k t_k and sum_k h_k t_k over k <= terms.

    t_k = (sign x^2/4)^k / (k! (k + order)!) and h_k = H_k + order H_(k+1):
    sign = 1 gives I_order's series for K, sign = -1 J_order's for Y.
    """
    y = x * x / 4.0 * sign
    harmonic = _HARMONIC[:-1] + order * _HARMONIC[1:]  # h_k, k >= 1
    total = np.ones_like(x)
    weighted = np.full_like(x, float(order))  # h_0 t_0
    term = np.ones_like(x)
    for k in range(1, terms + 1):
        term = term * y / (k * (k + order))
        total += term
        weighted += harmonic[k - 1] * term
    return np.log(x / 2.0) + EULER_GAMMA, total, weighted


def _k0_series(x: np.ndarray) -> np.ndarray:
    log_term, i0, h = _ascending(x, 0, 1.0, _K_SERIES_TERMS)
    return -log_term * i0 + h


def _k1_series(x: np.ndarray) -> np.ndarray:
    log_term, i1, h = _ascending(x, 1, 1.0, _K_SERIES_TERMS)  # I1 = (x/2) i1
    half = x / 2.0
    return 1.0 / x + log_term * half * i1 - half / 2.0 * h


def _y0_series(x: np.ndarray) -> np.ndarray:
    log_term, j0, h = _ascending(x, 0, -1.0, _Y_SERIES_TERMS)
    return 2.0 / np.pi * (log_term * j0 - h)


def _y1_series(x: np.ndarray) -> np.ndarray:
    log_term, j1, h = _ascending(x, 1, -1.0, _Y_SERIES_TERMS)  # J1 = (x/2) j1
    half = x / 2.0
    return (-1.0 / half + 2.0 * log_term * half * j1 - half * h) / np.pi


def _k_trapezoid(x: np.ndarray, order: int) -> np.ndarray:
    """K_order on (2, 17] by the trapezoid rule; cosh t - 1 = 2 sinh(t/2)^2."""
    acc = np.full_like(x, 0.5)
    term = np.empty_like(x)
    for k in range(1, _TRAPEZOID_NODES + 1):
        t = k * _TRAPEZOID_STEP
        np.multiply(x, -2.0 * math.sinh(t / 2.0) ** 2, out=term)
        np.exp(term, out=term)
        term *= math.cosh(order * t)
        acc += term
    acc *= _TRAPEZOID_STEP
    return acc * np.exp(-x)


def _y_trapezoid(x: np.ndarray, order: int) -> np.ndarray:
    """Y_order on (8, 17] by the trapezoid rule on Hankel's integral, in real arithmetic."""
    half_inv = 0.5 / x
    re = np.full_like(x, float(order == 0))  # the node s = 0, where s^(2 order) is 1 or 0
    im = np.zeros_like(x)
    for k in range(1, _Y_TRAPEZOID_NODES + 1):
        s2 = (k * _Y_TRAPEZOID_STEP) ** 2
        w = 2.0 * s2**order * math.exp(-s2)  # the nodes +-s together
        a = s2 * half_inv
        r = np.sqrt(1.0 + a * a)  # |1 + ia|
        c = np.sqrt(0.5 + 0.5 * r)
        b = a / c  # sqrt(1 + ia) = c + i b/2
        if order == 0:  # (1 + ia)^(-1/2) = (c - i b/2) / |1 + ia|
            c /= r
            b /= r
        re += w * c
        im += (w * (order - 0.5)) * b
    shift = (2 * order + 1) * np.pi / 4.0
    sin_x, cos_x = np.sin(x), np.cos(x)
    re *= sin_x * math.cos(shift) - cos_x * math.sin(shift)  # sin w
    im *= cos_x * math.cos(shift) + sin_x * math.sin(shift)  # cos w
    re += im
    return re * np.sqrt(2.0 / (np.pi * x)) * (_Y_TRAPEZOID_STEP / math.gamma(order + 0.5))


def _horner(y: np.ndarray, coeffs) -> np.ndarray:
    """sum_k coeffs[k] y^k."""
    acc = np.full_like(y, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= y
        acc += c
    return acc


def _k_asymptotic(x: np.ndarray, coeffs: tuple) -> np.ndarray:
    inv_x = 1.0 / x
    return np.sqrt(np.pi / 2.0 * inv_x) * np.exp(-x) * _horner(inv_x, coeffs)


def _modulus_phase_coeffs(order: int) -> tuple[list[float], list[float]]:
    """m_0 .. m_N of M^2 and s_0 .. s_N of 1/(sum m_k y^k), N = _HANKEL_MAX_TERMS."""
    mu = 4.0 * order * order
    m = [1.0]
    for k in range(1, _HANKEL_MAX_TERMS + 1):
        m.append(m[-1] * (2 * k - 1) / (2 * k) * (mu - (2 * k - 1) ** 2) / 4.0)
    s = [1.0]
    for n in range(1, _HANKEL_MAX_TERMS + 1):
        s.append(-sum(m[j] * s[n - j] for j in range(1, n + 1)))
    return m, s


def _truncation(coeffs: list[float], lo: float, step: int, first: int) -> tuple:
    """The terms to keep of sum_k coeffs[k] x^-(step k + first) on x > lo.

    Up to the first term after which the next one falls under _HANKEL_TAIL
    at x = lo, or else up to the smallest term, where the divergent series
    is best cut.
    """
    sizes = [abs(c) * lo ** -(step * k + first) for k, c in enumerate(coeffs)]
    for k in range(1, len(sizes)):
        if sizes[k] < _HANKEL_TAIL or sizes[k] >= sizes[k - 1]:
            return tuple(coeffs[:k])
    return tuple(coeffs)


def _y_modulus_phase(x: np.ndarray, shift: float, m_coeffs: tuple, h_coeffs: tuple) -> np.ndarray:
    """M sin(theta), theta = x - shift - sum_k h_k x^-(2k+1), x reduced mod 2 pi first."""
    inv_x = 1.0 / x
    y = inv_x * inv_x
    k = np.rint((x - shift) * _INV_2PI)  # so that |theta| < pi + 0.03
    theta = x - k * _TWO_PI_1  # exact
    theta -= k * _TWO_PI_2  # exact for k < 2^30
    theta -= k * _TWO_PI_3
    series = _horner(y, h_coeffs)
    series *= inv_x
    series += shift
    theta -= series
    amplitude = _horner(y, m_coeffs)
    amplitude *= inv_x
    amplitude *= 2.0 / np.pi
    return np.sqrt(amplitude, out=amplitude) * np.sin(theta, out=theta)


def _kernel_routes(order: int, series, oscillatory: bool) -> tuple[np.ndarray, tuple]:
    """The routes of Y_order (oscillatory) or of K_order, tiling (0, inf).

    (edges, fns): fns[i] serves (edges[i-1], edges[i]].  The ascending series
    runs up to _Y_SERIES_MAX or _K_SERIES_MAX, the trapezoid rule up to 17,
    then the large-argument expansion over each of _BANDS; K is 0 past
    _K_FLOOR.
    """
    if oscillatory:
        edges = [_Y_SERIES_MAX, *_BANDS[:-1]]
        rule = _y_trapezoid
        m, s = _modulus_phase_coeffs(order)
        h = [s[k] / (2 * k - 1) for k in range(1, len(s))]  # theta's terms h_(k-1) x^(1-2k)
        shift = (2 * order + 1) * np.pi / 4.0
        bands = [functools.partial(_y_modulus_phase, shift=shift,
                                   m_coeffs=_truncation(m, lo, 2, 0),
                                   h_coeffs=_truncation(h, lo, 2, 1))
                 for lo in _BANDS[:-1]]
    else:
        edges = [_K_SERIES_MAX, *_BANDS[:-1], _K_FLOOR]
        rule = _k_trapezoid
        a = [1.0]  # a_k(order)
        for k in range(1, _HANKEL_MAX_TERMS + 1):
            a.append(a[-1] * (4.0 * order * order - (2 * k - 1) ** 2) / (8.0 * k))
        bands = [functools.partial(_k_asymptotic, coeffs=_truncation(a, lo, 1, 0))
                 for lo in _BANDS[:-1]]
        bands.append(np.zeros_like)
    return np.array(edges), (series, functools.partial(rule, order=order), *bands)


def _dispatch(x, routes: tuple[np.ndarray, tuple]) -> np.ndarray | float:
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not arr.size:
        return arr.copy()
    lo, hi = arr.min(), arr.max()  # a NaN anywhere makes both NaN
    if not (lo > 0.0 and math.isfinite(hi)):
        raise InvalidRange("kernels are defined for finite positive arguments only")
    edges, fns = routes
    first, last = edges.searchsorted((lo, hi))  # fns[i] serves (edges[i-1], edges[i]]
    if first == last:  # one route serves every argument
        out = fns[first](arr)
    else:
        route = edges.searchsorted(arr)
        out = np.empty_like(arr)
        for i in range(first, last + 1):
            m = route == i
            out[m] = fns[i](arr[m])
    return float(out[0]) if scalar else out


_K0_ROUTES = _kernel_routes(0, _k0_series, oscillatory=False)
_K1_ROUTES = _kernel_routes(1, _k1_series, oscillatory=False)
_Y0_ROUTES = _kernel_routes(0, _y0_series, oscillatory=True)
_Y1_ROUTES = _kernel_routes(1, _y1_series, oscillatory=True)


def bessel_k0(x) -> np.ndarray | float:
    """K0(x) for scalar or array x > 0."""
    return _dispatch(x, _K0_ROUTES)


def bessel_k1(x) -> np.ndarray | float:
    """K1(x) for scalar or array x > 0."""
    return _dispatch(x, _K1_ROUTES)


def bessel_y0(x) -> np.ndarray | float:
    """Y0(x) for scalar or array x > 0."""
    return _dispatch(x, _Y0_ROUTES)


def bessel_y1(x) -> np.ndarray | float:
    """Y1(x) for scalar or array x > 0."""
    return _dispatch(x, _Y1_ROUTES)
