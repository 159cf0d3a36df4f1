"""The kernels K0, Y0 of the divisor-sum transform weights, and K1, Y1.

The weights are integrals of the cutoff against K0 and Y0; integrated by
parts they become integrals of the cutoff's derivative against K1 and Y1
(see voronoi.py).  All four functions are needed at absolute accuracy far
below anything the oscillatory quadrature downstream can feel; targets
are ~1e-12 absolute against the local envelope and 1e-10 relative away
from zeros.

K0, K1 (positive, monotone decreasing):
  * x <= 2: ascending series (DLMF 10.31.2, 10.31.1)
        K0 = -(log(x/2) + gamma) I0(x) + sum_k H_k (x^2/4)^k / (k!)^2,
        K1 = 1/x + (log(x/2) + gamma) I1(x)
             - (x/4) sum_k (H_k + H_(k+1)) (x^2/4)^k / (k! (k+1)!),
    no cancellation for K0 and one digit for K1;
  * x > 2: the integral K_nu = int_0^inf exp(-x cosh t) cosh(nu t) dt,
    truncated where exp(-x cosh t) falls 46 e-foldings under its peak and
    evaluated by a 24-panel trapezoid rule.  The integrand is even at 0
    and dead at the cut, so the trapezoid converges spectrally: against
    mpmath, 16 panels already reach the rounding floor of exp(-x cosh t),
    about 2e-15 relative for x < 20 and 5e-14 near x = 700.  Below the
    double-precision floor (x > 700) the value is flushed to exactly 0.

Y0, Y1 (oscillatory):
  * x <= 8: ascending series (DLMF 10.8.2, 10.8.1)
        Y0 = (2/pi)[(log(x/2) + gamma) J0(x)
                    + sum_k (-1)^(k+1) H_k (x^2/4)^k / (k!)^2],
        Y1 = -2/(pi x) + (2/pi)(log(x/2) + gamma) J1(x)
             - (x/(2 pi)) sum_k (H_k + H_(k+1)) (-x^2/4)^k / (k! (k+1)!);
    cancellation grows with x and caps the accuracy near 1e-13 at x = 8;
  * 8 < x <= 17: a Chebyshev interpolant per order, the leading 32
    coefficients of degree 47; coefficients frozen from
    demos/generate_bessel_table.py (mpmath, 40-digit working precision),
    every dropped coefficient below 1e-24;
  * x > 17: the large-argument (Hankel) expansion, mu = 4 nu^2,
        Y_nu = sqrt(2/(pi x)) [sin(w) P(x) + cos(w) Q(x)],
        w = x - (2 nu + 1) pi/4,
    in bands of x (17, 25, 50, 100, 200, inf), each summing the terms its
    lower end needs for the next one to fall under 1e-17 (32 at x = 17,
    10 at x = 100): safely inside the decreasing range of the divergent
    series (first neglected term < 2e-15 of the envelope at x = 17).

Relative accuracy at an individual zero of Y_nu is meaningless in
doubles (the zero's location itself carries rounding); accuracy
statements near zeros are against the envelope sqrt(2/(pi x)).
"""

from __future__ import annotations

import functools

import numpy as np

EULER_GAMMA = 0.57721566490153286061

_K_SERIES_TERMS = 20
_K_PANELS = 24
_K_CUT_EFOLDINGS = 46.0
_Y_SERIES_TERMS = 32
_HANKEL_MAX_TERMS = 32
_HANKEL_TAIL = 1e-17
_HANKEL_BANDS = (17.0, 25.0, 50.0, 100.0, 200.0, np.inf)

_HARMONIC = np.cumsum(1.0 / np.arange(1, 64))  # _HARMONIC[k - 1] = H_k

_Y_MID_LO = 8.0
_Y_MID_HI = 17.0
_Y0_MID_COEFFS = np.array([
    0.063922071070524766850,
    -0.089918998806429784368,
    0.094512410072830446648,
    -0.12395511958427779222,
    -0.11460836087836227390,
    0.065571886925162203306,
    0.023697336002610349082,
    -0.010599578705475652390,
    -0.0021955542839305848484,
    0.00086406738033639820970,
    0.00011837138364620676072,
    -0.000043021333378805809263,
    -4.2344854486963061149e-6,
    1.4553374395405806388e-6,
    1.0866746152764129319e-7,
    -3.5789230601276169670e-8,
    -2.1084126359906942486e-9,
    6.7070475446483100493e-10,
    3.2092750541038892256e-11,
    -9.9127661398326633015e-12,
    -3.9455327847553883124e-13,
    1.1871399408517571984e-13,
    3.9947597054294698895e-15,
    -1.1746316069976049022e-15,
    -3.4200964492250242300e-17,
    9.8207473747022886322e-18,
    2.4253661046995986553e-19,
    -6.8819597854311968471e-20,
    -1.7001117197239332494e-21,
    4.5542285092513058038e-22,
    3.4759703788914998004e-24,
    -1.3927871590090941459e-24,
])
_Y1_MID_COEFFS = np.array([
    0.044622268522569220571,
    0.063846512636785932985,
    0.049280537575614092535,
    0.14785754381263521889,
    -0.11599295520342296376,
    -0.055890653304453268036,
    0.029722349074715265809,
    0.0073022427025076628480,
    -0.0032541180089867638485,
    -0.00050417252924552772394,
    0.00020215151235882899034,
    0.000021922509182057879278,
    -8.1750063819994104954e-6,
    -6.6141321098908666841e-7,
    2.3360993534616652895e-7,
    1.4739882960681378108e-8,
    -4.9849353290079355138e-9,
    -2.5327356191911432613e-10,
    8.2611704726343190115e-11,
    3.4684424091968119229e-12,
    -1.0960982322437444307e-12,
    -3.8697843919088799253e-14,
    1.1899045884562287788e-14,
    3.6202875622157299917e-16,
    -1.0829943141322898981e-16,
    -2.7815316957629186876e-18,
    8.1998386124088387695e-19,
    2.1113580778839758620e-20,
    -5.8513130108597447097e-21,
    -4.3365066613632927988e-23,
    1.8581512175271659652e-23,
    2.9812051049204029139e-24,
])


def _k0_series(x: np.ndarray) -> np.ndarray:
    y = x * x / 4.0
    i0 = np.ones_like(x)
    extra = np.zeros_like(x)
    term = np.ones_like(x)
    for k in range(1, _K_SERIES_TERMS + 1):
        term = term * y / (k * k)
        i0 += term
        extra += _HARMONIC[k - 1] * term
    return -(np.log(x / 2.0) + EULER_GAMMA) * i0 + extra


def _k1_series(x: np.ndarray) -> np.ndarray:
    y = x * x / 4.0
    i1 = np.ones_like(x)  # I1 = (x/2) i1
    extra = np.ones_like(x)  # k = 0: H_0 + H_1 = 1
    term = np.ones_like(x)
    for k in range(1, _K_SERIES_TERMS + 1):
        term = term * y / (k * (k + 1))
        i1 += term
        extra += (_HARMONIC[k - 1] + _HARMONIC[k]) * term
    half = x / 2.0
    return 1.0 / x + (np.log(half) + EULER_GAMMA) * half * i1 - half / 2.0 * extra


def _k_integral(x: np.ndarray, order: int) -> np.ndarray:
    """K0 (order 0) or K1 (order 1) by the trapezoid rule."""
    T = np.arccosh(1.0 + _K_CUT_EFOLDINGS / x)
    u = np.linspace(0.0, 1.0, _K_PANELS + 1)
    t = T[:, None] * u[None, :]
    cosh_t = np.cosh(t)
    f = np.exp(-x[:, None] * cosh_t)
    if order:  # order 1: the weight cosh(t) is already at hand
        f *= cosh_t
    f[:, 0] *= 0.5
    f[:, -1] *= 0.5
    return T / _K_PANELS * f.sum(axis=1)


def _y0_series(x: np.ndarray) -> np.ndarray:
    y = x * x / 4.0
    j0 = np.ones_like(x)
    extra = np.zeros_like(x)
    term = np.ones_like(x)
    sign = 1.0
    for k in range(1, _Y_SERIES_TERMS + 1):
        term = term * y / (k * k)
        sign = -sign
        j0 += sign * term
        extra += -sign * _HARMONIC[k - 1] * term
    return 2.0 / np.pi * ((np.log(x / 2.0) + EULER_GAMMA) * j0 + extra)


def _y1_series(x: np.ndarray) -> np.ndarray:
    y = x * x / 4.0
    j1 = np.ones_like(x)  # J1 = (x/2) j1
    extra = np.ones_like(x)  # k = 0: H_0 + H_1 = 1
    term = np.ones_like(x)
    for k in range(1, _Y_SERIES_TERMS + 1):
        term = term * -y / (k * (k + 1))
        j1 += term
        extra += (_HARMONIC[k - 1] + _HARMONIC[k]) * term
    half = x / 2.0
    return (-1.0 / half + 2.0 * (np.log(half) + EULER_GAMMA) * half * j1 - half * extra) / np.pi


def _chebyshev(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    t = (2.0 * x - (_Y_MID_LO + _Y_MID_HI)) / (_Y_MID_HI - _Y_MID_LO)
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for c in coeffs[:0:-1]:
        b1, b2 = c + 2.0 * t * b1 - b2, b1
    return coeffs[0] + t * b1 - b2


def _hankel_terms(mu: float, x_min: float) -> int:
    """Terms the expansion needs on arguments x >= x_min."""
    c = 1.0
    for k in range(1, _HANKEL_MAX_TERMS + 1):
        c *= abs(mu - (2 * k - 1) ** 2) / (8.0 * k * x_min)
        if c < _HANKEL_TAIL:
            return k
    return _HANKEL_MAX_TERMS


def _y_hankel(x: np.ndarray, order: int, terms: int) -> np.ndarray:
    mu = 4.0 * order * order
    inv_x = 1.0 / x
    P = np.ones_like(x)
    Q = np.zeros_like(x)
    term = np.ones_like(x)  # (-1)^floor(k/2) a_k(nu) / x^k
    for k in range(1, terms + 1):
        ratio = (mu - (2 * k - 1) ** 2) / (8.0 * k)
        term *= inv_x
        term *= -ratio if k % 2 == 0 else ratio
        if k % 2 == 0:
            P += term
        else:
            Q += term
    phase = x - (2 * order + 1) * np.pi / 4.0
    return np.sqrt(2.0 / np.pi * inv_x) * (np.sin(phase) * P + np.cos(phase) * Q)


def _y_pieces(order: int, series, coeffs: np.ndarray) -> tuple:
    """Routes of Y_order; each Hankel band sums the terms its lower end needs."""
    pieces = [(0.0, _Y_MID_LO, series),
              (_Y_MID_LO, _Y_MID_HI, functools.partial(_chebyshev, coeffs=coeffs))]
    for lo, hi in zip(_HANKEL_BANDS[:-1], _HANKEL_BANDS[1:]):
        terms = _hankel_terms(4.0 * order * order, lo)
        pieces.append((lo, hi, functools.partial(_y_hankel, order=order, terms=terms)))
    return tuple(pieces)


def _dispatch(x, pieces) -> np.ndarray | float:
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.size and arr.min() <= 0.0:
        raise ValueError("kernels are defined for positive arguments only")
    out = np.empty_like(arr)
    for lo, hi, fn in pieces:
        m = (arr > lo) & (arr <= hi)
        if m.any():
            out[m] = fn(arr[m])
    return float(out[0]) if scalar else out


def _k_pieces(order: int, series) -> tuple:
    """Routes of K_order; below the double-precision floor past 700 it is 0."""
    return ((0.0, 2.0, series),
            (2.0, 700.0, functools.partial(_k_integral, order=order)),
            (700.0, np.inf, np.zeros_like))


_K0_PIECES = _k_pieces(0, _k0_series)
_K1_PIECES = _k_pieces(1, _k1_series)
_Y0_PIECES = _y_pieces(0, _y0_series, _Y0_MID_COEFFS)
_Y1_PIECES = _y_pieces(1, _y1_series, _Y1_MID_COEFFS)


def bessel_k0(x) -> np.ndarray | float:
    """K0(x) for scalar or array x > 0."""
    return _dispatch(x, _K0_PIECES)


def bessel_k1(x) -> np.ndarray | float:
    """K1(x) for scalar or array x > 0."""
    return _dispatch(x, _K1_PIECES)


def bessel_y0(x) -> np.ndarray | float:
    """Y0(x) for scalar or array x > 0."""
    return _dispatch(x, _Y0_PIECES)


def bessel_y1(x) -> np.ndarray | float:
    """Y1(x) for scalar or array x > 0."""
    return _dispatch(x, _Y1_PIECES)


def y0_envelope(x) -> np.ndarray | float:
    """The local amplitude sqrt(2/(pi x)); error yardstick near zeros."""
    arr = np.asarray(x, dtype=np.float64)
    return np.sqrt(2.0 / (np.pi * arr))
