"""The kernels K0, Y0 of the divisor-sum transform weights, and K1, Y1.

The weights are integrals of the cutoff against K0 and Y0; integrated by
parts they become integrals of the cutoff's derivative against K1 and Y1
(see voronoi.py), so the library evaluates only K1 and Y1, and K0 and Y0
are checked against mpmath and scipy alone.  All four functions are held
to an accuracy far below anything the oscillatory quadrature downstream
can feel; targets are ~1e-12 absolute against the local envelope
sqrt(2/(pi x)) and 1e-10 relative away from zeros.

Every kernel is built the same way, by one builder: its ascending series
near 0, a Chebyshev interpolant in the middle, and its large-argument
expansion past x = 17.  The four ascending series are one recurrence in
(+-x^2/4)^k / (k! (k + nu)!).  The interpolants keep the leading 32
coefficients of degree 47, frozen from demos/generate_bessel_table.py
(mpmath, 40-digit working precision), every dropped coefficient below
3e-18 of the function.  Both large-argument expansions are summed on the
same bands, (17, 25] and (25, inf), with one truncation rule: each band
sums the terms its lower end needs for the next one to fall under 1e-17,
or, where the divergent series never gets that small, up to its smallest
term.  The library never evaluates K1 past voronoi._K_ARG_CUT = 50.

K0, K1 (positive, monotone decreasing):
  * x <= 2: ascending series (DLMF 10.31.2, 10.31.1)
        K0 = -(log(x/2) + gamma) I0(x) + sum_k H_k (x^2/4)^k / (k!)^2,
        K1 = 1/x + (log(x/2) + gamma) I1(x)
             - (x/4) sum_k (H_k + H_(k+1)) (x^2/4)^k / (k! (k+1)!),
    no cancellation for K0 and one digit for K1;
  * 2 < x <= 17: exp(-x) times a Chebyshev interpolant of exp(x) K_nu on
    (2, 5] and on (5, 17];
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
  * 8 < x <= 17: a Chebyshev interpolant of Y_nu;
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

_HARMONIC = np.cumsum(1.0 / np.arange(1, 64))  # _HARMONIC[k - 1] = H_k

# (lo, hi, coefficients) of the Chebyshev interpolants on (lo, hi]
_Y0_CHEBYSHEV = (
    (8.0, 17.0, np.array([
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
    ])),
)
_Y1_CHEBYSHEV = (
    (8.0, 17.0, np.array([
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
    ])),
)
_K0_CHEBYSHEV = (  # of exp(x) K0
    (2.0, 5.0, np.array([
        0.67109126469452430529,
        -0.14265907925889676822,
        0.022801293417163664995,
        -0.0040666473690411486579,
        0.00076463811568769157359,
        -0.00014841027052723643734,
        0.000029430885891913807757,
        -5.9284545451632260104e-6,
        1.2086143185519938039e-6,
        -2.4875408171834143610e-7,
        5.1597453392073153803e-8,
        -1.0772094903272251927e-8,
        2.2612985783124961020e-9,
        -4.7694354817137247788e-10,
        1.0100908530634242360e-10,
        -2.1469479349559790905e-11,
        4.5779550343673944825e-12,
        -9.7895177257718130568e-13,
        2.0987702797221761563e-13,
        -4.5099839252940260889e-14,
        9.7117892303604061833e-15,
        -2.0953552971287467945e-15,
        4.5287721207577274876e-16,
        -9.8040685456941142025e-17,
        2.1255981375402472789e-17,
        -4.6148425514581723165e-18,
        1.0032072670842573415e-18,
        -2.1834543488443606916e-19,
        4.7575427658971952906e-20,
        -1.0377082055801500360e-20,
        2.2656536744235713344e-21,
        -4.9512157748031718518e-22,
    ])),
    (5.0, 17.0, np.array([
        0.39772884030231708463,
        -0.11640700214868919287,
        0.025396266593469975956,
        -0.0061512410372264494215,
        0.0015646858062653485395,
        -0.00040957773138807087304,
        0.00010926123318051011554,
        -0.000029543469308306395600,
        8.0699706741567610835e-6,
        -2.2219715611766893703e-6,
        6.1573332206869950340e-7,
        -1.7153349399852703051e-7,
        4.8000183696415990018e-8,
        -1.3483217597783253363e-8,
        3.7999620648480353092e-9,
        -1.0740436881015005951e-9,
        3.0435196718702020877e-10,
        -8.6441288408355572538e-11,
        2.4601195937964092577e-11,
        -7.0144784340880924270e-12,
        2.0033894206641364990e-12,
        -5.7306366841772238131e-13,
        1.6415450292973418090e-13,
        -4.7083300780060100494e-14,
        1.3520808141205770130e-14,
        -3.8870698602369748093e-15,
        1.1186452789466680473e-15,
        -3.2224242358918187071e-16,
        9.2910812832813909939e-17,
        -2.6811345111168564064e-17,
        7.7431488702020932213e-18,
        -2.2379127271715429285e-18,
    ])),
)
_K1_CHEBYSHEV = (  # of exp(x) K1
    (2.0, 5.0, np.array([
        0.77485455517459478033,
        -0.20778966343016590638,
        0.040115768698775590784,
        -0.0083937824278738468298,
        0.0018125239211350227307,
        -0.00039747537902557955012,
        0.000087914887824335382597,
        -0.000019546475908195876734,
        4.3603738294501258803e-6,
        -9.7488938019639158450e-7,
        2.1830798367010799700e-7,
        -4.8941348153680349622e-8,
        1.0981103608354311029e-8,
        -2.4654195455795325400e-9,
        5.5379261371103440103e-10,
        -1.2444255103932794573e-10,
        2.7971896447863553808e-11,
        -6.2889827291742538422e-12,
        1.4142449297189340119e-12,
        -3.1808212451679002223e-13,
        7.1550429902590193272e-14,
        -1.6096594418034343249e-14,
        3.6215695647006495925e-15,
        -8.1488158547320363332e-16,
        1.8336731332075096113e-16,
        -4.1264338554841534347e-17,
        9.2864541638270017926e-18,
        -2.0899895126802102614e-18,
        4.7038666856201791432e-19,
        -1.0587186058328945075e-19,
        2.3829721753144852176e-20,
        -5.3637531280254141953e-21,
    ])),
    (5.0, 17.0, np.array([
        0.42058508960622319865,
        -0.13566640063797594046,
        0.032306431151719139700,
        -0.0084797951308665463747,
        0.0023236093272880628620,
        -0.00065188408334103644018,
        0.00018555520188977298289,
        -0.000053327354900251731664,
        0.000015429177664038038708,
        -4.4859353553706625454e-6,
        1.3090256284199090166e-6,
        -3.8305288129683519432e-7,
        1.1233634538635972467e-7,
        -3.3001870110427457098e-8,
        9.7088474977310053874e-9,
        -2.8595398981215395531e-9,
        8.4301895956248731139e-10,
        -2.4872700676428675042e-10,
        7.3434220666082950816e-11,
        -2.1693021162234714844e-11,
        6.4113840662250760340e-12,
        -1.8956769254701014713e-12,
        5.6070346956661704672e-13,
        -1.6589686968105519726e-13,
        4.9097802130961198833e-14,
        -1.4534173631585910536e-14,
        4.3033904333939733396e-15,
        -1.2744204440669945208e-15,
        3.7747415497748236583e-16,
        -1.1182177914938472135e-16,
        3.3130154940241096496e-17,
        -9.8168580633667679908e-18,
    ])),
)


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


def _chebyshev(x: np.ndarray, coeffs: np.ndarray, lo: float, hi: float, scaled: bool) -> np.ndarray:
    """The interpolant on (lo, hi]; times exp(-x) if scaled (the tables of exp(x) K)."""
    t = (2.0 * x - (lo + hi)) / (hi - lo)
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for c in coeffs[:0:-1]:
        b1, b2 = c + 2.0 * t * b1 - b2, b1
    out = coeffs[0] + t * b1 - b2
    return np.exp(-x) * out if scaled else out


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


def _kernel_routes(order: int, oscillatory: bool, series, tables) -> tuple[np.ndarray, tuple]:
    """The routes of Y_order (oscillatory) or K_order, tiling (0, inf).

    (edges, fns): fns[i] serves (edges[i-1], edges[i]].  The ascending series
    runs up to the first table, each Chebyshev table over its own interval,
    then the large-argument expansion over each of _BANDS; K is 0 past _K_FLOOR.
    """
    edges = [tables[0][0]]
    fns = [series]
    scaled = not oscillatory  # the K tables hold exp(x) K
    for lo, hi, coeffs in tables:
        edges.append(hi)
        fns.append(functools.partial(_chebyshev, coeffs=coeffs, lo=lo, hi=hi, scaled=scaled))
    edges += _BANDS[1:-1]
    if oscillatory:
        m, s = _modulus_phase_coeffs(order)
        h = [s[k] / (2 * k - 1) for k in range(1, len(s))]  # theta's terms h_(k-1) x^(1-2k)
        shift = (2 * order + 1) * np.pi / 4.0
        for lo in _BANDS[:-1]:
            fns.append(functools.partial(_y_modulus_phase, shift=shift,
                                         m_coeffs=_truncation(m, lo, 2, 0),
                                         h_coeffs=_truncation(h, lo, 2, 1)))
    else:
        a = [1.0]  # a_k(order)
        for k in range(1, _HANKEL_MAX_TERMS + 1):
            a.append(a[-1] * (4.0 * order * order - (2 * k - 1) ** 2) / (8.0 * k))
        for lo in _BANDS[:-1]:
            fns.append(functools.partial(_k_asymptotic, coeffs=_truncation(a, lo, 1, 0)))
        edges.append(_K_FLOOR)
        fns.append(np.zeros_like)
    return np.array(edges), tuple(fns)


def _dispatch(x, routes: tuple[np.ndarray, tuple]) -> np.ndarray | float:
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not arr.size:
        return arr.copy()
    lo, hi = arr.min(), arr.max()
    if lo <= 0.0:
        raise InvalidRange("kernels are defined for positive arguments only")
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


_K0_ROUTES = _kernel_routes(0, False, _k0_series, _K0_CHEBYSHEV)
_K1_ROUTES = _kernel_routes(1, False, _k1_series, _K1_CHEBYSHEV)
_Y0_ROUTES = _kernel_routes(0, True, _y0_series, _Y0_CHEBYSHEV)
_Y1_ROUTES = _kernel_routes(1, True, _y1_series, _Y1_CHEBYSHEV)


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
