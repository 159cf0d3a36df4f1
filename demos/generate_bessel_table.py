"""Regenerate a Chebyshev table used by divprog.bessel for Y0 or Y1 on [8, 17].

The ascending series for Y_nu loses digits to cancellation past x ~ 8 and
the large-argument expansion only reaches full double accuracy past
x ~ 17, so the window between is served by one Chebyshev interpolant per
order.  This script rebuilds its coefficients with mpmath at 40-digit
working precision and prints the leading TERMS of them, ready to paste
into bessel.py.  Run it only when changing the window or the degree; the
committed tables are frozen.

Usage: python demos/generate_bessel_table.py [ORDER]    (ORDER 0 or 1, default 0)
"""

import sys

import mpmath as mp

LO, HI = 8.0, 17.0
DEGREE = 48
TERMS = 32  # every dropped coefficient is below 1e-24 for both orders

mp.mp.dps = 40


def cheb_coeffs(f, lo, hi, n):
    """Coefficients of the degree-(n-1) Chebyshev interpolant on [lo, hi]."""
    nodes = [mp.cos(mp.pi * (k + mp.mpf(1) / 2) / n) for k in range(n)]
    vals = [f((hi - lo) / 2 * t + (hi + lo) / 2) for t in nodes]
    out = []
    for j in range(n):
        s = mp.fsum(vals[k] * mp.cos(mp.pi * j * (k + mp.mpf(1) / 2) / n) for k in range(n))
        out.append(s * 2 / n)
    out[0] /= 2
    return out


def main():
    order = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    if order not in (0, 1):
        raise SystemExit("ORDER must be 0 or 1")
    coeffs = cheb_coeffs(lambda x: mp.bessely(order, x), LO, HI, DEGREE)
    # report the drop-off so the committed length is visibly sufficient
    print(f"# Y{order} Chebyshev on [{LO}, {HI}], degree {DEGREE}, leading {TERMS} kept")
    print(f"# largest dropped magnitude: {mp.nstr(max(abs(c) for c in coeffs[TERMS:]), 3)}")
    if order == 0:
        print("_Y_MID_LO = %.1f" % LO)
        print("_Y_MID_HI = %.1f" % HI)
    print(f"_Y{order}_MID_COEFFS = np.array([")
    for c in coeffs[:TERMS]:
        print(f"    {mp.nstr(c, 20, strip_zeros=False)},")
    print("])")


if __name__ == "__main__":
    main()
