"""Regenerate a Chebyshev table of Y0 or Y1 used by divprog.bessel.

Each kernel is served by its ascending series near 0 and by its
large-argument expansion past x = 17.  Between them Y0 and Y1 are
Chebyshev interpolants on [8, 17], where the series loses digits to
cancellation (K0 and K1 take the trapezoid rule there and need no table).

This script rebuilds one table with mpmath at 40-digit working precision
and prints the leading TERMS of the coefficients, ready to paste into
bessel.py.  Run it only when changing the window or the degree; the
committed tables are frozen.

Usage: python demos/generate_bessel_table.py ORDER LO HI
       (ORDER 0 or 1), e.g.  ... 1 8 17
"""

import argparse

import mpmath as mp

DEGREE = 48
TERMS = 32  # every dropped coefficient is below 1e-24 for both committed tables

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
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("order", type=int, choices=(0, 1))
    ap.add_argument("lo", type=float)
    ap.add_argument("hi", type=float)
    args = ap.parse_args()
    if not 0 < args.lo < args.hi:
        raise SystemExit("need 0 < LO < HI")
    lo, hi = mp.mpf(args.lo), mp.mpf(args.hi)
    coeffs = cheb_coeffs(lambda x: mp.bessely(args.order, x), lo, hi, DEGREE)
    # report the drop-off so the committed length is visibly sufficient
    print(f"# Y{args.order} Chebyshev on [{args.lo:g}, {args.hi:g}], degree {DEGREE}, leading {TERMS} kept")
    print(f"# largest dropped magnitude: {mp.nstr(max(abs(c) for c in coeffs[TERMS:]), 3)}")
    print("np.array([")
    for c in coeffs[:TERMS]:
        print(f"    {mp.nstr(c, 20, strip_zeros=False)},")
    print("])")


if __name__ == "__main__":
    main()
