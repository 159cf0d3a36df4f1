"""Regenerate a Chebyshev table used by divprog.bessel.

Each kernel is served by its ascending series near 0 and by its
large-argument expansion past x = 17; between them sit Chebyshev
interpolants:

  * Y0, Y1 on [8, 17], where the series loses digits to cancellation;
  * exp(x) K0, exp(x) K1 on [2, 5] and [5, 17], scaled so that the
    interpolated function varies slowly (the exp(-x) factor is applied
    at run time).

This script rebuilds one table with mpmath at 40-digit working precision
and prints the leading TERMS of the coefficients, ready to paste into
bessel.py.  Run it only when changing a window or the degree; the
committed tables are frozen.

Usage: python demos/generate_bessel_table.py FAMILY ORDER LO HI
       (FAMILY y or k, ORDER 0 or 1), e.g.  ... y 1 8 17  or  ... k 0 2 5
"""

import argparse

import mpmath as mp

DEGREE = 48
TERMS = 32  # every dropped coefficient is below 3e-18 for every committed table

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
    ap.add_argument("family", choices=("y", "k"))
    ap.add_argument("order", type=int, choices=(0, 1))
    ap.add_argument("lo", type=float)
    ap.add_argument("hi", type=float)
    args = ap.parse_args()
    if not 0 < args.lo < args.hi:
        raise SystemExit("need 0 < LO < HI")
    lo, hi = mp.mpf(args.lo), mp.mpf(args.hi)
    if args.family == "y":
        f, what = (lambda x: mp.bessely(args.order, x)), f"Y{args.order}"
    else:
        f, what = (lambda x: mp.exp(x) * mp.besselk(args.order, x)), f"exp(x) K{args.order}"
    coeffs = cheb_coeffs(f, lo, hi, DEGREE)
    # report the drop-off so the committed length is visibly sufficient
    print(f"# {what} Chebyshev on [{args.lo:g}, {args.hi:g}], degree {DEGREE}, leading {TERMS} kept")
    print(f"# largest dropped magnitude: {mp.nstr(max(abs(c) for c in coeffs[TERMS:]), 3)}")
    print("np.array([")
    for c in coeffs[:TERMS]:
        print(f"    {mp.nstr(c, 20, strip_zeros=False)},")
    print("])")


if __name__ == "__main__":
    main()
