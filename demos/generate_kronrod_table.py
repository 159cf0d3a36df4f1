"""Regenerate the 12-point Gauss / 25-point Kronrod table in divprog.quadrature.

The Kronrod extension of the n-point Gauss-Legendre rule keeps the n Gauss
nodes and adds the n + 1 zeros of the Stieltjes polynomial E_(n+1), which
is fixed by int_{-1}^{1} P_n(x) E_(n+1)(x) x^k dx = 0 for k = 0..n.  The
2n + 1 weights then integrate every polynomial of degree 3n + 1 exactly
(n even).  For n = 12, E_13 is odd and monic, so its six lower
coefficients solve a 6 x 6 moment system.  This script does that in
mpmath at 80-digit working precision, finds the zeros, fixes the weights
from the moments of degree 0..24, checks the exactness up to degree 37,
and prints the non-negative half of the symmetric rule, ready to paste
into quadrature.py.  Run it only when changing the rule; the committed
table is frozen.

Usage: python demos/generate_kronrod_table.py
"""

import mpmath as mp

N = 12  # Gauss points; the rule has 2N + 1 = 25
mp.mp.dps = 80


def moment(k):
    """int_{-1}^{1} x^k dx."""
    return mp.mpf(0) if k % 2 else mp.mpf(2) / (k + 1)


def legendre_coeffs(n):
    """Monomial coefficients of P_n, lowest degree first (Bonnet recurrence)."""
    p0, p1 = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]
    for k in range(1, n):
        nxt = [mp.mpf(0)] * (k + 2)
        for i, c in enumerate(p1):
            nxt[i + 1] += (2 * k + 1) * c / (k + 1)
        for i, c in enumerate(p0):
            nxt[i] -= k * c / (k + 1)
        p0, p1 = p1, nxt
    return p1


def stieltjes_coeffs(p):
    """Monomial coefficients of E_(N+1), odd and monic, lowest degree first."""

    def pm(j):  # int P_N(x) x^j dx
        return mp.fsum(c * moment(i + j) for i, c in enumerate(p))

    odd = list(range(1, N + 1, 2))  # the free coefficients: x^1, x^3, .., x^(N-1)
    rows = odd  # conditions x^k, k odd (the even ones hold by parity)
    A = mp.matrix([[pm(i + k) for i in odd] for k in rows])
    b = mp.matrix([-pm(N + 1 + k) for k in rows])
    sol = mp.lu_solve(A, b)
    e = [mp.mpf(0)] * (N + 2)
    e[N + 1] = mp.mpf(1)
    for i, c in zip(odd, sol):
        e[i] = c
    return e


def real_roots(coeffs):
    roots = mp.polyroots(coeffs[::-1], maxsteps=400, extraprec=400)
    return sorted(mp.re(r) for r in roots)


def weights_for(nodes, degree):
    """Weights that integrate x^0..x^degree exactly on the given nodes."""
    A = mp.matrix([[x**k for x in nodes] for k in range(degree + 1)])
    b = mp.matrix([moment(k) for k in range(degree + 1)])
    return list(mp.lu_solve(A, b))


def main():
    p = legendre_coeffs(N)
    gauss = real_roots(p)
    stieltjes = real_roots(stieltjes_coeffs(p))
    nodes = sorted(gauss + stieltjes)
    kw = weights_for(nodes, 2 * N)
    gw = weights_for(gauss, N - 1)
    worst = max(abs(mp.fsum(w * x**k for w, x in zip(kw, nodes)) - moment(k))
                for k in range(3 * N + 2))
    interlaced = all(nodes[2 * i + 1] in gauss for i in range(N))
    inside = all(-1 < x < 1 for x in stieltjes) and all(w > 0 for w in kw)
    print(f"# G{N}/K{2 * N + 1}: worst moment error to degree {3 * N + 1}: {mp.nstr(worst, 3)}")
    print(f"# Gauss nodes interlaced: {interlaced}; nodes inside, weights positive: {inside}")
    half = slice(N, 2 * N + 1)  # x >= 0
    print("_KRONROD_NODES = (")
    for x in nodes[half]:
        print(f"    {mp.nstr(x, 20, strip_zeros=False)},")
    print(")")
    print("_KRONROD_WEIGHTS = (")
    for w in kw[half]:
        print(f"    {mp.nstr(w, 20, strip_zeros=False)},")
    print(")")
    print("_GAUSS_WEIGHTS = (  # on _KRONROD_NODES[1::2]")
    for w in gw[N // 2:]:
        print(f"    {mp.nstr(w, 20, strip_zeros=False)},")
    print(")")


if __name__ == "__main__":
    main()
