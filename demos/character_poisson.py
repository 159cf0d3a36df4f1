"""Character moments, congruence counts, and the twisted Poisson check.

Three quantities that feed the bilinear machinery: the fourth moment of
short character sums, the count of multiplicative congruences x1 x2 =
x3 x4 in boxes, and two-dimensional Poisson summation for tau against a
product of Gaussian bumps, plain and character-twisted.

Usage: python demos/character_poisson.py
"""

import math

import numpy as np

from divprog.characters import (
    character_table,
    fourth_moment,
    gauss_sum,
    multiplicative_congruence_count,
    congruence_bound_report,
)
from divprog.poisson import BumpFunction, ProductTestFunction, poisson_tau, poisson_tau_twisted

print("fourth moment of short character sums, H ~ sqrt(p):")
print("    p     H    moment/H^2   /(p H^2)")
for p in (101, 251, 499, 997):
    H = math.isqrt(p)
    m = fourth_moment(p, 0, H)
    print(f"  {p:>4}  {H:>4}  {m / H**2:>10.1f}  {m / (p * H**2):>9.3f}")
print("the p-normalized column is the flat one: the moment carries a factor p.")

print()
print("multiplicative congruence counts in square boxes:")
for p, H in ((101, 10), (499, 32), (997, 100)):
    box = (1, H)
    c = multiplicative_congruence_count(p, box, box, box, box)
    rep = congruence_bound_report(c, p, box, box, box, box)
    print(f"  p = {p:>4}, H = {H:>3}: count = {c:>7}, envelope = {rep.envelope:>9.1f}, "
          f"ratio = {rep.ratio:.3f}")

print()
g = ProductTestFunction(BumpFunction(2.5, 1.6), BumpFunction(3.0, 2.2))
print("Poisson summation for tau(m1 m2) against the documented bump pair:")
for q in (5, 7, 11):
    worst = max(poisson_tau(g, q, z).residual for z in range(1, q))
    print(f"  plain, q = {q:>2}: worst residual over residues {worst:.2e}")
for q in (5, 7):
    table = character_table(q)
    worst = max(poisson_tau_twisted(g, q, j).residual for j in range(1, q - 1))
    taus = [abs(gauss_sum(table, j)) for j in range(1, q - 1)]
    print(f"  twisted, q = {q}: worst residual {worst:.2e}, "
          f"|Gauss sums| all sqrt({q}): {np.allclose(taus, math.sqrt(q))}")
