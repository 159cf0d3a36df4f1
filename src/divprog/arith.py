"""Elementary arithmetic: inverses, factorization, multiplicative functions.

Everything here is exact integer work.  Factorization is trial division
over a small prime wheel followed by Brent's variant of Pollard rho, which
is comfortable for the 62-bit moduli this package targets.  Primality is
deterministic Miller-Rabin with the standard twelve-witness set, correct
for all n < 3.3e24.

The Ramanujan sum r_d(a) = sum_{x in (Z/d)^*} e_d(ax) is computed through
its divisor form sum_{e | gcd(a,d)} e * mu(d/e); the exponential-sum
definition serves as the oracle in the tests, never here.  gcd(0, d) = d,
so r_d(0) = phi(d).

Many inverses mod one d come from a product tree (batch_inverse), with a
single modular inversion at its root.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

from .errors import InvalidModulus, InvalidRange, NonReducedResidue, NotInvertible, NotPrime

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def mod_inverse(x: int, d: int) -> int:
    """Inverse of x modulo d, reduced to [0, d).  d = 1 gives 0, as pow does."""
    if d <= 0:
        raise InvalidModulus(f"modulus must be positive, got {d}")
    try:
        return pow(x, -1, d)
    except ValueError:
        raise NotInvertible(f"{x} is not invertible mod {d}") from None


def batch_inverse(units: np.ndarray, d: int) -> np.ndarray:
    """u^-1 mod d for every u in units (all prime to d), by a product tree.

    Going up, each level holds the pairwise products mod d of the one
    below, an odd-length level padded with 1.  The root is inverted once;
    going down, the inverse of a child is its parent's inverse times its
    sibling.  Exact while d^2 < 2^63: the tree is int64 whatever the
    dtype of units.
    """
    levels = [np.asarray(units, dtype=np.int64)]
    while len(levels[-1]) > 1:
        level = levels[-1]
        if len(level) % 2:
            level = np.append(level, 1)
            levels[-1] = level
        levels.append(level[0::2] * level[1::2] % d)
    inv = np.array([pow(int(levels[-1][0]), -1, d)], dtype=np.int64)
    for level in reversed(levels[:-1]):
        inv = inv[: len(level) // 2]  # drop the padding's inverse
        down = np.empty(len(level), dtype=np.int64)
        down[0::2] = inv * level[1::2] % d
        down[1::2] = inv * level[0::2] % d
        inv = down
    return inv[: len(units)]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 2^62."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, rng: random.Random) -> int:
    """Brent cycle-finding; returns a nontrivial factor of composite odd n."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as a sorted list of (prime, exponent) pairs."""
    if n <= 0:
        raise InvalidModulus(f"can only factor positive integers, got {n}")
    return list(_factorize(n))


# divisors, mobius and ramanujan_sum factor the same numbers over and over:
# one main_term at q = 720720 makes 601 calls on its 240 divisors, and every
# further residue repeats them
@functools.lru_cache(maxsize=4096)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    rng = random.Random(n)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack += [r, r]
            continue
        g = _pollard_rho(m, rng)
        stack += [g, m // g]
    return tuple(sorted(out.items()))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def reduced_residues(d: int) -> np.ndarray:
    """The units of Z/d: residues in [0, d) prime to d, ascending, as int64.

    Clear the multiples of each p | d.  For d >= 2 that clears 0; d = 1 has
    no prime factor and keeps [0], since gcd(0, 1) = 1, so the count is
    euler_phi(d) for every d.
    """
    keep = np.ones(d, dtype=bool)
    for p, _ in factorize(d):
        keep[::p] = False
    return np.flatnonzero(keep).astype(np.int64)


def _squarefree_divisors(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The squarefree divisors d of q and mu(d), as int64."""
    d, mu = np.ones(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    for p, _ in factorize(q):
        d, mu = np.concatenate([d, d * p]), np.concatenate([mu, -mu])
    return d, mu


def count_units(q: int, x) -> np.ndarray:
    """#{0 <= n <= x : gcd(n, q) = 1} for each x >= 0, as int64.

    Inclusion-exclusion over the squarefree divisors d of q: the sum of
    mu(d) (floor(x/d) + 1).  n = 0 counts only for q = 1, as in
    reduced_residues.
    """
    d, mu = _squarefree_divisors(q)
    x = np.asarray(x, dtype=np.int64)
    return (x[..., None] // d + 1) @ mu


def units_by_rank(q: int, ranks) -> np.ndarray:
    """reduced_residues(q)[ranks] without the list: the least x with ranks + 1 units <= x.

    Bisects every rank at once on count_units, about log2(q) steps of one
    count per rank and squarefree divisor of q.
    """
    target = np.asarray(ranks, dtype=np.int64) + 1
    if target.size and not 1 <= target.min() <= target.max() <= euler_phi(q):
        raise InvalidRange(f"need ranks in [0, {euler_phi(q)}) for q = {q}")
    d, mu = _squarefree_divisors(q)
    lo = np.zeros_like(target)
    hi = np.full_like(target, q - 1)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        enough = (mid[..., None] // d + 1) @ mu >= target  # count_units(q, mid)
        hi = np.where(enough, mid, hi)
        lo = np.where(enough, lo, mid + 1)
    return lo


def reduced_mod(residues, q: int) -> np.ndarray:
    """The residues mod q as int64; NonReducedResidue names the first not prime to q."""
    a = np.asarray(residues, dtype=np.int64) % q
    bad = np.gcd(a, q) != 1
    if bad.any():
        raise NonReducedResidue(f"{int(a[bad][0])} shares a factor with {q}")
    return a


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def tau_of(n: int) -> int:
    """Number of divisors; for bulk work use the sieve module instead."""
    t = 1
    for _, e in factorize(n):
        t *= e + 1
    return t


def ramanujan_sum(d: int, a: int) -> int:
    """r_d(a) via the divisor form.  Always an integer."""
    if d <= 0:
        raise InvalidModulus(f"modulus must be positive, got {d}")
    g = math.gcd(a, d)  # gcd(0, d) = d, as required
    return sum(e * mobius(d // e) for e in divisors(g))


def primitive_root(p: int) -> int:
    """Least primitive root of a prime p: 1 for p = 2, at least 2 otherwise."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    qs = [q for q, _ in factorize(p - 1)]
    for g in range(1, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise AssertionError("unreachable: every prime has a primitive root")
