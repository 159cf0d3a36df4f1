import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divprog.arith import (
    count_units,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    mobius,
    mod_inverse,
    primitive_root,
    ramanujan_sum,
    reduced_mod,
    reduced_residues,
    tau_of,
    units_by_rank,
)
from divprog.errors import InvalidModulus, InvalidRange, NonReducedResidue, NotInvertible, NotPrime


# ---------------------------------------------------------------- inverses

@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=2, max_value=10**9))
def test_mod_inverse_property(x, d):
    if math.gcd(x, d) != 1:
        with pytest.raises(NotInvertible):
            mod_inverse(x, d)
        return
    inv = mod_inverse(x, d)
    assert 0 <= inv < d
    assert (x * inv) % d == 1


def test_mod_inverse_edge_cases():
    assert mod_inverse(5, 1) == 0   # everything is 0 mod 1
    assert mod_inverse(1, 2) == 1
    assert mod_inverse(-3, 7) == mod_inverse(4, 7)
    with pytest.raises(InvalidModulus):
        mod_inverse(1, 0)
    with pytest.raises(InvalidModulus):
        mod_inverse(1, -5)


# ---------------------------------------------------------------- primality

def _trial_division_prime(n):
    if n < 2:
        return False
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return False
    return True


def test_is_prime_exhaustive_small():
    for n in range(-3, 2000):
        assert is_prime(n) == _trial_division_prime(n), n


def test_is_prime_known_hard_cases():
    # Carmichael numbers and strong-pseudoprime bases that defeat naive tests
    for n in (561, 1105, 1729, 2465, 3215031751, 341550071728321):
        assert not is_prime(n), n
    for n in (2**31 - 1, 2**61 - 1, 10**9 + 7, 10**9 + 9, 4547337172376300111955330758342147474062293202868155909489):
        assert is_prime(n), n


# ---------------------------------------------------------------- factoring

@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_reconstructs(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac:
        assert is_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == n
    assert [p for p, _ in fac] == sorted({p for p, _ in fac})


def test_factorize_edge():
    assert factorize(1) == []
    assert factorize(2) == [(2, 1)]
    assert factorize(2**20) == [(2, 20)]
    assert factorize(999966000289) == [(999983, 2)]  # prime square


def test_factorize_returns_a_fresh_list():
    # factorizations are cached; a caller's edits must not reach the cache
    fac = factorize(720720)
    fac.append((17, 1))
    fac[0] = (2, 9)
    assert factorize(720720) == [(2, 4), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)]
    assert factorize(720720) is not factorize(720720)


def test_divisors_against_definition():
    for n in list(range(1, 200)) + [720, 5040, 2**10 * 3**4]:
        ds = divisors(n)
        assert ds == sorted(ds)
        assert all(n % d == 0 for d in ds)
        assert len(ds) == sum(1 for d in range(1, n + 1) if n % d == 0)
        assert len(ds) == tau_of(n)


# ---------------------------------------------------------------- mu, phi

def test_multiplicative_function_identities():
    for n in range(1, 500):
        ds = divisors(n)
        assert sum(mobius(d) for d in ds) == (1 if n == 1 else 0)
        assert sum(euler_phi(d) for d in ds) == n


# ---------------------------------------------------------------- Ramanujan

def _ramanujan_brute(d, a):
    """Direct unit-group exponential sum; the divisor formula must match it."""
    total = 0.0
    for x in range(1, d + 1):
        if math.gcd(x, d) == 1:
            total += math.cos(2 * math.pi * a * x / d)
    return total


def test_ramanujan_sum_vs_exponential_definition():
    rng = random.Random(42)
    cases = [(d, a) for d in range(1, 40) for a in range(0, d)]
    cases += [(rng.randrange(1, 500), rng.randrange(0, 500)) for _ in range(100)]
    for d, a in cases:
        assert abs(ramanujan_sum(d, a) - _ramanujan_brute(d, a)) < 1e-7, (d, a)


def test_ramanujan_special_values():
    for d in range(1, 60):
        assert ramanujan_sum(d, 0) == euler_phi(d)
        assert ramanujan_sum(d, 1) == mobius(d)
    assert ramanujan_sum(1, 12345) == 1
    # periodicity in a
    assert ramanujan_sum(12, 5) == ramanujan_sum(12, 17)


# ---------------------------------------------------------------- generators

def test_primitive_root_order():
    for p in (2, 3, 5, 7, 11, 101, 997, 65537):
        g = primitive_root(p)
        if p == 2:
            assert g == 1
            continue
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        assert len(seen) == p - 1, p


def test_primitive_root_is_the_least_generator():
    # g = 1 generates only the trivial group of p = 2; every odd prime's
    # root is the least g >= 2 whose powers reach every unit
    for p in (q for q in range(3, 400) if is_prime(q)):
        least = next(g for g in range(2, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)
        assert primitive_root(p) == least, p


def test_primitive_root_rejects_composites():
    with pytest.raises(NotPrime):
        primitive_root(15)
    with pytest.raises(NotPrime):
        primitive_root(1)


def test_reduced_mod_names_the_first_offender_in_input_order():
    assert reduced_mod([13, -1, 5, 0], 1).tolist() == [0, 0, 0, 0]
    assert reduced_mod([13, -1, 5], 12).tolist() == [1, 11, 5]
    assert reduced_mod([], 12).tolist() == []
    with pytest.raises(NonReducedResidue, match="^4 shares a factor with 12$"):
        reduced_mod([5, 16, 6], 12)


def test_reduced_residues_against_gcd_filter():
    for d in (1, 2, 3, 4, 12, 97, 420, 1009, 30030):
        got = reduced_residues(d)
        assert got.dtype.name == "int64"
        assert got.tolist() == [a for a in range(d) if math.gcd(a, d) == 1], d
        assert len(got) == euler_phi(d), d


def test_units_by_rank_against_the_unit_list():
    rng = np.random.default_rng(11)
    for q in (1, 2, 97, 30030, 720720):
        units = reduced_residues(q)
        ranks = np.arange(len(units)) if len(units) <= 6000 else np.concatenate(
            [[0, 1, len(units) - 1], rng.choice(len(units), 3000, replace=False)])
        assert np.array_equal(units_by_rank(q, ranks), units[ranks]), q
        assert count_units(q, q - 1) == euler_phi(q), q
    assert units_by_rank(12, []).tolist() == []
    for bad in ([-1], [4]):
        with pytest.raises(InvalidRange):
            units_by_rank(12, bad)


def test_units_by_rank_past_the_unit_list():
    # 99999990 = 2 * 3^2 * 5 * 239 * 4649 has 26549376 units, a list of 212 MB
    q = 99999990
    phi = euler_phi(q)
    assert count_units(q, q - 1) == phi
    ranks = np.sort(np.random.default_rng(3).choice(phi, 2000, replace=False))
    ranks = np.concatenate([[0, 1], ranks, [phi - 2, phi - 1]])
    units = units_by_rank(q, ranks)
    assert np.all(np.gcd(units, q) == 1)
    assert np.all(np.diff(units) > 0)
    assert units[:2].tolist() == [1, 7] and units[-2:].tolist() == [q - 7, q - 1]
    assert np.array_equal(count_units(q, units), ranks + 1)
