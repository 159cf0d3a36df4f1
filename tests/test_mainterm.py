import math

import numpy as np
import pytest

from divprog import mainterm, tausieve
from divprog.arith import divisors, euler_phi, factorize, ramanujan_sum, reduced_residues
from divprog.errors import InvalidRange, NotPrime
from divprog.mainterm import (
    EULER_GAMMA,
    MainTermPolynomial,
    error_set,
    error_sums,
    error_term,
    error_vector,
    exceptional_set,
    interval_residues,
    main_term,
    main_term_coprime,
    main_term_vector,
    reduced_main_term,
)
from divprog.tausieve import total_divisor_sum


def test_polynomial_collected_vs_term_by_term():
    rng = np.random.default_rng(2)
    for _ in range(200):
        q = int(rng.integers(2, 5000))
        a = int(rng.integers(0, q))
        P = MainTermPolynomial.build(q, a)
        for T in (0.0, 1.0, math.log(10**6)):
            lhs = P.evaluate(T)
            rhs = P.evaluate_term_by_term(T)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs)), (q, a, T)


def test_polynomial_small_hand_case():
    # q = 2, a = 0: divisors 1 and 2 with r_1(0) = 1, r_2(0) = phi(2) = 1;
    # P(T) = (T + 2g - 1) + (1/2)(T - 2 log 2 + 2g - 1)
    P = MainTermPolynomial.build(2, 0)
    assert dict(P.divisor_terms) == {1: 1, 2: 1}
    g = EULER_GAMMA
    for T in (0.0, 2.5):
        expect = (T + 2 * g - 1) + 0.5 * (T - 2 * math.log(2) + 2 * g - 1)
        assert abs(P.evaluate(T) - expect) < 1e-14


def test_ramanujan_term_at_zero_for_prime_modulus():
    for p in (3, 5, 101, 499):
        P = MainTermPolynomial.build(p, 0)
        assert dict(P.divisor_terms)[p] == p - 1
        assert ramanujan_sum(p, 0) == p - 1 == euler_phi(p)


def test_coprime_closed_form_matches_polynomial_route():
    assert abs(main_term(10**4, 7, 3) - main_term_coprime(10**4, 7)) <= 1e-9 * main_term(10**4, 7, 3)
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 300:
        q = int(rng.integers(2, 10**5))
        a = int(rng.integers(1, q))
        if math.gcd(a, q) != 1:
            continue
        X = int(rng.integers(q, 10**6))
        m1 = main_term(X, q, a)
        m2 = main_term_coprime(X, q)
        assert abs(m1 - m2) <= 1e-9 * max(1.0, abs(m2)), (X, q, a)
        checked += 1


def test_main_term_vector_matches_scalar():
    for X, q in ((1000, 12), (5000, 101), (777, 60)):
        vec = main_term_vector(X, q)
        for a in range(q):
            assert abs(vec[a] - main_term(X, q, a)) < 1e-9, (X, q, a)
    # highly composite q: the vector is built per gcd class, so sample one
    # random residue a from every class gcd(a, q) = g, g | q
    X, q = 10**6, 720720
    vec = main_term_vector(X, q)
    rng = np.random.default_rng(5)
    for g in divisors(q):
        u = int(rng.integers(1, q // g + 1))
        while math.gcd(u, q // g) != 1:
            u += 1
        a = g * u % q
        assert math.gcd(a, q) == g
        assert abs(vec[a] - main_term(X, q, a)) < 1e-9, (X, q, a)


def _divisor_table(q):
    """Sorted divisors d of q with mu(d) and phi(d), from one factorization."""
    rows = [(1, 1, 1)]
    for p, e in factorize(q):
        rows = [
            (d * p**k, mu * (1 if k == 0 else -1 if k == 1 else 0),
             phi * ((p - 1) * p ** (k - 1) if k else 1))
            for d, mu, phi in rows
            for k in range(e + 1)
        ]
    divs, mu, phi = np.array(sorted(rows), dtype=np.int64).T
    return divs, mu, phi


def _main_term_vector_by_gather(X, q):
    # the class gather main_term_vector replaced: the class of each residue is
    # found by gcd and searchsorted, then the per-class values are gathered;
    # r_d(g) = mu(d/h) phi(d) / phi(d/h) with h = gcd(g, d)
    T = math.log(X)
    divs, mu, phi = _divisor_table(q)
    h = np.gcd(divs[:, None], divs[None, :])
    quot = np.searchsorted(divs, divs[None, :] // h)
    r = mu[quot] * (phi[None, :] // phi[quot])
    M = np.zeros(len(divs))
    for j, d in enumerate(divs.tolist()):
        M += r[:, j] / d * (T - 2 * math.log(d) + 2 * EULER_GAMMA - 1)
    classes = np.searchsorted(divs, np.gcd(np.arange(q, dtype=np.int64), q))
    return X / q * M[classes]


def test_main_term_vector_classes_by_divisor_strides():
    X = 10**4
    for q in (2, 4, 2**10, 3**6, 30030, 46411, 720720, 2**5 * 3**3 * 7**2,
              3 * 5 * 7 * 11 * 13 * 17):
        vec = main_term_vector(X, q)
        assert vec.dtype == np.float64 and vec.shape == (q,)
        # one value per class gcd(a, q), read at the residue gcd(a, q) mod q
        assert np.array_equal(vec, vec[np.gcd(np.arange(q), q) % q]), q
        assert vec.tobytes() == _main_term_vector_by_gather(X, q).tobytes(), q
        assert np.float64(reduced_main_term(X, q)).tobytes() == vec[1].tobytes(), q


def test_reduced_main_term_is_the_class_table_row_bit_for_bit():
    # the g = 1 row alone (mu(d) over the divisors) sums like the full table
    for q in (2, 420, 1009, 720720, 42336, 255255, 223092870):
        for X in (10**4, 10**7, 12345678901):
            want = mainterm._class_main_terms(X, q)[1][0]
            assert np.float64(reduced_main_term(X, q)).tobytes() == want.tobytes(), (q, X)


def test_error_record_is_definitional():
    rec = error_term(12345, 37, 5)
    assert rec.S == rec.M + rec.R  # R is literally the float difference
    assert rec.a == 5


def test_error_rowsum_closure():
    for X, q in ((2000, 24), (10**4, 101)):
        ev = error_vector(X, q)
        lhs = float(np.sum(ev.R))
        rhs = total_divisor_sum(X) - float(np.sum(ev.M))
        assert abs(lhs - rhs) < 1e-6 * q


def test_single_instance_error_bound():
    X = 10**6
    rec = error_term(X, 101, 1)
    assert abs(rec.R) < 10 * X ** (1 / 3)


def test_interval_residues_modes():
    res, dropped = interval_residues(10, 0, 10)
    assert res == [1, 3, 7, 9]
    assert dropped == 6
    # wrap-around interval {6,7,8,9} mod 7 hits 0, which is dropped
    res, dropped = interval_residues(7, 5, 4)
    assert res == [6, 1, 2]
    assert dropped == 1
    with pytest.raises(InvalidRange):
        interval_residues(7, -1, 3)
    with pytest.raises(InvalidRange):
        interval_residues(7, 0, 0)


def test_error_sums_singleton_and_triangle():
    X, q = 20000, 101
    rec = error_term(X, q, 13)
    D, E = error_sums(error_set(X, q, [13]))
    assert abs(D - abs(rec.R)) < 1e-9
    assert abs(E - rec.R) < 1e-9

    res, _ = interval_residues(q, 3, 40)
    D, E = error_sums(error_set(X, q, res))
    assert D >= 0
    assert abs(E) <= D + 1e-12


def test_error_sums_full_reduced_set_prime():
    X, q = 5000, 53
    ev = error_vector(X, q)
    _, E = error_sums(error_set(X, q, list(range(1, q))))
    assert abs(E - float(np.sum(ev.R[1:]))) < 1e-8


def test_error_sums_small_and_large_paths_agree():
    # the scalar route, one error_term per residue, is the oracle for the vector
    X, q = 30000, 257
    for A in (6, 100):
        res, _ = interval_residues(q, 1, A)
        D, E = error_sums(error_set(X, q, res))
        rs = [error_term(X, q, a).R for a in res]
        assert abs(D - math.fsum(abs(r) for r in rs)) < 1e-8
        assert abs(E - math.fsum(rs)) < 1e-8


def test_error_set_is_error_vector_at_the_set():
    # bit for bit: the exact S, and M from the class gcd = 1 of the same sum;
    # residues in input order with repeats, a small set by pairs and the
    # full unit set (more than _pairs_max_residues) off the whole vector
    for X, q in ((10**5, 2153), (10**5, 1260), (10**6, 9973), (10**6, 720720), (5000, 2)):
        ev = error_vector(X, q)
        units = reduced_residues(q)
        residues = units[::-7][:50].tolist() + units[:3].tolist() * 2
        assert error_set(X, q, residues).tobytes() == ev.R[residues].tobytes(), (X, q)
        if len(units) > tausieve._pairs_max_residues(X, q):
            assert error_set(X, q, units).tobytes() == ev.R[units].tobytes(), (X, q)
    assert error_set(10**5, 101, []).tolist() == []


def test_error_sums_are_correctly_rounded():
    R = np.array([1e16, 1.0, -1e16, -3.5])
    assert error_sums(R) == (math.fsum([1e16, 1.0, 1e16, 3.5]), -2.5)
    assert error_sums(R[:0]) == (0.0, 0.0)


def test_error_sums_against_the_scalar_oracle():
    # error_term is the oracle: its S is the same integer, so D and E are
    # exactly the correctly rounded sums of S - M with main_term_vector's M;
    # its own M (the scalar polynomial) rounds differently, a few ulps away
    for X, q in ((30000, 257), (10**5, 1260), (10**5, 4200)):
        res, _ = interval_residues(q, 100, 60)
        D, E = error_sums(error_set(X, q, res))
        M = main_term_vector(X, q)
        recs = [error_term(X, q, a) for a in res]
        exact = [rec.S - M[rec.a] for rec in recs]
        assert D == math.fsum(abs(r) for r in exact), (X, q)
        assert E == math.fsum(exact), (X, q)
        assert D == pytest.approx(math.fsum(abs(rec.R) for rec in recs), rel=1e-12, abs=1e-9)
        assert E == pytest.approx(math.fsum(rec.R for rec in recs), rel=1e-12, abs=1e-9)


def test_exceptional_set_matches_direct_scan():
    X, p = 10**5, 311
    kappa = 0.05
    members = exceptional_set(X, p, kappa)
    ev = error_vector(X, p)
    threshold = X ** (1 / 3 - kappa)
    expect = [a for a in range(1, p) if ev.R[a] >= threshold]
    assert members == expect
    # shape comparison against the count envelope, generous harness factor
    envelope = max(p * X ** (-1 / 3 + 4 * kappa), X ** (3 * kappa))
    assert len(members) <= 10 * envelope


def test_exceptional_set_limits():
    X, p = 3000, 101
    # kappa near 1/3: threshold ~ 1, the set is everything with R >= ~1
    near = exceptional_set(X, p, 1 / 3 - 1e-9)
    ev = error_vector(X, p)
    assert near == [a for a in range(1, p) if ev.R[a] >= X ** (1e-9)]
    # small prime, small kappa: threshold X^0.2833 ~ 26 clears max R ~ 16
    assert float(error_vector(10**5, 11).R[1:].max()) < 10**5 ** (1 / 3 - 0.05)
    assert exceptional_set(10**5, 11, 0.05) == []


def test_exceptional_set_validation():
    with pytest.raises(NotPrime):
        exceptional_set(1000, 100, 0.1)
    with pytest.raises(InvalidRange):
        exceptional_set(1000, 101, 0.5)
    with pytest.raises(InvalidRange):
        exceptional_set(50, 101, 0.1)


def test_main_term_validation():
    with pytest.raises(InvalidRange):
        main_term(0, 7, 1)
    with pytest.raises(InvalidRange):
        MainTermPolynomial.build(1, 0)
    with pytest.raises(InvalidRange):
        main_term_coprime(100, 1)
