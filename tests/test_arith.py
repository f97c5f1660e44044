"""Unit tests for the multiplicative arithmetic toolbox."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprime_lab import arith

from closed_forms import (
    euler_phi,
    jordan_totient,
    mobius_of,
    psi,
    radical,
    squarefree_divisor_count,
    toth_factor,
)


@pytest.fixture(scope="module")
def tables():
    return arith.build_tables(1000)


def test_prime_list(tables):
    small = [int(p) for p in tables.primes if p <= 10]
    assert small == [2, 3, 5, 7]
    assert len([p for p in tables.primes if p <= 1000]) == 168


def test_mobius_values(tables):
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 6: 1, 12: 0, 30: -1, 210: 1}
    for m, mu in expected.items():
        assert mobius_of(m) == mu
        assert int(tables.mobius[m]) == mu


def _mobius_trial(m: int) -> int:
    out, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def test_mobius_table_against_trial_division(tables):
    for m in range(1, 1001):
        assert int(tables.mobius[m]) == _mobius_trial(m), m


def test_factorize(tables):
    assert arith.factorize(360, tables) == ((2, 3), (3, 2), (5, 1))
    assert arith.factorize(1, tables) == ()
    assert arith.factorize(97, tables) == ((97, 1),)


@given(st.integers(min_value=1, max_value=999))
def test_factorize_roundtrip(m):
    tables = arith.build_tables(1000)
    prod = 1
    for p, e in arith.factorize(m, tables):
        prod *= p**e
    assert prod == m


def test_factor_small_matches_tables(tables):
    for m in range(1, 500):
        assert arith.factor_small(m) == arith.factorize(m, tables)


def test_radical_and_prime_divisors():
    assert radical(360) == 30
    assert radical(1) == 1
    assert arith.prime_divisors(60) == (2, 3, 5)
    assert arith.prime_divisors(1) == ()


def test_euler_phi():
    assert [euler_phi(m) for m in (1, 2, 6, 12, 97)] == [1, 1, 2, 4, 96]


def test_jordan_totient_values():
    # phi_r(a) = a^r * prod_{p | a} (1 - p^-r); phi_1 is Euler's totient
    assert jordan_totient(1, 12) == euler_phi(12)
    assert jordan_totient(2, 6) == 24
    assert jordan_totient(3, 2) == 7
    assert jordan_totient(2, 1) == 1


def test_psi_values():
    # Psi_s(a) = a * prod_{p | a} (1 + s/p); Psi_1 is the Dedekind function
    assert psi(1, 6) == 12
    assert psi(2, 3) == 5
    assert psi(0, 10) == 10
    assert psi(3, 1) == 1


@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=200)
def test_multiplicativity_on_coprime_arguments(a, b, r):
    if gcd(a, b) != 1:
        return
    assert jordan_totient(r, a * b) == jordan_totient(r, a) * jordan_totient(r, b)
    assert psi(r, a * b) == psi(r, a) * psi(r, b)
    assert squarefree_divisor_count(a * b) == squarefree_divisor_count(
        a
    ) * squarefree_divisor_count(b)


def test_jordan_and_psi_on_prime_powers():
    for p in (2, 3, 5, 7, 11):
        for e in (1, 2, 3):
            assert jordan_totient(2, p**e) == p ** (2 * e) - p ** (2 * e - 2)
            assert psi(1, p**e) == p**e + p ** (e - 1)


def test_squarefree_divisor_count():
    assert squarefree_divisor_count(12) == 4
    assert squarefree_divisor_count(30) == 8
    assert squarefree_divisor_count(1) == 1


def test_signed_subset_products():
    signed = arith.signed_subset_products
    assert signed(arith.prime_divisors(6)) == ((1, 1), (2, -1), (3, -1), (6, 1))
    assert signed(arith.prime_divisors(4)) == ((1, 1), (2, -1))
    assert signed(arith.prime_divisors(1)) == ((1, 1),)
    assert signed((2, 3, 5), cap=10) == ((1, 1), (2, -1), (3, -1), (6, 1), (5, -1), (10, 1))


def test_toth_factor_values():
    assert toth_factor(2, 1) == 1
    assert toth_factor(2, 2) == Fraction(1, 3)
    assert toth_factor(2, 6) == Fraction(1, 6)
    assert toth_factor(3, 2) == Fraction(1, 4)


def test_toth_factor_prime_closed_form():
    # per prime p the factor is (p-1)/(p-1+r), and it only sees the radical
    for r in (2, 3, 4):
        for p in (2, 3, 5, 7):
            assert toth_factor(r, p) == Fraction(p - 1, p - 1 + r)
            assert toth_factor(r, p * p) == toth_factor(r, p)


def test_table_limit_guard(tables):
    with pytest.raises(ValueError):
        arith.factorize(10**9, tables)


def _check_table_entries(t, ms):
    for m in ms:
        fac = arith.factor_small(m)
        assert int(t.spf[m]) == (fac[0][0] if fac else 0), (t.limit, m)
        assert int(t.mobius[m]) == mobius_of(m), (t.limit, m)


def test_build_tables_against_trial_division():
    # the sieve treats primes above isqrt(limit) in bulk, so the limits
    # include every small one and both sides of two prime squares
    for limit in range(2, 301):
        t = arith.build_tables(limit)
        _check_table_entries(t, range(1, limit + 1))
        assert t.primes.tolist() == [m for m in range(2, limit + 1) if t.spf[m] == m]
    for p in (97, 997):
        for limit in (p * p - 1, p * p, p * p + 1):
            t = arith.build_tables(limit)
            assert len(t.spf) == len(t.mobius) == limit + 1
            assert int(t.spf[0]) == int(t.spf[1]) == int(t.mobius[0]) == 0
            ms = range(1, limit + 1) if p == 97 else [
                *range(1, 3001),
                *range(limit - 3000, limit + 1),
                *range(p - 50, limit + 1, p),  # multiples of p up to p * p
                *range(1009, limit + 1, 1009),  # the first prime above p
            ]
            _check_table_entries(t, ms)
            primes = np.flatnonzero(t.spf == np.arange(limit + 1))[1:]  # spf[0] = 0
            assert np.array_equal(t.primes, primes)


def test_sieve_tables_are_read_only(tables):
    # one kept table serves every caller, so a write would change later counts
    for name, array in (
        ("spf", tables.spf),
        ("mobius", tables.mobius),
        ("primes", tables.primes),
        ("primes_up_to", arith.primes_up_to(1000)),
    ):
        with pytest.raises(ValueError, match="read-only"):
            array[2] = 0
        assert int(array[2]) != 0, name


def test_mertens_at_one_million():
    # M(10**6) = 212 (OEIS A084237)
    assert int(arith.build_tables(10**6).mobius.sum(dtype=np.int64)) == 212
