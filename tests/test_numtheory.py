from math import gcd, prod

import pytest
from hypothesis import given, strategies as st

from wittkit.numtheory import binary_power, bezout, divisors, factorize, is_prime, mobius


def brute_is_prime(p):
    return p > 1 and all(p % d for d in range(2, p))


@given(st.integers(1, 3000))
def test_divisors_match_brute_force(n):
    assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)


@given(st.integers(-5, 3000))
def test_is_prime_matches_brute_force(p):
    assert is_prime(p) == brute_is_prime(p)


@given(st.integers(1, 3000))
def test_factorize_matches_brute_force(n):
    factors = factorize(n)
    assert all(brute_is_prime(p) for p in factors)
    assert prod(p**e for p, e in factors.items()) == n


@given(st.integers(1, 3000))
def test_mobius_matches_brute_force(n):
    primes = [p for p in range(2, n + 1) if n % p == 0 and brute_is_prime(p)]
    want = 0 if any(n % (p * p) == 0 for p in primes) else (-1) ** len(primes)
    assert mobius(n) == want
    assert sum(mobius(d) for d in divisors(n)) == (n == 1)


@given(st.integers(1, 10**9), st.integers(1, 10**9))
def test_bezout_solves_the_gcd_equation(m, n):
    c = gcd(m, n)
    i, j = bezout(m, n, c)
    assert m * i + n * j == c


@given(st.text(max_size=3), st.integers(0, 40), st.integers(1, 10**6), st.integers(2, 10**6))
def test_binary_power_matches_repeated_op(word, k, x, modulus):
    # concatenation is not commutative, so this also checks the order of the factors
    assert binary_power(str.__add__, "", word, k) == word * k
    x %= modulus
    acc = 1
    for _ in range(k):
        acc = acc * x % modulus
    assert binary_power(lambda a, b: a * b % modulus, 1, x, k) == acc


def test_binary_power_refuses_a_negative_count():
    # its loop would never end: -1 >> 1 is -1
    with pytest.raises(ValueError):
        binary_power(str.__add__, "", "ab", -1)
