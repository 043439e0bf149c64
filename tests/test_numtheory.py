from math import gcd, prod

import pytest
from hypothesis import given, strategies as st

from wittkit.numtheory import (
    CYCLE_TRIAL_LIMIT,
    binary_power,
    bezout,
    divisors,
    factorize,
    is_prime,
    mobius,
    power_cycle,
)
from wittkit.universal import HARD_MAX_CEILING


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


def test_power_cycle_holds_for_every_residue():
    # every x in Z/m and every e <= k + 2*lam: x^e = x^(reduced e), the reduction
    # that rings.compile_program applies to the exponents of a Z/m program
    for m in range(1, 301):
        factors = factorize(m)
        if max(factors, default=1) > CYCLE_TRIAL_LIMIT:  # 257, 263, ..., 293
            assert power_cycle(m) is None
            continue
        k, lam = power_cycle(m)
        assert k == max(factors.values(), default=0)
        powers = [tuple(pow(x, e, m) for x in range(m)) for e in range(k + 2 * lam + 1)]
        for e, values in enumerate(powers):
            reduced = e if e < k + lam else k + (e - k) % lam
            assert values == powers[reduced], (m, e)


def test_power_cycle_is_none_past_the_trial_divisors():
    # 257 is prime and 526 = 2 * 263: a prime factor above 256 leaves a cycle of length 256 or more
    assert power_cycle(257) is None
    assert power_cycle(526) is None
    # so no exponent of a universal polynomial reaches a cycle that was not found
    assert CYCLE_TRIAL_LIMIT > HARD_MAX_CEILING
    assert power_cycle(256) == (8, 64)
    assert power_cycle(2 * 3 * 251) == (1, 250)
