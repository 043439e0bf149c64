"""The elementary number theory behind the ghost recursion.

Divisors, primality, factorization, the Mobius function, Bezout
coefficients, the power cycle of Z/m and one square-and-multiply routine.
This is the package's one helper set for them; it imports only the
standard library, so every module can use it without adding to the
start-up cost.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt


@lru_cache(maxsize=4096)
def divisors(n: int) -> tuple[int, ...]:
    """The positive divisors of n >= 1, ascending."""
    if n < 1:
        raise ValueError(f"divisors needs a positive integer: {n}")
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return tuple(small + large[::-1])


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, isqrt(p) + 1))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division."""
    if n < 1:
        raise ValueError(f"factorize needs a positive integer: {n}")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


# The largest trial divisor of `power_cycle`.  A cofactor it leaves has a
# prime factor p > 256, so a cycle would have length at least p - 1 >= 256,
# longer than any exponent of a universal polynomial (at most the weight,
# and no weight passes universal.HARD_MAX_CEILING = 128).
CYCLE_TRIAL_LIMIT = 256


def power_cycle(m: int) -> tuple[int, int] | None:
    """(k, lam) with x^(e+lam) = x^e for every x in Z/m and every e >= k, or None.

    k is the largest exponent in the factorization of m >= 1, lam the
    Carmichael exponent of m: modulo each prime power p^a of m, a unit has
    order dividing lam and a multiple of p has x^e = 0 for e >= a.  None
    when trial division by d <= CYCLE_TRIAL_LIMIT leaves a cofactor above 1.
    """
    if m < 1:
        raise ValueError(f"power_cycle needs a positive integer: {m}")
    k, lam = 0, 1
    for p in range(2, CYCLE_TRIAL_LIMIT + 1):
        a = 0
        while m % p == 0:
            m //= p
            a += 1
        if a:
            order = 2 ** (a - 2) if p == 2 and a > 2 else p ** (a - 1) * (p - 1)
            k, lam = max(k, a), lam * order // gcd(lam, order)
    return None if m > 1 else (k, lam)


def mobius(d: int) -> int:
    """1 on squarefree products of evenly many primes, -1 on odd, else 0."""
    factors = factorize(d)
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def bezout(m: int, n: int, c: int) -> tuple[int, int]:
    """(i, j) with m*i + n*j = c, where c is gcd(m, n), by the extended Euclidean algorithm."""
    old_r, r = m, n
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    assert old_r == c
    return old_s, old_t


def binary_power(op, unit, x, k: int):
    """x op x op ... op x (k >= 0 copies, `unit` when k = 0) by repeated doubling.

    The one power routine: ring powers, Witt multiples and powers, V-basis powers.
    """
    if k < 0:  # the loop below would never end
        raise ValueError(f"binary_power needs k >= 0: {k}")
    acc = None
    while k:
        if k & 1:
            acc = x if acc is None else op(acc, x)
        k >>= 1
        if k:
            x = op(x, x)
    return unit if acc is None else acc
