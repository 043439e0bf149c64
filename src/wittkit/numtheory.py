"""The elementary number theory behind the ghost recursion.

Divisors, primality, factorization, the Mobius function, Bezout
coefficients and one square-and-multiply routine.  This is the package's
one helper set for them; it imports only the standard library, so every
module can use it without adding to the start-up cost.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt


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
