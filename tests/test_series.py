import random

import pytest

from wittkit.errors import NotAUnit
from wittkit.rings import ModularRing, Q, RingElement, SeriesRing, Z, parse_ring
from wittkit.series import gamma, gamma_inverse
from wittkit.truncation import divisors_of, initial_segment, truncation_set
from wittkit.witt import WittVector, teichmuller, verschiebung, witt_add, witt_one, witt_zero

Z3x = parse_ring("Z/3[x]")


def rand_vec(S, ring, rng):
    return WittVector(S, ring, tuple(ring.sample(rng) for _ in S))


def test_gamma_examples():
    S = initial_segment(4)
    c = 3
    assert gamma(teichmuller(c, S, Z), 4).value == (1, 3, 9, 27, 81)
    assert gamma(witt_zero(S, Z), 5).value == (1, 0, 0, 0, 0, 0)
    S2 = truncation_set([1, 2])
    v = verschiebung(2, witt_one(S2.quotient(2), Z), S2)
    assert gamma(v, 4).value == (1, 0, 1, 0, 1)


def test_gamma_inverse_examples():
    f = RingElement(SeriesRing(Z, 3), (1, 1, 0))
    assert gamma_inverse(f, 2).coords == (1, -1)
    one = RingElement(SeriesRing(Z, 5), (1, 0, 0, 0, 0))
    assert gamma_inverse(one, 4) == witt_zero(initial_segment(4), Z)
    with pytest.raises(NotAUnit):
        gamma_inverse(RingElement(SeriesRing(Z, 3), (2, 1, 0)), 2)


def test_round_trip():
    # below, at and above max S: a series mod t^(P+1) fixes the coordinates
    # up to P, and past max S they are 0
    rng = random.Random(0)
    S = initial_segment(8)
    for ring in (ModularRing(7), Z, Q, Z3x):
        for P in (5, 8, 12):
            for _ in range(200 if P == 8 and ring in (ModularRing(7), Z) else 25):
                x = rand_vec(S, ring, rng)
                padded = x.coords[:P] + (ring.zero,) * (P - 8)
                assert gamma_inverse(gamma(x, P), P) == WittVector(initial_segment(P), ring, padded)


@pytest.mark.parametrize("ring", [Z, ModularRing(9), Q, Z3x], ids=str)
def test_gamma_is_additive_to_multiplicative(ring):
    # below, at and above max S: the sum is only known mod t^13
    rng = random.Random(1)
    S = initial_segment(12)
    for P in (8, 12, 16):
        for _ in range(60 if P == 12 and ring in (Z, ModularRing(9)) else 15):
            x, y = rand_vec(S, ring, rng), rand_vec(S, ring, rng)
            lhs, rhs = gamma(witt_add(x, y), P), gamma(x, P) * gamma(y, P)
            assert lhs.value[:13] == rhs.value[:13]


def test_vectors_supported_outside_segment_map_to_one():
    # the kernel of restriction to {1..n} lands in 1 + t^(n+1)(...)
    rng = random.Random(2)
    n = 6
    S = initial_segment(12)
    for _ in range(40):
        coords = [0] * 12
        for i in range(n, 12):
            coords[i] = rng.randint(-9, 9)
        x = WittVector(S, Z, tuple(coords))
        f = gamma(x, 12).value
        assert f[0] == 1
        assert all(c == 0 for c in f[1 : n + 1])


def test_gamma_on_divisor_sets():
    # gamma is defined for any truncation set, but it is a homomorphism
    # only into the quotient by the missing indices: for div(6) the
    # largest faithful initial segment is {1,2,3}, so compare mod t^4
    S = divisors_of(6)
    x = WittVector(S, Z, (1, 1, 0, 2))
    f = gamma(x, 6)
    g = gamma(witt_add(x, x), 6)
    assert (f * f).value[:4] == g.value[:4]
