import random
from math import gcd

import pytest

from wittkit.errors import NotInGhostImage, NotSubset, SetMismatch, UnsupportedRing
from wittkit.rings import ModularRing, Q, SeriesRing, SquareZeroRing, Z
from wittkit.truncation import divisors_of, truncation_set
from wittkit.witt import (
    GhostVector,
    WittRing,
    WittVector,
    delta,
    delta_component,
    frobenius,
    from_ghost,
    ghost,
    restrict,
    square_zero_split,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    witt_of_int,
    witt_one,
    witt_scalar_mul,
    witt_zero,
)

S12 = divisors_of(12)


def rand_vec(S, ring, rng):
    return WittVector(S, ring, tuple(ring.sample(rng) for _ in S))


def test_add_mul_examples():
    S = truncation_set([1, 2])
    x = WittVector(S, Z, (1, 0))
    assert witt_add(x, x).coords == (2, -1)
    y = WittVector(S, Z, (0, 1))
    assert witt_mul(x, y).coords == (0, 1)
    assert witt_add(x, witt_zero(S, Z)) == x


def test_ghost_and_section():
    S = truncation_set([1, 2])
    assert ghost(WittVector(S, Z, (2, -1))).values == (2, 2)
    assert from_ghost(GhostVector(S, Z, (2, 2))).coords == (2, -1)
    with pytest.raises(NotInGhostImage):
        from_ghost(GhostVector(S, Z, (0, 1)))
    with pytest.raises(UnsupportedRing):
        from_ghost(GhostVector(S, ModularRing(4), (0, 1)))
    rng = random.Random(0)
    for _ in range(100):
        x = rand_vec(S12, Z, rng)
        assert from_ghost(ghost(x)) == x


def test_teichmuller():
    S = divisors_of(6)
    t = teichmuller(1, S, Z)
    assert t.coords == (1, 0, 0, 0)
    rng = random.Random(1)
    for _ in range(30):
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        assert witt_mul(teichmuller(a, S, Z), teichmuller(b, S, Z)) == teichmuller(a * b, S, Z)
        assert ghost(teichmuller(a, S, Z)).values == tuple(a**n for n in S.members)


def test_restrict():
    S = truncation_set([1, 2, 3])
    x = WittVector(S, Z, (1, 2, 3))
    assert restrict(x, truncation_set([1])).coords == (1,)
    assert restrict(x, S) == x
    with pytest.raises(NotSubset):
        restrict(x, divisors_of(4))
    rng = random.Random(2)
    T = truncation_set([1, 2, 4])
    for _ in range(50):
        x, y = rand_vec(S12, Z, rng), rand_vec(S12, Z, rng)
        assert restrict(witt_add(x, y), T) == witt_add(restrict(x, T), restrict(y, T))
        assert restrict(witt_mul(x, y), T) == witt_mul(restrict(x, T), restrict(y, T))


def test_verschiebung():
    S = truncation_set([1, 2])
    v = verschiebung(2, WittVector(truncation_set([1]), Z, (5,)), S)
    assert v.coords == (0, 5)
    with pytest.raises(SetMismatch):
        verschiebung(2, WittVector(S, Z, (1, 1)), S)
    rng = random.Random(3)
    # ghost(V_n x)_m = n * w_{m/n}(x) when n | m, else 0
    for n in (2, 3):
        T = S12.quotient(n)
        for _ in range(20):
            x = rand_vec(T, Z, rng)
            g = ghost(verschiebung(n, x, S12))
            gx = ghost(x)
            for m in S12.members:
                expected = n * gx.value(m // n) if m % n == 0 else 0
                assert g.value(m) == expected
    # additivity over Z/9
    R9 = ModularRing(9)
    T = S12.quotient(2)
    for _ in range(30):
        x, y = rand_vec(T, R9, rng), rand_vec(T, R9, rng)
        assert verschiebung(2, witt_add(x, y), S12) == witt_add(
            verschiebung(2, x, S12), verschiebung(2, y, S12)
        )


def test_frobenius():
    S = truncation_set([1, 2])
    x = WittVector(S, Z, (3, 4))
    assert frobenius(2, x).coords == (3**2 + 2 * 4,)
    assert frobenius(1, x) == x
    rng = random.Random(4)
    for _ in range(30):
        x = rand_vec(S12, Z, rng)
        T = S12.quotient(2)
        assert frobenius(2, verschiebung(2, restrict(x, T), S12)) == witt_scalar_mul(
            2, restrict(x, T)
        )
    # ghost relation: ghost(F_n x)_d = ghost(x)_{nd}
    for n in (2, 3, 4):
        x = rand_vec(S12, Z, rng)
        gf = ghost(frobenius(n, x))
        gx = ghost(x)
        for d in S12.quotient(n).members:
            assert gf.value(d) == gx.value(n * d)


def test_strategies_agree():
    rng = random.Random(5)
    for _ in range(25):
        x, y = rand_vec(S12, Z, rng), rand_vec(S12, Z, rng)
        assert witt_add(x, y, "ghost") == witt_add(x, y, "universal")
        assert witt_mul(x, y, "ghost") == witt_mul(x, y, "universal")
        assert witt_neg(x, "ghost") == witt_neg(x, "universal")
        assert frobenius(3, x, "ghost") == frobenius(3, x, "universal")
    for ring in (ModularRing(8), ModularRing(9), SeriesRing(ModularRing(2), 3)):
        for _ in range(10):
            x, y = rand_vec(S12, ring, rng), rand_vec(S12, ring, rng)
            assert witt_add(x, y, "lift") == witt_add(x, y, "universal")
            assert witt_mul(x, y, "lift") == witt_mul(x, y, "universal")
            assert frobenius(2, x, "lift") == frobenius(2, x, "universal")
            assert delta_component(2, x, "lift") == delta_component(2, x, "universal")


@pytest.mark.parametrize("ring", [Z, ModularRing(8), ModularRing(9), SeriesRing(ModularRing(2), 3)],
                         ids=str)
def test_ring_laws_sampled(ring):
    rng = random.Random(6)
    zero, one = witt_zero(S12, ring), witt_one(S12, ring)
    for _ in range(25):
        x, y, z = (rand_vec(S12, ring, rng) for _ in range(3))
        assert witt_add(x, y) == witt_add(y, x)
        assert witt_mul(x, y) == witt_mul(y, x)
        assert witt_add(witt_add(x, y), z) == witt_add(x, witt_add(y, z))
        assert witt_mul(witt_mul(x, y), z) == witt_mul(x, witt_mul(y, z))
        assert witt_mul(x, witt_add(y, z)) == witt_add(witt_mul(x, y), witt_mul(x, z))
        assert witt_add(x, zero) == x
        assert witt_mul(x, one) == x
        assert witt_add(x, witt_neg(x)) == zero


def test_various_relations():
    rng = random.Random(7)
    S = divisors_of(24)
    for _ in range(10):
        x = rand_vec(S, Z, rng)
        # coordinate decomposition
        acc = witt_zero(S, Z)
        for n in S.members:
            acc = witt_add(acc, verschiebung(n, teichmuller(x.coord(n), S.quotient(n), Z), S))
        assert acc == x
        for m in (2, 3, 4):
            for n in (2, 3, 4):
                T = S.quotient(n)
                y = rand_vec(T, Z, rng)
                assert frobenius(n, verschiebung(n, y, S)) == witt_scalar_mul(n, y)
                assert witt_mul(x, verschiebung(n, y, S)) == verschiebung(
                    n, witt_mul(frobenius(n, x), y), S
                )
                if gcd(m, n) == 1:
                    assert frobenius(m, verschiebung(n, y, S)) == verschiebung(
                        n, frobenius(m, y), S.quotient(m)
                    )


def test_mod_p_frobenius_is_coordinate_restriction():
    import itertools

    # over Z/p the p-th Frobenius forgets down to S/p coordinatewise;
    # exhaustive over the small cases, random over the larger one
    for p, S in ((2, divisors_of(4)), (3, divisors_of(9))):
        ring = ModularRing(p)
        for coords in itertools.product(range(p), repeat=len(S)):
            x = WittVector(S, ring, coords)
            assert frobenius(p, x) == restrict(x, S.quotient(p))
    S = divisors_of(12)
    ring = ModularRing(2)
    rng = random.Random(2)
    for _ in range(40):
        x = rand_vec(S, ring, rng)
        assert frobenius(2, x) == restrict(x, S.quotient(2))


def test_p_frobenius_congruence():
    # F_p(x) = x^p mod p, witnessed on V-basis coefficients
    from wittkit.wittint import from_coords

    rng = random.Random(11)
    S = divisors_of(12)
    for p in (2, 3):
        for _ in range(15):
            x = rand_vec(S, Z, rng)
            diff = witt_add(frobenius(p, x), witt_neg(restrict(_witt_pow(x, p), S.quotient(p))))
            for c in from_coords(diff).coeffs:
                assert c % p == 0


def _witt_pow(x, e):
    out = witt_one(x.tset, x.ring)
    for _ in range(e):
        out = witt_mul(out, x)
    return out


def test_delta_examples():
    S = divisors_of(4)
    rng = random.Random(8)
    for _ in range(20):
        x = rand_vec(S, Z, rng)
        # first coordinate of the 2nd comonad component is the 2nd coordinate
        assert delta_component(2, x).coord(1) == x.coord(2)
        assert delta_component(1, x) == x
    S8, T4 = divisors_of(8), divisors_of(4)
    nested = WittRing(Z, S8)
    for a in range(-5, 6):
        t = teichmuller(a, S8, Z)
        assert delta(t, T4) == teichmuller(t.coords, T4, nested)


def test_delta_ghost_is_frobenius():
    S8, T4 = divisors_of(8), divisors_of(4)
    rng = random.Random(9)
    for _ in range(15):
        x = rand_vec(S8, Z, rng)
        d = delta(x, T4)
        g = ghost(d)
        for e in T4.members:
            lifted = WittVector(S8, Z, g.value(e))
            assert restrict(lifted, S8.quotient(e)) == frobenius(e, x)


def test_square_zero_split():
    ring = SquareZeroRing(Z)
    S = divisors_of(6)
    rng = random.Random(10)
    # y_p = x_p - a_1^(p-1) x_1 at a prime coordinate
    for p in (2, 3):
        Sp = divisors_of(p)
        b = WittVector(Sp, ring, tuple((rng.randint(-5, 5), rng.randint(-5, 5)) for _ in Sp))
        a, xs = square_zero_split(b)
        a1, y1 = b.coord(1)
        ap, yp = b.coord(p)
        assert xs[0] == y1
        assert xs[1] == yp + a1 ** (p - 1) * y1
        assert yp == xs[1] - a1 ** (p - 1) * xs[0]
    # all zero module part
    b = WittVector(S, ring, tuple((rng.randint(-5, 5), 0) for _ in S))
    _, xs = square_zero_split(b)
    assert all(v == 0 for v in xs)
    # reassembly: b = in1(a) + in2(x)
    for _ in range(100):
        b = WittVector(S, ring, tuple((rng.randint(-9, 9), rng.randint(-9, 9)) for _ in S))
        a, xs = square_zero_split(b)
        in1 = WittVector(S, ring, tuple((c, 0) for c in a.coords))
        in2 = WittVector(S, ring, tuple((0, v) for v in xs))
        assert witt_add(in1, in2) == b


def test_witt_of_int():
    for ring in (Z, Q, ModularRing(6)):
        one = witt_of_int(1, S12, ring)
        assert one == witt_one(S12, ring)
        five = witt_of_int(5, S12, ring)
        acc = witt_zero(S12, ring)
        for _ in range(5):
            acc = witt_add(acc, one)
        assert five == acc
        assert witt_of_int(-5, S12, ring) == witt_neg(five)


def test_empty_set_is_zero_ring():
    from wittkit.truncation import EMPTY

    z = witt_zero(EMPTY, Z)
    assert witt_one(EMPTY, Z) == z
    assert witt_add(z, z) == z and witt_mul(z, z) == z


def test_nested_witt_ring_arithmetic():
    S, T = divisors_of(4), divisors_of(2)
    nested = WittRing(Z, S)
    rng = random.Random(12)
    for _ in range(10):
        x = rand_vec(T, nested, rng)
        y = rand_vec(T, nested, rng)
        assert witt_add(x, y) == witt_add(y, x)
        assert witt_mul(witt_mul(x, y), x) == witt_mul(x, witt_mul(y, x))
        assert nested.exact_div(nested.scalar_mul(3, x.coord(1)), 3) == x.coord(1)


def test_universal_integer_multiples_by_doubling():
    # 10**6 by doubling is about forty Witt additions
    Z8 = ModularRing(8)
    k = 10**6
    assert witt_of_int(k, S12, Z8, "universal") == witt_of_int(k, S12, Z8, "lift")
    x = rand_vec(S12, Z8, random.Random(5))
    assert witt_scalar_mul(-k, x, "universal") == witt_scalar_mul(-k, x, "lift")
    assert witt_scalar_mul(0, x, "universal") == witt_zero(S12, Z8)


@pytest.mark.parametrize("ring", [Z, ModularRing(9)], ids=str)
def test_pow_matches_repeated_mul(ring):
    S = divisors_of(6)
    x = rand_vec(S, ring, random.Random(11))
    acc = witt_one(S, ring)
    for e in range(10):
        assert x**e == acc, e
        acc = witt_mul(acc, x)
