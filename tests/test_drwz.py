import random
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from wittkit.drwz import (
    DrwElement,
    crt_bracket,
    curly,
    dlog_minus_one,
    drw_d,
    drw_eta,
    drw_frobenius,
    drw_from_json,
    drw_mul,
    drw_restrict,
    drw_scalar_mul,
    drw_verschiebung,
    drw_zero,
    generator_tables,
)
from wittkit.errors import NotSubset, SetMismatch, SpecMismatch
from wittkit.truncation import MEMBER_BUDGET, divisors_of, truncation_set
from wittkit.witt import witt_mul
from wittkit.wittint import (
    BasisWittInt,
    basis_generator,
    basis_mul,
    basis_scalar_mul,
    to_coords,
)

S6 = divisors_of(6)
S8 = divisors_of(8)
S16 = divisors_of(16)
S24 = divisors_of(24)


def gen(S, n):
    return drw_eta(basis_generator(S, n))


def dgen(S, n):
    return drw_d(gen(S, n))


def rand_drw(S, rng):
    deg0 = BasisWittInt(S, tuple(rng.randint(-9, 9) for _ in S))
    return DrwElement(S, deg0, tuple(rng.randrange(n) for n in S.members))


def _assert_crt_class(m, n):
    c, g, l = crt_bracket(m, n), gcd(m, n), lcm(m, n)
    assert isinstance(c, int)
    assert 0 <= c < l
    assert c % m == 0
    assert c % n == g % n
    # the two brackets assemble to the gcd
    assert (c + crt_bracket(n, m)) % l == g % l


def test_crt_bracket():
    assert crt_bracket(2, 3) == 4
    assert crt_bracket(3, 2) == 3
    assert crt_bracket(2, 2) == 0
    # every pair the CLI examples, the law suites and the benchmark use
    for m in range(1, 129):
        for n in range(1, 129):
            _assert_crt_class(m, n)
    with pytest.raises(SpecMismatch):
        crt_bracket(0, 3)


@given(st.integers(1, MEMBER_BUDGET), st.integers(1, MEMBER_BUDGET))
def test_crt_bracket_up_to_the_member_budget(m, n):
    _assert_crt_class(m, n)


def test_curly():
    assert curly(2, 4) == 1
    assert curly(3, 2) == 0
    assert curly(1, 1) == 0


def test_mul_examples():
    assert drw_mul(gen(S6, 2), gen(S6, 3)) == gen(S6, 6)
    got = drw_mul(gen(S6, 3), dgen(S6, 2))
    assert got.deg1 == tuple(3 if n == 6 else 0 for n in S6.members)
    got = drw_mul(gen(S16, 2), dgen(S16, 2))
    expected = {4: 2, 8: 4, 16: 8}
    assert got.deg1 == tuple(expected.get(n, 0) for n in S16.members)
    assert not any(got.deg0.coeffs)
    # degree-1 times degree-1 vanishes
    assert drw_mul(dgen(S6, 2), dgen(S6, 3)) == drw_zero(S6)


def test_d():
    assert drw_d(gen(S6, 3)).deg1 == tuple(1 if n == 3 else 0 for n in S6.members)
    assert drw_d(drw_eta(basis_scalar_mul(3, basis_generator(S6, 3)))) == drw_zero(S6)
    assert drw_d(dgen(divisors_of(5), 5)) == drw_zero(divisors_of(5))


def test_frobenius_examples():
    got = drw_frobenius(2, gen(S8, 2))
    assert got.deg0 == basis_scalar_mul(2, basis_generator(S8.quotient(2), 1))
    got = drw_frobenius(2, dgen(S8, 2))
    assert got.deg1 == (0, 1, 2)  # dV2 + 2 dV4 over div(4)
    assert got == dlog_minus_one(S8.quotient(2))
    got = drw_frobenius(3, dgen(S6, 2))
    assert got.deg1 == tuple(1 if n == 2 else 0 for n in S6.quotient(3).members)


def test_verschiebung_examples():
    T = S6.quotient(2)
    assert drw_verschiebung(2, dgen(T, 3), S6).deg1 == tuple(
        2 if n == 6 else 0 for n in S6.members
    )
    assert drw_verschiebung(1, gen(S6, 2), S6) == gen(S6, 2)
    S4 = divisors_of(4)
    assert drw_verschiebung(2, dgen(S4.quotient(2), 2), S4).deg1 == (0, 0, 2)
    with pytest.raises(SetMismatch):
        drw_verschiebung(2, dgen(S6, 2), S6)


def test_eta():
    rng = random.Random(0)
    from wittkit.wittint import basis_one

    assert drw_eta(basis_one(S6)) == drw_mul(drw_eta(basis_one(S6)), drw_eta(basis_one(S6)))
    v = to_coords(basis_generator(S6, 2))
    assert drw_eta(v) == gen(S6, 2)
    for _ in range(100):
        x = BasisWittInt(S24, tuple(rng.randint(-9, 9) for _ in S24))
        y = BasisWittInt(S24, tuple(rng.randint(-9, 9) for _ in S24))
        assert drw_mul(drw_eta(x), drw_eta(y)) == drw_eta(basis_mul(x, y))
        # agreement with coordinate-level multiplication
        assert drw_eta(witt_mul(to_coords(x), to_coords(y))) == drw_mul(
            drw_eta(x), drw_eta(y)
        )


def test_dlog():
    assert dlog_minus_one(S8).deg1 == (0, 1, 2, 4)
    odd = truncation_set([1, 3, 9])
    assert dlog_minus_one(odd) == drw_zero(odd)
    assert drw_scalar_mul(2, dlog_minus_one(S8)) == drw_zero(S8)


def test_restrict():
    rng = random.Random(1)
    x = rand_drw(S8, rng)
    assert drw_restrict(S8, x) == x
    T = truncation_set([1, 2])
    y = drw_restrict(T, dgen(S8, 4))
    assert y == drw_zero(T)
    with pytest.raises(NotSubset):
        drw_restrict(divisors_of(5), x)
    for _ in range(100):
        x = rand_drw(S8, rng)
        T = S8.quotient(rng.choice([1, 2, 4]))
        assert drw_restrict(T, drw_d(x)) == drw_d(drw_restrict(T, x))


def test_json_round_trip():
    rng = random.Random(2)
    for _ in range(30):
        x = rand_drw(S24, rng)
        assert drw_from_json(x.to_json()) == x


def test_degree_one_coefficients_reduced():
    with pytest.raises(SpecMismatch):
        DrwElement(S6, BasisWittInt(S6, (0, 0, 0, 0)), (0, 2, 0, 0))


def test_generator_tables():
    tables = generator_tables(S6)
    assert tables["mul"]["V2*V3"] == "1·V6η([1])"
    assert tables["d"]["d(V2)"] == "1·dV2η([1])"
    assert "F2(dV2)" in tables["frobenius"]
