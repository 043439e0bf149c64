import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wittkit.errors import MissingVariable, NotAUnit, NotDivisible, SpecMismatch, ZeroDivisor
from wittkit.rings import (
    ModularRing,
    PolynomialRing,
    Q,
    RingElement,
    SeriesRing,
    SquareZeroRing,
    Z,
    element_from_json,
    element_to_json,
    exact_div,
    parse_ring,
    ring_add,
    ring_mul,
    series_inverse,
)
from wittkit.universal import PolySource, UnivPolyKey

from oracles import series_long_division

RINGS = [
    Z,
    Q,
    ModularRing(4),
    ModularRing(9),
    PolynomialRing(Z, ["x", "y"]),
    PolynomialRing(ModularRing(3), ["x"]),
    SquareZeroRing(Z),
    SeriesRing(Z, 5),
    SeriesRing(ModularRing(2), 3),
    SquareZeroRing(SeriesRing(Z, 3)),
    parse_ring("W({1,2,4},Z)"),
    parse_ring("W({1,2},Z/4)"),
]


def test_basic_examples():
    assert ring_add(RingElement(Z, 2), RingElement(Z, 3)) == RingElement(Z, 5)
    R4 = ModularRing(4)
    assert ring_add(RingElement(R4, 3), RingElement(R4, 3)) == RingElement(R4, 2)
    R6 = ModularRing(6)
    assert ring_mul(RingElement(R6, 4), RingElement(R6, 3)) == RingElement(R6, 0)
    P = PolynomialRing(Z, ["a1", "b1"])
    a1 = RingElement(P, P.var("a1"))
    b1 = RingElement(P, P.var("b1"))
    assert (a1 + b1).value == P.add(P.var("a1"), P.var("b1"))
    assert (a1 * a1).value == {((0, 2),): 1}


def test_square_zero_product():
    R = SquareZeroRing(Z)
    x = RingElement(R, (2, 3))
    y = RingElement(R, (5, 7))
    assert (x * y).value == (10, 29)
    # fiber squares to zero
    m = RingElement(R, (0, 5))
    assert (m * m).value == (0, 0)


def test_spec_mismatch():
    with pytest.raises(SpecMismatch):
        ring_add(RingElement(Z, 1), RingElement(Q, Fraction(1)))


def test_exact_div():
    assert exact_div(RingElement(Z, 6), 3) == RingElement(Z, 2)
    P = PolynomialRing(Z, ["a2"])
    four_a2 = RingElement(P, P.scalar_mul(4, P.var("a2")))
    assert exact_div(four_a2, 2).value == P.scalar_mul(2, P.var("a2"))
    with pytest.raises(NotDivisible):
        exact_div(RingElement(Z, 5), 2)
    R9 = ModularRing(9)
    assert exact_div(RingElement(R9, 5), 2) == RingElement(R9, 7)
    with pytest.raises(ZeroDivisor):
        exact_div(RingElement(R9, 6), 3)
    with pytest.raises(NotDivisible):
        exact_div(RingElement(R9, 5), 3)


def test_exact_div_inverts_scalar_mul():
    rng = random.Random(1)
    for ring in (Z, Q, PolynomialRing(Z, ["x"]), SeriesRing(Z, 4)):
        for _ in range(50):
            x = ring.sample(rng)
            for n in (1, 2, 3, 7):
                assert ring.exact_div(ring.scalar_mul(n, x), n) == x


def test_series_inverse():
    R = SeriesRing(Z, 3)
    f = RingElement(R, R.from_coefficients([1, -1, 0]))
    assert series_inverse(f).value == (1, 1, 1)
    R4 = SeriesRing(Z, 4)
    assert series_inverse(RingElement(R4, R4.one)).value == (1, 0, 0, 0)
    g = RingElement(R4, R4.from_coefficients([1, -2, 1, 0]))
    expected = series_long_division([1], [1, -2, 1], 4)
    assert list(series_inverse(g).value) == expected == [1, 2, 3, 4]
    with pytest.raises(NotAUnit):
        series_inverse(RingElement(R4, R4.from_coefficients([0, 1])))


def test_series_inverse_random():
    rng = random.Random(7)
    R = SeriesRing(Z, 6)
    for _ in range(100):
        coeffs = [1] + [rng.randint(-9, 9) for _ in range(5)]
        f = RingElement(R, R.from_coefficients(coeffs))
        assert (series_inverse(f) * f).value == R.one


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_ring_axioms(ring):
    rng = random.Random(42)
    zero, one = ring.zero, ring.one
    for _ in range(60):
        x, y, z = (ring.sample(rng) for _ in range(3))
        assert ring.add(x, y) == ring.add(y, x)
        assert ring.add(ring.add(x, y), z) == ring.add(x, ring.add(y, z))
        assert ring.mul(x, y) == ring.mul(y, x)
        assert ring.mul(ring.mul(x, y), z) == ring.mul(x, ring.mul(y, z))
        assert ring.mul(x, ring.add(y, z)) == ring.add(ring.mul(x, y), ring.mul(x, z))
        assert ring.add(x, zero) == x
        assert ring.mul(x, one) == x
        assert ring.add(x, ring.neg(x)) == zero


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_json_round_trip(ring):
    rng = random.Random(3)
    for _ in range(20):
        el = RingElement(ring, ring.sample(rng))
        back = element_from_json(element_to_json(el))
        assert back == el


def test_parse_ring_round_trip():
    for text in ["Z", "Q", "Z/8", "Z[x,y]", "Z/3[x]", "sz(Z)", "series(Z,12)", "W({1,2,4},Z)"]:
        ring = parse_ring(text)
        assert parse_ring(str(ring)) == ring
    assert str(parse_ring("W(div24,Z)")) == "W({1,2,3,4,6,8,12,24},Z)"
    with pytest.raises(SpecMismatch):
        parse_ring("F_9")


def test_modular_normalization():
    R = ModularRing(5)
    assert R.of_int(-1) == 4
    assert R.of_int(12) == 2


def test_polynomial_canonical_form():
    P = PolynomialRing(Z, ["x", "y"])
    x, y = P.var("x"), P.var("y")
    built = P.add(P.mul(x, y), P.neg(P.mul(y, x)))
    assert built == {}
    assert P.format(P.add(P.mul(x, x), P.scalar_mul(-3, y))) in ("x^2 - 3*y", "-3*y + x^2")


# -- compiled polynomial evaluation ---------------------------------------------

EVAL_VARS = ("a1", "a2", "b1", "b2")
EVAL_RING = PolynomialRing(Z, EVAL_VARS)
EVAL_TARGETS = [parse_ring(spec) for spec in
                ("Z/8", "Z/9", "series(Z/2,3)", "Z/3[x]", "sz(Z/4)", "Q")]

# few variables and small exponents, so monomials often share a prefix
monomials = st.lists(
    st.tuples(st.integers(0, len(EVAL_VARS) - 1), st.integers(1, 3)), max_size=4
).map(lambda factors: tuple(sorted(dict(factors).items())))
# 72 = 8 * 9 vanishes in every torsion target above
coefficients = st.integers(-30, 30).filter(bool) | st.integers(-3, 3).filter(bool).map(
    lambda k: 72 * k
)
polynomials = st.one_of(
    st.just({}),
    coefficients.map(lambda c: {(): c}),
    st.dictionaries(monomials, coefficients, max_size=14),
)


def term_by_term(payload, values, target, variables=EVAL_VARS):
    """Evaluate term by term with repeated multiplication: no powers, no sharing."""
    acc = target.zero
    for mono, c in payload.items():
        term = target.of_int(c)
        for v, e in mono:
            for _ in range(e):
                term = target.mul(term, values[variables[v]])
        acc = target.add(acc, term)
    return acc


@settings(max_examples=60, deadline=None)
@given(polynomials, st.sampled_from(EVAL_TARGETS), st.randoms(use_true_random=False))
def test_evaluate_matches_term_by_term(payload, target, rng):
    values = {name: target.sample(rng, 4) for name in EVAL_VARS}
    assert EVAL_RING.evaluate(payload, values, target) == term_by_term(payload, values, target)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=8, max_size=8))
def test_programs_are_kept_per_target_ring(raw):
    src = PolySource()
    key = UnivPolyKey("prod", 4)
    poly = src.universal_poly(key)
    for m in (8, 9, 8):
        target = ModularRing(m)
        values = {name: r % m for name, r in zip(poly.ring.variables, raw)}
        want = term_by_term(poly.value, values, target, poly.ring.variables)
        assert src.evaluate(key, values, target) == want
        assert src.evaluate(key, values, target) == want


def test_evaluate_checks_every_variable():
    Z8 = ModularRing(8)
    # a1 occurs only in a term whose coefficient vanishes mod 8
    payload = {((0, 1),): 8, ((1, 2),): 3}
    with pytest.raises(MissingVariable):
        EVAL_RING.evaluate(payload, {"a2": 1}, Z8)
    assert EVAL_RING.evaluate(payload, {"a1": 5, "a2": 3}, Z8) == 3
    with pytest.raises(MissingVariable):
        EVAL_RING.evaluate({((0, 1),): 8}, {}, Z8)
    assert EVAL_RING.evaluate({((0, 1),): 8}, {"a1": 1}, Z8) == 0


def test_evaluate_needs_integer_coefficients():
    P = PolynomialRing(Q, ["a1"])
    with pytest.raises(SpecMismatch):
        P.evaluate({((0, 1),): Fraction(1, 2)}, {"a1": Fraction(1)}, Q)
    with pytest.raises(SpecMismatch):
        P.evaluate({(): Fraction(3)}, {}, Q)
