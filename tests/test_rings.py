import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from wittkit.errors import (
    MissingVariable,
    NotAUnit,
    NotDivisible,
    SpecMismatch,
    WittkitError,
    ZeroDivisor,
)
from wittkit.rings import (
    ModularRing,
    PolynomialRing,
    Q,
    RingElement,
    SeriesRing,
    SquareZeroRing,
    Z,
    compile_program,
    element_from_json,
    element_to_json,
    exact_div,
    parse_ring,
    series_inverse,
)
from wittkit.truncation import divisors_of
from wittkit.universal import PolySource, UnivPolyKey, key_family
from wittkit.witt import WittVector, delta_component, frobenius, witt_mul, witt_neg

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
    assert RingElement(Z, 2) + RingElement(Z, 3) == RingElement(Z, 5)
    R4 = ModularRing(4)
    assert RingElement(R4, 3) + RingElement(R4, 3) == RingElement(R4, 2)
    R6 = ModularRing(6)
    assert RingElement(R6, 4) * RingElement(R6, 3) == RingElement(R6, 0)
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
        RingElement(Z, 1) + RingElement(Q, Fraction(1))


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
def test_zero_and_one_are_built_once(ring):
    zero, one = ring.zero, ring.one
    assert ring.zero is zero and ring.one is one
    rng = random.Random(4)
    for _ in range(20):
        x = ring.sample(rng)
        ring.add(ring.mul(one, x), zero)
        ring.add(zero, ring.pow(x, 0))
        ring.mul(ring.pow(x, 2), one)
    # the shared constants come back unchanged from every operation
    assert (zero, one) == (ring.of_int(0), ring.of_int(1))


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


def structure(ring):
    """The class and parameters of a ring, level by level (== compares spec strings only)."""
    params = tuple(getattr(ring, name, None) for name in ("variables", "precision", "tset", "m"))
    base = getattr(ring, "base", None)
    return type(ring), params, None if base is None else structure(base)


@pytest.mark.parametrize("ring", [
    PolynomialRing(PolynomialRing(Z, ["x"]), ["y"]),
    PolynomialRing(parse_ring("W({1},Z[x])"), ["y"]),
    PolynomialRing(SquareZeroRing(PolynomialRing(Z, ["x"])), ["y"]),
], ids=str)
def test_parse_ring_reads_polynomials_over_a_bracketed_base(ring):
    parsed = parse_ring(str(ring))
    assert str(parsed) == str(ring) and structure(parsed) == structure(ring)


@pytest.mark.parametrize("text", ["Z[x y]", "Z[1]", "Z[x]]", "Z[x,y-z]"])
def test_parse_ring_refuses_a_variable_that_is_no_identifier(text):
    with pytest.raises(SpecMismatch):
        parse_ring(text)


@pytest.mark.parametrize("ring", [ring for ring in RINGS if hasattr(ring, "base") and ring.lift_ring()],
                         ids=str)
def test_the_cover_is_built_once(ring):
    assert ring.lift_ring() is ring.lift_ring()


def test_square_zero_is_the_series_ring_mod_t_squared():
    R, S2 = SquareZeroRing(ModularRing(4)), SeriesRing(ModularRing(4), 2)
    assert isinstance(R, SeriesRing) and R.lift_ring() == SquareZeroRing(Z)
    rng = random.Random(5)
    for _ in range(30):
        x, y = R.sample(rng), R.sample(rng)
        assert R.mul(x, y) == S2.mul(x, y) and R.add(x, y) == S2.add(x, y)
    # text, JSON and spec stay those of a pair
    x = RingElement(R, (1, 3))
    assert (str(x), element_to_json(x)) == ("(1, 3)", {"spec": "sz(Z/4)", "value": [1, 3]})
    with pytest.raises(SpecMismatch):
        R.from_json([1, 3, 0])
    # a series mod t^2 with constant term 1 has an inverse
    assert str(series_inverse(RingElement(SquareZeroRing(Z), (1, 5)))) == "(1, -5)"


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


def test_power_of_a_single_term_matches_repeated_products():
    cases = [(PolynomialRing(Z, ["x", "y"]), {((0, 2), (1, 1)): -3}),
             (PolynomialRing(ModularRing(4), ["x"]), {((0, 1),): 2}),  # (2x)^2 = 0
             (PolynomialRing(Z, ["x"]), {(): 5})]
    for P, term in cases:
        product = P.one
        for e in range(5):
            assert P.pow(term, e) == product
            product = P.mul(product, term)


@pytest.mark.parametrize("spec, value", [("Z", 2), ("Z/8", 2), ("Z/8", 3), ("Q", "1/2"),
                                         ("Z[x]", [[[["x", 1]], 1]]), ("series(Z,3)", [1, 1, 0])])
def test_negative_powers_are_refused_in_every_ring(spec, value):
    # no float over Z, no inverse of a unit mod 8 and no ValueError for a non-unit
    ring = parse_ring(spec)
    el = RingElement(ring, ring.from_json(value))
    with pytest.raises(WittkitError, match="negative exponent"):
        el ** -1
    assert el ** 0 == RingElement(ring, ring.one)


def test_equal_polynomials_hash_alike_whatever_order_built_them():
    P = parse_ring("Z[x,y]")
    x, y = RingElement(P, P.var("x")), RingElement(P, P.var("y"))
    assert x + y == y + x
    assert len({x + y, y + x}) == 1
    N = parse_ring("Z[x][y]")  # the coefficients are dicts too
    x, y, one = RingElement(N, {(): N.base.var("x")}), RingElement(N, N.var("y")), RingElement(N, N.one)
    assert (x + one) + y == y + (one + x)
    assert len({(x + one) + y, y + (one + x)}) == 1


# -- the packed product -----------------------------------------------------------

MUL_VARS = ("x", "y", "z")
# Exponents at and just under a power of two: 3+3 and 7+9 spill into the
# next variable's field if the field is one bit too narrow.
mul_monomials = st.dictionaries(
    st.integers(0, len(MUL_VARS) - 1), st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31]), max_size=3
).map(lambda exps: tuple(sorted(exps.items())))
MUL_RINGS = [  # (ring, nonzero coefficients); in Z/8, 4+4 and 2*4 vanish
    (PolynomialRing(Z, MUL_VARS), st.integers(-5, 5).filter(bool)),
    (PolynomialRing(ModularRing(8), MUL_VARS), st.sampled_from([1, 2, 4, 6, 7])),
    (PolynomialRing(Q, MUL_VARS), st.fractions(-3, 3, max_denominator=4).filter(bool)),
    (parse_ring(f"Z[w][{','.join(MUL_VARS)}]"), st.dictionaries(
        st.sampled_from([(), ((0, 1),), ((0, 3),)]), st.integers(-2, 2).filter(bool), min_size=1, max_size=2)),
]


@st.composite
def mul_operands(draw):
    ring, coefficients = draw(st.sampled_from(MUL_RINGS))
    x, y = (draw(st.dictionaries(mul_monomials, coefficients, max_size=6)) for _ in "xy")
    return ring, x, y


def product_term_by_term(ring, x, y):
    """x*y with each monomial product formed on a plain exponent dict."""
    base = ring.base
    acc = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            exps = dict(ma)
            for v, e in mb:
                exps[v] = exps.get(v, 0) + e
            mono = tuple(sorted(exps.items()))
            c = base.mul(ca, cb)
            acc[mono] = base.add(acc[mono], c) if mono in acc else c
    return {mono: c for mono, c in acc.items() if not base.is_zero(c)}


def assert_canonical(ring, payload):
    for mono, c in payload.items():
        assert all(e >= 1 for _, e in mono)
        indices = [v for v, _ in mono]
        assert indices == sorted(set(indices)) and set(indices) <= set(range(len(ring.variables)))
        assert not ring.base.is_zero(c)


@settings(max_examples=150, deadline=None)
@given(mul_operands())
@example((MUL_RINGS[0][0], {((0, 3),): 1, ((1, 1),): 2}, {((0, 3),): 1, ((2, 1),): 1}))  # 3+3
@example((MUL_RINGS[0][0], {((0, 7),): 1, (): 1}, {((0, 9),): 1, ((1, 1),): 1}))  # 7+9
@example((MUL_RINGS[1][0], {((0, 1),): 4, ((1, 1),): 2}, {((0, 1),): 2, ((1, 1),): 1}))  # x is y: 2*(4*2) = 0
@example((MUL_RINGS[0][0], {((1, 2),): 3}, {((0, 1),): 1, ((1, 1),): -1, (): 2}))  # a one-term operand
def test_packed_product_matches_term_by_term(operands):
    ring, x, y = operands
    for a, b in ((x, y), (y, x), (x, x), (x, dict(x))):  # a square, then equal but distinct operands
        got = ring.mul(a, b)
        assert got == product_term_by_term(ring, a, b)
        assert_canonical(ring, got)


def test_product_monomials_share_their_pairs():
    P = PolynomialRing(Z, MUL_VARS)
    x = {((0, 1),): 1, ((1, 1),): 1, ((2, 1),): 1}
    got = P.mul(x, P.mul(x, x))  # (x + y + z)^3
    pairs = [pair for mono in got for pair in mono]
    assert len(got) == 10 and len({id(pair) for pair in pairs}) == len(set(pairs))


@st.composite
def integer_operands(draw):
    """A polynomial ring over Z (m = 0) or Z/m, 2 <= m <= 12, and two of its payloads."""
    m = draw(st.sampled_from([0, *range(2, 13)]))
    ring = PolynomialRing(ModularRing(m) if m else Z, MUL_VARS)
    coefficients = st.integers(1, m - 1) if m else st.integers(-9, 9).filter(bool)
    x, y = (draw(st.dictionaries(mul_monomials, coefficients, max_size=6)) for _ in "xy")
    return ring, x, y


X, Y = ((0, 1),), ((1, 1),)


@settings(max_examples=200, deadline=None)
@given(integer_operands())
@example((PolynomialRing(ModularRing(2), MUL_VARS), {(): 1, X: 1}, {(): 1, X: 1}))  # (1+x)^2 = 1+x^2 over Z/2
@example((PolynomialRing(ModularRing(4), MUL_VARS), {(): 2, X: 2}, {(): 2, Y: 2}))  # every coefficient 4 = 0
@example((PolynomialRing(Z, MUL_VARS), {X: 1, Y: -1}, {X: 1, Y: 1}))  # (x-y)(x+y): the cross terms cancel
@example((PolynomialRing(ModularRing(12), MUL_VARS), {X: 5}, {(): 7, X: 11, Y: 6}))  # a one-term operand
def test_integer_coefficients_are_accumulated_as_in_the_schoolbook_product(operands):
    ring, x, y = operands
    for a, b in ((x, y), (x, x), (x, dict(x))):  # a square, then equal but distinct operands
        got = ring.mul(a, b)
        assert got == product_term_by_term(ring, a, b)
        assert_canonical(ring, got)
        if ring.base is not Z:  # each coefficient reduced
            assert all(0 < c < ring.base.m for c in got.values())


class CountingZ8(ModularRing):
    """Z/8, counting its multiplications."""

    def __init__(self):
        super().__init__(8)
        self.muls = 0

    def mul(self, x, y):
        self.muls += 1
        return super().mul(x, y)


def test_a_modular_subclass_multiplies_through_its_own_mul():
    target = CountingZ8()
    ring, plain = PolynomialRing(target, MUL_VARS), PolynomialRing(ModularRing(8), MUL_VARS)
    x, y = {(): 3, X: 5, Y: 7}, {X: 2, Y: 6}
    for a, b, products in ((x, y, 6), (x, x, 6)):  # 3x2 term pairs; a square of 3 terms, each cross term once
        target.muls = 0
        assert ring.mul(a, b) == plain.mul(a, b)
        assert target.muls == products


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


def compiled(payload, target, split=0, variables=EVAL_VARS):
    """The program of the one output `payload` on `variables`."""
    return compile_program(variables, [(payload, range(len(variables)))], target, split)


@settings(max_examples=60, deadline=None)
@given(polynomials, st.sampled_from(EVAL_TARGETS), st.randoms(use_true_random=False))
def test_evaluate_matches_term_by_term(payload, target, rng):
    values = {name: target.sample(rng, 4) for name in EVAL_VARS}
    assert EVAL_RING.evaluate(payload, values, target) == term_by_term(payload, values, target)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=6, max_size=6))
def test_programs_are_kept_per_target_ring(raw):
    src, S = PolySource(), divisors_of(4)
    kept = {}
    for m in (8, 9, 8):
        target = ModularRing(m)
        x, y = (WittVector(S, target, tuple(r % m for r in part)) for part in (raw[:3], raw[3:]))
        values = {f"{tag}{d}": c for tag, v in zip("ab", (x, y)) for d, c in zip(S.members, v.coords)}
        for _ in range(2):
            for n, coord in zip(S.members, src.vector("prod", 0, S, x, y).coords):
                poly = src.universal_poly(UnivPolyKey("prod", n))
                assert coord == term_by_term(poly.value, values, target, poly.ring.variables)
        program = src._programs["prod", 0, S, ModularRing, target]
        assert kept.setdefault(m, program) is program
    assert len(src._programs) == 2


def test_a_program_is_kept_per_ring_class():
    # rings compare by spec, so CountingZ8 equals ModularRing(8), but it
    # multiplies through its own mul: a program compiled for Z/8 must not serve it
    S = divisors_of(6)
    plain = WittVector(S, ModularRing(8), (3, 5, 7, 2))
    served = PolySource()
    want = witt_mul(plain, plain, "universal", served).coords
    for src in (PolySource(), served):
        target = CountingZ8()
        x = WittVector(S, target, plain.coords)
        assert witt_mul(x, x, "universal", src).coords == want
        assert target.muls == 50


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


# a node (a1) with its own term, a child (a1*a2) and terms with a high part
# (b-factors) on both sides of it; a constant, pure-b terms and a vanishing one
SPLIT_EXAMPLE = {
    (): 3, ((0, 1),): 5, ((0, 1), (1, 1)): 7, ((0, 1), (2, 1)): 11, ((0, 1), (2, 1), (3, 2)): 72,
    ((0, 1), (1, 1), (3, 1)): -2, ((2, 2),): 13, ((2, 2), (3, 1)): 6, ((1, 2), (3, 1)): -4,
    ((1, 2), (2, 1)): 5,
}


@settings(max_examples=80, deadline=None)
@given(polynomials, st.sampled_from(EVAL_TARGETS), st.integers(0, len(EVAL_VARS)),
       st.randoms(use_true_random=False))
@example(SPLIT_EXAMPLE, parse_ring("Z/8"), 2, random.Random(0))
@example(SPLIT_EXAMPLE, parse_ring("Z/3[x]"), 2, random.Random(1))
@example({((2, 1),): 1, ((3, 2),): 72, ((2, 1), (3, 1)): 2}, parse_ring("Z/9"), 2, random.Random(2))
def test_split_program_matches_term_by_term(payload, target, split, rng):
    values = {name: target.sample(rng, 4) for name in EVAL_VARS}
    program = compiled(payload, target, split)
    assert program.run(values) == [term_by_term(payload, values, target)]
    assert len(set(program.links)) == len(program.links)


def test_split_program_checks_every_variable():
    Z8 = ModularRing(8)
    # a1 and b1 occur only in a term whose coefficient vanishes mod 8
    program = compiled({((0, 1), (2, 1)): 8, ((1, 2), (3, 1)): 3}, Z8, 2)
    with pytest.raises(MissingVariable):
        program.run({"a2": 1, "b2": 1})
    assert program.run({"a1": 5, "a2": 3, "b1": 2, "b2": 3}) == [1]


def test_binary_programs_compute_each_b_monomial_once():
    target, src, rng = CountingZ8(), PolySource(), random.Random(5)
    for key in (UnivPolyKey("prod", 12), UnivPolyKey("sum", 12)):
        poly = src.universal_poly(key)
        variables = poly.ring.variables
        values = {name: rng.randrange(8) for name in variables}
        # split at the first b_d, as a sum or product family program is
        split = compiled(poly.value, target, len(variables) // 2, variables)
        target.muls = 0
        got = split.run(values)
        split_muls, target.muls = target.muls, 0
        assert got == compiled(poly.value, target, 0, variables).run(values)
        assert split_muls < target.muls


def test_unary_programs_are_not_split():
    target, src, S = CountingZ8(), PolySource(), divisors_of(12)
    x = WittVector(S, target, (3,) * len(S))
    for family, run in ((("neg", 0, S), lambda: witt_neg(x, "universal", src)),
                        (("frob", 3, S.quotient(3)), lambda: frobenius(3, x, "universal", src)),
                        (("delta", 2, S.quotient(2)), lambda: delta_component(2, x, "universal", src))):
        run()
        program = src._programs[(*family, CountingZ8, target)]
        assert [[low for low, _ in rows] for rows in program.outputs] == [[0]] * len(family[2])


def powers_and_links(program) -> int:
    return sum(top - 1 for _, top in program.powers) + len(program.links)


def products_of(program) -> int:
    """The multiplications of one run: each power and each part once, and per row of each
    output its constants other than one and its low part; sums cost no products."""
    return (powers_and_links(program)
            + sum(sum(c is not None for c, _ in groups) + (low != 0)
                  for rows in program.outputs for low, groups in rows))


@pytest.mark.parametrize("key", [UnivPolyKey("prod", 24), UnivPolyKey("sum", 24), UnivPolyKey("neg", 24)])
def test_programs_multiply_once_per_part_and_per_constant_in_a_row(key):
    # the program of key's family over the divisors of its weight
    op, S = key.op, divisors_of(key.weight)
    target, src, rng = CountingZ8(), PolySource(), random.Random(key.weight)
    coords = {tag: tuple(rng.randrange(8) for _ in S.members) for tag in "ab"}
    x, y = (WittVector(S, target, coords[tag]) for tag in "ab")
    if op == "neg":
        y = None
    got = src.vector(op, 0, S, x, y)  # compiles
    program = src._programs[op, 0, S, CountingZ8, target]
    target.muls = 0
    assert src.vector(op, 0, S, x, y) == got
    assert target.muls == products_of(program)
    values = {f"{tag}{d}": c for tag in "ab" for d, c in zip(S.members, coords[tag])}
    for m, coord in zip(S.members, got.coords):
        poly = src.universal_poly(UnivPolyKey(op, m))
        assert coord == term_by_term(poly.value, values, ModularRing(8), poly.ring.variables)


@pytest.mark.parametrize("op, N, spec, shared, key_by_key", [
    ("sum", 12, "Z/3[x]", 170, 198), ("prod", 24, "Z/8", 1212, 1406)])
def test_a_family_program_builds_each_power_and_part_once(op, N, spec, shared, key_by_key):
    target, src, S = parse_ring(spec), PolySource(), divisors_of(N)
    x = WittVector(S, target, (target.one,) * len(S))
    src.vector(op, 0, S, x, x)
    family = src._programs[op, 0, S, type(target), target]
    singles = []
    for key in key_family(op, 0, S):
        poly = src.universal_poly(key)
        variables = poly.ring.variables
        singles.append(compiled(poly.value, target, len(variables) // 2, variables))
    assert (powers_and_links(family), sum(map(powers_and_links, singles))) == (shared, key_by_key)


@pytest.mark.parametrize("spec", ["Z/8", "Z/9", "Z/3[x]", "series(Z/2,3)"])
def test_split_binary_programs_match_the_unsplit_ones(spec):
    target, src, rng = parse_ring(spec), PolySource(), random.Random(spec)
    for n in range(1, 13):
        for op in ("sum", "prod"):
            key = UnivPolyKey(op, n)
            poly = src.universal_poly(key)
            variables = poly.ring.variables
            split = compiled(poly.value, target, len(variables) // 2, variables)
            unsplit = compiled(poly.value, target, 0, variables)
            for _ in range(3):
                values = {name: target.sample(rng, 4) for name in variables}
                assert split.run(values) == unsplit.run(values)
