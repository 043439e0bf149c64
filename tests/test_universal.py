import hashlib
import logging
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from wittkit.errors import (
    BudgetExceeded,
    CacheCorrupt,
    CeilingExceeded,
    IntegralityViolation,
    MissingVariable,
    NotDivisible,
)
from wittkit.rings import (
    ROW_BUDGET,
    ModularRing,
    PolynomialRing,
    Q,
    RingElement,
    SeriesRing,
    SquareZeroRing,
    Z,
    compile_int_program,
    parse_ring,
    runs_on_ints,
)
from wittkit.truncation import divisors_of, parse_truncation_set
from wittkit.witt import WittVector, delta_component, frobenius, teichmuller, witt_add, witt_mul, witt_neg
from wittkit.universal import (
    _CACHE_HEADER,
    DEFAULT_CEILING,
    TERM_BUDGET,
    WORK_BUDGET,
    PolySource,
    UnivPolyKey,
    _charge,
    _poly_ring,
    ghost_poly,
    key_family,
    parse_key,
    poly_from_text,
    poly_to_text,
    specialize,
    term_bound,
    warm_cache,
    work_bound,
)

from test_laws import SumMutated
from test_rings import term_by_term


@pytest.fixture(scope="module")
def src():
    return PolySource()


def _named(poly):
    ring = poly.ring
    return {
        tuple((ring.variables[v], e) for v, e in mono): c for mono, c in poly.value.items()
    }


def test_ghost_poly(src):
    assert _named(ghost_poly(1)) == {(("a1", 1),): 1}
    assert _named(ghost_poly(2)) == {(("a1", 2),): 1, (("a2", 1),): 2}
    assert _named(ghost_poly(4)) == {
        (("a1", 4),): 1,
        (("a2", 2),): 2,
        (("a4", 1),): 4,
    }
    assert _named(ghost_poly(2, "b")) == {(("b1", 2),): 1, (("b2", 1),): 2}


def test_low_degree_values(src):
    assert _named(src.universal_poly(UnivPolyKey("sum", 1))) == {
        (("a1", 1),): 1,
        (("b1", 1),): 1,
    }
    assert _named(src.universal_poly(UnivPolyKey("sum", 2))) == {
        (("a2", 1),): 1,
        (("b2", 1),): 1,
        (("a1", 1), ("b1", 1)): -1,
    }
    assert _named(src.universal_poly(UnivPolyKey("prod", 2))) == {
        (("a1", 2), ("b2", 1)): 1,
        (("a2", 1), ("b1", 2)): 1,
        (("a2", 1), ("b2", 1)): 2,
    }
    assert _named(src.universal_poly(UnivPolyKey("neg", 2))) == {
        (("a1", 2),): -1,
        (("a2", 1),): -1,
    }
    assert _named(src.universal_poly(UnivPolyKey("frob", 1, 2))) == {
        (("a1", 2),): 1,
        (("a2", 1),): 2,
    }
    assert _named(src.universal_poly(UnivPolyKey("frob", 2, 2))) == {
        (("a4", 1),): 2,
        (("a2", 2),): -1,
        (("a1", 2), ("a2", 1)): -2,
    }
    assert _named(src.universal_poly(UnivPolyKey("delta", 1, 2))) == {(("a2", 1),): 1}


def _ghost_of_family(src, op, n, ring):
    """Substitute the family polynomials into the ghost sum at level n."""
    acc = ring.zero
    for d in range(1, n + 1):
        if n % d == 0:
            fd = src.universal_poly(UnivPolyKey(op, d))
            embedded = ring.convert_from(fd.value, fd.ring)
            acc = ring.add(acc, ring.scalar_mul(d, ring.pow(embedded, n // d)))
    return acc


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12])
def test_ghost_identities(src, n):
    ring = PolynomialRing(Z, [f"a{d}" for d in range(1, n + 1) if n % d == 0]
                          + [f"b{d}" for d in range(1, n + 1) if n % d == 0])
    wa = ring.convert_from(ghost_poly(n, "a").value, ghost_poly(n, "a").ring)
    wb = ring.convert_from(ghost_poly(n, "b").value, ghost_poly(n, "b").ring)
    assert _ghost_of_family(src, "sum", n, ring) == ring.add(wa, wb)
    assert _ghost_of_family(src, "prod", n, ring) == ring.mul(wa, wb)
    assert _ghost_of_family(src, "neg", n, ring) == ring.neg(wa)


@pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3, 4, 6) for n in (1, 2, 3, 4)
                                 if m * n <= 24])
def test_frobenius_ghost_identity(src, m, n):
    ring = PolynomialRing(Z, [f"a{d}" for d in range(1, m * n + 1) if (m * n) % d == 0])
    acc = ring.zero
    for d in range(1, n + 1):
        if n % d == 0:
            fd = src.universal_poly(UnivPolyKey("frob", d, m))
            acc = ring.add(acc, ring.scalar_mul(d, ring.pow(ring.convert_from(fd.value, fd.ring), n // d)))
    w = ghost_poly(m * n, "a")
    assert acc == ring.convert_from(w.value, w.ring)


@pytest.mark.parametrize("e,n", [(e, n) for e in (1, 2, 3, 4) for n in (1, 2, 3, 4)
                                 if e * n <= 16])
def test_delta_ghost_identity(src, e, n):
    # summing d * delta_{e,d}^(n/d) over d|n recovers the Frobenius coordinate f_{n,e}
    ring = PolynomialRing(Z, [f"a{d}" for d in range(1, e * n + 1) if (e * n) % d == 0])
    acc = ring.zero
    for d in range(1, n + 1):
        if n % d == 0:
            dd = src.universal_poly(UnivPolyKey("delta", d, e))
            acc = ring.add(acc, ring.scalar_mul(d, ring.pow(ring.convert_from(dd.value, dd.ring), n // d)))
    f = src.universal_poly(UnivPolyKey("frob", e, n))
    assert acc == ring.convert_from(f.value, f.ring)


def test_zero_constant_terms(src):
    for key in [UnivPolyKey("sum", 6), UnivPolyKey("prod", 6), UnivPolyKey("neg", 6),
                UnivPolyKey("frob", 3, 2), UnivPolyKey("delta", 2, 2)]:
        poly = src.universal_poly(key)
        assert () not in poly.value


def test_specialize(src):
    s2 = src.universal_poly(UnivPolyKey("sum", 2))
    val = specialize(
        s2,
        {"a1": RingElement(Z, 1), "a2": RingElement(Z, 0),
         "b1": RingElement(Z, 1), "b2": RingElement(Z, 0)},
        Z,
    )
    assert val == RingElement(Z, -1)
    p2 = src.universal_poly(UnivPolyKey("prod", 2))
    val = specialize(
        p2,
        {"a1": RingElement(Z, 1), "a2": RingElement(Z, 0),
         "b1": RingElement(Z, 0), "b2": RingElement(Z, 1)},
        Z,
    )
    assert val == RingElement(Z, 1)
    # zero constant term: the all-zero assignment evaluates to zero
    zeros = {v: RingElement(Q, Fraction(0)) for v in ("a1", "a2", "b1", "b2")}
    assert specialize(s2, zeros, Q) == RingElement(Q, Fraction(0))
    with pytest.raises(MissingVariable) as refused:
        specialize(s2, {"a1": RingElement(Z, 1)}, Z)
    assert str(refused.value) == "no value for ['a2', 'b1', 'b2']"


FAMILY_SETS = st.one_of(
    st.integers(1, 12).map(lambda n: f"div{n}"),
    st.integers(0, 8).map(lambda n: f"seg{n}"),
    st.sampled_from([(2, 1), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)]).map(lambda pk: "ptyp(%d,%d)" % pk),
).map(parse_truncation_set)
FAMILY_RINGS = [parse_ring(spec) for spec in ("Z", "Z/8", "Z/9", "Z/3[x]", "series(Z/2,3)")]


def _family_agrees(source, op, param, S, x, y):
    T = S.quotient(param) if op in ("frob", "delta") else S
    values = {f"a{d}": c for d, c in zip(S.members, x.coords)}
    if y is not None:
        values.update((f"b{d}", c) for d, c in zip(S.members, y.coords))
    got = source.vector(op, param, T, x, y)
    assert got.tset == T and len(got.coords) == len(T)
    for m, coord in zip(T.members, got.coords):
        poly = source.universal_poly(UnivPolyKey(op, m, param))
        assert coord == term_by_term(poly.value, values, x.ring, poly.ring.variables)
    return got


@settings(max_examples=80, deadline=None)
@given(FAMILY_SETS, st.sampled_from(FAMILY_RINGS), st.sampled_from(["sum", "prod", "neg", "frob", "delta"]),
       st.data(), st.randoms(use_true_random=False))
def test_a_family_program_evaluates_each_key_as_term_by_term(src, S, ring, op, data, rng):
    param = data.draw(st.sampled_from(S.members[1:] or (1,)) | st.integers(1, 3)) if op in ("frob", "delta") else 0
    x, y = (WittVector(S, ring, tuple(ring.sample(rng, 4) for _ in S.members)) for _ in "xy")
    _family_agrees(src, op, param, S, x, y if op in ("sum", "prod") else None)


def test_a_family_program_reads_each_polynomial_through_universal_poly():
    S = divisors_of(4)
    x = WittVector(S, Z, (1, 0, 0))
    plain = _family_agrees(PolySource(), "sum", 0, S, x, x)
    mutated = _family_agrees(SumMutated(), "sum", 0, S, x, x)
    assert mutated.coords[1] == plain.coords[1] + 1  # SumMutated adds a1*b1 to sum:2


INT_MODULI = (2, 3, 4, 6, 8, 9, 257)
INT_KINDS = ("Z/m", "series", "sz", "dense", "sparse")
# drawn uniformly, so that div12, the benchmark's set, is as likely as {1}
INT_SETS = st.sampled_from(["seg0", "div1", "div4", "div6", "div8", "div12", "seg6", "seg8", "ptyp(2,3)",
                            "ptyp(3,2)"]).map(parse_truncation_set)


@st.composite
def int_path_operands(draw, S, kind):
    """(ring, x, y): a ring with an int carrier of the given kind and two vectors over S.

    Coordinates may be zero; a dense polynomial has every coefficient up to
    its degree (at most 4) nonzero, constants included, and a sparse one a
    term of degree 100 or more, as has the first coordinate of x.
    """
    m = draw(st.sampled_from(INT_MODULI))
    base, units = ModularRing(m), st.integers(1, m - 1)
    if kind == "Z/m":
        ring, payloads = base, st.integers(0, m - 1)
    elif kind in ("series", "sz"):
        ring = SeriesRing(base, draw(st.integers(1, 4))) if kind == "series" else SquareZeroRing(base)
        payloads = st.lists(st.integers(0, m - 1), min_size=ring.precision, max_size=ring.precision).map(tuple)
    elif kind == "dense":
        ring = PolynomialRing(base, ["x"])
        payloads = st.lists(units, max_size=5).map(lambda cs: {((0, e),) if e else (): c for e, c in enumerate(cs)})
    else:
        ring = PolynomialRing(base, ["x"])
        payloads = st.tuples(st.integers(0, m - 1), units, st.integers(100, 400)).map(
            lambda t: {**({(): t[0]} if t[0] else {}), ((0, t[2]),): t[1]})
    payloads = st.just(ring.zero) | payloads
    x, y = (draw(st.lists(payloads, min_size=len(S), max_size=len(S))) for _ in "xy")
    if kind == "sparse" and x:
        x[0] = {(): 1, ((0, 100),): 1}
    return ring, WittVector(S, ring, tuple(x)), WittVector(S, ring, tuple(y))


INT_SOURCE = PolySource()
# The explicit examples (data None): div24 families, whose generated source
# spans many compile units (`rings.UNIT_CHARS`) and spills long sums into
# temporaries (`rings.SPILL_CHARS`).  A drawn div24 case would cost up to a
# second, as would the series product family, checked term by term.
MULTI_UNIT = {("Z/m", "sum"): ModularRing(8), ("Z/m", "prod"): ModularRing(8),
              ("series", "sum"): SeriesRing(ModularRing(2), 3)}


@pytest.mark.parametrize("kind", INT_KINDS)
@settings(max_examples=40, deadline=None)
@given(INT_SETS, st.sampled_from(["sum", "prod", "neg", "frob", "delta"]), st.data())
@example(divisors_of(24), "sum", None)
@example(divisors_of(24), "prod", None)
def test_int_carrier_families_evaluate_each_key_as_term_by_term(kind, S, op, data):
    # m = 2, 4, 6, 8 make constants of every family vanish, so the program drops their terms
    if data is None:
        if (kind, op) not in MULTI_UNIT:
            return
        ring, rng = MULTI_UNIT[kind, op], random.Random(1)
        x, y = (WittVector(S, ring, tuple(ring.sample(rng, 4) for _ in S.members)) for _ in "xy")
    else:
        ring, x, y = data.draw(int_path_operands(S, kind))
    param = data.draw(st.sampled_from(S.members[1:] or (1,))) if op in ("frob", "delta") else 0
    y = y if op in ("sum", "prod") else None
    _family_agrees(INT_SOURCE, op, param, S, x, y)
    # a sparse polynomial input runs the ring's own program instead
    sparse = kind == "sparse" and bool(S.members)
    assert runs_on_ints(ring, x.coords + (y.coords if y else ())) is not sparse
    program = INT_SOURCE._programs[op, param, S, type(ring), ring, not sparse]
    assert (program.ints is None) is sparse
    assert program.target == (ring if sparse else getattr(ring, "base", ring))
    if data is None:
        assert len(closure_cells(program)["line"].cell_contents.units) > 10


# Moduli on both sides of rings.SMALL_MODULUS: below it a Z/m program
# reduces a product mod m once the product's bound reaches m^2, from it never
REDUCED_MODULI = (2, 3, 8, 9, 1000003, 2**31 - 1, 2**61 - 1)


@pytest.mark.parametrize("sset", ["div12", "div24"])
@pytest.mark.parametrize("m", REDUCED_MODULI)
def test_z_mod_m_programs_agree_with_lift(m, sset):
    ring, S, rng = ModularRing(m), parse_truncation_set(sset), random.Random(m)
    # the first coordinate at its largest residue, the rest drawn from all of them
    x, y = (WittVector(S, ring, (m - 1, *(rng.randrange(m) for _ in S.members[1:]))) for _ in "xy")
    for op in (witt_add, witt_mul):
        assert op(x, y, "universal", INT_SOURCE) == op(x, y, "lift")
    assert witt_neg(x, "universal", INT_SOURCE) == witt_neg(x, "lift")
    for n in (2, 3):
        assert frobenius(n, x, "universal", INT_SOURCE) == frobenius(n, x, "lift")
        assert delta_component(n, x, "universal", INT_SOURCE) == delta_component(n, x, "lift")
    assert INT_SOURCE._programs["prod", 0, S, ModularRing, ring, True].ints is not None


@pytest.mark.parametrize("m", [8, 1000003])
def test_z_mod_m_polynomial_programs_reduce_no_product(m):
    # reducing a Kronecker int mod m is no ring map: a dense Z/m[x] program runs unreduced
    ring, S, rng = PolynomialRing(ModularRing(m), ["x"]), divisors_of(12), random.Random(m)
    x, y = (WittVector(S, ring, tuple({(): m - 1, ((0, 1),): rng.randrange(1, m)} for _ in S.members))
            for _ in "xy")
    for op in (witt_add, witt_mul):
        assert op(x, y, "universal", INT_SOURCE) == op(x, y, "lift")
    assert INT_SOURCE._programs["prod", 0, S, PolynomialRing, ring, True].ints is not None


def closure_cells(program) -> dict:
    """The cells of the variables that the `ints` closure of an int program holds, by name."""
    return dict(zip(program.ints.__code__.co_freevars, program.ints.__closure__))


def assert_names_what_is_missing(poly, value, target):
    """`evaluate` and `specialize` refuse values missing any variable of `poly`, each of which
    occurs in it, and list exactly those, sorted by name; with every value, the two agree."""
    names, evaluate = poly.ring.variables, partial(poly.ring.evaluate, poly.value)
    values = dict.fromkeys(names, value)
    got = evaluate(values, target)
    assert specialize(poly, values, target) == RingElement(target, got)
    for drop in ([names[0]], [names[-1]], names[::2], names[1::2], names[:0:-1], names, *([n] for n in names)):
        given = {name: v for name, v in {**values, "c1": value}.items() if name not in drop}
        for run in (evaluate, partial(specialize, poly)):
            with pytest.raises(MissingVariable) as refused:
                run(given, target)
            assert str(refused.value) == f"no value for {sorted(drop)}"
    return got


@pytest.mark.parametrize("spec", ["Z/8", "series(Z/8,3)", "sz(Z/8)", "Z/8[x]"])
def test_int_programs_check_every_variable(spec):
    ring, S, src = parse_ring(spec), divisors_of(4), PolySource()
    x = WittVector(S, ring, (ring.one,) * len(S))
    src.vector("prod", 0, S, x, x)
    kept = src._programs["prod", 0, S, type(ring), ring, True]
    got = kept.run(x.coords + x.coords)
    assert kept.ints is not None and got == list(src.vector("prod", 0, S, x, x).coords)
    assert assert_names_what_is_missing(src.universal_poly(UnivPolyKey("prod", 4)), ring.one, ring) == got[-1]
    # a1 occurs only in a term whose coefficient vanishes mod 8, so no statement reads it
    payload = {((0, 1),): 8, ((1, 2),): 3}
    with pytest.raises(MissingVariable) as refused:
        PolynomialRing(Z, ("a1", "a2")).evaluate(payload, {"a2": ring.one}, ring)
    assert str(refused.value) == "no value for ['a1']"
    program = compile_int_program(2, [(payload, range(2))], ring)
    assert program.run([ring.one, ring.one]) == [ring.of_int(3)]


@pytest.mark.parametrize("spec", ["Z", "Q", "Z/3[x]"])
def test_loop_programs_check_every_variable(spec):
    # the ring's own program: Z/3[x] at a sparse coordinate
    ring, S, src = parse_ring(spec), divisors_of(6), PolySource()
    value = {(): 1, ((0, 100),): 1} if spec == "Z/3[x]" else ring.one
    x = WittVector(S, ring, (value,) * len(S))
    src.vector("prod", 0, S, x, x)
    kept = src._programs["prod", 0, S, type(ring), ring, False]
    want = witt_mul(x, x, "lift" if spec == "Z/3[x]" else "ghost")
    assert kept.ints is None and kept.run(x.coords + x.coords) == list(want.coords)
    assert assert_names_what_is_missing(src.universal_poly(UnivPolyKey("prod", 6)), value, ring) == want.coords[-1]


def test_a_carrier_compiles_in_bounded_units():
    # compile() holds about 200 bytes per source byte: the div24 sum family over
    # Z/8, about 140 KB of source, peaked at 29.6 MiB as one unit and at 2.5,
    # 2.9, 3.5 and 5.0 MiB in units of 2, 4, 8 and 16 KB (Python 3.11.7); the
    # bound is about twice the 3.1 MiB read under pytest at UNIT_CHARS = 4096
    S, ring = divisors_of(24), ModularRing(8)
    for key in key_family("sum", 0, S):
        INT_SOURCE.universal_poly(key)
    tracemalloc.start()
    try:
        program = INT_SOURCE._compile("sum", 0, S, S, ring, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
    assert len(closure_cells(program)["line"].cell_contents.units) > 10


@pytest.mark.parametrize("spec, oracle", [("Z/8", "lift"), ("Z", "ghost")])
def test_programs_are_kept_per_operand_set(spec, oracle):
    # div4 and seg4 both have S/2 = {1, 2}, but a_4 is input 2 of a program over div4 and
    # input 3 of one over seg4: a program kept under T would read seg4's a_3 as a_4
    ring, src, rng = parse_ring(spec), PolySource(), random.Random(spec)
    sets = (divisors_of(4), parse_truncation_set("seg4"))
    for S in sets:
        x, y = (WittVector(S, ring, tuple(ring.of_int(rng.randrange(1, 50)) for _ in S.members)) for _ in "xy")
        for op in (frobenius, delta_component):
            assert op(2, x, "universal", src) == op(2, x, oracle)
        for op in (witt_add, witt_mul):
            assert op(x, y, "universal", src) == op(x, y, oracle)
    assert {slot[:3] for slot in src._programs} == {
        (op, param, S) for S in sets for op, param in (("frob", 2), ("delta", 2), ("sum", 0), ("prod", 0))}
    assert all(slot[-1] is (spec == "Z/8") for slot in src._programs)


def test_sparse_calls_compile_only_the_rings_program():
    ring, S, src = parse_ring("Z/3[x]"), divisors_of(6), PolySource()
    x = WittVector(S, ring, ({(): 1, ((0, 400),): 1},) * len(S))
    assert src.vector("prod", 0, S, x, x) == witt_mul(x, x, "lift")
    assert list(src._programs) == [("prod", 0, S, PolynomialRing, ring, False)]


def test_the_kept_programs_stay_in_budget():
    # witt_mul over div24 on Z/3, ..., Z/22 and Z/1000003 in one source: with no bound it
    # kept 21 programs charged 422,450 units, and the last six rings alone took the traced
    # peak to 19.4 MiB; under the budget the oldest go, and those six peak at 12.4 MiB
    S, src = divisors_of(24), PolySource()
    try:
        for m in [*range(3, 23), 1000003]:
            if m == 18:
                tracemalloc.start()
            ring = ModularRing(m)
            x = WittVector(S, ring, tuple((7 * n + 1) % m for n in S.members))
            assert witt_mul(x, x, "universal", src) == witt_mul(x, x, "lift")
            assert src._programs.entries == sum(src._programs.charges.values()) <= ROW_BUDGET
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert len(src._programs) < 21


def test_the_z8_div24_families_are_kept_without_eviction():
    # every family universal_torsion reads over Z/8 on div24: 17 programs charged
    # 20,483 units, the product family 10,905 of them
    ring, S, src = ModularRing(8), divisors_of(24), PolySource()
    x = WittVector(S, ring, tuple(n % 8 for n in S.members))
    witt_mul(x, x, "universal", src), witt_add(x, x, "universal", src), witt_neg(x, "universal", src)
    for m in S.members[1:]:
        frobenius(m, x, "universal", src), delta_component(m, x, "universal", src)
    assert len(src._programs) == 3 + 2 * (len(S) - 1)  # none was evicted
    assert src._programs.charges == {slot: _charge(program) for slot, program in src._programs.items()}
    assert src._programs.entries == sum(src._programs.charges.values()) <= ROW_BUDGET


@pytest.mark.parametrize("spec, m", [("Z/1000[x]", 1000), ("Z/257[x]", 257), ("series(Z/257,3)", 257),
                                     ("series(Z/1000,2)", 1000), ("sz(Z/257)", 257)])
def test_int_path_digits_hold_every_input_coefficient(spec, m):
    # every monomial of a product polynomial has some b_d, so at y = 0 every
    # output at the coefficient sums is 0, and p*a_p vanishes mod p: the
    # digits must still hold an input coefficient up to m - 1
    ring, src = parse_ring(spec), PolySource()
    for S in (divisors_of(1), divisors_of(6)):
        x = WittVector(S, ring, tuple(ring.sample(random.Random(n), 4) for n in S.members))
        x = WittVector(S, ring, (ring.of_int(m - 1),) + x.coords[1:])
        zero = WittVector(S, ring, (ring.zero,) * len(S))
        assert src.vector("prod", 0, S, x, zero) == witt_mul(x, zero, "lift")
        assert src.vector("sum", 0, S, x, zero) == x
        for p in (2, 3):
            if p in S.members:
                T = S.quotient(p)
                assert src.vector("frob", p, T, x) == frobenius(p, x, "lift")
    assert all(slot[-1] and program.ints is not None for slot, program in src._programs.items())


def test_series_products_stay_at_k_digits():
    # reduction mod 2^(B*k) keeps a product at k digits; unmasked, prod:12 reaches degree 24*39
    ring, S = SeriesRing(ModularRing(2), 40), divisors_of(12)
    x = WittVector(S, ring, tuple((1,) * 40 for _ in S.members))
    src = PolySource()
    want = witt_mul(x, x, "lift")
    assert src.vector("prod", 0, S, x, x) == want
    # the program's closure holds its width and mask; watch what its function returns
    cells = closure_cells(src._programs["prod", 0, S, SeriesRing, ring, True])
    line, seen = cells["line"].cell_contents, []

    def watched(values, M):
        out = line(values, M)
        seen.extend(out)
        return out

    cells["line"].cell_contents = watched
    assert src.vector("prod", 0, S, x, x) == want
    bits = 8 * cells["width"].cell_contents * ring.precision
    args = [(1 << bits) - 1] * 2 * len(S)  # every digit at its largest
    # the outputs sum at most 2^16 masked products each
    assert max(seen).bit_length() <= bits + 16
    assert max(line(args, cells["mask"].cell_contents)).bit_length() <= bits + 16


def test_ceiling():
    tiny = PolySource(ceiling=4)
    tiny.universal_poly(UnivPolyKey("sum", 4))
    with pytest.raises(CeilingExceeded):
        tiny.universal_poly(UnivPolyKey("sum", 5))
    with pytest.raises(CeilingExceeded):
        tiny.universal_poly(UnivPolyKey("frob", 3, 2))
    with pytest.raises(CeilingExceeded):
        PolySource(ceiling=1000)


def test_a_kept_key_family_is_checked_by_each_source():
    S = divisors_of(8)
    x = teichmuller(3, S, ModularRing(8))
    assert [str(key) for key in key_family("prod", 0, S)] == ["prod:1", "prod:2", "prod:4", "prod:8"]
    witt_mul(x, x, "universal", PolySource())
    tiny = PolySource(ceiling=4)
    with pytest.raises(CeilingExceeded):
        witt_mul(x, x, "universal", tiny)
    assert not tiny._memo  # the heaviest key is refused before any is computed


def test_the_read_path_checks_each_key_once(monkeypatch):
    S = divisors_of(12)
    source = PolySource()
    for key in key_family("prod", 0, S):
        source.universal_poly(key)  # computes, so checks each key before computing it
    checked = []
    monkeypatch.setattr(PolySource, "check", lambda self, key: checked.append(key))
    heaviest_first = list(reversed(key_family("prod", 0, S)))
    # the family passed over Z/8: not checked again there, but once more for
    # Z/9, whose first call compiles the family's program
    for m, times in ((8, 1), (8, 1), (9, 2), (9, 2)):
        x = teichmuller(3, S, ModularRing(m))
        witt_mul(x, x, "universal", source)
        assert checked == heaviest_first * times


def test_a_refused_key_family_stays_refused(monkeypatch):
    S = divisors_of(8)
    x = teichmuller(3, S, ModularRing(8))
    tiny = PolySource(ceiling=4)
    checked = []
    check = PolySource.check
    monkeypatch.setattr(PolySource, "check", lambda self, key: checked.append(key) or check(self, key))
    for _ in range(2):
        with pytest.raises(CeilingExceeded):
            witt_mul(x, x, "universal", tiny)
    assert [str(key) for key in checked] == ["prod:8", "prod:8"]  # heaviest first, every call
    assert not tiny._memo
    witt_mul(x, x, "universal", PolySource())  # another source with the default ceiling passes


def test_term_budget():
    # c(w), the partitions of w into divisors of w, bounds a key of weight w
    for w, c in [(24, 458), (36, 2234), (48, 9676), (60, 73155), (64, 1828)]:
        assert (term_bound("neg", w), term_bound("prod", w)) == (c, c * c)
    for key in [UnivPolyKey("prod", 24), UnivPolyKey("sum", 32), UnivPolyKey("frob", 3, 2)]:
        assert len(PolySource().universal_poly(key).value) <= term_bound(key.op, key.weight)
    refused = [f"{op}:{n}" for n in range(1, DEFAULT_CEILING + 1)
               for op in ("sum", "prod", "neg") if term_bound(op, n) > TERM_BUDGET]
    assert refused == ["sum:48", "prod:48", "prod:54", "prod:56", "sum:60", "prod:60"]
    with pytest.raises(BudgetExceeded):
        PolySource().universal_poly(UnivPolyKey("prod", 48))


def test_work_budget():
    # the recursion for a key raises the coordinates below it to powers, so
    # its cost follows their squared term bounds: prod:64 passes the term
    # budget and had not finished after 10 minutes, while sum:56 takes ~30 s
    assert work_bound("prod", 40) == term_bound("prod", 20) ** 2 and work_bound("sum", 1) == 0
    source = PolySource()
    source.check(UnivPolyKey("sum", 56))
    for key in [UnivPolyKey("sum", 64), UnivPolyKey("prod", 64)]:
        assert term_bound(key.op, key.weight) <= TERM_BUDGET < WORK_BUDGET < work_bound(key.op, key.weight)
        with pytest.raises(BudgetExceeded, match="work budget"):
            source.check(key)


def test_text_round_trip(src):
    for key in [UnivPolyKey("sum", 12), UnivPolyKey("prod", 8), UnivPolyKey("neg", 6),
                UnivPolyKey("frob", 2, 3), UnivPolyKey("delta", 2, 4)]:
        poly = src.universal_poly(key)
        back = poly_from_text(poly_to_text(poly), poly.ring)
        assert back.value == poly.value
    assert parse_key("frob:2:3") == UnivPolyKey("frob", 3, 2)
    assert parse_key("sum:7") == UnivPolyKey("sum", 7)


def reference_text(poly):
    """The canonical rendering, term by term: the oracle of poly_to_text."""
    ring = poly.ring
    if not poly.value:
        return "0"
    parts = []
    for mono, c in sorted(poly.value.items()):
        factors = [str(c)]
        for v, e in mono:
            name = ring.variables[v]
            factors.append(name if e == 1 else f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


@st.composite
def integer_polys(draw):
    """A polynomial over the ring of a key's weight and tags: random exponents, big signed coefficients."""
    ring = _poly_ring(draw(st.sampled_from([1, 2, 6, 12, 24, 36])), draw(st.sampled_from(["a", "ab"])))
    exponents = st.lists(st.integers(0, 300), min_size=len(ring.variables), max_size=len(ring.variables))
    coefs = st.integers(-10**80, 10**80).filter(bool)
    monos = draw(st.lists(exponents.map(lambda es: tuple((v, e) for v, e in enumerate(es) if e)),
                          unique=True, max_size=30))
    return RingElement(ring, {mono: draw(coefs) for mono in monos})


@settings(max_examples=200, deadline=None)
@given(integer_polys())
def test_the_codec_writes_the_reference_text_and_reads_it_back(poly):
    text = poly_to_text(poly)
    assert text == reference_text(poly)
    back = poly_from_text(text, poly.ring)
    assert back.value == poly.value
    assert list(map(type, back.value.values())) == [int] * len(poly.value)
    pairs = poly.ring._pairs  # read pairs are the ring's interned ones
    assert all(pairs[pair] is pair for mono in back.value for pair in mono)


def test_disk_cache_round_trip(tmp_path):
    path = str(tmp_path / "cache.txt")
    first = PolySource(cache_path=path)
    keys = [UnivPolyKey("sum", 6), UnivPolyKey("prod", 6), UnivPolyKey("frob", 2, 2),
            UnivPolyKey("delta", 2, 2)]
    originals = {k: first.universal_poly(k) for k in keys}
    second = PolySource(cache_path=path)
    fresh = PolySource()
    for k in keys:
        assert second._memo[k].value == originals[k].value
        assert second.universal_poly(k).value == fresh.universal_poly(k).value


def test_corrupt_cache(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a cache\n")
    with pytest.raises(CacheCorrupt):
        PolySource(cache_path=str(path))
    path.write_text("# wittkit universal polynomial cache v1\nsum:2\tgarbage!!\n")
    with pytest.raises(CacheCorrupt):
        PolySource(cache_path=str(path))


def test_shared_source_under_threads():
    # more threads than cores, switching often, on a source none of them has warmed
    shared = PolySource()
    reference = PolySource()
    jobs = []
    for op, fn in (("sum", witt_add), ("prod", witt_mul)):
        for S in (divisors_of(4), divisors_of(6)):
            for target in (ModularRing(8), ModularRing(9)):
                i = len(jobs)
                x, y = (WittVector(S, target, tuple((j * 5 + i + k) % 7 for j in S.members)) for k in (0, 3))
                values = {f"{tag}{d}": c for tag, v in zip("ab", (x, y)) for d, c in zip(S.members, v.coords)}
                want = []
                for n in S.members:
                    poly = reference.universal_poly(UnivPolyKey(op, n))
                    want.append(poly.ring.evaluate(poly.value, values, target))
                jobs.append((fn, x, y, tuple(want)))
    errors = []

    def worker(offset):
        try:
            for _ in range(4):
                for fn, x, y, want in jobs[offset:] + jobs[:offset]:
                    assert fn(x, y, "universal", shared).coords == want
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]


def _line(source, key):
    return f"{key}\t{poly_to_text(source._memo[key])}\n"


def test_flush_appends_only_new_polynomials(tmp_path):
    path = tmp_path / "cache.txt"
    source = PolySource(cache_path=str(path))
    for n in (1, 2, 3):
        source.universal_poly(UnivPolyKey("sum", n))
    before, known = path.read_text(), set(source._memo)
    # a request computes only its own polynomial, none of its lower siblings
    source.universal_poly(UnivPolyKey("prod", 6))
    source.universal_poly(UnivPolyKey("sum", 4))
    new = set(source._memo) - known
    assert new == {UnivPolyKey("prod", 6), UnivPolyKey("sum", 4)}
    after = path.read_text()
    assert after.startswith(before)
    grown = after[len(before):]
    assert sorted(grown.splitlines(keepends=True)) == sorted(_line(source, k) for k in new)


def test_flush_with_nothing_pending_leaves_the_file_alone(tmp_path):
    path = tmp_path / "cache.txt"
    source = PolySource(cache_path=str(path))
    source.universal_poly(UnivPolyKey("sum", 4))
    stat = os.stat(path)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns - 10**9))
    stat = os.stat(path)
    source.flush()
    source.universal_poly(UnivPolyKey("sum", 4))  # a memo hit, then a flush
    again = os.stat(path)
    assert (again.st_size, again.st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)


def test_two_writers_share_one_file(tmp_path):
    path = str(tmp_path / "sub" / "cache.txt")
    first, second = PolySource(cache_path=path), PolySource(cache_path=path)
    steps = [(first, UnivPolyKey("sum", 3)), (second, UnivPolyKey("prod", 4)),
             (second, UnivPolyKey("sum", 3)), (first, UnivPolyKey("neg", 6)),
             (second, UnivPolyKey("frob", 2, 2)), (first, UnivPolyKey("prod", 4))]
    for source, key in steps:
        source.universal_poly(key)
    third = PolySource(cache_path=path)
    assert set(third._memo) == set(first._memo) | set(second._memo)
    fresh = PolySource()
    for key, poly in third._memo.items():
        assert poly.value == fresh.universal_poly(key).value
    lines = Path(path).read_text().splitlines()
    assert lines[0] == _CACHE_HEADER
    assert lines.count(_CACHE_HEADER) == 1


def test_writers_in_threads_share_one_file(tmp_path):
    # one source per thread, all appending to one fresh file at once; repeated,
    # since a lost race shows only now and then
    keys = [UnivPolyKey(op, n) for n in (1, 2, 3, 4) for op in ("sum", "neg")]
    errors = []

    def worker(path, start, offset):
        try:
            source = PolySource(cache_path=path)
            start.wait()
            for key in keys[offset:] + keys[:offset]:
                source.universal_poly(key)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for attempt in range(30):
            path = str(tmp_path / f"cache{attempt}.txt")
            start = threading.Barrier(4, timeout=60)
            threads = [threading.Thread(target=worker, args=(path, start, k % 2))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not errors, errors[0]
            text = Path(path).read_text()
            assert text.startswith(_CACHE_HEADER + "\n") and text.endswith("\n")
            assert text.count(_CACHE_HEADER) == 1
            assert set(PolySource(cache_path=path)._memo) == set(keys)
    finally:
        sys.setswitchinterval(interval)


def test_interrupted_entry_is_recomputed_and_cut_away(tmp_path, caplog):
    path = tmp_path / "cache.txt"
    key = UnivPolyKey("prod", 4)
    reference = PolySource()
    full = reference.universal_poly(key)
    writer = PolySource(cache_path=str(path))
    for d in (1, 2):
        writer.universal_poly(UnivPolyKey("prod", d))
    # cut the entry at a term boundary: what is left still parses as a polynomial
    terms = poly_to_text(full).split(" + ")
    torn = f"{key}\t{' + '.join(terms[:len(terms) // 2])}"
    poly_from_text(torn.split("\t")[1], full.ring)
    with open(path, "a") as fh:
        fh.write(torn)
    caplog.set_level(logging.WARNING, logger="wittkit")
    source = PolySource(cache_path=str(path))
    assert key not in source._memo
    assert [r.message for r in caplog.records] == [
        f"cache {path}: skipping an interrupted final entry of {len(torn)} bytes"
    ]
    caplog.clear()
    assert source.universal_poly(key).value == full.value
    assert [r.message for r in caplog.records] == [
        f"cache {path}: truncating an interrupted final entry of {len(torn)} bytes"
    ]
    caplog.clear()
    reloaded = PolySource(cache_path=str(path))
    assert not caplog.records
    assert reloaded._memo[key].value == full.value
    assert path.read_text().endswith(_line(reloaded, key))


def test_cache_warnings_are_silent_by_default(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text(f"{_CACHE_HEADER}\nsum:1\t1*a1")
    script = ("import sys; from wittkit.universal import PolySource, UnivPolyKey; "
              "PolySource(cache_path=sys.argv[1]).universal_poly(UnivPolyKey('sum', 1))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert path.read_text() == f"{_CACHE_HEADER}\nsum:1\t1*a1 + 1*b1\n"


def test_importing_the_package_does_not_load_logging():
    script = "import sys, wittkit; print('logging' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


def test_interrupted_first_append_leaves_an_empty_cache(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_text(_CACHE_HEADER[:10])
    source = PolySource(cache_path=str(path))
    assert not source._memo
    source.universal_poly(UnivPolyKey("sum", 1))
    assert path.read_text() == f"{_CACHE_HEADER}\n{_line(source, UnivPolyKey('sum', 1))}"


def test_duplicate_keys_must_agree(tmp_path):
    path = tmp_path / "cache.txt"
    line = f"sum:1\t{poly_to_text(PolySource().universal_poly(UnivPolyKey('sum', 1)))}\n"
    path.write_text(f"{_CACHE_HEADER}\n{line}{line}")
    assert set(PolySource(cache_path=str(path))._memo) == {UnivPolyKey("sum", 1)}
    path.write_text(f"{_CACHE_HEADER}\n{line}sum:1\t2*a1 + 1*b1\n")
    with pytest.raises(CacheCorrupt):
        PolySource(cache_path=str(path))


@pytest.mark.parametrize("line", ["sum:x\t1*a1", "sum:0\t1*a1", "sum:1\t1*a7", "sum:1\t1*a1 + ",
                                  "sum:1\t1*a1^0", "sum:1\t1*a1*a1", "sum:1\t0*a1",
                                  "sum:1\t2*a1 + 3*a1", "sum:1\t1*b1*a1",
                                  # keys that int() reads but str() does not write
                                  "sum:3_0\t1*a1", "sum:+3\t1*a1", "sum:03\t1*a1", "sum: 3\t1*a1",
                                  "neg:1 \t1*a1", "frob:02:1\t1*a1",
                                  # coefficients, exponents and factors out of the canonical form
                                  "sum:1\t01*a1", "sum:1\t-0*a1", "sum:1\t+1*a1",
                                  "sum:1\t1*a1^01", "sum:1\t1*a1^1", "sum:1\t1*a1^", "sum:1\t1**a1",
                                  "sum:1\t1*c1", "sum:1\t1*a1 +  1*b1",
                                  # out of index order: b1 comes after a2, and a10 after a2
                                  "sum:2\t1*b1*a2", "sum:10\t1*a10*a2"])
def test_bad_entries_are_corrupt(tmp_path, line):
    path = tmp_path / "cache.txt"
    path.write_text(f"{_CACHE_HEADER}\n{line}\n")
    with pytest.raises(CacheCorrupt):
        PolySource(cache_path=str(path))


def test_non_ascii_cache_is_corrupt(tmp_path):
    path = tmp_path / "cache.txt"
    path.write_bytes(_CACHE_HEADER.encode() + b"\nsum:1\t1*a1 + 1*b\xff1\n")
    with pytest.raises(CacheCorrupt):
        PolySource(cache_path=str(path))


def test_failed_flush_keeps_its_entries(tmp_path, monkeypatch):
    path = tmp_path / "cache.txt"
    source = PolySource(cache_path=str(path))

    def no_lock(fh, op):
        raise OSError("no locks here")

    monkeypatch.setattr("wittkit.universal.fcntl.flock", no_lock)
    with pytest.raises(OSError):
        source.universal_poly(UnivPolyKey("sum", 2))
    monkeypatch.undo()
    source.universal_poly(UnivPolyKey("neg", 2))
    reloaded = PolySource(cache_path=str(path))
    assert set(reloaded._memo) == {UnivPolyKey("sum", 2), UnivPolyKey("neg", 2)}


def test_sorted_whole_file_cache_still_loads(tmp_path):
    # the layout of a cache written by whole-file replacement: header, then sorted lines
    reference = PolySource()
    keys = [UnivPolyKey(op, n) for op in ("sum", "prod", "neg") for n in (1, 2, 3, 6)]
    keys += [UnivPolyKey("frob", 2, 2), UnivPolyKey("delta", 2, 2)]
    texts = {str(k): poly_to_text(reference.universal_poly(k)) for k in keys}
    path = tmp_path / "cache.txt"
    path.write_text(_CACHE_HEADER + "\n" + "".join(f"{k}\t{texts[k]}\n" for k in sorted(texts)))
    source = PolySource(cache_path=str(path))
    for k in keys:
        assert source._memo[k].value == reference.universal_poly(k).value
    size = path.stat().st_size
    source.universal_poly(UnivPolyKey("sum", 4))
    assert path.read_text()[size:] == _line(source, UnivPolyKey("sum", 4))
    assert UnivPolyKey("sum", 4) in PolySource(cache_path=str(path))._memo


@pytest.mark.parametrize("key", [UnivPolyKey("sum", 2), UnivPolyKey("prod", 3), UnivPolyKey("neg", 2),
                                 UnivPolyKey("frob", 2, 2), UnivPolyKey("delta", 2, 2)])
def test_a_failed_exact_division_is_an_integrality_violation(monkeypatch, key):
    def not_divisible(self, x, n):
        raise NotDivisible(f"{n} does not divide the polynomial")

    monkeypatch.setattr(PolynomialRing, "exact_div", not_divisible)
    with pytest.raises(IntegralityViolation):
        PolySource().universal_poly(key)


# Digests recorded with the recursion that predates the ghost kernel: the
# polynomials, and the bytes of the cache file, must not change.
def test_warm_cache_file_is_bit_for_bit(tmp_path):
    path = tmp_path / "cache.txt"
    warm_cache(12, PolySource(cache_path=str(path)))
    data = path.read_bytes()
    assert len(data) == 18_230
    assert hashlib.sha256(data).hexdigest() == (
        "16dc89d7c2d8072a7caf39eb491f906b03638edfb266bd547171a2413df7c790")


@pytest.fixture(scope="module")
def warm24(tmp_path_factory):
    """A cache file warmed to weight 24, and the source that computed it."""
    path = tmp_path_factory.mktemp("warm24") / "cache.txt"
    source = PolySource(cache_path=str(path))
    warm_cache(24, source)
    return path, source


# Recorded with the tuple-merging product that predates packed monomials.
def test_warm_cache_file_is_bit_for_bit_to_weight_24(warm24):
    path, _ = warm24
    data = path.read_bytes()
    assert len(data) == 1_409_515
    assert hashlib.sha256(data).hexdigest() == (
        "e99001abdaa2660984421780d4f730caedd97e0161f400f34f46f9bcdfbc24e3")


def test_the_warm_cache_file_reads_back_as_computed(warm24):
    path, source = warm24
    loaded = PolySource(cache_path=str(path))._memo
    assert len(loaded) == 72 and loaded.keys() == source._memo.keys()
    for key, poly in source._memo.items():
        assert loaded[key].ring is poly.ring and loaded[key].value == poly.value


def test_frobenius_and_delta_polynomials_are_bit_for_bit():
    source = PolySource()
    keys = [UnivPolyKey(op, index, param) for op in ("frob", "delta")
            for param in range(1, 13) for index in range(1, 12 // param + 1)]
    assert len(keys) == 70
    text = "".join(f"{key}\t{poly_to_text(source.universal_poly(key))}\n" for key in keys)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a2316ec4a81cb8974642a2ae704f4936f8cd0cddb94e59fb16894931305b81f6")
