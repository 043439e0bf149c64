import copy
import gc
import pickle
import random
import tracemalloc
import weakref
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from wittkit import rings
from wittkit.drwz import (
    DEFAULT,
    DrwComplex,
    DrwElement,
    crt_bracket,
    curly,
    dlog_minus_one,
    drw_add,
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
from wittkit import wittint
from wittkit.truncation import (
    EMPTY,
    MEMBER_BUDGET,
    divisors_of,
    initial_segment,
    parse_truncation_set,
    truncation_set,
)
from wittkit.witt import witt_mul
from wittkit.wittint import (
    ROW_BUDGET,
    BasisWittInt,
    RowTable,
    _compiled_row,
    _graded_row,
    basis_generator,
    basis_mul,
    basis_scalar_mul,
    to_coords,
    verschiebung_basis,
    verschiebung_entry,
)

from test_laws import CurlyKilled, WrongCrt
from test_wittint import (
    basis_elements,
    coefficients,
    indices,
    reference_basis_mul,
    reference_frobenius_basis,
    reference_verschiebung_basis,
    structure_sets,
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


def test_add_and_mul_refuse_operands_over_different_sets():
    S12 = divisors_of(12)
    x = drw_add(gen(S6, 2), dgen(S6, 3))
    y = drw_add(gen(S12, 2), dgen(S12, 3))
    ops = DrwComplex()
    for op in (drw_add, drw_mul, ops.mul):
        with pytest.raises(SetMismatch):
            op(x, y)
        with pytest.raises(SetMismatch):
            op(y, x)
    assert ops._table.entries == 0  # refused before any row was built


def test_json_round_trip():
    rng = random.Random(2)
    for _ in range(30):
        x = rand_drw(S24, rng)
        assert drw_from_json(x.to_json()) == x


def test_degree_one_coefficients_reduced():
    # the constructor keeps the representative in [0, n) of each residue
    deg0 = BasisWittInt(S6, (1, 0, 2, 0))
    raw = DrwElement(S6, deg0, (0, 3, -1, 13))
    reduced = DrwElement(S6, deg0, (0, 1, 2, 1))
    assert raw.deg1 == (0, 1, 2, 1)
    assert all(0 <= c < n for n, c in zip(S6.members, raw.deg1))
    assert raw == reduced and hash(raw) == hash(reduced)


RESIDUE_SETS = structure_sets() | st.sampled_from([EMPTY, truncation_set([1]), initial_segment(2000)])


@settings(max_examples=80, deadline=None)
@given(data=st.data(), S=RESIDUE_SETS)
def test_the_residue_map_reduces_every_member(data, S):
    # raw degree-1 ints as the maps hand them over; seg2000 takes the residue map in units
    big = st.integers(-10**40, 10**40)
    if len(S) <= 64:
        raw = data.draw(st.lists(big, min_size=len(S), max_size=len(S)))
    else:
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        raw = [rng.randint(-10**40, 10**40) for _ in S.members]
    deg0 = BasisWittInt(S, tuple(raw[:1]) + (0,) * (len(S) - 1)) if S.members else BasisWittInt(S, ())
    residues = tuple(r % n for r, n in zip(raw, S.members))
    x = DrwElement(S, deg0, raw)
    assert x.deg1 == residues
    y = DrwElement(S, deg0, residues)
    assert x == y and hash(x) == hash(y)
    assert DrwElement(S, deg0, tuple(raw)) == x


def test_a_set_built_again_finds_its_residue_map():
    # a set no other test builds; once dropped, the intern table forgets it
    members = (1, 2, 3, 4, 6, 9, 12, 18, 27, 36, 54, 108)
    S = truncation_set(members)
    residues = DrwElement(S, BasisWittInt(S, (0,) * 12), (5,) * 12).tset._residues
    gone = weakref.ref(S)
    del S
    gc.collect()
    assert gone() is None
    again = truncation_set(members)
    assert again._residues is None
    assert DrwElement(again, BasisWittInt(again, (0,) * 12), (-1,) * 12).deg1 == tuple(n - 1 for n in members)
    assert again._residues is residues  # found by its members, not compiled again


def test_the_constructor_refuses_parts_over_another_set():
    # div4 and seg3 have three members each, so only the set check tells them apart
    S, T = divisors_of(4), initial_segment(3)
    with pytest.raises(SetMismatch):
        DrwElement(S, BasisWittInt(T, (1, 2, 3)), (0, 1, 2))
    with pytest.raises(SetMismatch):
        DrwElement(S, BasisWittInt(S, (1, 2, 3)), (0, 1))
    with pytest.raises(SpecMismatch):
        BasisWittInt(S, (1, 2))


def test_values_are_immutable():
    x = drw_add(gen(S6, 2), dgen(S6, 3))
    for value, field in ((x, "tset"), (x, "deg0"), (x, "deg1"), (x.deg0, "tset"), (x.deg0, "coeffs")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == drw_add(gen(S6, 2), dgen(S6, 3))


def test_copies_and_pickles_of_values_are_equal_values():
    rng = random.Random(5)
    for x in [rand_drw(S24, rng) for _ in range(5)] + [drw_zero(S6), dlog_minus_one(S16)]:
        copies = [copy.copy(x), copy.deepcopy(x)]
        copies += [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in copies:
            assert y == x and hash(y) == hash(x)
            assert y.tset is x.tset and y.deg0.tset is x.tset
            assert y.deg0 == x.deg0 and hash(y.deg0) == hash(x.deg0)
        for b in (copy.copy(x.deg0), copy.deepcopy(x.deg0), pickle.loads(pickle.dumps(x.deg0))):
            assert b == x.deg0 and hash(b) == hash(x.deg0) and b.tset is x.tset


def test_values_are_equal_exactly_when_their_parts_agree():
    x = DrwElement(S6, BasisWittInt(S6, (1, 0, 2, 0)), (0, 1, 2, 5))
    assert x == DrwElement(S6, BasisWittInt(S6, (1, 0, 2, 0)), [0, 3, -1, 11])
    assert x != DrwElement(S6, BasisWittInt(S6, (1, 0, 2, 1)), (0, 1, 2, 5))
    assert x != DrwElement(S6, BasisWittInt(S6, (1, 0, 2, 0)), (0, 1, 2, 4))
    assert x != x.deg0 and x.deg0 != x.deg0.coeffs
    assert BasisWittInt(S6, (1, 0, 2, 0)) != BasisWittInt(initial_segment(4), (1, 0, 2, 0))
    assert len({x, DrwElement(S6, x.deg0, x.deg1), drw_zero(S6)}) == 2


def test_generator_tables():
    tables = generator_tables(S6)
    assert tables["mul"]["V2*V3"] == "1·V6η([1])"
    assert tables["d"]["d(V2)"] == "1·dV2η([1])"
    assert "F2(dV2)" in tables["frobenius"]


def test_a_first_table_builds_one_graded_row_per_map_index_and_target():
    # a set no other test builds, so every row of its maps is built here
    S = truncation_set([1, 2, 4, 5, 10, 20, 25, 50])
    basis_rows = set(wittint._TABLE._rows)
    generator_tables(S)
    # the degree-0 parts of F_m and V_m run in the graded rows, not in the module table
    assert not [key for key in wittint._TABLE._rows if key not in basis_rows and key[0] != "mul"]
    graded = [key for key in DEFAULT._table._rows if key[0] != "mul" and S in key]
    assert sorted(graded, key=repr) == sorted([("frob", S, m, S.quotient(m)) for m in S.members]
                                              + [("versch", S.quotient(m), m, S) for m in S.members], key=repr)


# --------------------------------------------------------------------------
# the table-driven maps against the loops they replaced
# --------------------------------------------------------------------------


def _reference_dyadic(S, raw, l, w):
    idx, step = 2 * l, w * l
    while idx in S:
        raw[idx] = raw.get(idx, 0) + step
        idx, step = 2 * idx, 2 * step


def _reference_reduce(S, raw):
    return tuple(raw.get(n, 0) % n for n in S.members)


def reference_mul(ops, x, y):
    """The product summed pair by pair through the hooks: the oracle of DrwComplex.mul."""
    S = x.tset
    raw = {}
    for a, c1 in ((x.deg0, y.deg1), (y.deg0, x.deg1)):
        for m, cm in zip(S.members, a.coeffs):
            if not cm:
                continue
            for n, cn in zip(S.members, c1):
                if not cn:
                    continue
                l = lcm(m, n)
                w = cm * cn
                if l in S:
                    raw[l] = raw.get(l, 0) + w * ops._crt_value(m, n)
                if ops._curly(m, n):
                    _reference_dyadic(S, raw, l, w)
    return DrwElement(S, reference_basis_mul(x.deg0, y.deg0), _reference_reduce(S, raw))


def reference_frobenius(ops, m, x):
    """F_m generator by generator through the hooks: the oracle of DrwComplex.frobenius."""
    S = x.tset
    T = S.quotient(m)
    raw = {}
    for n, c in zip(S.members, x.deg1):
        if not c:
            continue
        tgt = n // gcd(m, n)
        if tgt in T:
            raw[tgt] = raw.get(tgt, 0) + c * (ops._crt_value(m, n) // m)
        if ops._curly(m, n):
            _reference_dyadic(T, raw, tgt, c)
    return DrwElement(T, reference_frobenius_basis(m, x.deg0), _reference_reduce(T, raw))


def reference_verschiebung(m, x, S):
    """V_m generator by generator: the oracle of DrwComplex.verschiebung."""
    raw = {m * n: m * c for n, c in zip(x.tset.members, x.deg1)}
    return DrwElement(S, reference_verschiebung_basis(m, x.deg0, S), _reference_reduce(S, raw))


def drw_elements(S):
    return st.tuples(basis_elements(S), coefficients(S, residues=True)).map(
        lambda parts: DrwElement(S, *parts)
    )


def _small_budget():
    ops = DrwComplex()
    ops._table = RowTable(budget=48)  # evicts rows all the time
    return ops


# One instance of each kind for the whole run, each given every example in
# turn, so rows built for one set are looked up again under every later set
# and one instance's rows would show if they served another.
HOOKS = [DrwComplex(), _small_budget(), CurlyKilled(), WrongCrt()]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), S=structure_sets())
def test_table_driven_maps_match_the_pairwise_loops(data, S):
    m = data.draw(indices(S))
    x, y = data.draw(drw_elements(S)), data.draw(drw_elements(S))
    z = data.draw(drw_elements(S.quotient(m)))
    for ops in HOOKS:
        assert ops.mul(x, y) == reference_mul(ops, x, y)
        assert ops.frobenius(m, x) == reference_frobenius(ops, m, x)
        assert ops.verschiebung(m, z, S) == reference_verschiebung(m, z, S)
        assert ops._table.entries <= ops._table.budget


@pytest.mark.parametrize("spec", ["div24", "seg16", "div64", "ptyp(2,6)", "{1,2,3,4,6,8,12,16}"])
def test_table_driven_maps_match_the_pairwise_loops_on_every_generator(spec):
    S = parse_truncation_set(spec)
    gens = [gen(S, n) for n in S.members] + [dgen(S, n) for n in S.members]
    for ops in HOOKS:
        for x in gens:
            for y in gens:
                assert ops.mul(x, y) == reference_mul(ops, x, y)
            for m in S.members:
                assert ops.frobenius(m, x) == reference_frobenius(ops, m, x)
        for m in S.members:
            T = S.quotient(m)
            for z in [gen(T, n) for n in T.members] + [dgen(T, n) for n in T.members]:
                assert ops.verschiebung(m, z, S) == reference_verschiebung(m, z, S)


def test_a_verschiebung_row_is_kept_per_target_set():
    # div4 and seg4 share the interned S/2 = {1, 2}, so V_2 needs a row for each
    div4, seg4 = divisors_of(4), initial_segment(4)
    T = div4.quotient(2)
    assert seg4.quotient(2) is T
    ops = DrwComplex()
    for S in (div4, seg4, div4):
        assert verschiebung_basis(2, basis_generator(T, 2), S) == basis_generator(S, 4)
        assert ops.verschiebung(2, gen(T, 2), S) == gen(S, 4)
        assert ops.verschiebung(2, dgen(T, 2), S) == drw_scalar_mul(2, dgen(S, 4))


class CountingComplex(DrwComplex):
    def __init__(self):
        super().__init__()
        self.crt_calls = 0

    def _crt_value(self, m, n):
        self.crt_calls += 1
        return super()._crt_value(m, n)


def test_a_first_product_reads_the_hooks_at_most_once_per_member():
    S = initial_segment(2000)
    ops = CountingComplex()
    got = ops.mul(gen(S, 6), dgen(S, 10))
    assert ops.crt_calls <= len(S)
    assert got == reference_mul(DrwComplex(), gen(S, 6), dgen(S, 10))
    # (6,10] = 0 mod 6 and 2 mod 10: 12 at dV30, then the dyadic chain from dV60
    assert {n: c for n, c in zip(S.members, got.deg1) if c} == {
        30: 12, 60: 30, 120: 60, 240: 120, 480: 240, 960: 480, 1920: 960
    }
    calls = ops.crt_calls
    assert ops.mul(gen(S, 6), dgen(S, 10)) == got
    assert ops.crt_calls == calls  # the constants are read from the row, not again


class HookCounter(CountingComplex):
    def __init__(self):
        super().__init__()
        self.curly_calls = 0

    def _curly(self, m, n):
        self.curly_calls += 1
        return super()._curly(m, n)


def test_a_repeated_product_on_a_large_set_reads_no_hook():
    # a row is charged its terms (8,856 for the degree-1 rows of seg500), not
    # one slot per member (250,000 against a budget of 65,536), so all stay
    S = initial_segment(500)
    rng = random.Random(3)
    x, y = [
        DrwElement(S, BasisWittInt(S, tuple(rng.randint(-9, 9) for _ in S.members)),
                   tuple(rng.randrange(n) for n in S.members))
        for _ in range(2)
    ]
    ops = HookCounter()
    first = ops.mul(x, y)
    reads = ops.crt_calls, ops.curly_calls
    assert ops.mul(x, y) == first
    assert (ops.crt_calls, ops.curly_calls) == reads
    assert ops._table.entries == 500 + 8856


def test_a_long_row_compiles_in_bounded_units(monkeypatch):
    # the row of m = 6 on seg2000, 1,380 terms, from the first-product test above
    S = initial_segment(2000)
    sources = []

    def recording(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(rings, "compile", recording, raising=False)
    tracemalloc.start()
    try:
        row, charge = _compiled_row(S, 6, S, DrwComplex()._mul_entry)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert charge == 1 + 1380
    assert len(sources) > 2 and max(map(len, sources)) <= rings.UNIT_CHARS
    assert peak < 6 * 2**20
    raw = [0] * len(S)
    row(1, dgen(S, 10).deg1, raw)
    assert {n: c for n, c in zip(S.members, raw) if c} == {
        30: 12, 60: 30, 120: 60, 240: 120, 480: 240, 960: 480, 1920: 960
    }


def test_a_long_graded_row_compiles_in_bounded_units(monkeypatch):
    # V_2 from seg1000 into seg2000: 1,000 terms in each degree
    T, S = initial_segment(1000), initial_segment(2000)
    sources = []

    def recording(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(rings, "compile", recording, raising=False)
    tracemalloc.start()
    try:
        row, charge = _graded_row(T, 2, S, verschiebung_entry, DrwComplex()._verschiebung_entry)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert charge == 1 + 1000 + 1000
    assert len(sources) > 2 and max(map(len, sources)) <= rings.UNIT_CHARS
    assert peak < 6 * 2**20
    y, z = tuple(range(1, 1001)), tuple(range(-1, -1001, -1))
    deg0, deg1 = row(y, z)
    assert deg0 == tuple(n // 2 if n % 2 == 0 else 0 for n in S.members)
    assert deg1 == tuple(-n if n % 2 == 0 else 0 for n in S.members)
    x = DrwElement(T, BasisWittInt(T, y), z)
    assert DrwComplex().verschiebung(2, x, S) == reference_verschiebung(2, x, S)


def test_a_first_frobenius_reads_the_hooks_at_most_once_per_member():
    S = initial_segment(2000)
    ops = HookCounter()
    x = drw_add(gen(S, 6), dgen(S, 12))
    got = ops.frobenius(6, x)
    assert ops.crt_calls <= len(S) and ops.curly_calls <= len(S)
    assert got == reference_frobenius(DrwComplex(), 6, x)
    reads = ops.crt_calls, ops.curly_calls
    assert ops.frobenius(6, dgen(S, 10)) == reference_frobenius(DrwComplex(), 6, dgen(S, 10))
    assert (ops.crt_calls, ops.curly_calls) == reads  # the constants are read from the row, not again


def test_verschiebung_over_the_wrong_set_builds_no_row():
    ops = DrwComplex()
    with pytest.raises(SetMismatch) as refused:
        ops.verschiebung(2, dgen(S6, 2), S6)
    assert str(refused.value) == "operand lives over {1,2,3,6}, expected {1,2,3,6}/2 = {1,3}"
    assert ops._table.entries == 0


def test_the_row_table_stays_in_budget():
    ops = DrwComplex()
    # more distinct sets than the budget holds rows of ...
    for N in range(1, 400):
        S = initial_segment(N)
        ops.mul(gen(S, 1), dgen(S, N))
        assert ops._table.entries <= ROW_BUDGET
    assert ("mul", initial_segment(1), 1) not in ops._table._rows  # the oldest rows went first
    # ... and more distinct indices on one set
    S = initial_segment(2000)
    x = dgen(S, 2)
    for m in range(1, 2 * ROW_BUDGET // len(S)):
        assert ops.frobenius(m, x) == reference_frobenius(ops, m, x)
        assert ops._table.entries <= ROW_BUDGET
    assert sum(ops._table.charges.values()) == ops._table.entries
