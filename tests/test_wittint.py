import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from wittkit.errors import SetMismatch, WittkitError
from wittkit.numtheory import divisors, factorize, mobius
from wittkit.rings import Z
from wittkit.truncation import divisors_of, initial_segment, p_typical, truncation_set
from wittkit.witt import frobenius, restrict, teichmuller, verschiebung, witt_mul
from wittkit import wittint
from wittkit.wittint import (
    BasisWittInt,
    RowTable,
    basis_generator,
    basis_mul,
    basis_one,
    basis_scalar_mul,
    divided_frobenius_form,
    from_coords,
    frobenius_basis,
    necklace_coefficient,
    one_form,
    restrict_basis,
    teich_basis,
    to_coords,
    verschiebung_basis,
)

from oracles import count_monic_irreducibles

S12 = divisors_of(12)
S24 = divisors_of(24)


def rand_basis(S, rng, size=9):
    return BasisWittInt(S, tuple(rng.randint(-size, size) for _ in S))


def test_mobius():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    assert factorize(97) == {97: 1}


def test_basis_mul_generators():
    S6 = divisors_of(6)
    assert basis_mul(basis_generator(S6, 2), basis_generator(S6, 3)) == basis_generator(S6, 6)
    assert basis_mul(basis_generator(S6, 2), basis_generator(S6, 2)) == basis_scalar_mul(
        2, basis_generator(S6, 2)
    )
    assert basis_mul(basis_one(S6), basis_generator(S6, 3)) == basis_generator(S6, 3)
    # lcm outside the set is dropped
    S4 = divisors_of(4)
    assert basis_mul(basis_generator(S4, 2), basis_generator(S4, 4)).coeffs == (0, 0, 2)
    assert basis_mul(basis_generator(S4, 4), basis_generator(S4, 4)).coeffs == (0, 0, 4)
    with pytest.raises(SetMismatch):
        basis_mul(basis_one(S4), basis_one(S6))


def test_conversions():
    S2 = truncation_set([1, 2])
    assert to_coords(basis_generator(S2, 2)).coords == (0, 1)
    rng = random.Random(0)
    for _ in range(200):
        x = rand_basis(S24, rng)
        assert from_coords(to_coords(x)) == x


def test_teich_basis():
    assert teich_basis(2, truncation_set([1, 2, 3])).coeffs == (2, 1, 2)
    assert teich_basis(1, S12) == basis_one(S12)
    # agreement with the coordinate-form representative
    for m in range(-7, 8):
        assert to_coords(teich_basis(m, S12)) == teichmuller(m, S12, Z)
    # multiplicativity
    for m in range(-7, 8):
        for k in range(-7, 8):
            assert basis_mul(teich_basis(m, S12), teich_basis(k, S12)) == teich_basis(m * k, S12)


def test_pow_matches_repeated_mul():
    rng = random.Random(3)
    for x in (teich_basis(2, divisors_of(6)), teich_basis(-3, S12), rand_basis(S12, rng, 3)):
        acc = basis_one(x.tset)
        for e in range(10):
            assert x ** e == acc
            acc = basis_mul(acc, x)
        with pytest.raises(WittkitError):
            x ** -1


def test_necklace_counts_match_irreducible_counts():
    counts = {q: count_monic_irreducibles(q, 5) for q in (2, 3)}
    for q in (2, 3):
        for n in range(1, 6):
            assert necklace_coefficient(q, n) == counts[q][n]


def test_fv_on_generators():
    S6 = divisors_of(6)
    assert frobenius_basis(2, basis_generator(S6, 2)) == basis_scalar_mul(
        2, basis_one(S6.quotient(2))
    )
    assert frobenius_basis(2, basis_generator(S6, 3)) == basis_generator(S6.quotient(2), 3)
    T = S6.quotient(2)
    assert verschiebung_basis(2, basis_generator(T, 3), S6) == basis_generator(S6, 6)
    # F_m V_n([1]) dies when lcm(m, n) leaves the set
    S4 = divisors_of(4)
    assert frobenius_basis(3, basis_generator(S4, 2)).coeffs == tuple(
        0 for _ in S4.quotient(3)
    )


def test_fv_agree_with_coordinate_form():
    rng = random.Random(1)
    for _ in range(200):
        x = rand_basis(S24, rng)
        m = rng.choice([2, 3, 4, 6])
        assert to_coords(frobenius_basis(m, x)) == frobenius(m, to_coords(x))
        T = S24.quotient(m)
        y = rand_basis(T, rng)
        assert to_coords(verschiebung_basis(m, y, S24)) == verschiebung(m, to_coords(y), S24)
        U = S24.quotient(rng.choice([2, 3]))
        assert to_coords(restrict_basis(U, x)) == restrict(to_coords(x), U)
        y2 = rand_basis(S24, rng)
        assert to_coords(basis_mul(x, y2)) == witt_mul(to_coords(x), to_coords(y2))


def test_fv_composition():
    rng = random.Random(2)
    pairs = [(m, n) for m in S24.members for n in S24.members if m * n in S24]
    for m, n in pairs:
        x = rand_basis(S24, rng)
        assert frobenius_basis(m, frobenius_basis(n, x)) == frobenius_basis(m * n, x)
        U = S24.quotient(m * n)
        y = rand_basis(U, rng)
        assert verschiebung_basis(
            n, verschiebung_basis(m, y, S24.quotient(n)), S24
        ) == verschiebung_basis(n * m, y, S24)


def test_torsion_free():
    # addition is componentwise on integer coefficients, so p*x = 0 only for x = 0
    rng = random.Random(3)
    zero = basis_scalar_mul(0, basis_one(S12))
    for p in (2, 3, 5):
        assert basis_scalar_mul(p, zero) == zero
        for _ in range(20):
            x = rand_basis(S12, rng)
            if x != zero:
                assert basis_scalar_mul(p, x) != zero


def test_divided_frobenius_identity_form():
    # the one-argument identity: F_1 fixes every form
    w = one_form(S24, [(teich_basis(3, S24), basis_generator(S24, 2))])
    assert divided_frobenius_form(1, w) == w


def test_divided_frobenius_teichmuller():
    for n in (2, 3, 4, 6):
        for a in (-3, -1, 2, 3):
            w = one_form(S24, [(basis_one(S24), teich_basis(a, S24))])
            T = S24.quotient(n)
            expected = one_form(T, [(teich_basis(a, T) ** (n - 1), teich_basis(a, T))])
            assert divided_frobenius_form(n, w) == expected


def test_divided_frobenius_prime_shape():
    # F_2(db) contributes b*db plus the derivative of the second comonad component
    rng = random.Random(4)
    from wittkit.witt import delta_component

    for _ in range(10):
        b = rand_basis(S24, rng, size=4)
        w = one_form(S24, [(basis_one(S24), b)])
        got = divided_frobenius_form(2, w)
        T = S24.quotient(2)
        b_T = restrict_basis(T, b)
        d2 = from_coords(restrict(delta_component(2, to_coords(b)), T))
        expected = one_form(T, [(b_T, b_T), (basis_one(T), d2)])
        assert got == expected


# --------------------------------------------------------------------------
# the table-driven maps against the loops they replaced
# --------------------------------------------------------------------------


def reference_basis_mul(x, y):
    """The product summed pair by pair: the oracle of basis_mul."""
    members = x.tset.members
    acc = dict.fromkeys(members, 0)
    for m, cm in zip(members, x.coeffs):
        if not cm:
            continue
        for n, cn in zip(members, y.coeffs):
            if not cn:
                continue
            g = gcd(m, n)
            l = m // g * n
            if l in acc:
                acc[l] += cm * cn * g
    return BasisWittInt(x.tset, tuple(acc.values()))


def reference_frobenius_basis(m, x):
    """F_m generator by generator: the oracle of frobenius_basis."""
    T = x.tset.quotient(m)
    tgt = {n: 0 for n in T.members}
    for n, c in zip(x.tset.members, x.coeffs):
        if not c:
            continue
        g = gcd(m, n)
        if n // g in tgt:
            tgt[n // g] += c * g
    return BasisWittInt(T, tuple(tgt[n] for n in T.members))


def reference_verschiebung_basis(m, x, S):
    """V_m generator by generator: the oracle of verschiebung_basis."""
    tgt = {n: 0 for n in S.members}
    for n, c in zip(x.tset.members, x.coeffs):
        tgt[m * n] = c
    return BasisWittInt(S, tuple(tgt[n] for n in S.members))


@st.composite
def structure_sets(draw):
    """Divisor closures of subsets of 1..60, and div, seg and ptyp sets."""
    kind = draw(st.sampled_from(["closure", "div", "seg", "ptyp"]))
    if kind == "closure":
        tops = draw(st.sets(st.integers(1, 60), max_size=5))
        return truncation_set(d for n in tops for d in divisors(n))
    if kind == "div":
        return divisors_of(draw(st.sampled_from([1, 8, 12, 24, 30, 36, 60, 64, 120, 360])))
    if kind == "seg":
        return initial_segment(draw(st.integers(0, 40)))
    return p_typical(draw(st.sampled_from([2, 3, 5])), draw(st.integers(0, 6)))


def indices(S):
    """Half the time a member of S, where F_m and V_m do the most; else any m up to 130."""
    if not S.members:
        return st.integers(1, 130)
    return st.sampled_from(S.members) | st.integers(1, 130)


@st.composite
def coefficients(draw, S, residues=False):
    """Dense or sparse coefficients on S; residues lie in [0, n) at n."""
    dense = draw(st.booleans())
    coeffs = []
    for n in S.members:
        if not dense and draw(st.integers(0, 4)):
            coeffs.append(0)
        elif residues:
            coeffs.append(draw(st.integers(0, n - 1)))
        else:
            coeffs.append(draw(st.integers(-10**6, 10**6) | st.integers(-10**30, 10**30)))
    return tuple(coeffs)


def basis_elements(S):
    return coefficients(S).map(lambda c: BasisWittInt(S, c))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), S=structure_sets())
def test_table_driven_basis_maps_match_the_pairwise_loops(data, S):
    m = data.draw(indices(S))
    x, y = data.draw(basis_elements(S)), data.draw(basis_elements(S))
    assert basis_mul(x, y) == reference_basis_mul(x, y)
    assert frobenius_basis(m, x) == reference_frobenius_basis(m, x)
    z = data.draw(basis_elements(S.quotient(m)))
    assert verschiebung_basis(m, z, S) == reference_verschiebung_basis(m, z, S)


def test_the_module_table_stays_in_budget(monkeypatch):
    table = RowTable(budget=48)  # the rows of div24 overflow it many times
    monkeypatch.setattr(wittint, "_TABLE", table)
    first = None

    def check(got, want):
        nonlocal first
        assert got == want
        assert table.entries <= table.budget
        first = first or next(iter(table._rows))

    gens = [basis_generator(S24, n) for n in S24.members]
    for x in gens:
        for y in gens:
            check(basis_mul(x, y), reference_basis_mul(x, y))
        for m in S24.members:
            check(frobenius_basis(m, x), reference_frobenius_basis(m, x))
    for m in S24.members:
        T = S24.quotient(m)
        for n in T.members:
            z = basis_generator(T, n)
            check(verschiebung_basis(m, z, S24), reference_verschiebung_basis(m, z, S24))
    assert first not in table._rows  # the oldest rows went first
    assert sum(charge for _, charge in table._rows.values()) == table.entries
