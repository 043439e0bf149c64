import itertools
import random

import pytest

from wittkit.errors import BudgetExceeded, NotInvertible, NotPrime, SetMismatch
from wittkit.ptypical import (
    idempotents,
    prime_to_p_part,
    ptypical_component_set,
    ptypical_projection,
    ptypical_section,
    reassemble,
    tau_iso,
)
from wittkit.rings import ModularRing, Q, RationalRing, Z, parse_ring
from wittkit.truncation import (
    divisors_of,
    initial_segment,
    p_typical,
    parse_truncation_set,
    truncation_set,
)
from wittkit.witt import (
    WittRing,
    WittVector,
    delta_component,
    frobenius,
    ghost,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
    witt_one,
    witt_scalar_mul,
    witt_zero,
)

S12 = divisors_of(12)


def rand_vec(S, ring, rng):
    return WittVector(S, ring, tuple(ring.sample(rng) for _ in S))


@pytest.mark.parametrize("p", [2, 3])
def test_idempotent_laws(p):
    es = idempotents(S12, p, Q)
    assert sorted(es) == prime_to_p_part(S12, p)
    total = witt_zero(S12, Q)
    for k, e in es.items():
        assert witt_mul(e, e) == e
        total = witt_add(total, e)
    assert total == witt_one(S12, Q)
    for j, k in itertools.combinations(sorted(es), 2):
        assert witt_mul(es[j], es[k]) == witt_zero(S12, Q)


@pytest.mark.parametrize("p", [2, 3])
def test_ghost_indicator(p):
    es = idempotents(S12, p, Q)
    for k, e in es.items():
        g = ghost(e)
        for n in S12.members:
            q, expect = n, 0
            if n % k == 0:
                q = n // k
                while q % p == 0:
                    q //= p
                expect = 1 if q == 1 else 0
            assert g.value(n) == expect, (k, n)


def test_singleton_set():
    S1 = truncation_set([1])
    es = idempotents(S1, 2, Q)
    assert list(es) == [1]
    assert es[1] == witt_one(S1, Q)


def _one_over_v_one(j, S, ring):
    """(1/j)V_j[1] over S, divided inside W_S(A)."""
    v = verschiebung(j, witt_one(S.quotient(j), ring), S)
    return WittVector(S, ring, WittRing(ring, S).exact_div(v.coords, j))


def product_idempotent(k, S, p, ring):
    """e_k as (1/k)V_k[1] times (1/k)V_k[1] - (1/kl)V_kl[1] for every l > 1 in I(S).

    The first factor is idempotent and fixes each of the others, as
    (1/k)V_k[1] * (1/kl)V_kl[1] = (1/kl)V_kl[1]; every kl is a unit.
    """
    first = e = _one_over_v_one(k, S, ring)
    for l in prime_to_p_part(S, p):
        if l > 1:
            e = witt_mul(e, witt_add(first, witt_scalar_mul(-1, _one_over_v_one(k * l, S, ring))))
    return e


@pytest.mark.parametrize("S,ring,p", [
    ("div12", "Q", 2), ("div24", "Z/9", 3), ("div24", "Z/25", 5), ("seg16", "Q", 3),
    ("div36", "Z/4", 2), ("div30", "series(Q,3)", 5), ("div12", "Q[x]", 3),
    ("div60", "Z/49", 7), ("ptyp(2,4)", "Z", 2), ("div6", "W(div2,Z/9)", 3),
])
def test_idempotents_match_the_product_construction(S, ring, p):
    S, ring = parse_truncation_set(S), parse_ring(ring)
    es = idempotents(S, p, ring)
    assert sorted(es) == prime_to_p_part(S, p)
    for k, e in es.items():
        assert e == product_idempotent(k, S, p, ring), k


def test_not_invertible():
    with pytest.raises(NotInvertible):
        idempotents(S12, 2, Z)
    with pytest.raises(NotPrime):
        idempotents(S12, 4, Q)


def test_bugs_in_exact_div_are_not_domain_errors(monkeypatch):
    def broken(self, x, n):
        raise RuntimeError("bug")

    monkeypatch.setattr(RationalRing, "exact_div", broken)
    with pytest.raises(RuntimeError):
        idempotents(S12, 2, Q)
    monkeypatch.setattr(ModularRing, "exact_div", broken)
    S = divisors_of(24)
    with pytest.raises(RuntimeError):
        ptypical_section(1, witt_one(ptypical_component_set(S, 3, 1), ModularRing(9)), S, 3)


def test_idempotents_are_kept_per_ring_and_handed_out_fresh():
    S = divisors_of(10)
    first = idempotents(S, 2, Q)
    first.clear()
    again = idempotents(S, 2, Q)
    assert sorted(again) == [1, 5] and again is not first
    assert again[5] is idempotents(S, 2, Q)[5]  # computed once
    for m in (3, 9):
        es = idempotents(S, 2, ModularRing(m))
        assert {e.ring for e in es.values()} == {ModularRing(m)}
        assert witt_mul(es[5], es[5]) == es[5]


def test_component_shapes():
    # over {1..n} the component at k is p-typical of length s with p^(s-1)k <= n < p^s k
    for n, p in ((8, 2), (9, 3), (12, 2)):
        S = initial_segment(n)
        for k in prime_to_p_part(S, p):
            comp = ptypical_component_set(S, p, k)
            s = len(comp)
            assert comp == p_typical(p, s)
            assert p ** (s - 1) * k <= n < p**s * k


def test_unit_projects_to_unit():
    es = idempotents(S12, 2, Q)
    one = witt_one(S12, Q)
    for k in es:
        comp = ptypical_projection(k, one, 2, es[k])
        assert comp == witt_one(ptypical_component_set(S12, 2, k), Q)


@pytest.mark.parametrize("p", [2, 3])
def test_projection_is_ring_iso_onto_product(p):
    rng = random.Random(p)
    es = idempotents(S12, p, Q)
    for _ in range(25):
        x, y = rand_vec(S12, Q, rng), rand_vec(S12, Q, rng)
        for k in es:
            px = ptypical_projection(k, x, p, es[k])
            py = ptypical_projection(k, y, p, es[k])
            assert ptypical_projection(k, witt_add(x, y), p, es[k]) == witt_add(px, py)
            assert ptypical_projection(k, witt_mul(x, y), p, es[k]) == witt_mul(px, py)
        comps = {k: ptypical_projection(k, x, p, es[k]) for k in es}
        assert reassemble(comps, S12, p, Q) == x


def test_section_lands_in_component():
    # section o projection = id on every component, over Q and over torsion
    rng = random.Random(4)
    for S, ring, p in ((S12, Q, 2), (divisors_of(24), ModularRing(9), 3), (divisors_of(24), ModularRing(25), 5)):
        es = idempotents(S, p, ring)
        for k, e in es.items():
            y = rand_vec(ptypical_component_set(S, p, k), ring, rng)
            s = ptypical_section(k, y, S, p)
            assert witt_mul(s, e) == s
            assert ptypical_projection(k, s, p, e) == y


def test_section_checks_its_index_and_units():
    y = witt_one(ptypical_component_set(S12, 2, 1), Q)
    with pytest.raises(SetMismatch):
        ptypical_section(2, y, S12, 2)
    with pytest.raises(NotInvertible):
        ptypical_section(1, witt_one(y.tset, Z), S12, 2)
    with pytest.raises(NotInvertible):
        reassemble({}, S12, 2, Z)


def test_tau_examples():
    tau = tau_iso(2, 2)
    assert tau.to_witt(0) == witt_zero(p_typical(2, 2), ModularRing(2))
    assert tau.to_witt(2).coords == (0, 1)
    assert tau.to_witt(3).coords == (1, 1)
    assert tau.to_int(tau.to_witt(3)) == 3
    with pytest.raises(BudgetExceeded):
        tau_iso(2, 20)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
def test_tau_is_ring_iso(p, n):
    tau = tau_iso(p, n)
    mod = p**n
    coords_seen = {tau.to_witt(k).coords for k in range(mod)}
    assert len(coords_seen) == mod
    for a in range(mod):
        for b in range(mod):
            ta, tb = tau.to_witt(a), tau.to_witt(b)
            assert witt_add(ta, tb) == tau.to_witt((a + b) % mod)
            assert witt_mul(ta, tb) == tau.to_witt((a * b) % mod)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
def test_vf_is_multiplication_by_p(p, n):
    S = p_typical(p, n)
    ring = ModularRing(p)
    for coords in itertools.product(range(p), repeat=n):
        x = WittVector(S, ring, coords)
        assert verschiebung(p, frobenius(p, x), S) == witt_scalar_mul(p, x)


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2), (2, 6)])
def test_delta_p_under_tau_is_the_p_derivation(p, n):
    # Delta_1(x)^p + p*Delta_p(x) = F_p(x) = x on W(F_p) = Z_p; at (5, 2),
    # S/p = {1}, so Delta_p reads no ghost value past index p
    tau, below = tau_iso(p, n), tau_iso(p, n - 1)
    for k in range(p**n):
        assert below.to_int(delta_component(p, tau.to_witt(k))) == (k - k**p) // p % p ** (n - 1)


def test_teichmuller_projects_to_teichmuller():
    es = idempotents(S12, 2, Q)
    for a in (2, 3, -1):
        t = teichmuller(Q.of_int(a), S12, Q)
        for k in es:
            comp = ptypical_projection(k, t, 2, es[k])
            T = ptypical_component_set(S12, 2, k)
            # F_k[a] = [a^k], cut down to the p-typical part
            assert comp == teichmuller(Q.of_int(a**k), T, Q)
