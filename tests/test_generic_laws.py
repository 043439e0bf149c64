"""The Witt ring laws as polynomial identities on the generic vectors.

Over R = Z[a_n, b_n, c_n : n in S] the vectors a = (a_n), b = (b_n) and
c = (c_n) are generic: every triple of Witt vectors over any commutative
ring is their image under a ring map out of R, and W_S is a functor.  So
an identity between Witt operations that holds for a, b and c holds over
every commutative ring, for that S.  The identities are checked for the
polynomials the kernel computes, through the `universal` strategy (the
evaluation programs, here interpreted over a polynomial target) and the
`ghost` strategy, which must give the same polynomials.  The Frobenius
laws run frob families, whose target set S/n differs from S; so do the
Verschiebung laws, whose operand lives over S/2.
"""

import itertools
from functools import partial

import pytest

from test_laws import SumMutated
from wittkit.rings import PolynomialRing, Z
from wittkit.truncation import divisors_of, initial_segment
from wittkit.universal import PolySource, UnivPolyKey
from wittkit.series import gamma
from wittkit.witt import (
    WittVector,
    frobenius,
    restrict,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    witt_one,
    witt_zero,
)

SETS = {"div6": divisors_of(6), "seg8": initial_segment(8), "div12": divisors_of(12)}


def generic(S):
    """The generic vectors a, b and c over Z[a_n, b_n, c_n : n in S]."""
    ring = PolynomialRing(Z, [f"{tag}{n}" for tag in "abc" for n in S])
    return [WittVector(S, ring, tuple(ring.var(f"{tag}{n}") for n in S)) for tag in "abc"]


def laws(a, b, c, strategy, source=None):
    """Each law's two sides: associativity of + and *, and distributivity."""
    add = partial(witt_add, strategy=strategy, source=source)
    mul = partial(witt_mul, strategy=strategy, source=source)
    return {
        "add-associative": (add(add(a, b), c), add(a, add(b, c))),
        "mul-associative": (mul(mul(a, b), c), mul(a, mul(b, c))),
        "distributive": (mul(a, add(b, c)), add(mul(a, b), mul(a, c))),
    }


@pytest.mark.parametrize("name", SETS)
def test_ring_laws_hold_on_the_generic_vectors(name):
    a, b, c = generic(SETS[name])
    sides = {strategy: laws(a, b, c, strategy) for strategy in ("universal", "ghost")}
    for strategy, checks in sides.items():
        assert [law for law, (lhs, rhs) in checks.items() if lhs != rhs] == [], strategy
    assert sides["universal"] == sides["ghost"]


def test_a_mutated_sum_breaks_distributivity():
    # on {1, 2} the mutated sum (a1*b1 added to sum:2) is still associative
    a, b, c = generic(divisors_of(2))
    checks = laws(a, b, c, "universal", SumMutated())
    assert [law for law, (lhs, rhs) in checks.items() if lhs != rhs] == ["distributive"]


def frobenius_laws(a, b, strategy, source=None):
    """Each law's two sides: F_2 is a ring map, and F_2 F_3 = F_6."""
    add = partial(witt_add, strategy=strategy, source=source)
    mul = partial(witt_mul, strategy=strategy, source=source)

    def F(n, x):
        return frobenius(n, x, strategy, source)

    one = witt_one(a.tset, a.ring)
    return {
        "F2-additive": (F(2, add(a, b)), add(F(2, a), F(2, b))),
        "F2-multiplicative": (F(2, mul(a, b)), mul(F(2, a), F(2, b))),
        "F2-unital": (F(2, one), witt_one(a.tset.quotient(2), a.ring)),
        "F2F3-is-F6": (F(2, F(3, a)), F(6, a)),
    }


@pytest.mark.parametrize("name", ["div6", "seg8"])
def test_frobenius_laws_hold_on_the_generic_vectors(name):
    a, b, _ = generic(SETS[name])
    sides = {strategy: frobenius_laws(a, b, strategy) for strategy in ("universal", "ghost")}
    for strategy, checks in sides.items():
        assert [law for law, (lhs, rhs) in checks.items() if lhs != rhs] == [], strategy
    assert sides["universal"] == sides["ghost"]


class TermMutated(PolySource):
    """Changes one term of one polynomial: coefficient c becomes c + delta."""

    def __init__(self, key, monomial, delta):
        super().__init__()
        self.key, self.monomial, self.delta = key, monomial, delta

    def universal_poly(self, key):
        poly = super().universal_poly(key)
        if key == self.key:
            ring = poly.ring
            term = ring.mul(ring.of_int(self.delta), ring.mul(*map(ring.var, self.monomial)))
            return type(poly)(ring, ring.add(poly.value, term))
        return poly


@pytest.mark.parametrize("key, broken", [
    (UnivPolyKey("frob", 1, 2), ["F2-additive", "F2-multiplicative", "F2-unital", "F2F3-is-F6"]),
    (UnivPolyKey("frob", 2, 2), ["F2-additive", "F2-multiplicative", "F2-unital"]),
    (UnivPolyKey("frob", 1, 3), ["F2F3-is-F6"]),
], ids=["frob:2:1", "frob:2:2", "frob:3:1"])
def test_a_mutated_frobenius_breaks_its_laws(key, broken):
    # F_2 on seg8 reads frob:2:1 to frob:2:4, and F_2 F_3 reads frob:2:1 and frob:3:1 only;
    # a1^2 is added, so f_{2,1} = a1^2 + 2*a2 becomes 2*a1^2 + 2*a2
    a, b, _ = generic(SETS["seg8"])
    checks = frobenius_laws(a, b, "universal", TermMutated(key, ["a1", "a1"], 1))
    assert [law for law, (lhs, rhs) in checks.items() if lhs != rhs] == broken


def verschiebung_laws(a, b, strategy, source=None):
    """Each law's two sides: F_2 V_2 = 2, the projection formula, a + (-a) = 0 and gamma.

    a is cut to S/2, still generic there.  gamma turns + into * mod t^(P+1)
    for the largest P with {1, ..., P} in S.
    """
    add = partial(witt_add, strategy=strategy, source=source)
    mul = partial(witt_mul, strategy=strategy, source=source)
    S = a.tset
    half = restrict(a, S.quotient(2))
    P = next(n for n in itertools.count(1) if n not in S) - 1
    return {
        "F2V2-is-2": (frobenius(2, verschiebung(2, half, S), strategy, source), add(half, half)),
        "projection-formula": (
            verschiebung(2, mul(half, frobenius(2, b, strategy, source)), S),
            mul(verschiebung(2, half, S), b),
        ),
        "add-inverse": (add(a, witt_neg(a, strategy, source)), witt_zero(S, a.ring)),
        "gamma-multiplicative": (gamma(add(a, b), P), gamma(a, P) * gamma(b, P)),
    }


@pytest.mark.parametrize("name", ["div6", "seg8"])
def test_verschiebung_laws_hold_on_the_generic_vectors(name):
    a, b, _ = generic(SETS[name])
    sides = {strategy: verschiebung_laws(a, b, strategy) for strategy in ("universal", "ghost")}
    for strategy, checks in sides.items():
        assert [law for law, (lhs, rhs) in checks.items() if lhs != rhs] == [], strategy
    assert sides["universal"] == sides["ghost"]


@pytest.mark.parametrize("name", ["div6", "seg8"])
@pytest.mark.parametrize("mutant, broken", [
    # neg:2 = -a1^2 - a2 becomes a1^2 - a2: only a + (-a) reads neg
    (TermMutated(UnivPolyKey("neg", 2), ["a1", "a1"], 2), {"div6": ["add-inverse"], "seg8": ["add-inverse"]}),
    # the term 4*a4*b4 of prod:4 dropped: 4 is in seg8, not in div6
    (TermMutated(UnivPolyKey("prod", 4), ["a4", "b4"], -4), {"div6": [], "seg8": ["projection-formula"]}),
], ids=["neg:2", "prod:4"])
def test_a_mutated_polynomial_breaks_the_laws_that_read_it(mutant, broken, name):
    a, b, _ = generic(SETS[name])
    checks = verschiebung_laws(a, b, "universal", mutant)
    assert [law for law, (lhs, rhs) in checks.items() if lhs != rhs] == broken[name]
