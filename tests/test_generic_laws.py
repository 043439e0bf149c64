"""The Witt ring laws as polynomial identities on the generic vectors.

Over R = Z[a_n, b_n, c_n : n in S] the vectors a = (a_n), b = (b_n) and
c = (c_n) are generic: every triple of Witt vectors over any commutative
ring is their image under a ring map out of R, and W_S is a functor.  So
an identity between Witt operations that holds for a, b and c holds over
every commutative ring, for that S.  The identities are checked for the
polynomials the kernel computes, through the `universal` strategy (the
evaluation programs, here interpreted over a polynomial target) and the
`ghost` strategy, which must give the same polynomials.
"""

from functools import partial

import pytest

from test_laws import SumMutated
from wittkit.rings import PolynomialRing, Z
from wittkit.truncation import divisors_of, initial_segment
from wittkit.witt import WittVector, witt_add, witt_mul

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
