"""Specs and JSON read back what they wrote, for generated rings and sets.

Ring specs are built recursively, to depth 3, from Z, Q and Z/m under
R[x,y], sz(R), series(R,k) and W(S,R).  A parsed spec is compared level by
level (class and parameters), since ring equality compares spec strings
only and so cannot see a misread spec that prints the same.
"""

import json

from hypothesis import given, settings, strategies as st

from wittkit.drwz import DrwElement, drw_from_json
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
    parse_ring,
)
from wittkit.truncation import parse_truncation_set
from wittkit.witt import GhostVector, WittRing, WittVector, ghost_from_json, witt_from_json
from wittkit.wittint import BasisWittInt, basis_from_json

from test_rings import structure
from test_witt import small_truncation_sets as truncation_sets


variables = st.lists(st.sampled_from(["x", "y", "t", "a1"]), min_size=1, max_size=2, unique=True)


def rings(depth=3):
    leaves = st.sampled_from([Z, Q]) | st.integers(2, 12).map(ModularRing)
    if depth == 0:
        return leaves
    inner = rings(depth - 1)
    return leaves | st.one_of(
        st.builds(PolynomialRing, inner, variables),
        inner.map(SquareZeroRing),
        st.builds(SeriesRing, inner, st.integers(1, 3)),
        st.builds(WittRing, inner, truncation_sets()),
    )


def through_json(data):
    return json.loads(json.dumps(data))


@settings(max_examples=150, deadline=None)
@given(rings(), truncation_sets())
def test_specs_parse_back_to_the_same_structure(ring, S):
    parsed = parse_ring(str(ring))
    assert str(parsed) == str(ring)
    assert structure(parsed) == structure(ring)
    assert parse_truncation_set(str(S)) == S


@settings(max_examples=150, deadline=None)
@given(rings(), rings())
def test_rings_are_equal_and_hash_alike_exactly_when_their_specs_agree(a, b):
    for other in (b, parse_ring(str(a))):
        same = str(a) == str(other)
        assert (a == other) == same and (other == a) == same
        assert (hash(a) == hash(other)) == same


@settings(max_examples=100, deadline=None)
@given(rings(), truncation_sets(), st.randoms(use_true_random=False))
def test_elements_read_back_from_their_json(ring, S, rng):
    el = RingElement(ring, ring.sample(rng, 4))
    assert element_from_json(through_json(element_to_json(el))) == el
    x = WittVector(S, ring, tuple(ring.sample(rng, 4) for _ in S))
    assert witt_from_json(through_json(x.to_json())) == x
    g = GhostVector(S, ring, tuple(ring.sample(rng, 4) for _ in S))
    assert ghost_from_json(through_json(g.to_json())) == g


@settings(max_examples=100, deadline=None)
@given(truncation_sets(), st.data())
def test_basis_and_graded_elements_read_back_from_their_json(S, data):
    coeffs = st.lists(st.integers(-50, 50), min_size=len(S), max_size=len(S)).map(tuple)
    b = BasisWittInt(S, data.draw(coeffs))
    assert basis_from_json(through_json(b.to_json())) == b
    # degree 1 from unreduced and negative representatives of its residues
    e = DrwElement(S, BasisWittInt(S, data.draw(coeffs)), data.draw(coeffs))
    assert drw_from_json(through_json(e.to_json())) == e
