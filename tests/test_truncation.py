import pytest
from hypothesis import given, strategies as st

from wittkit.errors import InvalidTruncationSet, NotPrime
from wittkit.numtheory import divisors
from wittkit.truncation import (
    TruncationSet,
    divisors_of,
    initial_segment,
    p_typical,
    parse_truncation_set,
    truncation_set,
)


def test_divisors_of():
    assert divisors_of(12).members == (1, 2, 3, 4, 6, 12)
    assert divisors_of(1).members == (1,)
    assert divisors_of(8).members == (1, 2, 4, 8)


def test_quotient_set():
    S = divisors_of(12)
    assert S.quotient(2).members == (1, 2, 3, 6)
    assert S.quotient(1) == S
    assert truncation_set([1, 2, 4]).quotient(3).members == ()


def test_p_typical():
    assert p_typical(2, 3).members == (1, 2, 4)
    assert p_typical(3, 1).members == (1,)
    assert p_typical(5, 2).members == (1, 5)
    with pytest.raises(NotPrime):
        p_typical(4, 2)


def test_initial_segment():
    assert initial_segment(5).members == (1, 2, 3, 4, 5)
    assert initial_segment(0).members == ()


def test_divisor_closure_enforced():
    with pytest.raises(InvalidTruncationSet):
        TruncationSet((2, 4))
    with pytest.raises(InvalidTruncationSet):
        TruncationSet((1, 6))
    with pytest.raises(InvalidTruncationSet):
        TruncationSet((1, 2, 2))


@given(st.integers(1, 60), st.integers(1, 12), st.integers(1, 12))
def test_quotient_composes(k, m, n):
    S = divisors_of(k)
    assert S.quotient(m).quotient(n) == S.quotient(m * n)


def _closure(tops):
    return truncation_set(d for n in tops for d in divisors(n))


@given(st.sets(st.integers(1, 12), max_size=3), st.sets(st.integers(1, 12), max_size=3))
def test_sets_are_equal_and_hash_alike_exactly_when_their_members_agree(a, b):
    # the 136 sets drawn here have 136 distinct hashes
    S, T = _closure(a), _closure(b)
    S.quotient(2)  # the caches a set builds on use stay out of equality and hash
    same = S.members == T.members
    assert (S == T) is same
    assert (S != T) is not same
    assert (hash(S) == hash(T)) is same
    assert ({S: "S"}.get(T) == "S") is same
    assert hash(S) == hash(TruncationSet(S.members))


@given(st.integers(1, 100))
def test_constructors_are_divisor_closed(k):
    S = divisors_of(k)
    members = set(S.members)
    for n in S.members:
        for d in range(1, n + 1):
            if n % d == 0:
                assert d in members


def test_parse():
    assert parse_truncation_set("div24") == divisors_of(24)
    assert parse_truncation_set("seg16") == initial_segment(16)
    assert parse_truncation_set("ptyp(2,4)") == p_typical(2, 4)
    assert parse_truncation_set("{1,2,3,6}").members == (1, 2, 3, 6)
    assert parse_truncation_set("{}").members == ()
    with pytest.raises(InvalidTruncationSet):
        parse_truncation_set("{2,4}")
    with pytest.raises(InvalidTruncationSet):
        parse_truncation_set("nonsense")
