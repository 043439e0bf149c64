import copy
import pickle
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from wittkit.errors import InvalidTruncationSet, NotPrime
from wittkit.numtheory import divisors
from wittkit.truncation import (
    EMPTY,
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
    assert S.quotient(m).quotient(n) is S.quotient(m * n) is S.quotient(n).quotient(m)
    assert S.quotient(1) is S


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


def test_every_route_gives_the_one_interned_set():
    S = divisors_of(12)
    for same in (
        parse_truncation_set("div12"),
        parse_truncation_set("{1,2,3,4,6,12}"),
        truncation_set([12, 6, 4, 3, 2, 1, 6]),
        TruncationSet((1, 2, 3, 4, 6, 12)),
        TruncationSet([1, 2, 3, 4, 6, 12]),
        divisors_of(24).quotient(2),
    ):
        assert same is S
    assert initial_segment(4) is parse_truncation_set("seg4") is truncation_set(range(1, 5))
    assert p_typical(2, 3) is divisors_of(4) is parse_truncation_set("ptyp(2,3)")
    assert p_typical(3, 1) is initial_segment(1) is divisors_of(1)
    assert initial_segment(0) is EMPTY is truncation_set([]) is parse_truncation_set("{}")
    assert EMPTY is p_typical(5, 0) is divisors_of(2).quotient(4)


def test_copies_and_pickles_are_the_identical_set():
    for S in (divisors_of(12), initial_segment(5), EMPTY):
        assert copy.copy(S) is S
        assert copy.deepcopy(S) is S
        assert copy.deepcopy([S, {S: S}]) == [S, {S: S}]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(S, protocol)) is S


def test_threads_that_build_one_new_set_get_one_object():
    # seg2999 is not built elsewhere, and its validation is long enough for
    # the threads to interleave on the miss path
    members = tuple(range(1, 3000))
    start = threading.Barrier(8)
    got = []

    def build():
        start.wait()
        got.append(TruncationSet(members))

    threads = [threading.Thread(target=build) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8 and all(S is got[0] for S in got)
    assert initial_segment(2999) is got[0]


def test_sets_are_immutable():
    S = divisors_of(6)
    with pytest.raises(AttributeError):
        S.members = (1, 2)
    with pytest.raises(AttributeError):
        del S.members
    with pytest.raises(AttributeError):
        S.extra = 1
    assert S.members == (1, 2, 3, 6) and divisors_of(6) is S
