"""Every identity of the complex suite on every tuple of generators of its kinds.

`laws.COMPLEX_IDENTITIES` declares where each argument lives.  Here each
entry runs on all tuples its kinds allow over a set: for an element,
eta(V_k[1]) and d eta(V_k[1]) for k in the element's own set (only the
former in degree 0, V_k[1] for a basis vector), for an index the members
(the Bezout pairs for (i, j)) and a in -3..3 for [a].  A kind that names
the wrong set makes the identity fail or raise here, so the kinds are
checked as well as the identities.
"""

from math import gcd, prod

import pytest

from wittkit.drwz import DrwComplex, drw_eta
from wittkit.errors import SetMismatch
from wittkit.laws import COMPLEX_IDENTITIES, bezout_pairs, kind_place
from wittkit.truncation import divisors_of
from wittkit.wittint import basis_generator

from test_laws import CurlyKilled, WrongCrt


def values(S, ops, kinds, kind, args):
    """The choices for the argument of `kind` after `args`, each as a tuple
    (the pair (i, j) together)."""
    name, positions = kind_place(kinds, kind)
    T = S.quotient(prod(args[p] for p in positions))
    index = {k[0]: a for k, a in zip(kinds, args)}
    if kind in ("m", "n"):
        return [(k,) for k in S.members]
    if kind == "n⊥m":
        return [(k,) for k in S.members if gcd(index["m"], k) == 1]
    if kind == "i":
        return bezout_pairs(index["m"], index["n"])
    if kind == "a":
        return [(a,) for a in range(-3, 4)]
    if kind == "T":
        return [(S.quotient(k),) for k in S.members]
    if name == "dlog":
        return [(ops.dlog_minus_one(T),)]
    if name == "b":
        return [(basis_generator(T, k),) for k in T.members]
    etas = [drw_eta(basis_generator(T, k)) for k in T.members]
    return [(g,) for g in etas] if name == "eta" else [(g,) for g in etas + [ops.d(g) for g in etas]]


def generator_tuples(S, ops, kinds):
    tuples = [()]
    for kind in kinds:
        if kind != "j":  # drawn with i
            tuples = [args + v for args in tuples for v in values(S, ops, kinds, kind, args)]
    return tuples


def run_on_generators(S, ops) -> tuple[int, set[str]]:
    """(tuples checked, labels of the identities that fail on some tuple)."""
    checks, failing = 0, set()
    for label, (kinds, _, fn) in COMPLEX_IDENTITIES.items():
        for args in generator_tuples(S, ops, kinds):
            sides = fn(ops, S, *args)
            checks += 1
            if any(lhs != rhs for lhs, rhs in (sides if isinstance(sides, list) else [sides])):
                failing.add(label)
    return checks, failing


def test_every_identity_holds_on_the_generators():
    checks, failing = run_on_generators(divisors_of(12), DrwComplex())
    assert failing == set()
    assert checks == 6467


def test_the_mutants_fail_on_the_generators():
    S = divisors_of(12)
    assert run_on_generators(S, CurlyKilled())[1] == {
        "FndVn", "Fn d[a]", "FmdVn three-term", "Fn dlog", "VmdVn expansion"}
    assert run_on_generators(S, WrongCrt())[1] == {
        "assoc", "unit", "leibniz", "FmFn=Fmn", "FnVn=n", "F1=V1=id", "projection", "FndVn",
        "Fn d[a]", "dFn=nFnd", "FmdVn three-term", "Fn dlog", "VmdVn expansion"}


def test_curly_killed_is_invisible_on_div6():
    # {m,n} adds terms only at 2^r * lcm(m, n), r >= 1, for m and n both
    # even, and none of these lies in div6 (nor, for F_m, in div6/m): killing
    # it changes no map there, a blind spot of any check over div6
    assert run_on_generators(divisors_of(6), CurlyKilled())[1] == set()


def test_a_kind_on_the_wrong_set_is_caught(monkeypatch):
    # the y of V_n V_m = V_nm lives over S/mn; declared over S/n, V_m of it
    # into S/n has no set to land in
    kinds, show, fn = COMPLEX_IDENTITIES["VnVm=Vnm"]
    monkeypatch.setitem(COMPLEX_IDENTITIES, "VnVm=Vnm", (("n", "m", "y/n"), show, fn))
    with pytest.raises(SetMismatch):
        run_on_generators(divisors_of(12), DrwComplex())
