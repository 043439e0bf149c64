"""Naturality: a ring map f : A -> B commutes with the Witt operations.

W_S is a functor, so W_S(f)(op(x, y)) = op(W_S(f)(x), W_S(f)(y)), where
W_S(f) applies f to every coordinate.  The fast paths rest on such maps
(reduction mod m for `lift`, t -> 2^B for the int programs, truncation of
series), so these checks are an oracle for them that compares no two
strategies with each other.  A map is a triple (source, target, payload
function).
"""

import itertools
import random

import pytest

from wittkit.rings import ModularRing, PolynomialRing, SeriesRing, Z
from wittkit.truncation import divisors_of
from wittkit.witt import WittVector, delta_component, frobenius, witt_add, witt_mul, witt_neg


def at_point(m: int, c: int):
    """Z/m[x] -> Z/m, x -> c."""
    def f(p):
        return sum(a * pow(c, mono[0][1] if mono else 0, m) for mono, a in p.items()) % m
    return PolynomialRing(ModularRing(m), ["x"]), ModularRing(m), f


def truncated(m: int):
    """series(Z/m,4) -> series(Z/m,2), t -> t."""
    return SeriesRing(ModularRing(m), 4), SeriesRing(ModularRing(m), 2), lambda s: s[:2]


OPS = {
    "witt_add": lambda x, y, strategy: witt_add(x, y, strategy),
    "witt_mul": lambda x, y, strategy: witt_mul(x, y, strategy),
    "F_2": lambda x, y, strategy: frobenius(2, x, strategy),
}


@pytest.mark.parametrize("m", [3, 8, 257])
@pytest.mark.parametrize("N", [6, 12], ids=lambda N: f"div{N}")
@pytest.mark.parametrize("kind", ["at_point", "truncated"])
def test_ring_maps_commute_with_witt_operations(kind, N, m):
    rng, S = random.Random(f"{kind}-{N}-{m}"), divisors_of(N)
    source, target, f = at_point(m, rng.randrange(m)) if kind == "at_point" else truncated(m)

    def image(v):
        return WittVector(v.tset, target, tuple(map(f, v.coords)))

    unequal = []
    for draw in range(4):
        x, y = (WittVector(S, source, tuple(source.sample(rng) for _ in S)) for _ in "xy")
        for name, op in OPS.items():
            for strategy in ("universal", "lift"):
                if image(op(x, y, strategy)) != op(image(x), image(y), strategy):
                    unequal.append((draw, name, strategy))
    assert not unequal, f"{len(unequal)} of 24 checks fail: {unequal}"


def reduction(n: int):
    """Z -> Z/8 for n = 0, Z/n -> Z/8 for n a multiple of 8: c -> c mod 8."""
    return Z if n == 0 else ModularRing(n), ModularRing(8), lambda c: c % 8


def strategies(ring) -> list[str]:
    """Every strategy that runs over `ring`: ghost needs it torsion-free, lift a torsion-free cover."""
    return ["universal"] + ["ghost"] * ring.torsion_free + ["lift"] * (ring.lift_ring() is not None)


ALL_OPS = {
    **OPS,
    "witt_neg": lambda x, y, strategy: witt_neg(x, strategy),
    "F_3": lambda x, y, strategy: frobenius(3, x, strategy),
    "delta_2": lambda x, y, strategy: delta_component(2, x, strategy),
}


@pytest.mark.parametrize("n", [0, 72], ids=lambda n: "Z" if n == 0 else f"Z/{n}")
def test_reductions_commute_under_every_strategy(n):
    # each side runs under every strategy of its own ring: Z has universal and
    # ghost, Z/72 and Z/8 universal and lift
    source, target, f = reduction(n)
    rng, S = random.Random(f"reduction-{n}"), divisors_of(12)

    def image(v):
        return WittVector(v.tset, target, tuple(map(f, v.coords)))

    assert (strategies(source), strategies(target)) == (
        ["universal", "ghost" if n == 0 else "lift"], ["universal", "lift"])
    unequal, checks = [], 0
    for draw in range(4):
        x, y = (WittVector(S, source, tuple(source.sample(rng) for _ in S)) for _ in "xy")
        for name, op in ALL_OPS.items():
            left = {s: image(op(x, y, s)) for s in strategies(source)}
            right = {t: op(image(x), image(y), t) for t in strategies(target)}
            for (s, lhs), (t, rhs) in itertools.product(left.items(), right.items()):
                checks += 1
                if lhs != rhs:
                    unequal.append((draw, name, s, t))
    assert not unequal, f"{len(unequal)} of {checks} checks fail: {unequal}"
