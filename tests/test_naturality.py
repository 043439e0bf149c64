"""Naturality: a ring map f : A -> B commutes with the Witt operations.

W_S is a functor, so W_S(f)(op(x, y)) = op(W_S(f)(x), W_S(f)(y)), where
W_S(f) applies f to every coordinate.  The fast paths rest on such maps
(reduction mod m for `lift`, t -> 2^B for the int programs, truncation of
series), so these checks are an oracle for them that compares no two
strategies with each other.  A map is a triple (source, target, payload
function).  The same holds for gamma and its inverse, coefficient by
coefficient, and for the idempotents e_k and the p-typical projections,
which exist over both ends of a map when I(S) is invertible in both.
"""

import itertools
import random

import pytest

from wittkit.ptypical import idempotents, ptypical_projection
from wittkit.rings import ModularRing, PolynomialRing, RingElement, SeriesRing, Z
from wittkit.series import gamma, gamma_inverse
from wittkit.truncation import divisors_of, initial_segment
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


def reduction(n: int, m: int = 8):
    """Z -> Z/m for n = 0, Z/n -> Z/m for n a multiple of m: c -> c mod m."""
    return Z if n == 0 else ModularRing(n), ModularRing(m), lambda c: c % m


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


def image(v, target, f):
    return WittVector(v.tset, target, tuple(map(f, v.coords)))


@pytest.mark.parametrize("kind", ["Z->Z/8", "Z/9->Z/3", "Z/3[x]->Z/3"])
def test_gamma_and_its_inverse_commute_with_ring_maps(kind):
    rng, L = random.Random(kind), 10
    source, target, f = {"Z->Z/8": reduction(0, 8), "Z/9->Z/3": reduction(9, 3),
                         "Z/3[x]->Z/3": at_point(3, 2)}[kind]
    S = initial_segment(L)
    for _ in range(10):
        x = WittVector(S, source, tuple(source.sample(rng) for _ in S))
        assert [f(c) for c in gamma(x, L).value] == list(gamma(image(x, target, f), L).value)
        series = SeriesRing(source, L + 1)
        g = RingElement(series, (source.one,) + tuple(source.sample(rng) for _ in range(L)))
        mapped = RingElement(SeriesRing(target, L + 1), tuple(map(f, g.value)))
        assert image(gamma_inverse(g, L), target, f) == gamma_inverse(mapped, L)


@pytest.mark.parametrize("n, m, N, p", [(9, 3, 24, 3), (8, 2, 12, 2)], ids=["Z/9->Z/3", "Z/8->Z/2"])
def test_idempotents_and_projections_commute_with_reduction(n, m, N, p):
    source, target, f = reduction(n, m)
    rng, S = random.Random(f"{n}-{m}"), divisors_of(N)
    es, images = idempotents(S, p, source), idempotents(S, p, target)
    assert {k: image(e, target, f) for k, e in es.items()} == images
    for _ in range(4):
        x = WittVector(S, source, tuple(source.sample(rng) for _ in S))
        for k in es:
            assert image(ptypical_projection(k, x, p, es[k]), target, f) == ptypical_projection(
                k, image(x, target, f), p, images[k])
