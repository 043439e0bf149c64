"""Witt vectors over an arbitrary base ring and finite truncation set.

A vector in W_S(A) is stored as its coordinate tuple (a_n | n in S).  The
ghost map sends it to <w_n | n in S> with w_n = sum over d|n of
d*a_d^(n/d); it is a ring homomorphism into the product ring A^S.

Every operation (sum, product, negative, integer multiples, Frobenius,
the comonad components) is fixed by its ghost components, so each is
given once as a ghost-side transform plus its universal form, and one
kernel, `_apply`, runs it under one of three interchangeable strategies:

  "universal"  specialize the operation's universal polynomials at each
               coordinate (universal.PolySource.vector); works over every
               base ring.
  "ghost"      map to ghost coordinates, apply the transform, and lift
               back by the divisor recursion; requires a torsion-free
               base (Z, Q, polynomial/series rings over them).
  "lift"       lift coordinates to a torsion-free cover (Z/m -> Z, etc.),
               run the ghost strategy there, and reduce; requires the
               base to expose such a cover.

"auto" picks ghost, then lift, then universal.  All strategies agree
wherever more than one applies, which the test-suite checks.

W_S(A) is itself a ring (WittRing), so W_T(W_S(A)) makes sense; the
comonad map delta lands there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from .errors import (
    NotDivisible,
    NotInGhostImage,
    NotSubset,
    SetMismatch,
    SpecMismatch,
    UnsupportedRing,
    WittkitError,
)
from .numtheory import binary_power, divisors
from .rings import Construction, Ring, RingElement, SquareZeroRing, parse_ring
from .truncation import TruncationSet, truncation_set

if TYPE_CHECKING:
    from .universal import PolySource


@dataclass(frozen=True, eq=True)
class WittVector:
    """Element of W_S(A): coordinates aligned with tset.members."""

    tset: TruncationSet
    ring: Ring
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != len(self.tset):
            raise SpecMismatch("coordinate count does not match the truncation set")

    def coord(self, n: int):
        """Raw payload of the coordinate at index n."""
        return self.coords[self.tset.index(n)]

    def __add__(self, other):
        return witt_add(self, other)

    def __sub__(self, other):
        return witt_add(self, witt_neg(other))

    def __neg__(self):
        return witt_neg(self)

    def __mul__(self, other):
        return witt_mul(self, other)

    def __pow__(self, e: int):
        if e < 0:
            raise WittkitError("negative exponent")
        return binary_power(witt_mul, witt_one(self.tset, self.ring), self, e)

    def __str__(self):
        return "(" + ", ".join(self.ring.format(c) for c in self.coords) + ")"

    def to_json(self) -> dict:
        return {
            "set": list(self.tset.members),
            "base": str(self.ring),
            "coords": {str(n): self.ring.to_json(c) for n, c in zip(self.tset.members, self.coords)},
        }


@dataclass(frozen=True, eq=True)
class GhostVector:
    """Ghost-coordinate sequence <w_n | n in S>."""

    tset: TruncationSet
    ring: Ring
    values: tuple

    def value(self, n: int):
        return self.values[self.tset.index(n)]

    def __str__(self):
        return "<" + ", ".join(self.ring.format(v) for v in self.values) + ">"

    def to_json(self) -> dict:
        return {
            "set": list(self.tset.members),
            "base": str(self.ring),
            "values": {str(n): self.ring.to_json(v) for n, v in zip(self.tset.members, self.values)},
        }


def fields_from_json(data, *fields: str) -> tuple[TruncationSet, list[dict]]:
    """The truncation set and the named JSON objects of a serialized element.

    `data` must be a JSON object with the key 'set' (a list of integers)
    and one JSON object under each field, whose keys are decimals of
    members; a wrong shape is a SpecMismatch, not a KeyError or TypeError.
    """
    names = ", ".join(map(repr, fields))
    shape = f"a JSON object with keys 'set' (a list of integers) and {names} (JSON objects)"
    if not isinstance(data, dict) or not {"set", *fields} <= data.keys():
        raise SpecMismatch(f"expected {shape}")
    members, values = data["set"], [data[field] for field in fields]
    if (
        not isinstance(members, list)
        or not all(isinstance(n, int) and not isinstance(n, bool) for n in members)
        or not all(isinstance(v, dict) for v in values)
    ):
        raise SpecMismatch(f"expected {shape}")
    tset = truncation_set(members)
    for field, value in zip(fields, values):
        if outside := value.keys() - set(map(str, tset.members)):
            raise SpecMismatch(f"{field!r} has entries outside the set: {', '.join(sorted(map(repr, outside)))}")
    return tset, values


def _vector_from_json(data, field: str):
    """(set, base ring, JSON entries in set order) of a serialized vector."""
    tset, (entries,) = fields_from_json(data, field)
    if not isinstance(data.get("base"), str):
        raise SpecMismatch("expected a ring spec under the key 'base'")
    missing = [n for n in tset.members if str(n) not in entries]
    if missing:
        raise SpecMismatch(f"{field!r} has no entry for {missing}")
    return tset, parse_ring(data["base"]), [entries[str(n)] for n in tset.members]


def witt_from_json(data: dict) -> WittVector:
    tset, ring, entries = _vector_from_json(data, "coords")
    return WittVector(tset, ring, tuple(ring.from_json(c) for c in entries))


def ghost_from_json(data: dict) -> GhostVector:
    tset, ring, entries = _vector_from_json(data, "values")
    return GhostVector(tset, ring, tuple(ring.from_json(v) for v in entries))


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------


def witt_zero(S: TruncationSet, ring: Ring) -> WittVector:
    return WittVector(S, ring, tuple(ring.zero for _ in S))


def teichmuller(a, S: TruncationSet, ring: Ring | None = None) -> WittVector:
    """The multiplicative representative [a]: first coordinate a, rest 0."""
    if isinstance(a, RingElement):
        ring = a.ring
        a = a.value
    if ring is None:
        raise SpecMismatch("teichmuller needs a ring when given a raw payload")
    coords = [ring.zero] * len(S)
    if S.members:  # a non-empty divisor-closed set starts with 1
        coords[0] = a
    return WittVector(S, ring, tuple(coords))


def witt_one(S: TruncationSet, ring: Ring) -> WittVector:
    return teichmuller(ring.one, S, ring)


def witt_of_int(k: int, S: TruncationSet, ring: Ring, strategy: str = "auto") -> WittVector:
    """Image of the integer k under the unique map Z -> W_S(A)."""
    return witt_scalar_mul(k, witt_one(S, ring), strategy)


# --------------------------------------------------------------------------
# ghost map and its section
# --------------------------------------------------------------------------


def ghost(x: WittVector) -> GhostVector:
    ring = x.ring
    a = dict(zip(x.tset.members, x.coords))
    values = []
    for n in x.tset.members:
        acc = ring.zero
        for d in divisors(n):
            acc = ring.add(acc, ring.scalar_mul(d, ring.pow(a[d], n // d)))
        values.append(acc)
    return GhostVector(x.tset, ring, tuple(values))


def from_ghost(g: GhostVector) -> WittVector:
    """The unique x with ghost(x) = g, over a torsion-free base."""
    ring = g.ring
    if not ring.torsion_free:
        raise UnsupportedRing(f"ghost lifting needs a torsion-free base, not {ring}")
    coords: dict[int, object] = {}
    for n, acc in zip(g.tset.members, g.values):
        for d in divisors(n)[:-1]:
            acc = ring.add(acc, ring.scalar_mul(-d, ring.pow(coords[d], n // d)))
        try:
            coords[n] = ring.exact_div(acc, n)
        except NotDivisible as exc:
            raise NotInGhostImage(f"coordinate {n}: {exc}") from exc
    return WittVector(g.tset, ring, tuple(coords.values()))


# --------------------------------------------------------------------------
# arithmetic
# --------------------------------------------------------------------------


def _resolve(strategy: str, ring: Ring) -> str:
    if strategy == "auto":
        if ring.torsion_free:
            return "ghost"
        if ring.lift_ring() is not None:
            return "lift"
        return "universal"
    if strategy == "ghost" and not ring.torsion_free:
        raise UnsupportedRing(f"ghost strategy needs a torsion-free base, not {ring}")
    if strategy == "lift" and ring.lift_ring() is None:
        raise UnsupportedRing(f"{ring} has no torsion-free cover for the lift strategy")
    if strategy not in ("ghost", "lift", "universal"):
        raise WittkitError(f"unknown strategy {strategy!r}")
    return strategy


def _apply(xs: tuple, strategy: str, transform, universal) -> WittVector:
    """Run one Witt operation on the operands `xs` under `strategy`.

    `transform` maps operands over a torsion-free ring to the ghost vector
    of the result; `universal()` computes the result on `xs` from the
    universal polynomials.  The lift strategy runs the transform on the
    operands lifted to the torsion-free cover and reduces the result.
    """
    ring = xs[0].ring
    st = _resolve(strategy, ring)
    if st == "universal":
        return universal()
    if st == "ghost":
        return from_ghost(transform(*xs))
    cover = ring.lift_ring()
    lifted = (WittVector(x.tset, cover, tuple(map(ring.lift, x.coords))) for x in xs)
    out = from_ghost(transform(*lifted))
    return WittVector(out.tset, ring, tuple(map(ring.reduce_from_lift, out.coords)))


def _ghostwise(fn, *xs: WittVector) -> GhostVector:
    """The ghost vector with components fn(w_n(x), w_n(y), ...)."""
    x = xs[0]
    return GhostVector(x.tset, x.ring, tuple(map(fn, *(ghost(v).values for v in xs))))


def _check_match(x: WittVector, y: WittVector):
    if x.tset != y.tset:
        raise SetMismatch(f"truncation sets differ: {x.tset} vs {y.tset}")
    if x.ring != y.ring:
        raise SpecMismatch(f"base rings differ: {x.ring} vs {y.ring}")


_default_source_fn = None  # universal.default_source, imported on first use: universal runs this kernel


def _source(source: PolySource | None) -> PolySource:
    """`source`, or the process-wide default PolySource."""
    if source is not None:
        return source
    global _default_source_fn
    if _default_source_fn is None:
        from .universal import default_source

        _default_source_fn = default_source
    return _default_source_fn()


def witt_add(x: WittVector, y: WittVector, strategy: str = "auto", source: PolySource | None = None) -> WittVector:
    _check_match(x, y)
    return _apply((x, y), strategy, lambda u, v: _ghostwise(u.ring.add, u, v),
                  lambda: _source(source).vector("sum", 0, x.tset, x, y))


def witt_mul(x: WittVector, y: WittVector, strategy: str = "auto", source: PolySource | None = None) -> WittVector:
    _check_match(x, y)
    return _apply((x, y), strategy, lambda u, v: _ghostwise(u.ring.mul, u, v),
                  lambda: _source(source).vector("prod", 0, x.tset, x, y))


def witt_neg(x: WittVector, strategy: str = "auto", source: PolySource | None = None) -> WittVector:
    return _apply((x,), strategy, lambda u: _ghostwise(u.ring.neg, u),
                  lambda: _source(source).vector("neg", 0, x.tset, x))


def witt_scalar_mul(k: int, x: WittVector, strategy: str = "auto", source: PolySource | None = None) -> WittVector:
    """The k-fold sum k*x."""

    def universal():
        add = partial(witt_add, strategy="universal", source=source)
        acc = binary_power(add, witt_zero(x.tset, x.ring), x, abs(k))
        return witt_neg(acc, "universal", source) if k < 0 else acc

    return _apply((x,), strategy, lambda u: _ghostwise(partial(u.ring.scalar_mul, k), u), universal)


# --------------------------------------------------------------------------
# restriction, Verschiebung, Frobenius
# --------------------------------------------------------------------------


def restrict(x: WittVector, T: TruncationSet) -> WittVector:
    if not T <= x.tset:
        raise NotSubset(f"{T} is not a subset of {x.tset}")
    return WittVector(T, x.ring, tuple(x.coord(n) for n in T.members))


def verschiebung(n: int, x: WittVector, S: TruncationSet) -> WittVector:
    """V_n: spread coordinates from S/n into S (zero elsewhere)."""
    if S.quotient(n) != x.tset:
        raise SetMismatch(f"operand lives over {x.tset}, expected {S}/{n} = {S.quotient(n)}")
    zero = x.ring.zero
    return WittVector(S, x.ring, tuple(x.coord(m // n) if m % n == 0 else zero for m in S.members))


def frobenius(n: int, x: WittVector, strategy: str = "auto", source: PolySource | None = None) -> WittVector:
    """F_n: W_S(A) -> W_{S/n}(A), ghost-indexed by w_{nd}."""
    T = x.tset.quotient(n)

    def transform(u):
        g = ghost(u)
        return GhostVector(T, u.ring, tuple(g.value(n * d) for d in T.members))

    return _apply((x,), strategy, transform, lambda: _source(source).vector("frob", n, T, x))


# --------------------------------------------------------------------------
# the comonad map
# --------------------------------------------------------------------------


def delta_component(e: int, x: WittVector, strategy: str = "auto", source: PolySource | None = None) -> WittVector:
    """The e-th coordinate of the comonad map, a vector over S/e.

    Its ghost components satisfy w_m(delta_component(e, x)) = (F_m x)_e,
    and summing d * delta_component(d, x)^(e/d) over d | e gives F_e(x).
    """
    T = x.tset.quotient(e)

    def transform(u):
        # (F_m u)_e depends only on the ghost components w_{md}(u), d | e
        E = TruncationSet(tuple(d for d in u.tset.members if e % d == 0))  # divisors of e, for e in S
        g = ghost(u)
        return GhostVector(T, u.ring, tuple(
            from_ghost(GhostVector(E, u.ring, tuple(g.value(m * d) for d in E.members))).coord(e)
            for m in T.members
        ))

    return _apply((x,), strategy, transform, lambda: _source(source).vector("delta", e, T, x))


def delta(x: WittVector, T: TruncationSet, strategy: str = "auto", source: PolySource | None = None) -> WittVector:
    """The comonad map into W_T(W_S(A)).

    The coordinate at e in T is delta_component(e, x), which lives over
    S/e and is extended by zero coordinates to a vector over S.  The
    extension is exact at every index of S/e; indices outside S/e carry
    no information (they sit above the truncation bound).
    """
    if not T <= x.tset:
        raise NotSubset(f"delta target {T} must be contained in {x.tset}")
    zero = x.ring.zero
    coords = []
    for e in T.members:
        comp = delta_component(e, x, strategy, source)
        coords.append(tuple(comp.coord(n) if n in comp.tset else zero for n in x.tset.members))
    return WittVector(T, WittRing(x.ring, x.tset), tuple(coords))


# --------------------------------------------------------------------------
# square-zero splitting
# --------------------------------------------------------------------------


def square_zero_split(b: WittVector):
    """Split a vector over sz(A) into its base part and module components.

    Writing b_n = (a_n, y_n), returns the vector a = (a_n) over A together
    with the list x_n = sum over d|n of a_d^((n/d)-1) * y_d.  The pair
    reassembles b as (image of a) + (module vector x).
    """
    ring = b.ring
    if not isinstance(ring, SquareZeroRing):
        raise SpecMismatch(f"expected a square-zero base ring, got {ring}")
    base = ring.base
    a_coords = tuple(c[0] for c in b.coords)
    coord = dict(zip(b.tset.members, b.coords))
    xs = []
    for n in b.tset.members:
        acc = base.zero
        for d in divisors(n):
            a_d, y_d = coord[d]
            acc = base.add(acc, base.mul(base.pow(a_d, (n // d) - 1), y_d))
        xs.append(acc)
    return WittVector(b.tset, base, a_coords), xs


# --------------------------------------------------------------------------
# W_S(A) as a ring in its own right
# --------------------------------------------------------------------------


class WittRing(Construction):
    """W_S(A) packaged as a base ring, enabling nested Witt constructions.

    Payloads are coordinate tuples aligned with the truncation set.
    """

    def __init__(self, base: Ring, tset: TruncationSet):
        super().__init__(base)
        self.tset = tset

    def _over(self, base):
        return WittRing(base, self.tset)

    def _wrap(self, payload) -> WittVector:
        return WittVector(self.tset, self.base, payload)

    def add(self, x, y):
        return witt_add(self._wrap(x), self._wrap(y)).coords

    def neg(self, x):
        return witt_neg(self._wrap(x)).coords

    def mul(self, x, y):
        return witt_mul(self._wrap(x), self._wrap(y)).coords

    def of_int(self, k):
        return witt_of_int(k, self.tset, self.base).coords

    def scalar_mul(self, k, x):
        return witt_scalar_mul(k, self._wrap(x)).coords

    def exact_div(self, x, n):
        if n == 0:
            raise NotDivisible("division by 0")
        if self.torsion_free:
            g = ghost(self._wrap(x))
            values = tuple(self.base.exact_div(v, n) for v in g.values)
            try:
                return from_ghost(GhostVector(self.tset, self.base, values)).coords
            except NotInGhostImage as exc:
                raise NotDivisible(f"{n} does not divide the vector: {exc}") from exc
        # triangular solve: coordinate m of n*y is n*y_m + terms in lower y_d
        coords: list = []
        partial_zero = self.base.zero
        for i, m in enumerate(self.tset.members):
            probe = self._wrap(tuple(coords + [partial_zero] * (len(self.tset) - i)))
            known = witt_scalar_mul(n, probe).coords[i]
            coords.append(self.base.exact_div(self.base.sub(x[i], known), n))
        return tuple(coords)

    def sample(self, rng, size=9):
        return tuple(self.base.sample(rng, size) for _ in self.tset)

    def to_json(self, x):
        return {str(n): self.base.to_json(c) for n, c in zip(self.tset.members, x)}

    def from_json(self, data):
        if not isinstance(data, dict) or not all(str(n) in data for n in self.tset.members):
            raise SpecMismatch(f"a value in {self} must be a JSON object with a key for each of {self.tset}")
        return tuple(self.base.from_json(data[str(n)]) for n in self.tset.members)

    def format(self, x):
        return "(" + ", ".join(self.base.format(c) for c in x) + ")"

    def __str__(self):
        return f"W({self.tset},{self.base})"


# --------------------------------------------------------------------------
# a bound-methods bundle, so law suites can run against mutated variants
# --------------------------------------------------------------------------


class WittOps:
    """Witt operations bound to one polynomial source and strategy."""

    def __init__(self, source: PolySource | None = None, strategy: str = "auto"):
        self.source = source
        self.strategy = strategy

    def add(self, x, y):
        return witt_add(x, y, self.strategy, self.source)

    def mul(self, x, y):
        return witt_mul(x, y, self.strategy, self.source)

    def neg(self, x):
        return witt_neg(x, self.strategy, self.source)

    def frobenius(self, n, x):
        return frobenius(n, x, self.strategy, self.source)

    def delta(self, x, T):
        return delta(x, T, self.strategy, self.source)
