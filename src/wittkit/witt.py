"""Witt vectors over an arbitrary base ring and finite truncation set.

A vector in W_S(A) is stored as its coordinate tuple (a_n | n in S).  The
ghost map sends it to <w_n | n in S> with w_n = sum over d|n of
d*a_d^(n/d); it is a ring homomorphism into the product ring A^S.

Three interchangeable arithmetic strategies:

  "universal"  specialize the universal sum/prod/neg polynomials at each
               coordinate; works over every base ring.
  "ghost"      map to ghost coordinates, operate componentwise, and lift
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

from .errors import (
    NotDivisible,
    NotInGhostImage,
    NotSubset,
    SetMismatch,
    SpecMismatch,
    UnsupportedRing,
    WittkitError,
)
from .rings import Ring, RingElement, SquareZeroRing
from .truncation import TruncationSet
from .universal import PolySource, UnivPolyKey, default_source


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

    def element(self, n: int) -> RingElement:
        return RingElement(self.ring, self.coord(n))

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
        return _binary_power(witt_mul, witt_one(self.tset, self.ring), self, e)

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


def _vector_from_json(data, field: str):
    """(set, base ring, JSON entries in set order) of a serialized vector.

    A wrong shape is a SpecMismatch, not a KeyError or TypeError.
    """
    from .rings import parse_ring
    from .truncation import truncation_set

    shape = f"a JSON object with keys 'set' (a list of integers), 'base' and {field!r}"
    if not isinstance(data, dict) or not {"set", "base", field} <= data.keys():
        raise SpecMismatch(f"expected {shape}")
    members, base, entries = data["set"], data["base"], data[field]
    if (
        not isinstance(members, list)
        or not all(isinstance(n, int) and not isinstance(n, bool) for n in members)
        or not isinstance(base, str)
        or not isinstance(entries, dict)
    ):
        raise SpecMismatch(f"expected {shape}")
    tset = truncation_set(members)
    missing = [n for n in tset.members if str(n) not in entries]
    if missing:
        raise SpecMismatch(f"{field!r} has no entry for {missing}")
    return tset, parse_ring(base), [entries[str(n)] for n in tset.members]


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
    if S.members:
        if S.members[0] != 1:
            raise SpecMismatch("non-empty truncation sets contain 1")
        coords[0] = a
    return WittVector(S, ring, tuple(coords))


def witt_one(S: TruncationSet, ring: Ring) -> WittVector:
    return teichmuller(ring.one, S, ring)


def witt_of_int(k: int, S: TruncationSet, ring: Ring, strategy: str = "auto") -> WittVector:
    """Image of the integer k under the unique map Z -> W_S(A)."""
    st = _resolve(strategy, ring)
    if st == "ghost":
        return from_ghost(GhostVector(S, ring, tuple(ring.of_int(k) for _ in S)))
    if st == "lift":
        cover = ring.lift_ring()
        lifted = witt_of_int(k, S, cover, "ghost")
        return WittVector(S, ring, tuple(ring.reduce_from_lift(c) for c in lifted.coords))
    return witt_scalar_mul(k, witt_one(S, ring), "universal")


# --------------------------------------------------------------------------
# ghost map and its section
# --------------------------------------------------------------------------


def ghost(x: WittVector) -> GhostVector:
    ring = x.ring
    values = []
    for n in x.tset.members:
        acc = ring.zero
        for d in x.tset.members:
            if d > n:
                break
            if n % d == 0:
                acc = ring.add(acc, ring.scalar_mul(d, ring.pow(x.coord(d), n // d)))
        values.append(acc)
    return GhostVector(x.tset, ring, tuple(values))


def from_ghost(g: GhostVector) -> WittVector:
    """The unique x with ghost(x) = g, over a torsion-free base."""
    ring = g.ring
    if not ring.torsion_free:
        raise UnsupportedRing(f"ghost lifting needs a torsion-free base, not {ring}")
    coords: dict[int, object] = {}
    for n in g.tset.members:
        acc = g.value(n)
        for d in g.tset.members:
            if d < n and n % d == 0:
                acc = ring.sub(acc, ring.scalar_mul(d, ring.pow(coords[d], n // d)))
        try:
            coords[n] = ring.exact_div(acc, n)
        except NotDivisible as exc:
            raise NotInGhostImage(f"coordinate {n}: {exc}") from exc
    return WittVector(g.tset, ring, tuple(coords[n] for n in g.tset.members))


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


def _check_match(x: WittVector, y: WittVector):
    if x.tset != y.tset:
        raise SetMismatch(f"truncation sets differ: {x.tset} vs {y.tset}")
    if x.ring != y.ring:
        raise SpecMismatch(f"base rings differ: {x.ring} vs {y.ring}")


def _lift_vector(x: WittVector) -> WittVector:
    cover = x.ring.lift_ring()
    return WittVector(x.tset, cover, tuple(x.ring.lift(c) for c in x.coords))


def _reduce_vector(x: WittVector, ring: Ring) -> WittVector:
    return WittVector(x.tset, ring, tuple(ring.reduce_from_lift(c) for c in x.coords))


def _universal_vector(
    T: TruncationSet, keys, x: WittVector, y: WittVector | None, source: PolySource | None
) -> WittVector:
    """The vector over T whose coordinates are the keys' polynomials at x (a_d) and y (b_d).

    A key of weight w reads the coordinates at the divisors of w, which lie
    in the (divisor-closed) set of x whenever w does.
    """
    src = source or default_source()
    members = x.tset.members
    coords = []
    for key in keys:
        w = key.weight
        values = {f"a{d}": a for d, a in zip(members, x.coords) if w % d == 0}
        if y is not None:
            values.update({f"b{d}": b for d, b in zip(members, y.coords) if w % d == 0})
        coords.append(src.evaluate(key, values, x.ring))
    return WittVector(T, x.ring, tuple(coords))


def _binary_op(x: WittVector, y: WittVector, op: str, strategy: str, source: PolySource | None) -> WittVector:
    _check_match(x, y)
    ring = x.ring
    st = _resolve(strategy, ring)
    if st == "ghost":
        gx, gy = ghost(x), ghost(y)
        fn = ring.add if op == "sum" else ring.mul
        return from_ghost(
            GhostVector(x.tset, ring, tuple(fn(a, b) for a, b in zip(gx.values, gy.values)))
        )
    if st == "lift":
        out = _binary_op(_lift_vector(x), _lift_vector(y), op, "ghost", source)
        return _reduce_vector(out, ring)
    return _universal_vector(x.tset, [UnivPolyKey(op, n) for n in x.tset.members], x, y, source)


def witt_add(x: WittVector, y: WittVector, strategy: str = "auto", source: PolySource | None = None) -> WittVector:
    return _binary_op(x, y, "sum", strategy, source)


def witt_mul(x: WittVector, y: WittVector, strategy: str = "auto", source: PolySource | None = None) -> WittVector:
    return _binary_op(x, y, "prod", strategy, source)


def witt_neg(x: WittVector, strategy: str = "auto", source: PolySource | None = None) -> WittVector:
    ring = x.ring
    st = _resolve(strategy, ring)
    if st == "ghost":
        g = ghost(x)
        return from_ghost(GhostVector(x.tset, ring, tuple(ring.neg(v) for v in g.values)))
    if st == "lift":
        return _reduce_vector(witt_neg(_lift_vector(x), "ghost", source), ring)
    return _universal_vector(x.tset, [UnivPolyKey("neg", n) for n in x.tset.members], x, None, source)


def witt_scalar_mul(k: int, x: WittVector, strategy: str = "auto", source: PolySource | None = None) -> WittVector:
    """The k-fold sum k*x."""
    st = _resolve(strategy, x.ring)
    ring = x.ring
    if st == "ghost":
        g = ghost(x)
        return from_ghost(GhostVector(x.tset, ring, tuple(ring.scalar_mul(k, v) for v in g.values)))
    if st == "lift":
        return _reduce_vector(witt_scalar_mul(k, _lift_vector(x), "ghost", source), ring)
    acc = _binary_power(
        lambda u, v: witt_add(u, v, "universal", source), witt_zero(x.tset, ring), x, abs(k)
    )
    return witt_neg(acc, strategy="universal", source=source) if k < 0 else acc


def _binary_power(op, unit: WittVector, x: WittVector, k: int) -> WittVector:
    """x op x op ... op x (k >= 0 copies, `unit` when k = 0) by repeated doubling."""
    acc = None
    while k:
        if k & 1:
            acc = x if acc is None else op(acc, x)
        k >>= 1
        if k:
            x = op(x, x)
    return unit if acc is None else acc


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
    ring = x.ring
    coords = []
    for m in S.members:
        if m % n == 0 and m // n in x.tset:
            coords.append(x.coord(m // n))
        else:
            coords.append(ring.zero)
    return WittVector(S, ring, tuple(coords))


def frobenius(n: int, x: WittVector, strategy: str = "auto", source: PolySource | None = None) -> WittVector:
    """F_n: W_S(A) -> W_{S/n}(A), ghost-indexed by w_{nd}."""
    ring = x.ring
    T = x.tset.quotient(n)
    st = _resolve(strategy, ring)
    if st == "ghost":
        g = ghost(x)
        return from_ghost(GhostVector(T, ring, tuple(g.value(n * d) for d in T.members)))
    if st == "lift":
        return _reduce_vector(frobenius(n, _lift_vector(x), "ghost", source), ring)
    return _universal_vector(T, [UnivPolyKey("frob", d, n) for d in T.members], x, None, source)


# --------------------------------------------------------------------------
# the comonad map
# --------------------------------------------------------------------------


def delta_component(e: int, x: WittVector, strategy: str = "auto", source: PolySource | None = None) -> WittVector:
    """The e-th coordinate of the comonad map, a vector over S/e.

    Its ghost components satisfy w_m(delta_component(e, x)) = (F_m x)_e,
    and summing d * delta_component(d, x)^(e/d) over d | e gives F_e(x).
    """
    ring = x.ring
    T = x.tset.quotient(e)
    st = _resolve(strategy, ring)
    if st == "ghost":
        values = tuple(frobenius(m, x, "ghost").coord(e) for m in T.members)
        return from_ghost(GhostVector(T, ring, values))
    if st == "lift":
        return _reduce_vector(delta_component(e, _lift_vector(x), "ghost", source), ring)
    return _universal_vector(T, [UnivPolyKey("delta", n, e) for n in T.members], x, None, source)


def delta(x: WittVector, T: TruncationSet, strategy: str = "auto", source: PolySource | None = None) -> WittVector:
    """The comonad map into W_T(W_S(A)).

    The coordinate at e in T is delta_component(e, x), which lives over
    S/e and is extended by zero coordinates to a vector over S.  The
    extension is exact at every index of S/e; indices outside S/e carry
    no information (they sit above the truncation bound).
    """
    if not T <= x.tset:
        raise NotSubset(f"delta target {T} must be contained in {x.tset}")
    nested = WittRing(x.ring, x.tset)
    coords = []
    for e in T.members:
        comp = delta_component(e, x, strategy, source)
        coords.append(_embed_by_zero(comp, x.tset).coords)
    return WittVector(T, nested, tuple(coords))


def _embed_by_zero(x: WittVector, S: TruncationSet) -> WittVector:
    coords = []
    for n in S.members:
        coords.append(x.coord(n) if n in x.tset else x.ring.zero)
    return WittVector(S, x.ring, tuple(coords))


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
    xs = []
    for n in b.tset.members:
        acc = base.zero
        for d in b.tset.members:
            if n % d == 0:
                a_d, y_d = b.coord(d)
                acc = base.add(acc, base.mul(base.pow(a_d, (n // d) - 1), y_d))
        xs.append(acc)
    return WittVector(b.tset, base, a_coords), list(xs)


# --------------------------------------------------------------------------
# W_S(A) as a ring in its own right
# --------------------------------------------------------------------------


class WittRing(Ring):
    """W_S(A) packaged as a base ring, enabling nested Witt constructions.

    Payloads are coordinate tuples aligned with the truncation set.
    """

    def __init__(self, base: Ring, tset: TruncationSet):
        self.base = base
        self.tset = tset
        self.torsion_free = base.torsion_free

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

    def lift_ring(self):
        cover = self.base.lift_ring()
        return None if cover is None else WittRing(cover, self.tset)

    def lift(self, x):
        return tuple(self.base.lift(c) for c in x)

    def reduce_from_lift(self, x):
        return tuple(self.base.reduce_from_lift(c) for c in x)

    def sample(self, rng, size=9):
        return tuple(self.base.sample(rng, size) for _ in self.tset)

    def to_json(self, x):
        return {str(n): self.base.to_json(c) for n, c in zip(self.tset.members, x)}

    def from_json(self, data):
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

    def delta_component(self, e, x):
        return delta_component(e, x, self.strategy, self.source)

    def delta(self, x, T):
        return delta(x, T, self.strategy, self.source)

    def ghost(self, x):
        return ghost(x)

    def teichmuller(self, a, S, ring):
        return teichmuller(a, S, ring)
