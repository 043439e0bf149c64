"""W_S(Z) in its additive basis of Verschiebung generators.

Additively, W_S(Z) is the product over n in S of Z * V_n([1]); an element
is stored as its integer coefficient tuple.  Addition is componentwise;
multiplication has the structure constants

    V_m([1]) * V_n([1]) = gcd(m, n) * V_lcm(m,n)([1])

with terms whose lcm leaves S dropped (they vanish under restriction).
Frobenius, Verschiebung and restriction act on generators by

    F_m V_n([1]) = gcd(m, n) * V_{n/gcd}([1])     (zero if lcm(m,n) not in S)
    V_m V_n([1]) = V_{mn}([1])
    R_T V_n([1]) = V_n([1]) if n in T else 0

and extend linearly.  Each map reads its constants from rows of a table
(see RowTable): the row of (kind, S, m) has a slot per generator position,
filled with the entry of (m, n) the first time a nonzero coefficient at n
needs it; truncation sets are interned, so the key hashes S by identity,
and the maps check operand sets with `is`.  An entry is a tuple of
(position, factor) pairs.  Two kernels
apply the rows, here and in the graded complex (drwz): `bilinear` adds
x_m * y_n * factor at each position of the entry of (m, n), and `linear`
adds x_n * factor for a fixed m.  The Teichmuller representative of an
integer m expands with necklace coefficients
(1/n) * sum over d|n of mu(d)*m^(n/d).

Formal 1-forms sum terms a*db with both sides basis elements; the
divided Frobenius maps them using the comonad components of b.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from math import gcd
from operator import add, neg

from .errors import NotDivisible, NotSubset, SetMismatch, SpecMismatch, WittkitError
from .numtheory import binary_power, divisors, mobius
from .rings import Z, json_int
from .truncation import Immutable, TruncationSet
from .witt import (
    GhostVector,
    WittVector,
    delta_component,
    fields_from_json,
    from_ghost,
    frobenius as witt_frobenius,
    ghost,
    restrict as witt_restrict,
)

ROW_BUDGET = 1 << 16

_set = object.__setattr__  # the constructors' one way past the immutable __setattr__


class RowTable:
    """Rows of structure constants keyed by (kind, set, index), under a budget.

    A row has one slot per generator position; the rows kept have at most
    `budget` slots in all, and the oldest rows go first, so a long-lived
    table that sees many sets or many indices stays bounded.  The kernels
    fill a slot, one pair at a time, with a tuple of (position, factor) pairs.
    """

    def __init__(self, budget: int = ROW_BUDGET):
        self.budget = budget
        self.entries = 0
        self._rows: OrderedDict = OrderedDict()

    def row(self, key, size: int) -> list:
        """The row under key; a new one has `size` slots, each None until its caller fills it."""
        row = self._rows.get(key)
        if row is None:
            row = [None] * size
            if size <= self.budget:
                while self.entries + size > self.budget:
                    self.entries -= len(self._rows.popitem(last=False)[1])
                self._rows[key] = row
                self.entries += size
        return row

    def bilinear(self, kind: str, S: TruncationSet, entry, xs, ys, acc):
        """For nonzero xs[i] and ys[j], add xs[i]*ys[j]*f at t for each (t, f) of
        entry(S, m_i, m_j), kept in slot j of the row of (kind, S, m_i)."""
        members = S.members
        ys = [(j, c) for j, c in enumerate(ys) if c]
        if not ys:
            return
        for m, cm in zip(members, xs):
            if cm:
                row = self.row((kind, S, m), len(members))
                for j, cn in ys:
                    pairs = row[j]
                    if pairs is None:
                        pairs = row[j] = entry(S, m, members[j])
                    for t, f in pairs:
                        acc[t] += cm * cn * f

    def linear(self, kind: str, S: TruncationSet, m: int, T: TruncationSet, entry, xs, acc):
        """For nonzero xs[j], add xs[j]*f at t for each (t, f) of entry(T, m, m_j),
        m_j in S, kept in slot j of the row of (kind, S, m)."""
        members = S.members
        row = self.row((kind, S, m), len(members))
        for j, c in enumerate(xs):
            if c:
                pairs = row[j]
                if pairs is None:
                    pairs = row[j] = entry(T, m, members[j])
                for t, f in pairs:
                    acc[t] += c * f


_TABLE = RowTable()


def _mul_entry(S: TruncationSet, m: int, n: int) -> tuple:
    """V_m([1]) * V_n([1]): ((position of lcm(m,n), gcd(m,n)),), or () if the lcm leaves S."""
    g = gcd(m, n)
    l = m // g * n
    return ((S.index(l), g),) if l in S else ()


def _frobenius_entry(T: TruncationSet, m: int, n: int) -> tuple:
    """F_m V_n([1]): ((position of n/gcd(m,n) in T = S/m, gcd(m,n)),), or () if it is not in T."""
    g = gcd(m, n)
    return ((T.index(n // g), g),) if n // g in T else ()


def verschiebung_spread(m: int, T: TruncationSet, S: TruncationSet, xs) -> list:
    """xs, aligned with T = S/m, copied to the positions of m*n in S; zero elsewhere."""
    row = _TABLE.row(("versch", S, m), len(T.members))
    if row and row[0] is None:  # V_m reads every slot, so all are filled at once
        row[:] = [S.index(m * n) for n in T.members]
    out = [0] * len(S.members)
    for t, c in zip(row, xs):
        out[t] = c
    return out


class BasisWittInt(Immutable):
    """Integer coefficients on the generators V_n([1]), n in S.

    An immutable value: the constructor checks the coefficient count and
    is the only writer of the two slots, assignment raises, and equal sets
    and coefficients give equal values with equal hashes.
    """

    __slots__ = ("tset", "coeffs")

    def __init__(self, tset: TruncationSet, coeffs: tuple[int, ...]):
        if len(coeffs) != len(tset.members):
            raise SpecMismatch("coefficient count does not match the truncation set")
        _set(self, "tset", tset)
        _set(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.tset is other.tset and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.tset, self.coeffs))

    def __reduce__(self):
        return BasisWittInt, (self.tset, self.coeffs)

    def __repr__(self):
        return f"BasisWittInt(tset={self.tset!r}, coeffs={self.coeffs!r})"

    def coeff(self, n: int) -> int:
        return self.coeffs[self.tset.index(n)]

    def __add__(self, other):
        return basis_add(self, other)

    def __sub__(self, other):
        return basis_add(self, basis_neg(other))

    def __neg__(self):
        return basis_neg(self)

    def __mul__(self, other):
        return basis_mul(self, other)

    def __pow__(self, e: int):
        if e < 0:
            raise WittkitError("negative exponent")
        return binary_power(basis_mul, basis_one(self.tset), self, e)

    def __str__(self):
        parts = [
            f"{c}·V{n}" for n, c in zip(self.tset.members, self.coeffs) if c
        ]
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "set": list(self.tset.members),
            "coeffs": {str(n): c for n, c in zip(self.tset.members, self.coeffs) if c},
        }


def basis_from_json(data) -> BasisWittInt:
    tset, (coeffs,) = fields_from_json(data, "coeffs")
    return BasisWittInt(tset, tuple(json_int(coeffs.get(str(n), 0), f"coefficient {n}") for n in tset.members))


def basis_zero(S: TruncationSet) -> BasisWittInt:
    return BasisWittInt(S, (0,) * len(S.members))


def basis_one(S: TruncationSet) -> BasisWittInt:
    return basis_generator(S, 1) if S.members else basis_zero(S)


def basis_generator(S: TruncationSet, n: int) -> BasisWittInt:
    """The generator V_n([1])."""
    if n not in S:
        raise SetMismatch(f"{n} is not in {S}")
    return BasisWittInt(S, tuple(1 if m == n else 0 for m in S.members))


def _check_set(x: BasisWittInt, y: BasisWittInt):
    if x.tset is not y.tset:
        raise SetMismatch(f"truncation sets differ: {x.tset} vs {y.tset}")


def basis_add(x: BasisWittInt, y: BasisWittInt) -> BasisWittInt:
    _check_set(x, y)
    return BasisWittInt(x.tset, tuple(map(add, x.coeffs, y.coeffs)))


def basis_neg(x: BasisWittInt) -> BasisWittInt:
    return BasisWittInt(x.tset, tuple(map(neg, x.coeffs)))


def basis_scalar_mul(k: int, x: BasisWittInt) -> BasisWittInt:
    return BasisWittInt(x.tset, tuple([k * a for a in x.coeffs]))


def basis_mul(x: BasisWittInt, y: BasisWittInt) -> BasisWittInt:
    _check_set(x, y)
    S = x.tset
    acc = [0] * len(S.members)
    _TABLE.bilinear("mul", S, _mul_entry, x.coeffs, y.coeffs, acc)
    return BasisWittInt(S, tuple(acc))


def frobenius_basis(m: int, x: BasisWittInt) -> BasisWittInt:
    """F_m in basis form, landing over S/m."""
    S = x.tset
    T = S.quotient(m)
    acc = [0] * len(T.members)
    _TABLE.linear("frob", S, m, T, _frobenius_entry, x.coeffs, acc)
    return BasisWittInt(T, tuple(acc))


def verschiebung_basis(m: int, x: BasisWittInt, S: TruncationSet) -> BasisWittInt:
    """V_m from basis form over S/m into S."""
    if S.quotient(m) is not x.tset:
        raise SetMismatch(f"operand lives over {x.tset}, expected {S}/{m} = {S.quotient(m)}")
    return BasisWittInt(S, tuple(verschiebung_spread(m, x.tset, S, x.coeffs)))


def restrict_basis(T: TruncationSet, x: BasisWittInt) -> BasisWittInt:
    if not T <= x.tset:
        raise NotSubset(f"{T} is not a subset of {x.tset}")
    return BasisWittInt(T, tuple(x.coeff(n) for n in T.members))


# --------------------------------------------------------------------------
# conversions with coordinate form (over Z)
# --------------------------------------------------------------------------


def to_coords(x: BasisWittInt) -> WittVector:
    """Coordinate form, via the triangular ghost relation w_m = sum n*c_n over n|m."""
    c = dict(zip(x.tset.members, x.coeffs))
    values = tuple(sum(n * c[n] for n in divisors(m)) for m in x.tset.members)
    return from_ghost(GhostVector(x.tset, Z, values))


def from_coords(x: WittVector) -> BasisWittInt:
    if x.ring != Z:
        raise SpecMismatch(f"basis form is only defined over Z, got {x.ring}")
    coeffs: dict[int, int] = {}
    for m, acc in zip(x.tset.members, ghost(x).values):
        acc -= sum(n * coeffs[n] for n in divisors(m)[:-1])
        q, r = divmod(acc, m)
        if r:
            raise NotDivisible(f"internal error: basis expansion at {m} not integral")
        coeffs[m] = q
    return BasisWittInt(x.tset, tuple(coeffs.values()))


def necklace_coefficient(m: int, n: int) -> int:
    """(1/n) * sum over d|n of mu(d) * m^(n/d)."""
    q, r = divmod(sum(mobius(d) * m ** (n // d) for d in divisors(n)), n)
    if r:
        raise NotDivisible(f"internal error: necklace sum for ({m},{n}) not divisible")
    return q


def teich_basis(m: int, S: TruncationSet) -> BasisWittInt:
    """The Teichmuller representative [m] expanded in the V-basis."""
    return BasisWittInt(S, tuple(necklace_coefficient(m, n) for n in S.members))


# --------------------------------------------------------------------------
# formal 1-forms and the divided Frobenius
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=True)
class FormalOneForm:
    """A formal sum of terms a*db over one truncation set.

    No relations are imposed; terms with a = 0 or b = 0 are dropped so
    that syntactic equality is meaningful for the identities tested here.
    """

    tset: TruncationSet
    terms: tuple[tuple[BasisWittInt, BasisWittInt], ...]

    def __post_init__(self):
        for a, b in self.terms:
            if a.tset is not self.tset or b.tset is not self.tset:
                raise SetMismatch("all terms of a 1-form share its truncation set")

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({a})·d({b})" for a, b in self.terms)


def one_form(S: TruncationSet, terms) -> FormalOneForm:
    kept = tuple(
        (a, b)
        for a, b in terms
        if any(a.coeffs) and any(b.coeffs)
    )
    return FormalOneForm(S, kept)


def divided_frobenius_form(n: int, form: FormalOneForm) -> FormalOneForm:
    """F_n on formal 1-forms, over S/n.

    F_n(a*db) = F_n(a) * sum over e|n of c_e^((n/e)-1) * d(c_e) where c_e
    is the e-th comonad component of b restricted to S/n.
    """
    S = form.tset
    T = S.quotient(n)
    out = []
    for a, b in form.terms:
        fa = from_coords(witt_frobenius(n, to_coords(a)))
        bv = to_coords(b)
        for e in divisors(n):
            comp = delta_component(e, bv)
            comp_T = from_coords(witt_restrict(comp, T))
            coef = basis_mul(fa, comp_T ** ((n // e) - 1))
            out.append((coef, comp_T))
    return one_form(T, out)
