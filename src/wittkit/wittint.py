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
(see RowTable).  The entry of (m, n) is a tuple of (position, factor)
pairs; a row is one generated function row(c, y, a), built the first
time it is needed from the entries of (m, n) for every n in its source
set (`rings.compile_row`), that adds c * y_n * factor at each position
of each entry.  Truncation sets are interned, so keys hash sets by
identity, and the maps check operand sets with `is`.  Two kernels run
the rows, here and in the graded complex (drwz): `bilinear` runs the
row of (kind, S, m) for each m with x_m nonzero on y, scaled by x_m,
and `linear` runs the row of (kind, S, m, T) from S into T once; T is
in the key since V_2 maps S/2 = {1,2} into div4 and seg4 alike.  A row
is charged its number of terms plus one against the table's budget.

The Teichmuller representative of an integer m expands with necklace
coefficients (1/n) * sum over d|n of mu(d)*m^(n/d).

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
from .rings import Z, compile_row, json_int
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

    A row is built on first use and charged its number of terms plus one;
    the rows kept are charged at most `budget` in all, and the oldest rows
    go first, so a long-lived table that sees many sets or many indices
    stays bounded.  The kernels keep compiled rows (`_compiled_row`).
    """

    def __init__(self, budget: int = ROW_BUDGET):
        self.budget = budget
        self.entries = 0
        self._rows: OrderedDict = OrderedDict()  # key -> (row, charge)

    def add(self, key, kept: tuple) -> tuple:
        """Keep the pair (row, charge) under key, evicting the oldest rows to stay in budget; return it."""
        charge = kept[1]
        if charge <= self.budget:
            while self.entries + charge > self.budget:
                self.entries -= self._rows.popitem(last=False)[1][1]
            self._rows[key] = kept
            self.entries += charge
        return kept

    def bilinear(self, kind: str, S: TruncationSet, entry, xs, ys, acc):
        """For nonzero xs[i], add xs[i] * ys[j] * f at t for each (t, f) of entry(S, m_i, m_j),
        by the row of (kind, S, m_i)."""
        if any(ys):
            rows = self._rows
            for m, c in zip(S.members, xs):
                if c:
                    key = (kind, S, m)
                    (rows.get(key) or self.add(key, _compiled_row(S, m, S, entry)))[0](c, ys, acc)

    def linear(self, kind: str, S: TruncationSet, m: int, T: TruncationSet, entry, xs, acc):
        """Add xs[j] * f at t for each (t, f) of entry(T, m, m_j), m_j in S, by the row of (kind, S, m, T)."""
        if any(xs):
            key = (kind, S, m, T)
            (self._rows.get(key) or self.add(key, _compiled_row(S, m, T, entry)))[0](1, xs, acc)


def _compiled_row(S: TruncationSet, m: int, T: TruncationSet, entry) -> tuple:
    """The row of (S, m) and its charge: row(c, y, a) adds c * y[j] * f to a[t] for each
    (t, f) of entry(T, m, m_j), m_j in S, as one generated function (`compile_row`)."""
    sums: dict = {}
    for j, n in enumerate(S.members):
        for t, f in entry(T, m, n):
            sums.setdefault(t, []).append(f"y[{j}]" if f == 1 else f"{f}*y[{j}]")
    return compile_row(sums), 1 + sum(map(len, sums.values()))


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


def _verschiebung_entry(S: TruncationSet, m: int, n: int) -> tuple:
    """V_m V_n([1]) = V_mn([1]): ((position of m*n in S, 1),), for n in S/m."""
    return ((S.index(m * n), 1),)


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
    acc = [0] * len(S.members)
    _TABLE.linear("versch", x.tset, m, S, _verschiebung_entry, x.coeffs, acc)
    return BasisWittInt(S, tuple(acc))


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
