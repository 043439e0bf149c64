"""The explicit de Rham-Witt complex of the integers.

For a finite truncation set S the graded ring is concentrated in degrees
0 and 1:

    degree 0:  product over n in S of  Z      * V_n e([1])
    degree 1:  product over n in S of  Z/nZ   * dV_n e([1])

where e is the identification of W_S(Z) with the degree-0 part.  Every
structure map is determined by its values on generators:

    V_m e * V_n e   = (m,n) V_[m,n] e
    V_m e * dV_n e  = (m,n] dV_[m,n] e
                      + {m,n} sum_{r>=1} 2^(r-1)[m,n] dV_(2^r[m,n]) e
    d(V_n e)        = dV_n e
    F_m dV_n e      = (m,n]/m dV_(n/(m,n)) e
                      + {m,n} sum_{r>=1} (2^(r-1) n/(m,n)) dV_(2^r n/(m,n)) e
    F_m V_n e       = (m,n) V_(n/(m,n)) e        (zero unless [m,n] in S)
    V_m (V_n e)     = V_mn e
    V_m (dV_n e)    = m dV_mn e

Here (m,n) / [m,n] are gcd / lcm, (m,n] is the unique class mod [m,n]
that is 0 mod m and (m,n) mod n, and {m,n} is 1 when both m and n are
even, else 0.  Indices falling outside S are dropped; products of two
degree-1 elements vanish (degree 2 is zero).  A degree-1 coefficient is
a residue mod its index, and the DrwElement constructor alone reduces
it to its representative in [0, n): every map hands over its raw
integers.  It reduces through the residue map of the set: one generated
function with the members as literal moduli, kept with the set and by
member tuple in a `rings.Kept` store, so a set built again finds it.

The 2-torsion class dlog e([-1]) = sum_r 2^(r-1) dV_(2^r) e([1]) is the
source of every dyadic correction term.

DrwComplex bundles the operations behind overridable structure-constant
hooks so that law suites can be run against deliberately broken
variants; the module-level functions delegate to a default instance,
DEFAULT.  An instance reads its hooks at most once per set and index
pair: its entry for (m, n) is the tuple of (position, factor) pairs of
V_m e * dV_n e, F_m dV_n e or V_m dV_n e from the formulas above, and a
row is one generated function from the entries for every n of its
source set, kept in the instance's own wittint.RowTable, so one
instance's constants never serve another.  The product adds the rows of
its degree-0 part and of its two mixed parts, scaled by the coefficients
it is given.  F_m and V_m are one graded row each per source set, m and
target set: it takes both degrees of an element and returns both
degrees of the image, its degree-0 terms from the entries of wittint
and its degree-1 terms from the instance's, so each map is one call.
V_m refuses an operand over the wrong set before any row is built.

The CLI generator table takes time about like |S|^3, so it is refused
past TABLE_BUDGET members; a set at the budget takes about 2 s.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add, neg

from .errors import BudgetExceeded, SetMismatch, SpecMismatch
from .rings import Kept, compile_columns, json_int
from .truncation import Immutable, TruncationSet
from .witt import WittVector, fields_from_json
from .wittint import (
    BasisWittInt,
    RowTable,
    basis_add,
    basis_generator,
    basis_mul,
    basis_neg,
    basis_scalar_mul,
    basis_zero,
    check_quotient,
    frobenius_entry,
    from_coords,
    restrict_basis,
    verschiebung_entry,
)

TABLE_BUDGET = 100

_set = object.__setattr__  # the one way past the immutable __setattr__ (constructor, residue map)


def crt_bracket(m: int, n: int) -> int:
    """The class (m,n]: x = 0 mod m, x = gcd(m,n) mod n, inside [0, lcm(m,n))."""
    if m < 1 or n < 1:
        raise SpecMismatch(f"indices must be positive: ({m},{n}]")
    g = gcd(m, n)
    t = pow(m // g, -1, n // g) if n // g > 1 else 0
    return (m * t) % lcm(m, n)


def curly(m: int, n: int) -> int:
    """1 when both arguments are even, else 0."""
    return 1 if (m % 2 == 0 and n % 2 == 0) else 0


class DrwElement(Immutable):
    """A graded element: degree-0 basis vector plus degree-1 residues.

    An immutable value: the constructor alone writes its three slots, and
    assignment raises.  deg0 must lie over the element's own set (the
    identical object, since sets are interned) and deg1 must be aligned
    with it; the constructor reduces the entry at n to its representative
    in [0, n) (so the entry at 1 is always 0), and equal residues give
    equal elements with equal hashes.
    """

    __slots__ = ("tset", "deg0", "deg1")

    def __init__(self, tset: TruncationSet, deg0: BasisWittInt, deg1):
        if deg0.tset is not tset or len(deg1) != len(tset.members):
            raise SetMismatch("graded parts must share the truncation set")
        _set(self, "tset", tset)
        _set(self, "deg0", deg0)
        _set(self, "deg1", (tset._residues or _residue_map(tset))(deg1)[0])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.tset is other.tset and self.deg1 == other.deg1
                and self.deg0.coeffs == other.deg0.coeffs)

    def __hash__(self):
        return hash((self.tset, self.deg0.coeffs, self.deg1))

    def __reduce__(self):
        return DrwElement, (self.tset, self.deg0, self.deg1)

    def __repr__(self):
        return f"DrwElement(tset={self.tset!r}, deg0={self.deg0!r}, deg1={self.deg1!r})"

    def deg1_coeff(self, n: int) -> int:
        return self.deg1[self.tset.index(n)]

    def __add__(self, other):
        return drw_add(self, other)

    def __neg__(self):
        return drw_neg(self)

    def __sub__(self, other):
        return drw_add(self, drw_neg(other))

    def __mul__(self, other):
        return drw_mul(self, other)

    def __str__(self):
        parts = [f"{c}·V{n}η([1])" for n, c in zip(self.tset.members, self.deg0.coeffs) if c]
        parts += [f"{c}·dV{n}η([1])" for n, c in zip(self.tset.members, self.deg1) if c]
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "set": list(self.tset.members),
            "deg0": {str(n): c for n, c in zip(self.tset.members, self.deg0.coeffs) if c},
            "deg1": {str(n): c for n, c in zip(self.tset.members, self.deg1) if c},
        }


_RESIDUE_MAPS = Kept()  # by member tuple, so a set dropped and built again, as by each CLI call, finds its map


def _residue_map(S: TruncationSet):
    """The residue map of S: d -> ((d[i] % n for the i-th member n),), as one generated function
    with literal moduli (`compile_columns`); the entry at 1 is the literal 0.  It is kept with the
    set, and in _RESIDUE_MAPS charged its members plus one."""
    members = S.members
    residues = _RESIDUE_MAPS.get(members)
    if residues is None:
        column = [[f"d[{i}]%{n}"] if n > 1 else () for i, n in enumerate(members)]
        residues = _RESIDUE_MAPS.keep(members, compile_columns("d", [column]), 1 + len(members))
    _set(S, "_residues", residues)
    return residues


def drw_from_json(data) -> DrwElement:
    tset, (deg0, deg1) = fields_from_json(data, "deg0", "deg1")
    c0 = tuple(json_int(deg0.get(str(n), 0), f"deg0 coefficient {n}") for n in tset.members)
    c1 = tuple(json_int(deg1.get(str(n), 0), f"deg1 coefficient {n}") for n in tset.members)
    return DrwElement(tset, BasisWittInt(tset, c0), c1)


def _dyadic_chain(S: TruncationSet, l: int) -> list[tuple[int, int]]:
    """(position, factor) of sum over r >= 1 of 2^(r-1) l dV_(2^r l) e([1]), inside S."""
    chain = []
    idx, step = 2 * l, l
    while idx in S:
        chain.append((S.index(idx), step))
        idx, step = 2 * idx, 2 * step
    return chain


def _nonzero(pairs: list[tuple[int, int]]) -> tuple:
    return tuple((t, f) for t, f in pairs if f)


def drw_zero(S: TruncationSet) -> DrwElement:
    return DrwElement(S, basis_zero(S), (0,) * len(S.members))


def drw_eta(x) -> DrwElement:
    """Degree-0 inclusion of W_S(Z), from basis or coordinate form."""
    if isinstance(x, WittVector):
        x = from_coords(x)
    if not isinstance(x, BasisWittInt):
        raise SpecMismatch(f"eta expects a Witt vector over Z, got {type(x).__name__}")
    return DrwElement(x.tset, x, (0,) * len(x.tset.members))


def drw_add(x: DrwElement, y: DrwElement) -> DrwElement:
    deg0 = basis_add(x.deg0, y.deg0)  # SetMismatch unless the sets agree
    return DrwElement(x.tset, deg0, tuple(map(add, x.deg1, y.deg1)))


def drw_neg(x: DrwElement) -> DrwElement:
    return DrwElement(x.tset, basis_neg(x.deg0), tuple(map(neg, x.deg1)))


def drw_scalar_mul(k: int, x: DrwElement) -> DrwElement:
    return DrwElement(x.tset, basis_scalar_mul(k, x.deg0), [k * a for a in x.deg1])


class DrwComplex:
    """Structure maps of the complex, with overridable constants.

    Subclasses used in mutation testing may override _crt_value or
    _curly; everything else routes through these two hooks, read once per
    set and (m, n) pair by the entries below when the instance's RowTable
    builds a row: mul runs the rows of _mul_entry, frobenius and
    verschiebung one graded row each (see the module docstring).
    """

    def __init__(self):
        self._table = RowTable()

    def _crt_value(self, m: int, n: int) -> int:
        return crt_bracket(m, n)

    def _curly(self, m: int, n: int) -> int:
        return curly(m, n)

    # -- tables ------------------------------------------------------------
    def _mul_entry(self, S: TruncationSet, m: int, n: int) -> tuple:
        """V_m e * dV_n e as (position, factor) pairs."""
        l = lcm(m, n)
        if l not in S:  # then 2l is not in S either, and the term vanishes
            return ()
        pairs = [(S.index(l), self._crt_value(m, n))]
        if self._curly(m, n):
            pairs += _dyadic_chain(S, l)
        return _nonzero(pairs)

    def _frobenius_entry(self, T: TruncationSet, m: int, n: int) -> tuple:
        """F_m dV_n e over T = S/m as (position, factor) pairs."""
        tgt = n // gcd(m, n)
        if tgt not in T:  # then 2 tgt is not in T either
            return ()
        # the canonical representative of (m,n] is divisible by m
        pairs = [(T.index(tgt), self._crt_value(m, n) // m)]
        if self._curly(m, n):
            pairs += _dyadic_chain(T, tgt)
        return _nonzero(pairs)

    def _verschiebung_entry(self, S: TruncationSet, m: int, n: int) -> tuple:
        """V_m dV_n e = m dV_mn e over S, for n in S/m, as (position, factor) pairs."""
        return ((S.index(m * n), m),)

    # -- product -----------------------------------------------------------
    def mul(self, x: DrwElement, y: DrwElement) -> DrwElement:
        deg0 = basis_mul(x.deg0, y.deg0)  # SetMismatch unless the sets agree
        S = x.tset
        raw = [0] * len(S.members)
        self._table.bilinear("mul", S, self._mul_entry, x.deg0.coeffs, y.deg1, raw)
        self._table.bilinear("mul", S, self._mul_entry, y.deg0.coeffs, x.deg1, raw)
        return DrwElement(S, deg0, raw)

    # -- derivation ----------------------------------------------------------
    def d(self, x: DrwElement) -> DrwElement:
        """Send each degree-0 coefficient to its residue in degree 1."""
        return DrwElement(x.tset, basis_zero(x.tset), x.deg0.coeffs)

    # -- Frobenius and Verschiebung -------------------------------------------
    def frobenius(self, m: int, x: DrwElement) -> DrwElement:
        S = x.tset
        T = S.quotient(m)
        deg0, raw = self._table.graded("frob", S, m, T, (frobenius_entry, self._frobenius_entry),
                                       x.deg0.coeffs, x.deg1)
        return DrwElement(T, BasisWittInt(T, deg0), raw)

    def verschiebung(self, m: int, x: DrwElement, S: TruncationSet) -> DrwElement:
        T = x.tset
        check_quotient(S, m, T)
        deg0, raw = self._table.graded("versch", T, m, S, (verschiebung_entry, self._verschiebung_entry),
                                       x.deg0.coeffs, x.deg1)
        return DrwElement(S, BasisWittInt(S, deg0), raw)

    # -- restriction and units -------------------------------------------------
    def restrict(self, T: TruncationSet, x: DrwElement) -> DrwElement:
        deg0 = restrict_basis(T, x.deg0)  # NotSubset unless T is inside the set of x
        deg1 = tuple(x.deg1_coeff(n) for n in T.members)
        return DrwElement(T, deg0, deg1)

    def dlog_minus_one(self, S: TruncationSet) -> DrwElement:
        """The class sum_r 2^(r-1) dV_(2^r) e([1]); zero on odd-only sets."""
        raw = [0] * len(S.members)
        for t, f in _dyadic_chain(S, 1):
            raw[t] = f
        return DrwElement(S, basis_zero(S), raw)


DEFAULT = DrwComplex()


def drw_mul(x: DrwElement, y: DrwElement) -> DrwElement:
    return DEFAULT.mul(x, y)


def drw_d(x: DrwElement) -> DrwElement:
    return DEFAULT.d(x)


def drw_frobenius(m: int, x: DrwElement) -> DrwElement:
    return DEFAULT.frobenius(m, x)


def drw_verschiebung(m: int, x: DrwElement, S: TruncationSet) -> DrwElement:
    return DEFAULT.verschiebung(m, x, S)


def drw_restrict(T: TruncationSet, x: DrwElement) -> DrwElement:
    return DEFAULT.restrict(T, x)


def dlog_minus_one(S: TruncationSet) -> DrwElement:
    return DEFAULT.dlog_minus_one(S)


def generator_tables(S: TruncationSet) -> dict:
    """Products, F, V and d on all generators, for the CLI table verb."""
    if len(S) > TABLE_BUDGET:
        raise BudgetExceeded(f"{len(S)} members exceed the table budget {TABLE_BUDGET}")
    out = {"mul": {}, "frobenius": {}, "verschiebung": {}, "d": {}}
    gens: list[tuple[str, DrwElement]] = []
    for n in S.members:
        gens.append((f"V{n}", drw_eta(basis_generator(S, n))))
    for n in S.members:
        gens.append((f"dV{n}", drw_d(drw_eta(basis_generator(S, n)))))
    for name_x, x in gens:
        for name_y, y in gens:
            out["mul"][f"{name_x}*{name_y}"] = str(drw_mul(x, y))
    for m in S.members:
        for name_x, x in gens:
            out["frobenius"][f"F{m}({name_x})"] = str(drw_frobenius(m, x))
    for m in S.members:
        T = S.quotient(m)
        for n in T.members:
            out["verschiebung"][f"V{m}(V{n})"] = str(
                drw_verschiebung(m, drw_eta(basis_generator(T, n)), S)
            )
            out["verschiebung"][f"V{m}(dV{n})"] = str(
                drw_verschiebung(m, drw_d(drw_eta(basis_generator(T, n))), S)
            )
    for name_x, x in gens:
        out["d"][f"d({name_x})"] = str(drw_d(x))
    return out

