"""Pluggable exact commutative-ring arithmetic.

Rings are singleton-ish descriptor objects (compared by their spec
string) whose methods operate on raw payload values:

    Z        integers                  payload: int
    Z/m      integers mod m            payload: int in [0, m)
    Q        rationals                 payload: Fraction
    R[x,y]   polynomials over R        payload: dict {monomial: coeff},
             monomial = tuple of (var_index, exponent) pairs, sorted,
             exponents >= 1, no zero coefficients
    series(R,k)  truncated power series mod t^k   payload: k-tuple of R payloads
    sz(R)    square-zero extension     sz(R) = series(R,2), (a, x) for a + x*t
    W(S,R)   Witt vectors (defined in wittkit.witt)

R[x,y], series(R,k), sz(R) and W(S,R) are Constructions over a base ring R,
each with two hooks: `_map` applies a function to every R payload inside
one of its payloads, and `_over` builds the same construction over another
base.  Construction defines negation, integer multiples, exact division
and the torsion-free cover (the same construction over the cover of R,
built once) through them.

Payloads are canonical: equal payloads <=> equal ring elements.  All
values are treated as immutable; operations are pure functions, so every
ring is safe to share between threads.

An IntCarrier stands for the payloads of Z/m, series(Z/m,k) or Z/m[x] as
plain ints, so that an evaluation program compiled for it runs on the C
operators of int (Kronecker substitution, see `_Digits`).

The RingElement wrapper pairs a payload with its ring and overloads the
arithmetic operators; it is the type used at API boundaries (CLI, JSON).
Internal algorithms work on payloads directly through the ring methods.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from math import gcd
from typing import Any

from .errors import (
    BudgetExceeded,
    MissingVariable,
    NotAUnit,
    NotDivisible,
    SpecMismatch,
    WittkitError,
    ZeroDivisor,
)
from .numtheory import binary_power

# The largest decimal exponent a Q coordinate may carry: "1e999999999"
# would build 10**999999999 before anything else looks at it.
EXPONENT_BUDGET = 4300
# The largest series precision: a product mod t^k costs O(k^2) base
# operations, and gamma or gamma_inverse at this precision takes about a second.
PRECISION_BUDGET = 800
_EXPONENT_RE = re.compile(r"[eE]([-+]?[\d_]+)\s*$")


def json_int(data, what: str) -> int:
    """`data` if it is a JSON integer (an int that is not a bool), else SpecMismatch."""
    if isinstance(data, bool) or not isinstance(data, int):
        raise SpecMismatch(f"{what} must be an integer, not {data!r}")
    return data


def _is_pair(data) -> bool:
    return isinstance(data, list) and len(data) == 2


def _decimal(x: int) -> str:
    """x in decimal for a message; its size in bits past the int->str digit limit."""
    try:
        return str(x)
    except ValueError:
        return f"a {x.bit_length()}-bit integer"


class Ring:
    """Abstract commutative ring operating on raw payload values."""

    #: multiplication by any nonzero integer is injective
    torsion_free = False

    # -- required arithmetic -------------------------------------------------
    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def of_int(self, k: int):
        """Canonical image of the integer k."""
        raise NotImplementedError

    def exact_div(self, x, n: int):
        """The unique q with n*q = x; NotDivisible/ZeroDivisor otherwise."""
        raise NotImplementedError

    # -- derived helpers -----------------------------------------------------
    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def pow(self, x, e: int):
        return binary_power(self.mul, self.one, x, e)

    def scalar_mul(self, k: int, x):
        """The k-fold sum k*x."""
        return self.mul(self.of_int(k), x)

    # Computed once per ring; payloads are never changed in place, so the
    # constant can be shared by every caller.
    @cached_property
    def zero(self):
        return self.of_int(0)

    @cached_property
    def one(self):
        return self.of_int(1)

    def is_zero(self, x) -> bool:
        return x == self.zero

    def lift_ring(self) -> Ring | None:
        """A torsion-free cover, or None.

        When not None, `lift` and `reduce_from_lift` translate payloads to
        and from the cover and reduce_from_lift o (any ring op) o lift
        computes the op here.
        """
        return None

    def lift(self, x):
        raise NotImplementedError

    def reduce_from_lift(self, x):
        raise NotImplementedError

    def sample(self, rng, size: int = 9):
        """A small random payload, used by randomized law checks."""
        raise NotImplementedError

    # -- serialization -------------------------------------------------------
    def to_json(self, x) -> Any:
        raise NotImplementedError

    def from_json(self, data) -> Any:
        raise NotImplementedError

    def format(self, x) -> str:
        return str(x)

    # -- identity ------------------------------------------------------------
    def __str__(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<ring {self}>"

    # Rings never change, so the spec string that is their identity is built once.
    @cached_property
    def _spec(self) -> str:
        return str(self)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Ring) and self._spec == other._spec)

    def __hash__(self) -> int:
        return hash(self._spec)


class IntegerRing(Ring):
    torsion_free = True

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def pow(self, x, e):
        return x**e

    def of_int(self, k):
        return k

    def is_zero(self, x):
        return x == 0

    def scalar_mul(self, k, x):
        return k * x

    def exact_div(self, x, n):
        if n == 0:
            raise ZeroDivisor("division by 0")
        q, r = divmod(x, n)
        if r:
            raise NotDivisible(f"{n} does not divide {_decimal(x)}")
        return q

    def sample(self, rng, size=9):
        return rng.randint(-size, size)

    def to_json(self, x):
        return x

    def from_json(self, data):
        return json_int(data, "a coordinate in Z")

    def __str__(self):
        return "Z"


class RationalRing(Ring):
    torsion_free = True

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def of_int(self, k):
        return Fraction(k)

    def is_zero(self, x):
        return x == 0

    def exact_div(self, x, n):
        if n == 0:
            raise ZeroDivisor("division by 0")
        return x / n

    def sample(self, rng, size=9):
        return Fraction(rng.randint(-size, size), rng.randint(1, size))

    def to_json(self, x):
        return str(x)

    def from_json(self, data):
        text = str(data)
        exponent = _EXPONENT_RE.search(text)
        try:
            if exponent and abs(int(exponent.group(1))) > EXPONENT_BUDGET:
                raise BudgetExceeded(f"the exponent of {text!r} exceeds the budget {EXPONENT_BUDGET}")
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise SpecMismatch(f"cannot read a rational from {data!r}") from None

    def __str__(self):
        return "Q"


class ModularRing(Ring):
    """Integers modulo m, residues normalized to [0, m)."""

    def __init__(self, m: int):
        if m < 2:
            raise WittkitError(f"modulus must be >= 2: {m}")
        self.m = m

    def add(self, x, y):
        return (x + y) % self.m

    def neg(self, x):
        return (-x) % self.m

    def mul(self, x, y):
        return (x * y) % self.m

    def pow(self, x, e):
        return pow(x, e, self.m)

    def of_int(self, k):
        return k % self.m

    def is_zero(self, x):
        return x == 0

    def scalar_mul(self, k, x):
        return (k * x) % self.m

    def exact_div(self, x, n):
        g = gcd(n, self.m)
        if g == 1:
            return (x * pow(n, -1, self.m)) % self.m
        if x % g == 0:
            raise ZeroDivisor(f"division by {n} mod {self.m} is ambiguous")
        raise NotDivisible(f"{n} does not divide {x} mod {self.m}")

    def lift_ring(self):
        return Z

    def lift(self, x):
        return x

    def reduce_from_lift(self, x):
        return x % self.m

    def sample(self, rng, size=9):
        return rng.randrange(self.m)

    def to_json(self, x):
        return x

    def from_json(self, data):
        return json_int(data, f"a coordinate in {self}") % self.m

    def __str__(self):
        return f"Z/{self.m}"


class Construction(Ring):
    """A ring built over a base ring, acting on each base payload it holds."""

    def __init__(self, base: Ring):
        self.base = base
        self.torsion_free = base.torsion_free

    def _map(self, fn, x):
        """The payload holding fn(c) for each base payload c of x."""
        return tuple(map(fn, x))

    def _over(self, base: Ring) -> Construction:
        """The same construction over `base`."""
        raise NotImplementedError

    def neg(self, x):
        return self._map(self.base.neg, x)

    def exact_div(self, x, n):
        return self._map(lambda c: self.base.exact_div(c, n), x)

    def scalar_mul(self, k, x):
        return self._map(partial(self.base.scalar_mul, k), x)

    # Rings are immutable, so the cover is built on first use and kept.
    @cached_property
    def _cover(self) -> Ring | None:
        cover = self.base.lift_ring()
        return None if cover is None else self._over(cover)

    def lift_ring(self):
        return self._cover

    def lift(self, x):
        return self._map(self.base.lift, x)

    def reduce_from_lift(self, x):
        return self._map(self.base.reduce_from_lift, x)


class EvalProgram:
    """Integer polynomials compiled for one target ring into one straight-line program.

    A run first fills its slots: slot 0 is one, then x^1 .. x^top for each
    (name, top) of `powers` in turn (the power slots), then one slot per
    entry (s, t) of `links`, the product of slot s and power slot t, so the
    parts of monomials that `compile_program` makes share their prefixes,
    within one polynomial and across all of them.  `outputs` holds one
    tuple of rows per polynomial.  Each row is (low, groups), groups a
    tuple of pairs (c, parts): its value is slot low times the sum over its
    groups of the constant payload c (None when c is one) times the sum of
    the slots in parts.  An output's value is the sum of its rows, and
    `run` returns the list of the outputs' values.

    `names` lists every variable of the polynomials, including those that
    occur only in terms vanishing in the target: each needs a value.
    `PolySource.vector` keeps one program per key family and ring;
    `PolynomialRing.evaluate` compiles a program of one output per call.
    The target may be an `IntCarrier`, whose payloads are plain ints: then
    `run` adds and multiplies with the C operators of int, the carrier
    lifts the inputs (a coefficient list c_0, c_1, ... to the sum of
    c_i * 2^(B*i)) and decodes the outputs, and B, the digit width, is set
    by a run of the same program at the inputs' coefficient sums and by m.
    """

    __slots__ = ("target", "powers", "links", "outputs", "names")

    def __init__(self, target: Ring, powers: tuple, links: tuple, outputs: tuple, names: tuple):
        self.target = target
        self.powers = powers
        self.links = links
        self.outputs = outputs
        self.names = names

    def run(self, values: dict) -> list:
        missing = [name for name in self.names if name not in values]
        if missing:
            raise MissingVariable(f"no value for {missing}")
        target = self.target
        mul, add = target.mul, target.add
        slots = [target.one]
        for name, top in self.powers:
            x = p = values[name]
            slots.append(x)
            for _ in range(top - 1):
                p = mul(p, x)
                slots.append(p)
        for s, t in self.links:
            slots.append(mul(slots[s], slots[t]))
        out = []
        for rows in self.outputs:
            total = None
            for low, groups in rows:
                row = None
                for c, parts in groups:
                    acc = None
                    for s in parts:
                        acc = slots[s] if acc is None else add(acc, slots[s])
                    if c is not None:
                        acc = mul(c, acc)
                    row = acc if row is None else add(row, acc)
                if low:
                    row = mul(slots[low], row)
                total = row if total is None else add(total, row)
            out.append(target.zero if total is None else total)
        return out


def compile_program(variables: tuple, outputs: list, target: Ring, split: int = 0) -> EvalProgram:
    """Compile integer-coefficient polynomial payloads into one program for `target`, one output each.

    `variables` names the program's variables.  Each of `outputs` is a pair
    (payload, index): variable v of the payload is variable index[v] of the
    program, and index increases, so a mapped monomial stays sorted.  Each
    monomial splits into a low part, its factors in the variables below
    `split`, and a high part, the rest.  Each distinct part, over all the
    payloads, is one slot, the product of the slot of its prefix and one
    power slot (the program's `links`), so parts share their prefixes.  The
    terms of one low part are one row of their output, and the high parts
    of a row's terms with the same constant are summed before that
    constant multiplies them, so a constant costs one product per row.
    Constants are mapped into `target` once and de-duplicated by their
    image; terms that vanish there are dropped.
    """
    top: dict[int, int] = {}  # per program variable of a surviving term
    names = set()
    const_of: dict[int, int] = {}  # integer coefficient -> const index, -1 if it vanishes
    consts: list = []
    by_image: dict = {}
    one = target.one
    for payload, index in outputs:
        seen: dict[int, int] = {}  # payload variable -> largest exponent in a surviving term, 0 if none
        for mono, c in payload.items():
            if not isinstance(c, int):
                raise SpecMismatch("evaluation requires integer coefficients")
            k = const_of.get(c)
            if k is None:
                image = target.of_int(c)
                if target.is_zero(image):
                    k = -1
                else:
                    try:
                        k = by_image.setdefault(image, len(consts))
                    except TypeError:  # unhashable payload, e.g. a polynomial
                        k = len(consts)
                    if k == len(consts):
                        consts.append(None if image == one else image)
                const_of[c] = k
            for v, e in mono:
                if k < 0:
                    e = 0
                if e > seen.get(v, -1):
                    seen[v] = e
        for v, e in seen.items():
            v = index[v]
            names.add(variables[v])
            if e > top.get(v, 0):
                top[v] = e
    offset, powers, n_slots = {}, [], 1
    for v in sorted(top):
        offset[v] = n_slots
        n_slots += top[v]
        powers.append((variables[v], top[v]))

    links: list[tuple[int, int]] = []
    slot_of: dict[tuple, int] = {(): 0}  # part -> its slot

    def part_slot(part):
        s = slot_of.get(part)
        if s is None:
            if len(part) == 1:
                s = offset[part[0][0]] + part[0][1] - 1
            else:
                links.append((part_slot(part[:-1]), part_slot(part[-1:])))
                s = n_slots + len(links) - 1
            slot_of[part] = s
        return s

    cut = (split,)
    output_rows = []
    for payload, index in outputs:
        rows: dict[int, dict[int, list[int]]] = {}  # low slot -> const index -> high slots
        for mono, c in payload.items():
            k = const_of[c]
            if k >= 0:
                mono = tuple([(index[v], e) for v, e in mono])
                i = bisect_left(mono, cut)
                groups = rows.setdefault(part_slot(mono[:i]), {})
                groups.setdefault(k, []).append(part_slot(mono[i:]))
        output_rows.append(tuple((low, tuple((consts[k], tuple(parts)) for k, parts in groups.items()))
                                 for low, groups in rows.items()))
    return EvalProgram(target, tuple(powers), tuple(links), tuple(output_rows), tuple(sorted(names)))


def _packed(p: dict, w: int) -> list[int]:
    """The monomials of the polynomial payload p, each packed into one int of w-bit fields."""
    out = []
    for mono in p:
        k = 0
        for v, e in mono:
            k += e << v * w
        out.append(k)
    return out


def _decoded(bits: int, v: int, w: int, pairs: dict) -> tuple:
    """The monomial of the w-bit fields of `bits`, the first for variable v.

    `pairs` interns the (variable, exponent) pairs.
    """
    mask = (1 << w) - 1
    mono = []
    while bits:
        if e := bits & mask:
            pair = (v, e)
            mono.append(pairs.setdefault(pair, pair))
        bits >>= w
        v += 1
    return tuple(mono)


class PolynomialRing(Construction):
    """Sparse multivariate polynomials over a base ring.

    Monomials are tuples of (variable_index, exponent) pairs sorted by
    index, exponents positive; the payload maps monomials to nonzero base
    coefficients.  The variable order is fixed by the constructor list.

    `mul` packs internally: a product of two polynomials of two terms or
    more turns each monomial into one int with a field per variable
    (Kronecker packing), multiplies monomials by adding ints, and unpacks
    the result into the payload format above.  Over a base of exactly the
    class IntegerRing or ModularRing, whose arithmetic is Z's followed by
    `of_int`, it adds the coefficient products as plain ints and reduces
    each coefficient once while unpacking; any other base, a subclass of
    those included, multiplies through its own `mul` and `add`.
    """

    def __init__(self, base: Ring, variables):
        super().__init__(base)
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise WittkitError(f"duplicate variable names: {self.variables}")
        self._index = {v: i for i, v in enumerate(self.variables)}
        # Decoding tables of the packed product, filled as products need them:
        # each (v, e) pair once (the cache reader of universal.py interns its
        # pairs here too), and per field width w the (low, high) halves of
        # monomials decoded so far.  Equal entries are all a race can add.
        self._pairs: dict = {}
        self._halves: dict = {}

    def _map(self, fn, x):
        is_zero = self.base.is_zero
        return {m: d for m, c in x.items() if not is_zero(d := fn(c))}

    def _over(self, base):
        return PolynomialRing(base, self.variables)

    def var(self, name: str):
        """The payload for a single variable."""
        if name not in self._index:
            raise MissingVariable(f"{name} is not a variable of {self}")
        return {((self._index[name], 1),): self.base.one}

    def add(self, x, y):
        out = dict(x)
        for mono, c in y.items():
            if mono in out:
                s = self.base.add(out[mono], c)
                if self.base.is_zero(s):
                    del out[mono]
                else:
                    out[mono] = s
            else:
                out[mono] = c
        return out

    @staticmethod
    def _merge_monomials(a, b):
        if not a:
            return b
        if not b:
            return a
        out = []
        i = j = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            va, ea = a[i]
            vb, eb = b[j]
            if va == vb:
                out.append((va, ea + eb))
                i += 1
                j += 1
            elif va < vb:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return tuple(out)

    def mul(self, x, y):
        if len(x) > len(y):
            x, y = y, x
        base = self.base
        mul, add = base.mul, base.add
        if len(x) < 2:  # a monomial times a polynomial: distinct products, merged directly
            merge, is_zero = self._merge_monomials, base.is_zero
            return {merge(ma, mb): c for ma, ca in x.items() for mb, cb in y.items()
                    if not is_zero(c := mul(ca, cb))}
        # Kronecker packing: exponent e of variable v is e << v*w in one int.
        # A w-bit field holds twice the largest exponent, so the sum of two
        # packed monomials is their product, with no carry between fields.
        top = 0
        for mono in chain(x, y):
            for _, e in mono:
                if e > top:
                    top = e
        w = (2 * top).bit_length()
        kx, cx = _packed(x, w), list(x.values())
        if x is y:  # a square: each cross term once, its second factor doubled
            cd = [add(c, c) for c in cx]
        else:
            ky, cy = _packed(y, w), list(y.values())
        acc: dict = {}
        get = acc.get
        cls = type(base)
        if cls is IntegerRing or cls is ModularRing:  # Z's sums and products, reduced once in _unpacked
            if x is y:
                for i, (ka, ca) in enumerate(zip(kx, cx)):
                    for kb, cb in zip(kx[i:], [ca, *cd[i + 1:]]):
                        k = ka + kb
                        acc[k] = get(k, 0) + ca * cb
            else:
                for ka, ca in zip(kx, cx):
                    for kb, cb in zip(ky, cy):
                        k = ka + kb
                        acc[k] = get(k, 0) + ca * cb
            return self._unpacked(acc, w, base.m if cls is ModularRing else 0)
        if x is y:
            for i, (ka, ca) in enumerate(zip(kx, cx)):
                for kb, cb in zip(kx[i:], [ca, *cd[i + 1:]]):
                    k = ka + kb
                    c = get(k)
                    acc[k] = mul(ca, cb) if c is None else add(c, mul(ca, cb))
        else:
            for ka, ca in zip(kx, cx):
                for kb, cb in zip(ky, cy):
                    k = ka + kb
                    c = get(k)
                    acc[k] = mul(ca, cb) if c is None else add(c, mul(ca, cb))
        return self._unpacked(acc, w)

    def _unpacked(self, acc: dict, w: int, modulus: int | None = None) -> dict:
        """The payload of the packed monomials of `acc` (field width w), zero coefficients dropped.

        With a `modulus`, the values of `acc` are plain ints, each reduced
        here mod `modulus` unless it is 0 (the base Z); without one they are
        coefficients already.

        A monomial is cut into the fields of the low and the high half of the
        variables.  Each half is decoded once per ring and width, so the
        monomials share their pairs: one object per (v, e).
        """
        split = (len(self.variables) + 1) // 2
        shift = split * w
        low = (1 << shift) - 1
        is_zero = self.base.is_zero if modulus is None else operator.not_
        pairs = self._pairs
        tables = self._halves.get(w)
        if tables is None:
            tables = self._halves.setdefault(w, ({}, {}))
        lows, highs = tables
        out = {}
        for k, c in acc.items():
            if modulus:
                c %= modulus
            if is_zero(c):
                continue
            lo, hi = k & low, k >> shift
            head = lows.get(lo)
            if head is None:
                head = lows[lo] = _decoded(lo, 0, w, pairs)
            tail = highs.get(hi)
            if tail is None:
                tail = highs[hi] = _decoded(hi, split, w, pairs)
            out[head + tail] = c
        return out

    def pow(self, x, e):
        if len(x) == 1 and e > 0:  # one term: scale its exponents, no products
            ((mono, c),) = x.items()
            c = self.base.pow(c, e)
            return {} if self.base.is_zero(c) else {tuple((v, k * e) for v, k in mono): c}
        return super().pow(x, e)

    def of_int(self, k):
        c = self.base.of_int(k)
        return {} if self.base.is_zero(c) else {(): c}

    def is_zero(self, x):
        return not x

    def convert_from(self, payload: dict, src: PolynomialRing) -> dict:
        """Re-index a payload from a ring whose variables are a subset."""
        if src is self:
            return payload
        mapping = []
        for name in src.variables:
            if name not in self._index:
                raise MissingVariable(f"{name} is not a variable of {self}")
            mapping.append(self._index[name])
        out = {}
        for mono, c in payload.items():
            new = tuple(sorted((mapping[v], e) for v, e in mono))
            out[new] = c
        return out

    def evaluate(self, payload: dict, values: dict, target: Ring):
        """Evaluate in `target` with `values` mapping variable names to payloads.

        The payload is compiled (`compile_program`, one output, no split) on
        every call; `PolySource.vector` keeps the programs it runs.
        """
        return compile_program(self.variables, [(payload, range(len(self.variables)))], target).run(values)[0]

    def sample(self, rng, size=9):
        out = {}
        nvars = len(self.variables)
        for _ in range(rng.randint(0, 3)):
            mono = tuple(
                sorted((rng.randrange(nvars), rng.randint(1, 2)) for _ in range(rng.randint(1, 2)))
            )
            if len({v for v, _ in mono}) < len(mono):
                continue
            c = self.base.sample(rng, size)
            if not self.base.is_zero(c):
                out[mono] = c
        return out

    def to_json(self, x):
        return [
            [[[self.variables[v], e] for v, e in mono], self.base.to_json(c)]
            for mono, c in sorted(x.items())
        ]

    def from_json(self, data):
        shape = f"a value in {self} must be a list of [monomial, coefficient] pairs"
        if not isinstance(data, list) or not all(_is_pair(term) for term in data):
            raise SpecMismatch(f"{shape}, not {data!r}")
        out = {}
        for mono_data, c_data in data:
            if not isinstance(mono_data, list) or not all(
                _is_pair(f) and isinstance(f[0], str) for f in mono_data
            ):
                raise SpecMismatch(f"{shape}, a monomial a list of [variable, exponent] pairs")
            exponents: dict[str, int] = {}
            for name, e in mono_data:
                if name not in self._index:
                    raise MissingVariable(f"{name} is not a variable of {self}")
                if name in exponents or json_int(e, f"the exponent of {name}") < 1:
                    raise SpecMismatch(f"{mono_data!r} is not a monomial: a variable twice or an exponent below 1")
                exponents[name] = e
            mono = tuple(sorted((self._index[name], e) for name, e in exponents.items()))
            if mono in out:
                raise SpecMismatch(f"{shape}, each monomial once: {mono_data!r} occurs twice")
            out[mono] = self.base.from_json(c_data)
        return {mono: c for mono, c in sorted(out.items()) if not self.base.is_zero(c)}

    def format(self, x) -> str:
        if not x:
            return "0"
        parts = []
        for mono, c in sorted(x.items()):
            factors = []
            for v, e in mono:
                name = self.variables[v]
                factors.append(name if e == 1 else f"{name}^{e}")
            cs = self.base.format(c)
            if factors and cs == "1":
                parts.append("*".join(factors))
            elif factors and cs == "-1":
                parts.append("-" + "*".join(factors))
            else:
                parts.append("*".join([cs] + factors))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __str__(self):
        return f"{self.base}[{','.join(self.variables)}]"


class SeriesRing(Construction):
    """Power series in t over a base ring, truncated mod t^precision."""

    def __init__(self, base: Ring, precision: int):
        if precision < 1:
            raise WittkitError(f"precision must be >= 1: {precision}")
        if precision > PRECISION_BUDGET:
            raise BudgetExceeded(f"precision {precision} exceeds the budget {PRECISION_BUDGET}")
        super().__init__(base)
        self.precision = precision

    def _over(self, base):
        return SeriesRing(base, self.precision)

    def from_coefficients(self, coeffs) -> tuple:
        coeffs = list(coeffs)[: self.precision]
        coeffs += [self.base.zero] * (self.precision - len(coeffs))
        return tuple(coeffs)

    def add(self, x, y):
        return tuple(self.base.add(a, b) for a, b in zip(x, y))

    def mul(self, x, y):
        """Skips the zero coefficients of x, so pass the sparser factor first."""
        base = self.base
        is_zero, add, mul = base.is_zero, base.add, base.mul
        n = self.precision
        out = [base.zero] * n
        for i, a in enumerate(x):
            if is_zero(a):
                continue
            for j in range(n - i):
                b = y[j]
                if not is_zero(b):
                    out[i + j] = add(out[i + j], mul(a, b))
        return tuple(out)

    def of_int(self, k):
        return self.from_coefficients([self.base.of_int(k)])

    def sample(self, rng, size=9):
        return tuple(self.base.sample(rng, size) for _ in range(self.precision))

    def to_json(self, x):
        return [self.base.to_json(a) for a in x]

    def from_json(self, data):
        if not isinstance(data, list):
            raise SpecMismatch(f"a value in {self} must be a list of coefficients, not {data!r}")
        return self.from_coefficients(self.base.from_json(a) for a in data)

    def format(self, x):
        parts = []
        for k, a in enumerate(x):
            if self.base.is_zero(a):
                continue
            cs = self.base.format(a)
            if k == 0:
                parts.append(cs)
            else:
                t = "t" if k == 1 else f"t^{k}"
                parts.append(t if cs == "1" else f"{cs}*{t}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} (mod t^{self.precision})"

    def __str__(self):
        return f"series({self.base},{self.precision})"


class SquareZeroRing(SeriesRing):
    """sz(R) = R[e]/(e^2) = series(R,2), with (a, x) for a + x*t.

    Only its spec, its JSON pair [a, x] and its text form (a, x) are its own.
    """

    def __init__(self, base: Ring):
        super().__init__(base, 2)

    def _over(self, base):
        return SquareZeroRing(base)

    def from_json(self, data):
        if not _is_pair(data):
            raise SpecMismatch(f"a value in {self} must be a pair [a, x], not {data!r}")
        return super().from_json(data)

    def format(self, x):
        return f"({self.base.format(x[0])}, {self.base.format(x[1])})"

    def __str__(self):
        return f"sz({self.base})"


Z = IntegerRing()
Q = RationalRing()


# --------------------------------------------------------------------------
# int carriers: programs for Z/m, series over Z/m and Z/m[x] run on plain ints
# --------------------------------------------------------------------------


class IntCarrier(Ring):
    """Plain ints standing for the payloads of `ring`, a ring that is exactly Z/m.

    A program compiled for a carrier (`compile`) adds and multiplies with
    the C operators of int, and `run` reduces each output mod m once.  Its
    inputs are residues in [0, m) and its constants `of_int(c) = c % m`,
    so a run computes P(r) for an integer polynomial P with nonnegative
    coefficients that reduces mod m to the program's polynomial.  The
    subclasses carry series and one-variable polynomials over Z/m as one
    int each, by Kronecker substitution t -> 2^B (`_Digits`).
    """

    add = operator.add
    mul = operator.mul

    def __init__(self, ring: Ring, m: int):
        self.ring = ring
        self.m = m

    def of_int(self, k):
        return k % self.m

    def fits(self, coords) -> bool:
        """Whether the ring payloads `coords` run on ints: always, but for sparse polynomials."""
        return True

    def compile(self, variables: tuple, outputs: list, split: int = 0) -> EvalProgram:
        """`compile_program` for this carrier, which runs the program it returns."""
        return compile_program(variables, outputs, self, split)

    def run(self, program: EvalProgram, names, coords) -> list:
        """The outputs of `program`, compiled for this carrier, with names[i] the ring payload coords[i]."""
        m = self.m
        return [n % m for n in program.run(dict(zip(names, coords)))]

    def __str__(self):
        return f"ints({self.ring})"


def _byte_width(bounds) -> int:
    """The bytes of a digit that holds every nonnegative int up to the largest of `bounds`: at least one."""
    return max(1, (max(bounds, default=0).bit_length() + 7) // 8)


def _to_int(digits, width: int) -> int:
    """The sum of digits[i] * 2^(8*width*i), each digit in [0, 2^(8*width))."""
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in digits]), "little")


def _to_digits(n: int, width: int, count: int) -> list:
    """The `count` lowest digits of n in base 2^(8*width), n below 2^(8*width*count)."""
    buf = n.to_bytes(width * count, "little")
    return [int.from_bytes(buf[i:i + width], "little") for i in range(0, len(buf), width)]


class _Digits(IntCarrier):
    """Payloads with coefficients c_0, c_1, ... in [0, m) as the int sum of c_i * 2^(B*i), B = 8*width.

    Why the digits of an output are its coefficients: the program computes
    P(f_1, ..., f_n) over Z[t] at t = 2^B, where the f_j are the inputs with
    their coefficients as integers, and P has nonnegative coefficients; so
    does the output polynomial P(f), and each of its coefficients is at most
    its value at t = 1, P at the inputs' coefficient sums, which one run of
    the same program computes.  B is the bit length of the largest such
    value, and of m - 1, the largest input digit, rounded up to whole
    bytes, so no digit carries into the next.
    """

    def width_at(self, program: EvalProgram, sums: dict) -> int:
        """The bytes of a digit for inputs of coefficient sums `sums`: every output at them, and m - 1, fit."""
        return _byte_width([self.m - 1, *program.run(sums)])

    def run_digits(self, program, names, lists, width):
        """The decoded outputs of `program` at the coefficient lists `lists`, each digit `width` bytes."""
        values = dict(zip(names, [_to_int(c, width) for c in lists]))
        return [self.decode(n, width) for n in program.run(values)]


class _SeriesDigits(_Digits):
    """series(Z/m,k) and sz(Z/m) payloads as ints of k digits.

    Reduction mod 2^(B*k) is a ring map, since t^k = 2^(B*k) vanishes there,
    so a product masked to its k lowest digits keeps them exact, and each
    product stays at k digits.  The sums are unmasked: their digits past k
    are dropped when the output is decoded.  Every input has coefficient
    sum at most k*(m-1), and P is monotone in each input, so `compile`
    fixes B, and the mask, once per program from the run at that sum: a
    carrier serves the one program compiled for it.
    """

    def __init__(self, ring: SeriesRing):
        super().__init__(ring, ring.base.m)
        self.precision = ring.precision

    def compile(self, variables, outputs, split=0):
        program = super().compile(variables, outputs, split)
        self.width = self.width_at(program, dict.fromkeys(program.names, self.precision * (self.m - 1)))
        mask = self.mask = (1 << 8 * self.width * self.precision) - 1
        self.mul = lambda a, b: a * b & mask
        return program

    def run(self, program, names, coords):
        return self.run_digits(program, names, coords, self.width)

    def decode(self, n, width):
        m = self.m
        return tuple([c % m for c in _to_digits(n & self.mask, width, self.precision)])


def _span(x: dict) -> int:
    """The degree plus one of a one-variable polynomial payload, 0 for zero: () < ((0, 1),) < ((0, 2),) < ..."""
    if not x:
        return 0
    top = max(x)
    return top[0][1] + 1 if top else 1


class _PolyDigits(_Digits):
    """One-variable Z/m[x] payloads as ints of one digit per exponent up to the degree.

    An int costs time and memory in proportion to the degree, so only dense
    coordinates take this path (`fits`): 1 + x^40000 would be an int of 40001
    digits.  B is set per call, from the run at the inputs' coefficient sums.
    """

    def fits(self, coords):
        """Whether the degrees plus one of `coords` sum to at most twice their terms, a zero counting one term."""
        return sum(map(_span, coords)) <= 2 * sum(len(x) or 1 for x in coords)

    def run(self, program, names, coords):
        lists = []
        for x in coords:
            digits = [0] * _span(x)
            for mono, c in x.items():
                digits[mono[0][1] if mono else 0] = c
            lists.append(digits)
        return self.run_digits(program, names, lists, self.width_at(program, dict(zip(names, map(sum, lists)))))

    def decode(self, n, width):
        m = self.m
        digits = _to_digits(n, width, -(-n.bit_length() // (8 * width)))
        return {((0, e),) if e else (): c for e, d in enumerate(digits) if (c := d % m)}


def int_carrier(ring: Ring) -> IntCarrier | None:
    """The int carrier of `ring`, or None.

    Only rings of exactly the classes ModularRing, SeriesRing or
    SquareZeroRing over exactly ModularRing, and PolynomialRing in one
    variable over exactly ModularRing have one: a subclass, such as a ring
    that counts its products, computes through its own methods.
    """
    cls = type(ring)
    if cls is ModularRing:
        return IntCarrier(ring, ring.m)
    if type(getattr(ring, "base", None)) is ModularRing:
        if cls is SeriesRing or cls is SquareZeroRing:
            return _SeriesDigits(ring)
        if cls is PolynomialRing and len(ring.variables) == 1:
            return _PolyDigits(ring, ring.base.m)
    return None


def series_inverse_payload(ring: SeriesRing, f: tuple) -> tuple:
    """Multiplicative inverse of a series with constant term 1."""
    base = ring.base
    if f[0] != base.one:
        raise NotAUnit("series inverse requires constant term 1")
    zero = base.zero
    out = [base.one] + [zero] * (ring.precision - 1)
    for k in range(1, ring.precision):
        acc = zero
        for i in range(1, k + 1):
            if not base.is_zero(f[i]):
                acc = base.add(acc, base.mul(f[i], out[k - i]))
        out[k] = base.neg(acc)
    return tuple(out)


# --------------------------------------------------------------------------
# RingElement wrapper and spec-string / JSON interfaces
# --------------------------------------------------------------------------


def _frozen(value):
    """A hashable form of a payload that equal payloads share.

    A dict becomes the frozenset of its items, so the order in which a
    polynomial was built does not matter, also for dict coefficients.
    """
    if isinstance(value, dict):
        return frozenset((k, _frozen(c)) for k, c in value.items())
    if isinstance(value, tuple):
        return tuple(map(_frozen, value))
    return value


class RingElement:
    """A payload tagged with its ring; supports +, -, *, ** and exact ==."""

    __slots__ = ("ring", "value")

    def __init__(self, ring: Ring, value):
        self.ring = ring
        self.value = value

    def _check(self, other: RingElement):
        if not isinstance(other, RingElement):
            raise SpecMismatch(f"expected a ring element, got {type(other).__name__}")
        if self.ring != other.ring:
            raise SpecMismatch(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.add(self.value, other.value))

    def __sub__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.sub(self.value, other.value))

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.value))

    def __mul__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring.mul(self.value, other.value))

    def __pow__(self, e: int):
        if e < 0:  # refused here for every ring: pow over Z or Z/m gives a float or an inverse
            raise WittkitError("negative exponent")
        return RingElement(self.ring, self.ring.pow(self.value, e))

    def to_json(self) -> dict:
        return element_to_json(self)

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.ring == other.ring
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.ring, _frozen(self.value)))

    def __str__(self):
        return self.ring.format(self.value)

    def __repr__(self):
        return f"RingElement({self.ring}, {self.ring.format(self.value)})"


def exact_div(x: RingElement, n: int) -> RingElement:
    return RingElement(x.ring, x.ring.exact_div(x.value, n))


def series_inverse(f: RingElement) -> RingElement:
    if not isinstance(f.ring, SeriesRing):
        raise SpecMismatch(f"series_inverse needs a series ring, got {f.ring}")
    return RingElement(f.ring, series_inverse_payload(f.ring, f.value))


def _split_args(body: str) -> list[str]:
    """Split a comma list at depth zero of (), [] and {}."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return [p.strip() for p in parts]


def _spec_int(arg: str, spec: str) -> int:
    """The decimal integer `arg` inside the ring spec `spec`."""
    digits = arg.strip()
    if digits.removeprefix("-").isdecimal():
        try:
            digits = int(digits)
        except ValueError:  # more digits than int() converts: left as text, rejected below
            pass
    return json_int(digits, f"the number in ring spec {spec!r}")


def parse_ring(text: str) -> Ring:
    """Parse a ring spec string, e.g. "Z", "Z/8", "Z/3[x]", "W(div24,Z)"."""
    text = text.strip()
    if text.endswith("]"):  # R[x,y]: the last bracket group names the variables
        open_idx = text.rfind("[")
        names = [v.strip() for v in text[open_idx + 1 : -1].split(",") if v.strip()]
        if open_idx < 0 or not all(name.isidentifier() for name in names):
            raise SpecMismatch(f"cannot parse ring spec: {text!r}")
        return PolynomialRing(parse_ring(text[:open_idx]), names)
    if text == "Z":
        return Z
    if text == "Q":
        return Q
    if text.startswith("Z/"):
        return ModularRing(_spec_int(text[2:], text))
    if text.startswith("sz(") and text.endswith(")"):
        return SquareZeroRing(parse_ring(text[3:-1]))
    if text.startswith("series(") and text.endswith(")"):
        args = _split_args(text[7:-1])
        if len(args) != 2:
            raise SpecMismatch(f"series(...) takes base and precision: {text!r}")
        return SeriesRing(parse_ring(args[0]), _spec_int(args[1], text))
    if text.startswith("W(") and text.endswith(")"):
        from .truncation import parse_truncation_set
        from .witt import WittRing

        args = _split_args(text[2:-1])
        if len(args) != 2:
            raise SpecMismatch(f"W(...) takes a set and a base: {text!r}")
        return WittRing(parse_ring(args[1]), parse_truncation_set(args[0]))
    raise SpecMismatch(f"cannot parse ring spec: {text!r}")


def element_to_json(el: RingElement) -> dict:
    return {"spec": str(el.ring), "value": el.ring.to_json(el.value)}


def element_from_json(data: dict) -> RingElement:
    if not isinstance(data, dict) or not isinstance(data.get("spec"), str) or "value" not in data:
        raise SpecMismatch(
            "expected a JSON object with keys 'spec' (a ring spec string) and 'value'"
        )
    ring = parse_ring(data["spec"])
    return RingElement(ring, ring.from_json(data["value"]))
