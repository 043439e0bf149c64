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

A program for Z/m, series(Z/m,k), sz(Z/m) or dense Z/m[x] runs on plain
ints by Kronecker substitution (`compile_int_program`), as generated
Python; the rows of structure constants of wittint and drwz are
generated on the same units (`compile_row`, `compile_columns`), and
every store of such functions is a `Kept`, one bounded policy for all.  A
program whose inputs are residues mod m takes its exponents on the power
cycle of Z/m, x^(e+lam) = x^e from e = k on (`Ring.power_cycle`), so no
power passes k + lam - 1.  Only exactly Z/m has the cycle: an input over
series(Z/m,k), sz(Z/m) or Z/m[x] is a series or a polynomial, packed
into one int on the Kronecker path, and (1 + t)^5 = 1 + t over
series(Z/4,2) where (1 + t)^3 = 1 + 3t, so those programs keep every
exponent.

The RingElement wrapper pairs a payload with its ring and overloads the
arithmetic operators; it is the type used at API boundaries (CLI, JSON).
Internal algorithms work on payloads directly through the ring methods.
"""

from __future__ import annotations

import operator
import re
from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, repeat
from math import gcd, inf
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
from .numtheory import binary_power, power_cycle as cycle_of

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
    #: (k, lam) when x^(e+lam) = x^e for every payload x and every e >= k
    #: (`numtheory.power_cycle`), else None
    power_cycle = None

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

    @cached_property
    def power_cycle(self):
        return cycle_of(self.m)

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

    A run fills a list of slots: slot 0 is one, slot i + 1 is argument i of
    the `arity` arguments, and link k of `links`, a pair (s, t), is slot
    1 + arity + k, the product of slots s and t, both below it.  A power
    x^e, e > 1, is the link of x^(e-1) and x; a longer part of a monomial
    is the link of its prefix and the power of its last factor, so the
    parts that `compile_program` makes share their prefixes, within one
    polynomial and across all of them.  `outputs` holds one tuple of rows
    per polynomial.  Each row is (low, groups), groups a tuple of pairs
    (c, parts): its value is slot low times the sum over its groups of the
    constant payload c (None when c is one) times the sum of the slots in
    parts.  An output's value is the sum of its rows, and `run` returns the
    list of the outputs' values.

    Over Z/m a program has no power past the ring's power cycle
    (`compile_program`).  `PolySource.vector` keeps one program per key
    family and ring and runs it on the coordinates of its operands;
    `PolynomialRing.evaluate` compiles a program of one output per call and
    runs it on the values of its variables, in their order.  `run` takes the `arity` arguments in
    order and calls `ints` if it is set, the closure that
    `compile_int_program` gives a program that runs on plain ints, and
    otherwise interprets the program through the target's add and mul.
    """

    __slots__ = ("target", "arity", "links", "outputs", "ints")

    def __init__(self, target: Ring, arity: int, links: tuple, outputs: tuple):
        self.target = target
        self.arity = arity
        self.links = links
        self.outputs = outputs
        self.ints = None

    def run(self, args) -> list:
        if self.ints is not None:
            return self.ints(args)
        target = self.target
        mul, add = target.mul, target.add
        slots = [target.one, *args]
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


def compile_program(arity: int, outputs: list, target: Ring, split: int = 0,
                    domain: Ring | None = None) -> EvalProgram:
    """Compile integer-coefficient polynomial payloads into one program of `arity` inputs for `target`.

    Each of `outputs` is a pair (payload, index), one output each: variable
    v of the payload is input index[v] of the program, and index
    increases, so a mapped monomial stays sorted.  Each monomial splits
    into a low part, its factors in the inputs below `split`, and a high
    part, the rest.  A link is made on first use, in one pass over the
    terms: one for each power of an input up to the highest used so far,
    and one for each distinct part, over all the payloads, of two or more
    factors (see `EvalProgram`).  No slot is made by recursion, so a
    monomial of any length or exponent compiles.  The terms of one low
    part are one row of their output, and the high parts of a row's terms
    with the same constant are summed before that constant multiplies
    them, so a constant costs one product per row.  Constants are mapped
    into `target` once and de-duplicated by their image; terms that vanish
    there are dropped.

    `domain`, `target` by default, is the ring the inputs range over.  If
    its `power_cycle` is (k, lam), every exponent e >= k + lam is taken as
    k + (e - k) mod lam, which changes no value there, and the integer
    coefficients of an output's terms that land on the same (low slot,
    high slot) pair are summed before the sum is mapped into `target`;
    a sum that vanishes there is dropped.  Only Z/m has a cycle, so only a
    program whose inputs are residues mod m reduces; without a cycle no two
    terms share a pair, and the program is the same as without this step.
    A link that no row and no later kept link reads, left by such a sum,
    is dropped at the end, and the slots after it are renumbered.
    """
    const_of: dict[int, int] = {}  # integer coefficient -> const index, -1 if it vanishes
    consts: list = []
    by_image: dict = {}
    one = target.one
    start, period = (target if domain is None else domain).power_cycle or (0, 0)
    wrap = start + period if period else inf  # the exponents from here on are reduced
    links: list[tuple[int, int]] = []
    powers = [[1 + v] for v in range(arity)]  # input v -> the slots of x^1, x^2, ... made so far
    slot_of: dict[tuple, int] = {(): 0}  # part -> its slot

    def const(c):
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
        return k

    def part_slot(part):
        s = slot_of.get(part)
        if s is None:
            i = len(part) - 1
            while part[:i] not in slot_of:
                i -= 1
            s = slot_of[part[:i]]
            for j in range(i, len(part)):
                v, e = part[j]
                chain = powers[v]
                while len(chain) < e:
                    links.append((chain[-1], 1 + v))
                    chain.append(arity + len(links))
                p = chain[e - 1]
                if j:
                    links.append((s, p))
                    p = arity + len(links)
                s = slot_of[part[:j + 1]] = p
        return s

    cut = (split,)
    output_rows = []
    for payload, index in outputs:
        sums: dict[tuple[int, int], int] = {}  # (low slot, high slot) -> integer coefficient
        for mono, c in payload.items():
            if not isinstance(c, int):
                raise SpecMismatch("evaluation requires integer coefficients")
            if const(c) >= 0:
                mono = tuple([(index[v], e if e < wrap else start + (e - start) % period) for v, e in mono])
                i = bisect_left(mono, cut)
                pair = (part_slot(mono[:i]), part_slot(mono[i:]))
                sums[pair] = sums.get(pair, 0) + c
        rows: dict[int, dict[int, list[int]]] = {}  # low slot -> const index -> high slots
        for (low, high), c in sums.items():
            k = const(c)
            if k >= 0:
                rows.setdefault(low, {}).setdefault(k, []).append(high)
        output_rows.append(tuple((low, tuple((consts[k], tuple(parts)) for k, parts in groups.items()))
                                 for low, groups in rows.items()))
    # a merged sum that vanishes leaves the links of its pair unread: one backward
    # pass finds the links that a row or a later read link reads, and the rest go
    first = 1 + arity
    read = [False] * (first + len(links))
    for rows in output_rows:
        for low, groups in rows:
            read[low] = True
            for _, parts in groups:
                for s in parts:
                    read[s] = True
    for i in range(len(read) - 1, first - 1, -1):
        if read[i]:
            s, t = links[i - first]
            read[s] = read[t] = True
    if not all(read[first:]):
        slot, kept = list(range(first)), []  # old slot -> new slot, the links that stay
        for i, (s, t) in enumerate(links, first):
            slot.append(first + len(kept))
            if read[i]:
                kept.append((slot[s], slot[t]))
        links = kept
        output_rows = [tuple((slot[low], tuple((c, tuple([slot[s] for s in parts])) for c, parts in groups))
                             for low, groups in rows) for rows in output_rows]
    return EvalProgram(target, arity, tuple(links), tuple(output_rows))


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

    `mul` packs internally: it turns each monomial into one int with a
    field per variable (Kronecker packing), multiplies monomials by adding
    ints, and unpacks the result into the payload format above.  Over a
    base of exactly the class IntegerRing or ModularRing, whose arithmetic
    is Z's followed by `of_int`, it adds the coefficient products as plain
    ints and reduces each coefficient once while unpacking; any other base,
    a subclass of those included, multiplies through its own `mul` and
    `add`.  A square forms each cross term once.
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

    def mul(self, x, y):
        # Kronecker packing: exponent e of variable v is e << v*w in one int.
        # A w-bit field holds twice the largest exponent, so the sum of two
        # packed monomials is their product, with no carry between fields.
        top = 0
        for mono in chain(x, y):
            for _, e in mono:
                if e > top:
                    top = e
        w = (2 * top).bit_length()
        base = self.base
        kx, cx = _packed(x, w), list(x.values())
        # One row per term of x: its packed monomial and coefficient, and the
        # packed monomials and coefficients it pairs with.
        if x is y:  # a square: row i pairs with terms i, i+1, ..., the later ones doubled
            cd = [base.add(c, c) for c in cx]
            rows = ((ka, ca, kx[i:], [ca, *cd[i + 1:]]) for i, (ka, ca) in enumerate(zip(kx, cx)))
        else:
            ky, cy = _packed(y, w), list(y.values())
            rows = zip(kx, cx, repeat(ky), repeat(cy))
        acc: dict = {}
        get = acc.get
        cls = type(base)
        if cls is IntegerRing or cls is ModularRing:  # Z's sums and products, reduced once in _unpacked
            for ka, ca, ks, cs in rows:
                for kb, cb in zip(ks, cs):
                    k = ka + kb
                    acc[k] = get(k, 0) + ca * cb
            return self._unpacked(acc, w, base.m if cls is ModularRing else 0)
        mul, add = base.mul, base.add
        for ka, ca, ks, cs in rows:
            for kb, cb in zip(ks, cs):
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

        Every variable of the payload needs a value, even one that occurs
        only in terms vanishing in `target`.  The payload is compiled
        (`compile_program`, one output, no split) on every call and run on
        the values in the order of the variables; `PolySource.vector` keeps
        the programs it runs.
        """
        names = self.variables
        missing = {names[v] for mono in payload for v, _ in mono}.difference(values)
        if missing:
            raise MissingVariable(f"no value for {sorted(missing)}")
        program = compile_program(len(names), [(payload, range(len(names)))], target)
        return program.run([values.get(name) for name in names])[0]

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
# int programs: Z/m, series over Z/m and Z/m[x] run on plain ints
# --------------------------------------------------------------------------


# The bounds of generated source.  `compile` needs about 200 bytes of
# transient memory per byte of source, much of it never returned to the OS,
# so no call sees more than UNIT_CHARS; and it recurses once per operand of
# a sum, so an expression past SPILL_CHARS is stored in a temporary slot.
UNIT_CHARS = 4096
SPILL_CHARS = 600
# A Z/m program reduces its products mod m only for m below this: CPython
# stores an int in 30-bit digits, and `%` by a one-digit divisor is fast.
SMALL_MODULUS = 1 << 30


class _Units:
    """Statements compiled into functions of `params`, at most UNIT_CHARS of source each."""

    def __init__(self, params: str):
        self.params = params
        self.head = f"def unit({params}):\n"
        self.units: list = []
        self.lines: list[str] = []
        self.chars = len(self.head)

    def line(self, statement: str):
        line = f" {statement}\n"
        if self.chars + len(line) > UNIT_CHARS:
            self.flush()
        self.lines.append(line)
        self.chars += len(line)

    def flush(self):
        if self.lines:
            self.units.append(_function(self.head + "".join(self.lines)))
            self.lines, self.chars = [], len(self.head)

    def function(self):
        """One function of the params that runs every unit in turn: the unit itself if there is one."""
        self.flush()
        if len(self.units) == 1:
            return self.units[0]
        calls = "".join(f" u{i}({self.params})\n" for i in range(len(self.units)))
        return _function(f"def run({self.params}):\n{calls or ' pass'}\n",
                         {f"u{i}": unit for i, unit in enumerate(self.units)})


def _function(source: str, names: dict | None = None):
    """The one function that `source` defines, seeing `names` and no builtins."""
    scope: dict = {}
    exec(compile(source, "<wittkit program>", "exec"), {"__builtins__": {}, **(names or {})}, scope)
    return scope.popitem()[1]


ROW_BUDGET = 1 << 16  # the default budget of a Kept store, in units of its charges


class Kept(Mapping):
    """Generated functions by key, charged at most `budget` in all, oldest first.

    `keep(key, value, charge)` evicts the oldest entries until value fits,
    keeps it and returns it; a value charged above the budget by itself is
    returned and not kept, so it is built again on every use.  `charges`
    holds each key's charge and `entries` their sum.  Every store of
    generated code is one: `wittint.RowTable`, drwz's residue maps and the
    programs of `universal.PolySource`, which keeps under its lock.
    """

    def __init__(self, budget: int = ROW_BUDGET):
        self.budget, self.entries, self.charges = budget, 0, {}
        self._rows: OrderedDict = OrderedDict()  # key -> value, oldest first
        self.get = self._rows.get  # the lookup of every call, without a Python frame

    def __getitem__(self, key):
        return self._rows[key]

    def __iter__(self):
        return iter(self._rows)

    def __len__(self):
        return len(self._rows)

    def keep(self, key, value, charge: int):
        if charge <= self.budget:
            while self.entries + charge > self.budget:
                self.entries -= self.charges.pop(self._rows.popitem(last=False)[0])
            self._rows[key] = value
            self.charges[key] = charge
            self.entries += charge
        return value


class _Source(_Units):
    """Statements `s[i]=<expr>` on the slot list s, compiled into functions (s, M) of at most UNIT_CHARS each.

    An expression is a pair (text, bound): the text holds slot numbers and
    int literals only, and the bound is an upper bound on its value.
    `fresh` slots, past the program's own, hold the outputs and what an
    expression longer than SPILL_CHARS spills.  A product whose bound
    reaches `limit` (never if None) is reduced by `op`, `&M` or `%M`, and
    its bound is then `top`.
    """

    def __init__(self, fresh: int, op: str, limit: int | None, top: int):
        super().__init__("s, M")
        self.fresh = fresh
        self.op, self.limit, self.top = op, limit, top

    def put(self, slot: int, text: str):
        self.line(f"s[{slot}]={text}")

    def store(self, text: str) -> int:
        """A fresh slot holding `text`."""
        slot, self.fresh = self.fresh, self.fresh + 1
        self.put(slot, text)
        return slot

    def bounded(self, text: str) -> str:
        return f"s[{self.store(text)}]" if len(text) > SPILL_CHARS else text

    def total(self, terms) -> tuple | None:
        """The sum of `terms`, None for none."""
        expr = None
        for text, bound in terms:
            expr = (text, bound) if expr is None else (self.bounded(f"{expr[0]}+{text}"), expr[1] + bound)
        return expr

    def product(self, a: tuple, b: tuple) -> tuple:
        """a * b, reduced if its bound reaches the limit; a is one slot or literal, b may be a sum."""
        (x, u), (y, v) = a, b
        if "+" in y:
            y = f"({y})"
        bound = u * v
        if self.limit is not None and bound >= self.limit:
            return self.bounded(f"({x}*{y}{self.op})"), self.top
        return self.bounded(f"{x}*{y}"), bound


def compile_row(sums: dict):
    """The function row(c, y, a) that adds c * (the sum of sums[t]) to a[t] for each t, as generated Python.

    A term is the source of an int expression in the list y, such as
    `3*y[5]`.  The statements run in units of at most UNIT_CHARS of source
    (`_Units`), and a sum longer than SPILL_CHARS is split over several
    statements on a[t], which holds the part already added.
    """
    src = _Units("c, y, a")
    _add_lines(src, sums, "c*")
    return src.function()


def _add_lines(src: _Units, sums: dict, scale: str):
    """The statements that add `scale` times the sum of sums[t] to a[t] for each t, a sum
    longer than SPILL_CHARS over several statements."""
    for t, terms in sums.items():
        part: list[str] = []
        chars = 0
        for term in terms:
            if part and chars + len(term) > SPILL_CHARS:
                src.line(f"a[{t}]+={scale}({'+'.join(part)})")
                part, chars = [], 0
            part.append(term)
            chars += len(term) + 1
        src.line(f"a[{t}]+={scale}({'+'.join(part)})")


def compile_columns(params: str, columns: list):
    """The function of `params` that returns one tuple per column, as generated Python.

    A column is a list of lists of terms, each the source of an int
    expression in the params, and entry i of its tuple is the sum of its
    list i, 0 for an empty list.  When the one statement that returns the
    tuples fits a unit of UNIT_CHARS and no sum is longer than SPILL_CHARS,
    the function is that statement.  Otherwise units of at most UNIT_CHARS
    (`_Units`) add the sums into one list of every entry, as `compile_row`
    adds a row, and the function cuts the tuples from it.
    """
    spans, at = [], 0
    for column in columns:
        spans.append((at, at + len(column)))
        at += len(column)
    items = [terms for column in columns for terms in column]
    texts = ["+".join(terms) or "0" for terms in items]
    body = "return " + "".join(f"({''.join(text + ',' for text in texts[i:j])})," for i, j in spans)
    src = _Units(params)
    if src.chars + len(body) + 2 <= UNIT_CHARS and all(len(text) <= SPILL_CHARS for text in texts):
        src.line(body)
        return src.function()
    src = _Units(f"{params}, a")
    _add_lines(src, {i: terms for i, terms in enumerate(items) if terms}, "")
    fill, size = src.function(), len(items)

    def cut(*args):
        a = [0] * size
        fill(*args, a)
        return tuple([tuple(a[i:j]) for i, j in spans])

    return cut


def _straight_line(program: EvalProgram, op: str, limit: int | None):
    """The function line(args, M) that runs `program`, compiled for Z/m, on ints as generated Python.

    It fills a list of the slots: one, the arguments in order, then one
    statement per link, then one per output, the sum of its rows, where a
    row is s[low] * (c * (s[p] + s[q] + ...) + ...) with the constants c as
    int literals.  Each expression carries a bound on its value, taking
    every argument below m: an input's bound is m - 1, and a sum's or a
    product's is the sum or the product of its operands' bounds.  A product
    whose bound reaches `limit` is reduced, (a * b & M) for op `&M` and
    (a * b % M) for op `%M`, and then has the bound m - 1; with limit 0
    every product is, with None none.  The statements run in units of at
    most UNIT_CHARS of source, all on the same list (`line.units`), and
    line returns the list of the outputs' values.
    """
    top = program.target.m - 1
    first = 1 + program.arity
    size = first + len(program.links)
    src, bounds = _Source(size, op, limit, top), [1] * size
    bounds[1:first] = [top] * program.arity

    def slot(i):
        return f"s[{i}]", bounds[i]

    for i, (a, b) in enumerate(program.links, first):
        text, bounds[i] = src.product(slot(a), slot(b))
        src.put(i, text)

    def group(c, parts):
        acc = src.total(map(slot, parts))
        return acc if c is None else src.product((f"{c:d}", c), acc)

    def row(low, groups):
        acc = src.total(group(c, parts) for c, parts in groups)
        return src.product(slot(low), acc) if low else acc

    outs = [src.store((src.total(row(low, groups) for low, groups in rows) or ("0", 0))[0])
            for rows in program.outputs]
    src.flush()
    units, one, rest = tuple(src.units), program.target.one, (0,) * (src.fresh - first)

    def line(args, M: int) -> list:
        s = [one, *args, *rest]
        for unit in units:
            unit(s, M)
        return [s[i] for i in outs]

    line.units = units
    return line


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


def _span(x: dict) -> int:
    """The degree plus one of a one-variable polynomial payload, 0 for zero: () < ((0, 1),) < ((0, 2),) < ..."""
    if not x:
        return 0
    top = max(x)
    return top[0][1] + 1 if top else 1


def runs_on_ints(ring: Ring, coords) -> bool:
    """Whether a program for `ring` runs on ints at the payloads `coords` (`compile_int_program`).

    Only rings of exactly the classes ModularRing, SeriesRing or
    SquareZeroRing over exactly ModularRing, and PolynomialRing in one
    variable over exactly ModularRing do: a subclass, such as a ring that
    counts its products, computes through its own methods.  An int costs
    time and memory in proportion to a polynomial's degree (1 + x^40000
    would be an int of 40001 digits), so polynomial coordinates must be
    dense: their degrees plus one sum to at most twice their terms, a zero
    counting one term.
    """
    cls = type(ring)
    if cls is ModularRing:
        return True
    if type(getattr(ring, "base", None)) is not ModularRing:
        return False
    if cls is SeriesRing or cls is SquareZeroRing:
        return True
    return (cls is PolynomialRing and len(ring.variables) == 1
            and sum(map(_span, coords)) <= 2 * sum(len(x) or 1 for x in coords))


def compile_int_program(arity: int, outputs: list, ring: Ring, split: int = 0) -> EvalProgram:
    """`compile_program` for the Z/m of `ring`, a ring that `runs_on_ints`, with `ints` set to run it on ints.

    The program is compiled for Z/m itself (`ring` or its base), so its
    constants are the residues c mod m, with `ring` as the domain of its
    inputs, so only a program over exactly Z/m takes its exponents on the
    power cycle of Z/m: the inputs of the other rings are packed series or
    polynomials, not residues.  It runs as one generated Python
    function (`_straight_line`): int `+` and `*` on a list of slots, in
    units of at most UNIT_CHARS of source each, since `compile` holds about
    200 bytes per source byte and a family program over div24 is about
    140 KB.  Generating costs about ten runs, so only the programs that
    `PolySource.vector` keeps are compiled here.

    `ints` takes the `arity` arguments in order, encodes each as one int,
    runs the function on the list of them and decodes each output.  Over
    Z/m an input is its residue and an output is reduced
    mod m.  Reduction Z -> Z/m is a ring map, so any product may be reduced
    mod m on the way without changing an output mod m.  For m below
    SMALL_MODULUS = 2^30, a product is reduced, (a * b % M) with M = m,
    once its bound reaches m^2, the bound taking every input at most m - 1,
    so no value outgrows m^2 times the length of a sum, where without it
    the div24 families carry ints of many digits.  Reducing every product
    instead made Z/2 and moduli from 2^30 up slower: a product below m^2
    is still a small int, and `%` by a divisor of two or more digits costs
    more than the digits it saves.

    A series or polynomial payload with coefficients c_0, c_1, ...
    in [0, m) is the int sum of c_i * 2^(B*i), B = 8*width (Kronecker
    substitution t -> 2^B).  The inputs and constants are residues, so a
    run computes P(f_1, ..., f_n) at t = 2^B for an integer polynomial P
    with nonnegative coefficients that reduces mod m to the program's, the
    f_j the inputs with their coefficients as integers.  So has the output
    polynomial P(f), and each of its coefficients is at most its value at
    t = 1, P at the inputs' coefficient sums, which one run of the same
    function computes.  B is the bit length of the largest such value, and
    of m - 1, the largest input coefficient, rounded up to whole bytes, so
    no digit carries into the next, and each output is read back as
    base-2^B digits mod m.

    Over series(Z/m,k) and sz(Z/m), reduction mod 2^(B*k) is a ring map,
    since t^k = 2^(B*k) vanishes there, so each product is masked to its k
    lowest digits, (a * b & M) with M = 2^(B*k) - 1; the sums are unmasked,
    and their digits past k are dropped when an output is decoded.  Every
    input has coefficient sum at most k*(m-1), and P is monotone in each
    input, so the width and the mask are fixed here, once per program, from
    a run at that sum with M = -1, all ones, and only its `ints` holds them.
    Over Z/m[x] the width is set per call, from the run at the inputs'
    coefficient sums.
    """
    cls = type(ring)
    base = ring if cls is ModularRing else ring.base
    program = compile_program(arity, outputs, base, split, ring)
    m = base.m
    if cls is ModularRing:
        line = _straight_line(program, "%M", m * m if m < SMALL_MODULUS else None)

        def ints(args):
            return [n % m for n in line(args, m)]
    elif cls is not PolynomialRing:
        line, k = _straight_line(program, "&M", 0), ring.precision
        width = _byte_width([m - 1, *line([k * (m - 1)] * arity, -1)])
        mask = (1 << 8 * width * k) - 1

        def ints(args):
            out = line([_to_int(x, width) for x in args], mask)
            return [tuple([c % m for c in _to_digits(n & mask, width, k)]) for n in out]
    else:
        line = _straight_line(program, "", None)

        def ints(args):
            lists = []
            for x in args:
                digits = [0] * _span(x)
                for mono, c in x.items():
                    digits[mono[0][1] if mono else 0] = c
                lists.append(digits)
            width = _byte_width([m - 1, *line([sum(d) for d in lists], -1)])
            out = []
            for n in line([_to_int(d, width) for d in lists], -1):
                digits = _to_digits(n, width, -(-n.bit_length() // (8 * width)))
                out.append({((0, e),) if e else (): c for e, d in enumerate(digits) if (c := d % m)})
            return out
    program.ints = ints
    return program


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
