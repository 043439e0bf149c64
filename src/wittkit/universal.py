"""Universal structure polynomials of the Witt functor.

The ghost polynomial at index n is w_n = sum over d|n of d*x_d^(n/d).
Requiring the ghost map to be additive/multiplicative/etc. determines,
uniquely over Z, families of integer polynomials:

    sum   s_n(a, b)     w_n(s) = w_n(a) + w_n(b)
    prod  p_n(a, b)     w_n(p) = w_n(a) * w_n(b)
    neg   i_n(a)        w_n(i) = -w_n(a)
    frob  f_{m,n}(a)    sum over d|n of d*f_{m,d}^(n/d) = w_{mn}(a)
    delta d_{e,n}(a)    sum over d|n of d*d_{e,d}^(n/d) = f_{n,e}(a)

Each polynomial is the Witt operation itself, run by the ghost strategy of
the kernel in wittkit.witt on the generic vectors a = (a_d) and b = (b_d)
over Z[a_d, b_d]: the kernel's divisor recursion solves for each
coordinate with an exact integer division.  That the division never
leaves a remainder is a theorem; a failure raises IntegralityViolation
and means this package has a bug.

Results are memoized in memory and, when a cache path is configured, in
a versioned text file: a header line, then one `key<TAB>polynomial` line
per entry in any order, each polynomial rendered canonically (bit-exact
across platforms).  The file is append-only: a flush appends the lines of
the polynomials computed since the previous flush, so each is written
once.  An append interrupted by a crash leaves a final fragment without
its newline; loading skips it and the next flush cuts it away, with a
warning on the "wittkit" logger each time.

PolySource.vector compiles the family {op:m : m in T} once per set S of
its operands and target ring into one program with one output per key
(PolySource._compile, rings.EvalProgram), and keeps it in a bounded
store (rings.Kept) that no other code shares.

Over exactly Z/m, series(Z/m,k), sz(Z/m) and dense one-variable Z/m[x]
the program runs on plain ints by Kronecker substitution
(rings.compile_int_program).  Over Z/m (any ModularRing, on either path)
its exponents are taken on the power cycle of Z/m, x^(e+lam) = x^e for
e >= k (numtheory.power_cycle): the div24 product family over Z/8 has 634
links instead of 1,212.  A program over series(Z/m,k), sz(Z/m) or Z/m[x]
keeps every exponent, since its inputs are not residues mod m.

The text codec renders each (variable, exponent) pair once per variable
list and reads each distinct factor text once per polynomial, so a term
costs a few microseconds either way: for the 112 keys of the poly_warm benchmark (124k terms, up
to weight 32) writing takes 0.3-0.5 s and reading 0.4-0.6 s, against
1.2-1.8 s to compute them (Python 3.11 on a shared 2-vCPU VM).
"""

from __future__ import annotations

import fcntl
import os
import re
import threading
from dataclasses import dataclass
from functools import lru_cache, partial

from .errors import (
    BudgetExceeded,
    CacheCorrupt,
    CeilingExceeded,
    IntegralityViolation,
    NotInGhostImage,
    WittkitError,
)
from .numtheory import divisors
from .rings import (
    EvalProgram,
    Kept,
    PolynomialRing,
    Ring,
    RingElement,
    Z,
    compile_int_program,
    compile_program,
    runs_on_ints,
)
from .truncation import TruncationSet, divisors_of
from .witt import WittVector, delta_component, frobenius, ghost, witt_add, witt_mul, witt_neg

DEFAULT_CEILING = 64
HARD_MAX_CEILING = 128
# The most terms (`term_bound`) and work (`work_bound`) a polynomial may have a
# priori to be computed: both depend on the divisors of the weight, not its size.
TERM_BUDGET = 5 * 10**6
WORK_BUDGET = 2 * 10**8

_CACHE_HEADER = "# wittkit universal polynomial cache v1"

_OPS = ("sum", "prod", "neg", "frob", "delta")


def _warn(message: str, *args):
    """Log a cache event as a warning on the "wittkit" logger.

    A NullHandler keeps it silent unless the application configures
    logging.  logging is imported on the first event, not with the package:
    importing it adds about 5 ms to every start-up, some 10% of the CLI's.
    """
    import logging

    log = logging.getLogger("wittkit")
    if not log.handlers:
        log.addHandler(logging.NullHandler())
    log.warning(message, *args)


@dataclass(frozen=True)
class UnivPolyKey:
    """Identifies one universal polynomial.

    op is one of "sum" / "prod" / "neg" (param unused, 0), "frob" (param
    is the Frobenius index m) or "delta" (param is the component index e).
    index is the coordinate n the polynomial computes.
    """

    op: str
    index: int
    param: int = 0

    def __post_init__(self):
        if self.op not in _OPS:
            raise WittkitError(f"unknown operation {self.op!r}")
        if self.index < 1:
            raise WittkitError(f"index must be >= 1: {self.index}")
        if self.op in ("frob", "delta") and self.param < 1:
            raise WittkitError(f"{self.op} parameter must be >= 1: {self.param}")

    @property
    def weight(self) -> int:
        """Largest ghost index the recursion for this key touches."""
        if self.op in ("frob", "delta"):
            return self.index * self.param
        return self.index

    def __str__(self) -> str:
        if self.op in ("frob", "delta"):
            return f"{self.op}:{self.param}:{self.index}"
        return f"{self.op}:{self.index}"


def parse_key(text: str) -> UnivPolyKey:
    """The key whose str() is `text`; any other text, such as "sum:03" or "sum:+3", is CacheCorrupt."""
    parts = text.split(":")
    key = None
    try:
        if parts[0] in ("frob", "delta") and len(parts) == 3:
            key = UnivPolyKey(parts[0], int(parts[2]), int(parts[1]))
        elif parts[0] in ("sum", "prod", "neg") and len(parts) == 2:
            key = UnivPolyKey(parts[0], int(parts[1]))
    except (ValueError, WittkitError):  # not a number, or an index of 0
        pass
    if key is None or str(key) != text:  # int() also takes "+3", "03", " 3" and "3_0"
        raise CacheCorrupt(f"bad cache key: {text!r}")
    return key


@lru_cache(maxsize=1024)  # read by check, before a key is computed or its family compiled
def term_bound(op: str, w: int) -> int:
    """The most monomials a polynomial of operation `op` and weight `w` can have.

    It is isobaric of weight w in the a_d (and b_d), d | w.  With c(k) the
    partitions of k into divisors of w, that is c(w) monomials, c(w)^2 for
    prod (weight w in a and in b), and the sum of c(k)*c(w-k) for sum
    (weight w in a and b together).
    """
    c = [1] + [0] * w
    for d in divisors(w):
        for k in range(d, w + 1):
            c[k] += c[k - d]
    if op == "prod":
        return c[w] ** 2
    if op == "sum":
        return sum(c[k] * c[w - k] for k in range(w + 1))
    return c[w]


@lru_cache(maxsize=1024)  # read by check, before a key is computed or its family compiled
def work_bound(op: str, w: int) -> int:
    """The work of computing a polynomial of operation `op` and weight `w`, a priori: the recursion
    multiplies powers of the coordinates at the proper divisors of w, so their squared term bounds."""
    return max((term_bound(op, d) ** 2 for d in divisors(w)[:-1]), default=0)


@lru_cache(maxsize=1024)  # read per polynomial ring, generic vector and compiled family
def _var_names(tag: str, ds: tuple[int, ...]) -> tuple[str, ...]:
    """The variables tag_d for d in ds: a_d name the coordinates of x, b_d those of y."""
    return tuple(f"{tag}{d}" for d in ds)


def _tags(op: str) -> str:
    """The variable tags of an operation's polynomials: a_d, and b_d for the binary ones."""
    return "ab" if op in ("sum", "prod") else "a"


@lru_cache(maxsize=512)  # one ring per (weight, tags), with its constants built once
def _poly_ring(weight: int, tags: str) -> PolynomialRing:
    return PolynomialRing(Z, [name for tag in tags for name in _var_names(tag, divisors(weight))])


def key_family(op: str, param: int, T: TruncationSet) -> tuple[UnivPolyKey, ...]:
    """UnivPolyKey(op, m, param) for each m in T, lightest first."""
    return tuple(UnivPolyKey(op, m, param) for m in T.members)


# --------------------------------------------------------------------------
# canonical text form
# --------------------------------------------------------------------------


# a coefficient of the canonical form: nonzero, no sign but "-", no leading zero
_COEF_RE = re.compile(r"-?[1-9]\d*")
# a factor: a variable, then an exponent above 1 or none
_FACTOR_RE = re.compile(r"([ab]\d+)(?:\^([2-9]|[1-9]\d+))?")


class _Pieces(dict):
    """The text of each (variable, exponent) pair in a term, "*name" or "*name^e", filled lazily.

    Equal entries are all a race can add.
    """

    def __init__(self, names: tuple[str, ...]):
        super().__init__()
        self.names = names

    def __missing__(self, pair) -> str:
        v, e = pair
        text = self[pair] = f"*{self.names[v]}" if e == 1 else f"*{self.names[v]}^{e}"
        return text


@lru_cache(maxsize=512)  # one table per variable list, as _poly_ring keeps one ring per list
def _pieces(names: tuple[str, ...]):
    return _Pieces(names).__getitem__


class _Factors(dict):
    """The (variable, exponent) pair of each factor text of a ring, filled lazily.

    A new text is validated once; its pair is interned in the ring's pair
    table, so loaded monomials share pairs with those of the ring's products.
    """

    def __init__(self, ring: PolynomialRing):
        super().__init__()
        self.ring = ring

    def __missing__(self, text: str) -> tuple:
        m = _FACTOR_RE.fullmatch(text)
        if not m:
            raise CacheCorrupt(f"bad polynomial factor: {text!r}")
        v = self.ring._index.get(m.group(1))
        if v is None:
            raise CacheCorrupt(f"variable {m.group(1)!r} is not in {self.ring}")
        pair = (v, int(m.group(2) or 1))
        pair = self[text] = self.ring._pairs.setdefault(pair, pair)
        return pair


def poly_to_text(poly: RingElement) -> str:
    """Strict canonical rendering: "<coef>*a1^2*b1 + <coef>*a2 + ...".

    Terms are sorted by monomial; coefficients always explicit.  Each
    (variable, exponent) pair is rendered once per variable list.
    """
    value = poly.value
    if not value:
        return "0"
    piece = _pieces(poly.ring.variables)
    return " + ".join([str(value[mono]) + "".join(map(piece, mono)) for mono in sorted(value)])


def poly_from_text(text: str, ring: PolynomialRing) -> RingElement:
    """The inverse of poly_to_text: any other text, a monomial twice included, is CacheCorrupt.

    Each distinct factor text is validated once per call.
    """
    parts = text.strip().split(" + ")
    payload: dict = {}
    if parts == ["0"]:
        return RingElement(ring, payload)
    coef_ok, factors = _COEF_RE.fullmatch, _Factors(ring)
    for part in parts:
        coef, *names = part.split("*")
        if not coef_ok(coef):
            raise CacheCorrupt(f"bad polynomial term: {part!r}")
        mono, last = [], -1
        for name in names:
            pair = factors[name]
            if pair[0] <= last:
                raise CacheCorrupt(f"factors out of order in the term {part!r}")
            last = pair[0]
            mono.append(pair)
        payload[tuple(mono)] = int(coef)
    if len(payload) < len(parts):
        raise CacheCorrupt(f"a monomial occurs twice in a polynomial of {ring}")
    return RingElement(ring, payload)


# --------------------------------------------------------------------------
# the polynomial source (recursion + caches)
# --------------------------------------------------------------------------


class PolySource:
    """Computes and memoizes universal polynomials up to a weight ceiling.

    `vector` evaluates a whole key family with one program per family and
    target ring (its class and spec), compiled on first use from the
    polynomials `universal_poly` returns, so a subclass that overrides it
    changes what `vector` computes.  The programs live in a bounded store.

    Thread-safe: a lock guards the memo, program and pending tables.  The
    cache file is append-only: every flush appends the polynomials
    computed since the last one, in one write under an exclusive flock, so
    sources in several threads or processes can share one file.  Entries
    are deterministic, so two lines for one key must agree; a file where
    they differ is corrupt.
    """

    def __init__(self, cache_path: str | None = None, ceiling: int | None = None):
        if ceiling is None:
            env = os.environ.get("WITTKIT_CEILING", str(DEFAULT_CEILING))
            try:
                ceiling = int(env)
            except ValueError:
                raise CeilingExceeded(f"WITTKIT_CEILING must be an integer, not {env!r}") from None
        if ceiling > HARD_MAX_CEILING:
            raise CeilingExceeded(f"ceiling {ceiling} above hard maximum {HARD_MAX_CEILING}")
        self.ceiling = ceiling
        self.cache_path = cache_path
        self._memo: dict[UnivPolyKey, RingElement] = {}
        # (op, param, S, ring class, ring, ints) of a family `vector` reads ->
        # its program on the coordinates of vectors over S, compiled on first
        # use, to run on ints if `ints`, and charged `_charge`: S fixes both
        # the family and the input positions, and rings compare by spec, so
        # the class keeps a subclass from running another's program.
        self._programs = Kept()
        self._lock = threading.Lock()
        # (key, polynomial) computed here and not yet appended to the file
        self._pending: list[tuple[UnivPolyKey, RingElement]] = []
        if cache_path and os.path.exists(cache_path):
            self._load()

    # -- public ------------------------------------------------------------
    def universal_poly(self, key: UnivPolyKey) -> RingElement:
        """The polynomial for `key`: memoized, or checked and then computed.

        The check bounds computation, so a memoized key, computed here or
        read from the cache file, is returned unchecked.  `vector` checks its
        keys itself when it compiles a program, so the read path checks each
        key once per family and ring.
        """
        with self._lock:
            poly = self._memo.get(key)
        if poly is None:
            self.check(key)
            poly = self._compute(key)
            with self._lock:
                if self._memo.setdefault(key, poly) is poly and self.cache_path:
                    self._pending.append((key, poly))
        if self.cache_path:
            self.flush()
        return poly

    def vector(self, op: str, param: int, T: TruncationSet, x: WittVector,
               y: WittVector | None = None) -> WittVector:
        """The vector over T whose coordinate at m is UnivPolyKey(op, m, param) at x (a_d) and y (b_d).

        T is x's set S for sum, prod and neg and S/param for frob and delta,
        so S fixes the family; a key of weight w reads only a_d, b_d for d | w.
        One lookup finds the family's program for S and x's ring, and one
        run of it on the coordinates of x, then those of y, gives every
        coordinate; a miss compiles the program (`_compile`).  The program
        runs on ints where `rings.runs_on_ints` holds for the ring and the
        coordinates (`rings.compile_int_program`).  The path is part of the
        slot and chosen before the lookup, so a miss compiles only the
        program that runs."""
        ring, S, coords = x.ring, x.tset, x.coords
        if y is not None:
            coords += y.coords
        ints = runs_on_ints(ring, coords)
        slot = (op, param, S, type(ring), ring, ints)
        with self._lock:
            program = self._programs.get(slot)
        if program is None:
            program = self._compile(op, param, T, S, ring, ints)
            with self._lock:
                program = self._programs.get(slot) or self._programs.keep(slot, program, _charge(program))
        return WittVector(T, ring, tuple(program.run(coords)))

    def _compile(self, op: str, param: int, T: TruncationSet, S: TruncationSet, ring: Ring,
                 ints: bool) -> EvalProgram:
        """The program of the family {UnivPolyKey(op, m, param) : m in T} for `ring`, one output per key,
        on the coordinates of vectors over S, to run on ints if `ints` (`rings.compile_int_program`).

        Every key is checked, heaviest first, before any is computed.  The
        ceiling and the budgets never change, so a family with a program is
        not checked again for its ring, and a refused one never gets a
        program: it is refused on every call.  Each polynomial is fetched
        through `universal_poly`, and its variable a_d is input S.index(d)
        of the program, b_d input |S| + S.index(d).  Sum and product
        programs split at |S|, the first b_d, so they have one row per
        monomial in the a_d, and each constant in a row multiplies the sum
        of its monomials in the b_d; any other program is one row per
        output.
        """
        keys = key_family(op, param, T)
        for key in reversed(keys):
            self.check(key)
        tags = _tags(op)
        place = {name: i for i, name in enumerate(name for tag in tags for name in _var_names(tag, S.members))}
        outputs = []
        for key in keys:
            poly = self.universal_poly(key)
            outputs.append((poly.value, [place[name] for name in poly.ring.variables]))
        split = len(S) if tags == "ab" else 0
        return (compile_int_program if ints else compile_program)(len(place), outputs, ring, split)

    def check(self, key: UnivPolyKey):
        """Refuse a key above the weight ceiling, then one past the term or the work budget."""
        weight = key.weight
        if weight > self.ceiling:
            raise CeilingExceeded(f"{key} has weight {weight}, above the ceiling {self.ceiling}")
        bound = term_bound(key.op, weight)
        if bound > TERM_BUDGET:
            raise BudgetExceeded(f"{key} may have {bound} terms, above the term budget {TERM_BUDGET}")
        work = work_bound(key.op, weight)
        if work > WORK_BUDGET:
            raise BudgetExceeded(f"{key} has the work bound {work}, above the work budget {WORK_BUDGET}")

    def flush(self):
        """Append the polynomials computed since the last flush to the cache file.

        One write under an exclusive flock.  The header goes first only when
        the file is empty, and an interrupted final entry is cut away before
        appending.  If the write fails, the entries stay pending.
        """
        if not self.cache_path:
            return
        with self._lock:
            pending, self._pending = self._pending, []
        if not pending:
            return
        data = "".join(f"{key}\t{poly_to_text(poly)}\n" for key, poly in pending).encode()
        try:
            os.makedirs(os.path.dirname(self.cache_path) or ".", exist_ok=True)
            with open(self.cache_path, "a+b") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)
                size = fh.seek(0, os.SEEK_END)
                end = _complete_length(fh, size)
                if end < size:
                    _warn("cache %s: truncating an interrupted final entry of %d bytes",
                          self.cache_path, size - end)
                    fh.truncate(end)
                if end == 0:
                    data = (_CACHE_HEADER + "\n").encode() + data
                fh.write(data)
                fh.flush()  # before closing the file releases the lock
        except BaseException:
            with self._lock:
                self._pending[:0] = pending
            raise

    # -- cache file --------------------------------------------------------
    def _read_file(self) -> list[tuple[str, str]]:
        """The (key, polynomial) texts of the complete lines, read under a shared flock.

        A final fragment without its newline is an interrupted append: it is
        skipped, never parsed, since a cut at a term boundary still parses.
        """
        path = self.cache_path
        try:
            with open(path, encoding="ascii") as fh:
                fcntl.flock(fh, fcntl.LOCK_SH)
                lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise CacheCorrupt(f"cache {path} is not ASCII text") from exc
        torn = lines.pop()  # "" when the file ends in a newline, as a complete one does
        if torn:
            _warn("cache %s: skipping an interrupted final entry of %d bytes",
                  path, len(torn))
        if not lines:  # empty, or holding only an interrupted first append
            return []
        if lines[0] != _CACHE_HEADER:
            raise CacheCorrupt(f"bad cache header in {path}")
        out = []
        for line in lines[1:]:
            if not line.strip():
                continue
            if "\t" not in line:
                raise CacheCorrupt(f"bad cache line: {line!r}")
            k, v = line.split("\t", 1)
            out.append((k, v))
        return out

    def _load(self):
        texts: dict[UnivPolyKey, str] = {}
        for key_text, poly_text in self._read_file():
            key = parse_key(key_text)
            if key in texts:
                if texts[key] != poly_text:
                    raise CacheCorrupt(f"two different polynomials for {key} in {self.cache_path}")
                continue
            texts[key] = poly_text
            self._memo[key] = poly_from_text(poly_text, _poly_ring(key.weight, _tags(key.op)))

    # -- computation -------------------------------------------------------
    def _compute(self, key: UnivPolyKey) -> RingElement:
        """Coordinate key.index of the key's operation, run by the ghost kernel on the generic vectors."""
        op = {"sum": witt_add, "prod": witt_mul, "neg": witt_neg,
              "frob": partial(frobenius, key.param),
              "delta": partial(delta_component, key.param)}[key.op]
        try:
            out = op(*_generic(key.weight, _tags(key.op)), strategy="ghost")
        except NotInGhostImage as exc:
            raise IntegralityViolation(f"ghost recursion for {key}: {exc}") from exc
        return RingElement(out.ring, out.coord(key.index))


def _charge(program: EvalProgram) -> int:
    """A program's charge in `PolySource._programs`: its links plus the slots its rows read,
    which predict its memory within about 4x (74-305 bytes per unit)."""
    return len(program.links) + sum(len(parts) for rows in program.outputs for _, groups in rows
                                    for _, parts in groups)


@lru_cache(maxsize=512)  # immutable, like the rings of _poly_ring
def _generic(weight: int, tags: str) -> tuple[WittVector, ...]:
    """The generic vectors (tag_d | d divides weight) over _poly_ring(weight, tags), one per tag."""
    S, ring = divisors_of(weight), _poly_ring(weight, tags)
    return tuple(WittVector(S, ring, tuple(map(ring.var, _var_names(tag, S.members)))) for tag in tags)


def _complete_length(fh, size: int) -> int:
    """Length of the open binary file `fh` (of `size` bytes) through its last newline."""
    pos, step = size, 1  # a complete file ends in a newline: one byte settles it
    while pos:
        step = min(step, pos)
        fh.seek(pos - step)
        cut = fh.read(step).rfind(b"\n")
        if cut >= 0:
            return pos - step + cut + 1
        pos -= step
        step = 1 << 16
    return 0


_default_source: PolySource | None = None
_default_lock = threading.Lock()


def default_cache_path() -> str | None:
    env = os.environ.get("WITTKIT_CACHE")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "wittkit", "universal-polys.txt")


def default_source() -> PolySource:
    """The process-wide PolySource, created on first use: once set, it is read without the lock."""
    global _default_source
    source = _default_source
    if source is not None:
        return source
    with _default_lock:
        if _default_source is None:
            _default_source = PolySource(cache_path=default_cache_path())
        return _default_source


def set_default_source(source: PolySource | None):
    """Replace the process-wide source (mainly for tests and the CLI)."""
    global _default_source
    with _default_lock:
        _default_source = source


def ghost_poly(n: int, tag: str = "a") -> RingElement:
    """The ghost polynomial w_n in the variables tag_d, d | n: the top ghost component of (tag_d)."""
    if tag not in ("a", "b"):
        raise WittkitError(f"variable tag must be 'a' or 'b': {tag!r}")
    (x,) = _generic(n, tag)
    return RingElement(x.ring, ghost(x).value(n))


def universal_poly(key: UnivPolyKey) -> RingElement:
    return default_source().universal_poly(key)


def specialize(poly: RingElement, assignment, target) -> RingElement:
    """Evaluate a universal polynomial at RingElement values in `target`."""
    values = {}
    for name, el in assignment.items():
        if isinstance(el, RingElement):
            if el.ring != target:
                raise WittkitError(f"assignment for {name} lies in {el.ring}, not {target}")
            values[name] = el.value
        else:
            values[name] = el
    return RingElement(target, poly.ring.evaluate(poly.value, values, target))


def warm_cache(up_to: int, source: PolySource | None = None) -> int:
    """Precompute sum/prod/neg polynomials for every index up to a bound."""
    src = source or default_source()
    count = 0
    for n in range(1, up_to + 1):
        for op in ("sum", "prod", "neg"):
            src.universal_poly(UnivPolyKey(op, n))
            count += 1
    return count
