"""Universal structure polynomials of the Witt functor.

The ghost polynomial at index n is w_n = sum over d|n of d*x_d^(n/d).
Requiring the ghost map to be additive/multiplicative/etc. determines,
uniquely over Z, families of integer polynomials:

    sum   s_n(a, b)     w_n(s) = w_n(a) + w_n(b)
    prod  p_n(a, b)     w_n(p) = w_n(a) * w_n(b)
    neg   i_n(a)        w_n(i) = -w_n(a)
    frob  f_{m,n}(a)    sum over d|n of d*f_{m,d}^(n/d) = w_{mn}(a)
    delta d_{e,n}(a)    sum over d|n of d*d_{e,d}^(n/d) = f_{n,e}(a)

Each family is computed by the divisor recursion, solving for the top
polynomial with an exact integer division by n.  That the division never
leaves a remainder is a theorem; a failure raises IntegralityViolation
and means this module has a bug.

Results are memoized in memory and, when a cache path is configured, in
a versioned text file with one canonically-rendered polynomial per line
(bit-exact across platforms).  PolySource.evaluate compiles a polynomial
once per target ring and keeps the program for later evaluations.
"""

from __future__ import annotations

import os
import re
import tempfile
import threading
from dataclasses import dataclass

from .errors import CacheCorrupt, CeilingExceeded, IntegralityViolation, WittkitError
from .rings import EvalProgram, PolynomialRing, Ring, RingElement, Z

DEFAULT_CEILING = 64
HARD_MAX_CEILING = 128

_CACHE_HEADER = "# wittkit universal polynomial cache v1"

_OPS = ("sum", "prod", "neg", "frob", "delta")


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
    parts = text.split(":")
    if parts[0] in ("frob", "delta") and len(parts) == 3:
        return UnivPolyKey(parts[0], int(parts[2]), int(parts[1]))
    if parts[0] in ("sum", "prod", "neg") and len(parts) == 2:
        return UnivPolyKey(parts[0], int(parts[1]))
    raise CacheCorrupt(f"bad cache key: {text!r}")


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _vars_for(weight: int, tags: str) -> list[str]:
    return [f"{tag}{d}" for tag in tags for d in _divisors(weight)]


def _poly_ring(weight: int, tags: str) -> PolynomialRing:
    return PolynomialRing(Z, _vars_for(weight, tags))


# --------------------------------------------------------------------------
# canonical text form
# --------------------------------------------------------------------------


_TERM_RE = re.compile(r"^(-?\d+)((?:\*[ab]\d+(?:\^\d+)?)*)$")


def poly_to_text(poly: RingElement) -> str:
    """Strict canonical rendering: "<coef>*a1^2*b1 + <coef>*a2 + ...".

    Terms are sorted by monomial; coefficients always explicit.
    """
    ring = poly.ring
    if not poly.value:
        return "0"
    parts = []
    for mono, c in sorted(poly.value.items()):
        factors = [str(c)]
        for v, e in mono:
            name = ring.variables[v]
            factors.append(name if e == 1 else f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def poly_from_text(text: str, ring: PolynomialRing) -> RingElement:
    text = text.strip()
    payload: dict = {}
    if text != "0":
        for part in text.split(" + "):
            m = _TERM_RE.match(part)
            if not m:
                raise CacheCorrupt(f"bad polynomial term: {part!r}")
            coef = int(m.group(1))
            mono = []
            for factor in m.group(2).split("*")[1:]:
                if "^" in factor:
                    name, e = factor.split("^")
                    mono.append((ring._index[name], int(e)))
                else:
                    mono.append((ring._index[factor], 1))
            payload[tuple(sorted(mono))] = coef
    return RingElement(ring, payload)


# --------------------------------------------------------------------------
# the polynomial source (recursion + caches)
# --------------------------------------------------------------------------


class PolySource:
    """Computes and memoizes universal polynomials up to a weight ceiling.

    Thread-safe: a lock guards the memo and program tables; disk writes
    are atomic whole-file replacements, so concurrent writers settle on
    identical content (entries are deterministic).
    """

    def __init__(self, cache_path: str | None = None, ceiling: int | None = None):
        if ceiling is None:
            ceiling = int(os.environ.get("WITTKIT_CEILING", DEFAULT_CEILING))
        if ceiling > HARD_MAX_CEILING:
            raise CeilingExceeded(f"ceiling {ceiling} above hard maximum {HARD_MAX_CEILING}")
        self.ceiling = ceiling
        self.cache_path = cache_path
        self._memo: dict[UnivPolyKey, RingElement] = {}
        # (key, target ring) -> compiled program, filled lazily by evaluate
        self._programs: dict[tuple[UnivPolyKey, Ring], EvalProgram] = {}
        self._lock = threading.Lock()
        self._dirty = False
        if cache_path and os.path.exists(cache_path):
            self._load()

    # -- public ------------------------------------------------------------
    def ghost_poly(self, n: int, tag: str = "a") -> RingElement:
        """The ghost polynomial w_n in the variables tag_d, d | n."""
        if tag not in ("a", "b"):
            raise WittkitError(f"variable tag must be 'a' or 'b': {tag!r}")
        ring = _poly_ring(n, tag)
        acc = ring.zero
        for d in _divisors(n):
            acc = ring.add(acc, ring.scalar_mul(d, ring.pow(ring.var(f"{tag}{d}"), n // d)))
        return RingElement(ring, acc)

    def universal_poly(self, key: UnivPolyKey) -> RingElement:
        poly = self._get(key)
        if self.cache_path:
            self.flush()
        return poly

    def evaluate(self, key: UnivPolyKey, values: dict, target: Ring):
        """Specialize the polynomial for `key` at `values` (names to payloads) in `target`.

        The polynomial is compiled for `target` on first use and the program
        is kept for later calls.
        """
        poly = self.universal_poly(key)
        slot = (key, target)
        with self._lock:
            program = self._programs.get(slot)
        if program is None:
            program = poly.ring.compile(poly.value, target)
            with self._lock:
                program = self._programs.setdefault(slot, program)
        return poly.ring.evaluate(poly.value, values, target, program)

    def _get(self, key: UnivPolyKey) -> RingElement:
        if key.weight > self.ceiling:
            raise CeilingExceeded(
                f"{key} has weight {key.weight}, above the ceiling {self.ceiling}"
            )
        with self._lock:
            got = self._memo.get(key)
        if got is not None:
            return got
        poly = self._compute(key)
        with self._lock:
            self._memo.setdefault(key, poly)
            self._dirty = True
        return poly

    def flush(self):
        """Write the memo table to the cache file (atomic replace)."""
        if not self.cache_path:
            return
        with self._lock:
            if not self._dirty:
                return
            entries = dict(self._memo)
            self._dirty = False
        merged = {}
        if os.path.exists(self.cache_path):
            try:
                merged = dict(self._read_file(self.cache_path))
            except CacheCorrupt:
                merged = {}
        merged.update({str(k): poly_to_text(p) for k, p in entries.items()})
        os.makedirs(os.path.dirname(self.cache_path) or ".", exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(self.cache_path) or ".")
        with os.fdopen(fd, "w") as fh:
            fh.write(_CACHE_HEADER + "\n")
            for k in sorted(merged):
                fh.write(f"{k}\t{merged[k]}\n")
        os.replace(tmp, self.cache_path)

    # -- cache file --------------------------------------------------------
    @staticmethod
    def _read_file(path: str) -> list[tuple[str, str]]:
        with open(path) as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != _CACHE_HEADER:
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
        for key_text, poly_text in self._read_file(self.cache_path):
            key = parse_key(key_text)
            ring = self._ring_for(key)
            self._memo[key] = poly_from_text(poly_text, ring)

    # -- recursion -----------------------------------------------------------
    @staticmethod
    def _ring_for(key: UnivPolyKey) -> PolynomialRing:
        if key.op in ("sum", "prod"):
            return _poly_ring(key.index, "ab")
        if key.op == "neg":
            return _poly_ring(key.index, "a")
        return _poly_ring(key.weight, "a")

    def _compute(self, key: UnivPolyKey) -> RingElement:
        ring = self._ring_for(key)
        n = key.index
        if key.op == "sum":
            wa = ring.convert_from(self.ghost_poly(n, "a").value, _poly_ring(n, "a"))
            wb = ring.convert_from(self.ghost_poly(n, "b").value, _poly_ring(n, "b"))
            rhs = ring.add(wa, wb)
        elif key.op == "prod":
            wa = ring.convert_from(self.ghost_poly(n, "a").value, _poly_ring(n, "a"))
            wb = ring.convert_from(self.ghost_poly(n, "b").value, _poly_ring(n, "b"))
            rhs = ring.mul(wa, wb)
        elif key.op == "neg":
            rhs = ring.neg(self.ghost_poly(n, "a").value)
        elif key.op == "frob":
            m = key.param
            rhs = ring.convert_from(
                self.ghost_poly(m * n, "a").value, _poly_ring(m * n, "a")
            )
        else:  # delta
            e = key.param
            f_ne = self._get(UnivPolyKey("frob", e, n))
            rhs = ring.convert_from(f_ne.value, f_ne.ring)
        acc = rhs
        for d in _divisors(n):
            if d == n:
                continue
            prev = self._get(UnivPolyKey(key.op, d, key.param))
            term = ring.pow(ring.convert_from(prev.value, prev.ring), n // d)
            acc = ring.sub(acc, ring.scalar_mul(d, term))
        try:
            payload = ring.exact_div(acc, n)
        except WittkitError as exc:
            raise IntegralityViolation(f"ghost recursion for {key} not divisible by {n}") from exc
        return RingElement(ring, payload)


_default_source: PolySource | None = None
_default_lock = threading.Lock()


def default_cache_path() -> str | None:
    env = os.environ.get("WITTKIT_CACHE")
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "wittkit", "universal-polys.txt")


def default_source() -> PolySource:
    global _default_source
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
    return default_source().ghost_poly(n, tag)


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
