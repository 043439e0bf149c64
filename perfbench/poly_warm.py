"""poly_warm: computing universal polynomials into a disk-backed cache, then reloading it.

A round is two passes.  In a pass, a disk-backed PolySource on a fresh
cache file (the way `cache warm` and default_source() use it) is asked for
sum, prod and neg at every index up to weight 32 and for the frob and
delta keys of weight at most 4.  Requests go in ascending weight, frob
before delta, so each call computes exactly one new polynomial (plus its
flush).  The last call of a pass opens a second PolySource on the same
file and requests every key again; it pays for the load.  Weights of 36
and above are left out because a single one of them takes longer than a
run.

Verification: the full ghost identity (the acceptance check for
universal polynomials) for every key of weight at most 24, exact integer
evaluation of the identity at two seeded random points for every key, and
identical payloads from the reloaded source.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile

from common import CEILING, OUT_DIR, canon, divisors

TAIL_PCT = 90
WARMUP_ROUNDS = 0  # every pass starts cold anyway, with a new source and file
MAX_WEIGHT = {"full": 32, "smoke": 8}
FAMILY_WEIGHT = 4
# A pass takes 13 to 25 s on the baseline machine, so a round of two passes
# makes every run of --seconds 20 measure the same work: one round.
PASSES_PER_ROUND = 2
SYMBOLIC_WEIGHT = 24


def _weight(key) -> int:
    return key[1] * max(key[2], 1)


def generate(seed: int, size: str) -> dict:
    """The keys of one pass, in request order, and the reload order."""
    rng = random.Random(seed)
    keys = [(op, n, 0) for n in range(1, MAX_WEIGHT[size] + 1) for op in ("sum", "prod", "neg")]
    keys += [(op, i, m) for m in range(1, FAMILY_WEIGHT + 1) for i in range(1, FAMILY_WEIGHT // m + 1)
             for op in ("frob", "delta")]
    # delta(e) at index n needs frob(n) at index e, of the same weight
    order = sorted(keys, key=lambda k: (_weight(k), k[0] == "delta", rng.random()))
    reload = list(order)
    rng.shuffle(reload)
    points = [[rng.randrange(-2**31, 2**31) for _ in range(2 * MAX_WEIGHT[size])] for _ in range(2)]
    return {"keys": order, "reload": reload, "points": points}


def prepare(inputs: dict) -> dict:
    """Nothing beyond the import: each pass builds its own source and cache file."""
    from wittkit.universal import PolySource, set_default_source

    # a memory-only default source, so nothing can reach the home-directory cache
    set_default_source(PolySource(cache_path=None, ceiling=CEILING))
    os.makedirs(OUT_DIR, exist_ok=True)
    return {}


def run_round(state: dict, inputs: dict, r: int, call):
    """PASSES_PER_ROUND passes, each on a fresh source and cache file."""
    from wittkit.universal import PolySource, UnivPolyKey

    for _ in range(PASSES_PER_ROUND):
        tmp = tempfile.mkdtemp(prefix="poly_warm-", dir=OUT_DIR)
        try:
            path = os.path.join(tmp, "universal-polys.txt")
            source = PolySource(cache_path=path, ceiling=CEILING)
            for i, key in enumerate(inputs["keys"]):
                ukey = UnivPolyKey(*key)
                call(i, lambda k=ukey: source.universal_poly(k))

            def reload():
                again = PolySource(cache_path=path, ceiling=CEILING)
                return {k: again.universal_poly(UnivPolyKey(*k)) for k in inputs["reload"]}

            call(len(inputs["keys"]), reload)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


# -- verification ---------------------------------------------------------------


def _eval(poly, point: dict) -> int:
    """Independent evaluation of an integer polynomial at integer values."""
    names = poly.ring.variables
    total = 0
    for mono, c in poly.value.items():
        term = c
        for v, e in mono:
            term *= point[names[v]] ** e
        total += term
    return total


def _ghost_at(n: int, values: dict, tag: str) -> int:
    return sum(d * values[f"{tag}{d}"] ** (n // d) for d in divisors(n))


def _point_ok(key, polys, values: dict, evals: dict) -> bool:
    """The ghost identity of `key`, evaluated exactly at one integer point."""

    def at(k):
        if k not in evals:
            evals[k] = _eval(polys[k], values)
        return evals[k]

    op, n, m = key
    lhs = sum(d * at((op, d, m)) ** (n // d) for d in divisors(n))
    if op == "sum":
        rhs = _ghost_at(n, values, "a") + _ghost_at(n, values, "b")
    elif op == "prod":
        rhs = _ghost_at(n, values, "a") * _ghost_at(n, values, "b")
    elif op == "neg":
        rhs = -_ghost_at(n, values, "a")
    elif op == "frob":
        rhs = _ghost_at(n * m, values, "a")
    else:  # delta(e = m) at index n equals frob(n) at index e on the ghost side
        rhs = at(("frob", m, n))
    return lhs == rhs


def _symbolic_ok(key, polys) -> bool:
    """sum over d | n of d * p_d^(n/d) equals the ghost-side right-hand side, as polynomials."""
    from wittkit.rings import PolynomialRing, Z
    from wittkit.universal import ghost_poly

    op, n, m = key
    weight = n * max(m, 1)
    tags = "ab" if op in ("sum", "prod") else "a"
    ring = PolynomialRing(Z, [f"{t}{d}" for t in tags for d in divisors(weight)])

    def lifted(p):
        return ring.convert_from(p.value, p.ring)

    acc = ring.zero
    for d in divisors(n):
        acc = ring.add(acc, ring.scalar_mul(d, ring.pow(lifted(polys[(op, d, m)]), n // d)))
    if op == "delta":
        return acc == lifted(polys[("frob", m, n)])
    wa = lifted(ghost_poly(weight if op == "frob" else n, "a"))
    if op == "sum":
        return acc == ring.add(wa, lifted(ghost_poly(n, "b")))
    if op == "prod":
        return acc == ring.mul(wa, lifted(ghost_poly(n, "b")))
    if op == "neg":
        return acc == ring.neg(wa)
    return acc == wa


def _same(p, q) -> bool:
    return p.ring.variables == q.ring.variables and p.value == q.value


def verify(state: dict, inputs: dict, outputs: dict) -> tuple[set, list]:
    keys = inputs["keys"]
    polys = {k: outputs[i] for i, k in enumerate(keys) if i in outputs}
    half = len(inputs["points"][0]) // 2
    points = [
        ({f"a{d}": raw[d - 1] for d in range(1, half + 1)}
         | {f"b{d}": raw[half + d - 1] for d in range(1, half + 1)}, {})
        for raw in inputs["points"]
    ]
    bad = set()
    for i, k in enumerate(keys):
        try:
            ok = k in polys and all(_point_ok(k, polys, values, evals) for values, evals in points)
            ok = ok and (_weight(k) > SYMBOLIC_WEIGHT or _symbolic_ok(k, polys))
        except Exception:  # a polynomial the check cannot even evaluate is wrong
            ok = False
        if not ok:
            bad.add(i)
    reloaded = outputs.get(len(keys))
    if reloaded is None or set(reloaded) != set(keys) or any(
        not _same(reloaded[k], polys[k]) for k in keys if k in polys
    ):
        bad.add(len(keys))
    items = [[list(k), list(p.ring.variables), canon(p.value)] for k, p in sorted(polys.items())]
    return bad, items


def close(state: dict):
    from wittkit.universal import set_default_source

    set_default_source(None)
