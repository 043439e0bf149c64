"""universal_torsion: Witt arithmetic over torsion bases through universal polynomials.

Calls witt_mul, witt_add, witt_neg, frobenius and delta_component with
strategy="universal" over Z/8, Z/9, series(Z/2,3) and Z/3[x] on div12 and
Z/8 on div24.  A round is one block of the mix below.  Every polynomial
the schedule needs is computed during set-up into a fresh memory-only PolySource, so the timed phase exercises
only the read path of the universal layer (memo lookup and
PolynomialRing.evaluate) and the payload arithmetic of the base rings.
Each result is checked against the lift strategy, which computes on the
torsion-free cover by a different route.
"""

from __future__ import annotations

import random

from common import CEILING, canon, divisors

TAIL_PCT = 99
WARMUP_ROUNDS = 10  # about a second: the first calls of a process are slower
OPS = ("mul", "add", "neg", "frob", "delta")
# (base, N, copies per block): the div12 bases twice and Z/8 over div24 once
# per block, so one block is 45 calls and the 99th percentile falls near
# the median of the slowest kind of call (witt_mul over div24).
BASES = {
    "full": [
        ("Z/8", 12, 2), ("Z/9", 12, 2), ("series(Z/2,3)", 12, 2), ("Z/3[x]", 12, 2), ("Z/8", 24, 1),
    ],
    "smoke": [("Z/8", 6, 1), ("Z/9", 4, 1), ("series(Z/2,3)", 4, 1), ("Z/3[x]", 4, 1), ("Z/8", 8, 1)],
}
BLOCKS = {"full": 20, "smoke": 2}


def _payload(spec: str, rng: random.Random):
    """A random base-ring element in the ring's JSON form."""
    if spec.startswith("series("):
        return [rng.randrange(2) for _ in range(3)]
    if spec == "Z/3[x]":
        terms = [[[["x", e]] if e else [], rng.randrange(1, 3)] for e in range(3) if rng.random() < 0.7]
        return terms
    return rng.randrange(int(spec[2:]))


def generate(seed: int, size: str) -> dict:
    """The call schedule: blocks of the same (base, op) mix, each in its own seeded order."""
    rng = random.Random(seed)
    schedule = []
    pairs = [(spec, n, op) for spec, n, copies in BASES[size] for op in OPS for _ in range(copies)]
    for _ in range(BLOCKS[size]):
        rng.shuffle(pairs)
        for spec, n, op in pairs:
            members = divisors(n)
            param = rng.choice(members[1:]) if op in ("frob", "delta") else 0
            x = [_payload(spec, rng) for _ in members]
            y = [_payload(spec, rng) for _ in members] if op in ("mul", "add") else None
            schedule.append({"base": spec, "N": n, "op": op, "param": param, "x": x, "y": y})
    return {"schedule": schedule, "width": len(pairs)}


def needed_keys(schedule) -> list[tuple]:
    """(op, index, param) of every polynomial the schedule evaluates."""
    keys = set()
    for c in schedule:
        n, op, m = c["N"], c["op"], c["param"]
        if op in ("mul", "add", "neg"):
            fam = {"mul": "prod", "add": "sum", "neg": "neg"}[op]
            keys.update((fam, d, 0) for d in divisors(n))
        elif op == "frob":
            keys.update(("frob", d, m) for d in divisors(n // m))
        else:
            keys.update(("delta", d, m) for d in divisors(n // m))
    return sorted(keys, key=lambda k: (k[1] * max(k[2], 1), k))


def prepare(inputs: dict) -> dict:
    """Install a fresh memory-only default source holding every needed polynomial."""
    from wittkit.universal import PolySource, UnivPolyKey, set_default_source

    source = PolySource(cache_path=None, ceiling=CEILING)
    set_default_source(source)
    for op, index, param in needed_keys(inputs["schedule"]):
        source.universal_poly(UnivPolyKey(op, index, param))
    return {"source": source}


def build(state: dict, inputs: dict):
    """Turn the generated payloads into library vectors (bench-side, untimed)."""
    from wittkit.rings import parse_ring
    from wittkit.truncation import divisors_of
    from wittkit.witt import WittVector

    rings, sets, vecs = {}, {}, []
    for c in inputs["schedule"]:
        ring = rings.setdefault(c["base"], parse_ring(c["base"]))
        S = sets.setdefault(c["N"], divisors_of(c["N"]))
        x = WittVector(S, ring, tuple(ring.from_json(v) for v in c["x"]))
        y = WittVector(S, ring, tuple(ring.from_json(v) for v in c["y"])) if c["y"] else None
        vecs.append((x, y))
    state["vectors"] = vecs


def _apply(c: dict, x, y, strategy: str):
    from wittkit import witt

    op = c["op"]
    if op == "mul":
        return witt.witt_mul(x, y, strategy)
    if op == "add":
        return witt.witt_add(x, y, strategy)
    if op == "neg":
        return witt.witt_neg(x, strategy)
    if op == "frob":
        return witt.frobenius(c["param"], x, strategy)
    return witt.delta_component(c["param"], x, strategy)


def run_round(state: dict, inputs: dict, r: int, call):
    """One block of the schedule, in its seeded order."""
    schedule, vecs, width = inputs["schedule"], state["vectors"], inputs["width"]
    first = (r % (len(schedule) // width)) * width
    for i in range(first, first + width):
        c, (x, y) = schedule[i], vecs[i]
        call(i, lambda c=c, x=x, y=y: _apply(c, x, y, "universal"))


def _canon_vector(v) -> list:
    return [list(v.tset.members), str(v.ring), canon(v.coords)]


def verify(state: dict, inputs: dict, outputs: dict) -> tuple[set, list]:
    """Compare every result with the lift strategy; digest the whole schedule."""
    bad, items = set(), []
    for i, c in enumerate(inputs["schedule"]):
        x, y = state["vectors"][i]
        want = _apply(c, x, y, "lift")
        if i in outputs and outputs[i] != want:
            bad.add(i)
        items.append(_canon_vector(want))
    return bad, items


def close(state: dict):
    from wittkit.universal import set_default_source

    set_default_source(None)
