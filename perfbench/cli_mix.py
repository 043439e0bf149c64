"""cli_mix: scripted use of the command-line tool, in process.

Each call is `wittkit.cli.main(argv)` with stdout captured, as a script
that drives the tool would see it.  A round is one block of three
families of fixed composition, in a seeded order:

  laws   `laws check` runs: wittcomplex on div24 and seg16, wittring over
         Z and Z/8, comonad on div8 with target div4 over Z and Z/8;
  witt   `witt add|mul|neg|frob` on seg64 and div120 over Z (ghost path)
         and Z/8 (lift path), and the `delta` verb;
  other  `basis`, `drwz` (with `table`), `gamma`, `gamma-inv` and
         `ptypical decompose`.

The timed calls never reach the universal polynomials.  Every call must exit 0
and every law report must pass.  Arithmetic results are recomputed by a
second route where one exists (the V-basis for W_S(Z), the universal
strategy for `delta`, inverse maps for `basis`, `gamma` and `ptypical`);
the remaining verbs are compared with a direct library call, which checks
the JSON boundary.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from common import CEILING, divisors

TAIL_PCT = 99
WARMUP_ROUNDS = 0  # a round takes seconds; a cold start only touches the first window

# Per block: every laws entry (suite, set, target, base, trials, copies),
# `witt` copies of each witt variant and `other` copies of each other verb.
# Measured on a 2-core x86 machine, a full block takes about 4.6 s, split
# roughly 40/30/30 between the laws, witt and other families.  Six cheap
# wittcomplex runs on div24 put the p99 of the block inside their cluster,
# so the tail does not sit on the edge between two call kinds.
SIZES = {
    "full": {
        "blocks": 4, "witt": 12, "other": 13,
        "witt_sets": ("seg64", "div120"), "delta_set": ("div24", "div4"),
        "laws": [
            ("wittcomplex", "seg16", None, None, 1, 1),
            ("wittcomplex", "div24", None, None, 1, 6),
            ("wittring", "div24", None, "Z", 16, 1),
            ("wittring", "div24", None, "Z/8", 16, 1),
            ("comonad", "div8", "div4", "Z", 4, 1),
            ("comonad", "div8", "div4", "Z/8", 3, 1),
        ],
        "basis_set": "div120", "drw_set": "div24", "table_sets": ("div12", "div24"),
        "gamma_len": 32, "pt": [("div12", "Q", 2), ("div24", "Z/9", 3)],
    },
    "smoke": {
        "blocks": 1, "witt": 1, "other": 1,
        "witt_sets": ("seg8", "div12"), "delta_set": ("div6", "div2"),
        "laws": [
            ("wittcomplex", "div6", None, None, 1, 1),
            ("wittring", "div6", None, "Z/8", 2, 1),
            ("comonad", "div4", "div2", "Z", 2, 1),
        ],
        "basis_set": "div12", "drw_set": "div6", "table_sets": ("div6",),
        "gamma_len": 8, "pt": [("div6", "Q", 2)],
    },
}

WITT_VERBS = ("add", "mul", "neg", "frob")
OTHER_VERBS = (
    "basis-teich", "basis-from", "basis-to", "drwz-mul", "drwz-d", "drwz-frob",
    "drwz-versch", "drwz-eta", "drwz-restrict", "drwz-dlog", "drwz-table",
    "gamma", "gamma-inv", "ptypical",
)


def _members(spec: str) -> list[int]:
    if spec.startswith("seg"):
        return list(range(1, int(spec[3:]) + 1))
    return divisors(int(spec[3:]))


def _vector(spec: str, base: str, rng: random.Random, size: int = 9) -> str:
    coords = {
        str(n): (rng.randrange(int(base[2:])) if base.startswith("Z/") else rng.randint(-size, size))
        for n in _members(spec)
    }
    return json.dumps({"set": _members(spec), "base": base, "coords": coords})


def _drw(spec: str, rng: random.Random) -> str:
    members = _members(spec)
    return json.dumps({
        "set": members,
        "deg0": {str(n): rng.randint(-9, 9) for n in members},
        "deg1": {str(n): rng.randrange(n) for n in members},
    })


def _witt_call(cfg, verb: str, S: str, base: str, rng: random.Random) -> dict:
    if verb == "delta":
        S, T = cfg["delta_set"]
        return {"kind": "delta", "argv": ["delta", _vector(S, base, rng), "--target", T]}
    x = _vector(S, base, rng)
    if verb in ("add", "mul"):
        argv = ["witt", verb, x, _vector(S, base, rng)]
    elif verb == "neg":
        argv = ["witt", "neg", x]
    else:
        argv = ["witt", "frob", str(rng.choice(_members(S)[1:6])), x]
    return {"kind": "witt", "argv": argv}


def _other_call(cfg, verb: str, rng: random.Random) -> dict:
    bs, ds = cfg["basis_set"], cfg["drw_set"]
    members = _members(ds)
    if verb == "basis-teich":
        argv = ["basis", "teich", str(rng.randint(2, 9)), "--set", bs]
    elif verb == "basis-from":
        argv = ["basis", "from", _vector(bs, "Z", rng)]
    elif verb == "basis-to":
        coeffs = {str(n): rng.randint(-9, 9) for n in _members(bs)}
        argv = ["basis", "to", json.dumps({"set": _members(bs), "coeffs": coeffs})]
    elif verb == "drwz-mul":
        argv = ["drwz", "mul", _drw(ds, rng), _drw(ds, rng)]
    elif verb == "drwz-d":
        argv = ["drwz", "d", _drw(ds, rng)]
    elif verb == "drwz-frob":
        argv = ["drwz", "frob", str(rng.choice(members[1:])), _drw(ds, rng)]
    elif verb == "drwz-versch":
        m = rng.choice(members[1:])
        argv = ["drwz", "versch", str(m), _drw(f"div{members[-1] // m}", rng), "--set", ds]
    elif verb == "drwz-eta":
        coeffs = {str(n): rng.randint(-9, 9) for n in members}
        argv = ["drwz", "eta", json.dumps({"set": members, "coeffs": coeffs})]
    elif verb == "drwz-restrict":
        target = f"div{rng.choice(members[1:-1] or members)}"
        argv = ["drwz", "restrict", target, _drw(ds, rng)]
    elif verb == "drwz-dlog":
        argv = ["drwz", "dlog", "--set", bs]
    elif verb == "drwz-table":
        argv = ["drwz", "table", "--set", rng.choice(cfg["table_sets"])]
    elif verb == "gamma":
        L = cfg["gamma_len"]
        argv = ["gamma", _vector(f"seg{L}", "Z", rng, 3), "--precision", str(L)]
    elif verb == "gamma-inv":
        L = cfg["gamma_len"]
        coeffs = [1] + [rng.randint(-3, 3) for _ in range(L)]
        argv = ["gamma-inv", json.dumps({"spec": f"series(Z,{L + 1})", "value": coeffs}),
                "--length", str(L)]
    else:
        S, base, p = rng.choice(cfg["pt"])
        argv = ["ptypical", "decompose", _vector(S, base, rng), "--prime", str(p)]
    return {"kind": verb, "argv": argv}


def generate(seed: int, size: str) -> dict:
    """Blocks of identical composition, each in its own seeded order."""
    cfg = SIZES[size]
    rng = random.Random(seed)
    blocks = []
    for _ in range(cfg["blocks"]):
        calls = []
        for suite, S, T, base, trials, copies in cfg["laws"]:
            for _ in range(copies):
                argv = ["laws", "check", "--suite", suite, "--set", S, "--trials", str(trials),
                        "--seed", str(rng.randrange(10**6))]
                argv += ["--target", T] if T else []
                argv += ["--base", base] if base else []
                calls.append({"kind": "laws", "argv": argv + ["--json"]})
        variants = [(v, S) for v in WITT_VERBS for S in cfg["witt_sets"]] + [("delta", None)]
        for _ in range(cfg["witt"]):
            calls += [_witt_call(cfg, v, S, base, rng) for v, S in variants for base in ("Z", "Z/8")]
        for _ in range(cfg["other"]):
            calls += [_other_call(cfg, verb, rng) for verb in OTHER_VERBS]
        rng.shuffle(calls)
        blocks.append(calls)
    for block in blocks:
        for c in block:
            if c["kind"] != "laws":
                c["argv"] += ["--format", "json"]
    schedule = [c for block in blocks for c in block]
    return {"schedule": schedule, "width": len(blocks[0])}


def prepare(inputs: dict) -> dict:
    """Import the CLI and install a memory-only default polynomial source."""
    from wittkit import cli  # noqa: F401  (the import is part of set-up)
    from wittkit.universal import PolySource, set_default_source

    set_default_source(PolySource(cache_path=None, ceiling=CEILING))
    return {}


def _run_cli(argv: list[str]):
    from wittkit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def run_round(state: dict, inputs: dict, r: int, call):
    schedule, width = inputs["schedule"], inputs["width"]
    first = (r % (len(schedule) // width)) * width
    for i in range(first, first + width):
        call(i, lambda argv=schedule[i]["argv"]: _run_cli(argv))


# -- verification ---------------------------------------------------------------


def _strip_timing(data):
    """Law reports carry their wall time; it is not part of the result."""
    if isinstance(data, dict):
        return {k: _strip_timing(v) for k, v in data.items() if k != "elapsed_s"}
    if isinstance(data, list):
        return [_strip_timing(v) for v in data]
    return data


def _lift_mod(vec, ring):
    from wittkit.rings import Z
    from wittkit.witt import WittVector

    if ring == Z:
        return vec
    return WittVector(vec.tset, Z, tuple(ring.lift(c) for c in vec.coords))


def _via_basis(argv, x, y, ring):
    """witt add/mul/neg/frob recomputed through the V-basis of W_S(Z)."""
    from wittkit import wittint
    from wittkit.rings import Z
    from wittkit.witt import WittVector

    bx = wittint.from_coords(_lift_mod(x, ring))
    verb = argv[1]
    if verb == "add":
        out = wittint.basis_add(bx, wittint.from_coords(_lift_mod(y, ring)))
    elif verb == "mul":
        out = wittint.basis_mul(bx, wittint.from_coords(_lift_mod(y, ring)))
    elif verb == "neg":
        out = wittint.basis_neg(bx)
    else:
        out = wittint.frobenius_basis(int(argv[2]), bx)
    coords = wittint.to_coords(out)
    if ring == Z:
        return coords
    return WittVector(coords.tset, ring, tuple(ring.reduce_from_lift(c) for c in coords.coords))


def _expected_ok(c: dict, data, source) -> bool:
    """Whether one parsed CLI output is the right answer for its arguments."""
    from wittkit import drwz, ptypical, series, wittint
    from wittkit.rings import Z, element_from_json
    from wittkit.truncation import parse_truncation_set
    from wittkit.witt import delta, teichmuller, witt_from_json

    kind, argv = c["kind"], c["argv"]

    def same_json(obj) -> bool:
        return json.loads(json.dumps(obj)) == data

    if kind == "laws":
        opt = dict(zip(argv[2:-1:2], argv[3:-1:2]))  # laws check --key value ... --json
        return data.get("passed") is True and (data["suite"], data["set"], data["trials"], data["seed"]) == (
            opt["--suite"], list(parse_truncation_set(opt["--set"]).members),
            int(opt["--trials"]), int(opt["--seed"]))
    if kind == "witt":
        x = witt_from_json(json.loads(argv[3 if argv[1] == "frob" else 2]))
        y = witt_from_json(json.loads(argv[3])) if argv[1] in ("add", "mul") else None
        return witt_from_json(data) == _via_basis(argv, x, y, x.ring)
    if kind == "delta":
        x = witt_from_json(json.loads(argv[1]))
        T = parse_truncation_set(argv[3])
        return same_json(delta(x, T, strategy="universal", source=source).to_json())
    if kind == "basis-teich":
        S = parse_truncation_set(argv[4])
        return wittint.to_coords(wittint.basis_from_json(data)) == teichmuller(int(argv[2]), S, Z)
    if kind == "basis-from":
        return wittint.to_coords(wittint.basis_from_json(data)) == witt_from_json(json.loads(argv[2]))
    if kind == "basis-to":
        return wittint.from_coords(witt_from_json(data)) == wittint.basis_from_json(json.loads(argv[2]))
    if kind == "gamma":
        x = witt_from_json(json.loads(argv[1]))
        return series.gamma_inverse(element_from_json(data), int(argv[3])) == x
    if kind == "gamma-inv":
        f = element_from_json(json.loads(argv[1]))
        L = int(argv[3])
        return series.gamma(witt_from_json(data), L).value == f.value[: L + 1]
    if kind == "ptypical":
        x = witt_from_json(json.loads(argv[2]))
        comps = {int(k): witt_from_json(v) for k, v in data.items()}
        return ptypical.reassemble(comps, x.tset, int(argv[4]), x.ring) == x
    # drwz verbs: no second route, so the CLI must match the library call
    verb = argv[1]
    if verb == "eta":
        return same_json(drwz.drw_eta(wittint.basis_from_json(json.loads(argv[2]))).to_json())
    el = [drwz.drw_from_json(json.loads(a)) for a in argv[2:] if a.startswith("{")]
    if verb == "mul":
        return same_json(drwz.drw_mul(*el).to_json())
    if verb == "d":
        return same_json(drwz.drw_d(el[0]).to_json())
    if verb == "frob":
        return same_json(drwz.drw_frobenius(int(argv[2]), el[0]).to_json())
    if verb == "versch":
        return same_json(drwz.drw_verschiebung(int(argv[2]), el[0], parse_truncation_set(argv[5])).to_json())
    if verb == "restrict":
        return same_json(drwz.drw_restrict(parse_truncation_set(argv[2]), el[0]).to_json())
    if verb == "dlog":
        return same_json(drwz.dlog_minus_one(parse_truncation_set(argv[3])).to_json())
    return same_json(drwz.generator_tables(parse_truncation_set(argv[3])))


def _parsed(out) -> object:
    code, text = out
    return _strip_timing(json.loads(text)) if code == 0 else {"exit": code}


def same(a, b) -> bool:
    """Two runs of one entry agree up to the law reports' wall times."""
    return _parsed(a) == _parsed(b)


def verify(state: dict, inputs: dict, outputs: dict) -> tuple[set, list]:
    from wittkit.universal import PolySource

    source = PolySource(cache_path=None, ceiling=CEILING)
    bad, items = set(), []
    for i, c in enumerate(inputs["schedule"]):
        out = outputs[i] if i in outputs else _run_cli(c["argv"])
        data = _parsed(out)
        try:
            ok = out[0] == 0 and _expected_ok(c, data, source)
        except Exception:  # an output the check cannot even read is wrong
            ok = False
        if not ok:
            bad.add(i)
        items.append(data)
    return bad, items


def close(state: dict):
    from wittkit.universal import set_default_source

    set_default_source(None)
