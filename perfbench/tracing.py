"""Traced runs: wrappers around the public entry points of each layer.

Only a traced run installs these wrappers, and it installs them from here,
outside the library.  Every wrapped call pushes a frame on one stack; a
frame's self time is its duration minus the durations of the wrapped
calls it made.  Calls at moderate rates are also kept as spans (name,
start, end, parent span, workload call id) in memory and written out when
the run ends.  The hottest leaf calls are timed or counted but not kept
as spans, so a run's span store stays small.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from array import array

SPAN, FRAME, COUNT = "span", "frame", "count"


def _stat(path):
    try:
        st = os.stat(path)
    except (OSError, TypeError):
        return None
    return st.st_ino, st.st_size


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.call_id = -1
        self._stack: list = []  # frames: [name_id, start, child_time]
        self._span_stack: list[int] = []
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_call = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.t0 = time.perf_counter()
        self.reset()
        self._patches: list = []
        self.missing: list[str] = []
        self._root = self.wrap(lambda thunk: thunk(), "call", SPAN)

    # -- aggregates ---------------------------------------------------------
    def reset(self):
        """Start a new aggregation bucket (spans already kept are retained)."""
        self.calls: list[int] = [0] * len(self.names)
        self.total_s: list[float] = [0.0] * len(self.names)
        self.self_s: list[float] = [0.0] * len(self.names)
        self._depth: list[int] = [0] * len(self.names)
        self.extra: dict[str, float] = {}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            for col in (self.calls, self._depth):
                col.append(0)
            for col in (self.total_s, self.self_s):
                col.append(0.0)
        return nid

    def add(self, key: str, amount: float):
        self.extra[key] = self.extra.get(key, 0) + amount

    def stats(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds of outermost calls, self seconds)."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total_s[nid], self.self_s[nid]

    # -- wrapping -----------------------------------------------------------
    def wrap(self, fn, name: str, mode: str, pre=None, post=None):
        nid = self._id(name)

        if mode == COUNT:
            def counted(*args, **kwargs):
                self.calls[nid] += 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted

        record = mode == SPAN
        stack = self._stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            token = pre(self, args) if pre else None
            depth = self._depth
            depth[nid] += 1
            frame = [nid, 0.0, 0.0]
            if record:
                span = len(self.sp_name)
                parent = self._span_stack[-1] if self._span_stack else -1
                self._span_stack.append(span)
            stack.append(frame)
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[nid] -= 1
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                self.calls[nid] += 1
                self.self_s[nid] += dur - frame[2]
                if not depth[nid]:
                    self.total_s[nid] += dur
                if record:
                    self._span_stack.pop()
                    self.sp_name.append(nid)
                    self.sp_parent.append(parent)
                    self.sp_call.append(self.call_id)
                    self.sp_start.append(start - self.t0)
                    self.sp_end.append(end - self.t0)
            if post:
                result = post(self, token, args, result)
            return result

        timed.__wrapped__ = fn
        return timed

    def run_call(self, call_id: int, thunk):
        """Run one workload call as the root span of its call id."""
        self.call_id = call_id
        return self._root(thunk)

    def install(self, targets, modules):
        """Patch every target; `modules` are searched for re-exported names."""
        for owner, attr, name, mode, pre, post in targets:
            orig = getattr(owner, attr, None)
            if orig is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            wrapped = self.wrap(orig, name, mode, pre, post)
            if isinstance(owner, type):
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def write(self, path: str):
        data = {
            "names": self.names,
            "time_unit": "s since tracer start",
            "spans": {
                "name": list(self.sp_name),
                "start": [round(v, 9) for v in self.sp_start],
                "end": [round(v, 9) for v in self.sp_end],
                "parent": list(self.sp_parent),
                "call_id": list(self.sp_call),
            },
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh, separators=(",", ":"))


# -- hooks that read the state a wrapped call leaves behind --------------------


def _flush_pre(tracer, args):
    return _stat(getattr(args[0], "cache_path", None))


def _flush_post(tracer, before, args, result):
    after = _stat(getattr(args[0], "cache_path", None))
    if after and after != before:
        # a replaced file (new inode) was written whole; an appended one grew
        grown = after[1] if before is None or after[0] != before[0] else after[1] - before[1]
        tracer.add("universal.flush.bytes", max(grown, 0))
    return result


def _load_pre(tracer, args):
    st = _stat(getattr(args[0], "cache_path", None))
    tracer.add("universal.load.bytes", st[1] if st else 0)


def _compute_post(tracer, token, args, result):
    tracer.add("universal.terms", len(getattr(result, "value", ()) or ()))
    return result


def _laws_post(tracer, token, args, report):
    tracer.add("laws.checks", sum(r.checked for r in getattr(report, "results", ())))
    return report


def _parser_post(tracer, token, args, parser):
    parser.parse_args = tracer.wrap(parser.parse_args, "cli.parse", FRAME)
    return parser


def targets():
    """(owner, attribute, span name, mode, pre, post) for every traced entry point.

    The span names are the layer names used by the per-layer metrics.
    """
    from wittkit import cli, drwz, laws, rings, truncation, universal, witt, wittint

    src = universal.PolySource
    return [
        (rings.PolynomialRing, "evaluate", "rings.evaluate", SPAN, None, None),
        (rings.PolynomialRing, "mul", "rings.poly_mul", FRAME, None, None),
        (rings.SeriesRing, "mul", "rings.series_mul", FRAME, None, None),
        (src, "universal_poly", "universal.lookup", SPAN, None, None),
        (src, "_compute", "universal.compute", SPAN, None, _compute_post),
        (src, "flush", "universal.flush", SPAN, _flush_pre, _flush_post),
        (src, "_load", "universal.load", SPAN, _load_pre, None),
        (witt, "witt_add", "witt.add", SPAN, None, None),
        (witt, "witt_mul", "witt.mul", SPAN, None, None),
        (witt, "witt_neg", "witt.neg", SPAN, None, None),
        (witt, "frobenius", "witt.frobenius", SPAN, None, None),
        (witt, "delta_component", "witt.delta_component", SPAN, None, None),
        (witt, "ghost", "witt.ghost", SPAN, None, None),
        (witt, "from_ghost", "witt.from_ghost", SPAN, None, None),
        (truncation.TruncationSet, "index", "truncation.index", COUNT, None, None),
        (truncation.TruncationSet, "quotient", "truncation.quotient", FRAME, None, None),
        (wittint, "basis_mul", "wittint.basis_mul", FRAME, None, None),
        (wittint, "to_coords", "wittint.coords", SPAN, None, None),
        (wittint, "from_coords", "wittint.coords", SPAN, None, None),
        (drwz.DrwComplex, "mul", "drwz.mul", FRAME, None, None),
        (drwz.DrwComplex, "frobenius", "drwz.frobenius", FRAME, None, None),
        (drwz, "generator_tables", "drwz.table", SPAN, None, None),
        (laws, "check_witt_complex", "laws.suite", SPAN, None, _laws_post),
        (laws, "check_comonad", "laws.suite", SPAN, None, _laws_post),
        (laws, "check_witt_ring", "laws.suite", SPAN, None, _laws_post),
        (cli, "main", "cli.main", SPAN, None, None),
        (cli, "build_parser", "cli.parse", FRAME, None, _parser_post),
    ]


def wittkit_modules():
    """Every loaded wittkit module, where re-exported names are patched too."""
    return [m for n, m in sys.modules.items() if (n == "wittkit" or n.startswith("wittkit.")) and m]


_ARITH = ("witt.add", "witt.mul", "witt.neg", "witt.frobenius", "witt.delta_component")


def layer_metrics(tr: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics of the timed phase, each per workload call."""
    n = max(ops, 1)

    def calls(name):
        return tr.stats(name)[0] / n

    def total(name):
        return tr.stats(name)[1] / n

    def self_s(name):
        return tr.stats(name)[2] / n

    suite_s = tr.stats("laws.suite")[1]
    checks = tr.extra.get("laws.checks", 0)
    return {
        "rings.evaluate.calls": calls("rings.evaluate"),
        "rings.evaluate.self_s": self_s("rings.evaluate"),
        "rings.series_mul.calls": calls("rings.series_mul"),
        "rings.series_mul.s": total("rings.series_mul"),
        "rings.poly_mul.calls": calls("rings.poly_mul"),
        "rings.poly_mul.s": total("rings.poly_mul"),
        "universal.lookup.calls": calls("universal.lookup"),
        "universal.lookup.s": total("universal.lookup"),
        "universal.compute.count": calls("universal.compute"),
        "universal.compute.s": total("universal.compute"),
        "universal.terms": tr.extra.get("universal.terms", 0) / n,
        "universal.flush.calls": calls("universal.flush"),
        "universal.flush.s": total("universal.flush"),
        "universal.flush.bytes": tr.extra.get("universal.flush.bytes", 0) / n,
        "universal.load.s": total("universal.load"),
        "universal.load.bytes": tr.extra.get("universal.load.bytes", 0) / n,
        "witt.arith.self_s": sum(tr.stats(a)[2] for a in _ARITH) / n,
        "witt.ghost.calls": calls("witt.ghost"),
        "witt.ghost.s": total("witt.ghost"),
        "witt.from_ghost.calls": calls("witt.from_ghost"),
        "witt.from_ghost.s": total("witt.from_ghost"),
        "truncation.index.calls": calls("truncation.index"),
        "truncation.quotient.calls": calls("truncation.quotient"),
        "truncation.quotient.s": total("truncation.quotient"),
        "wittint.basis_mul.calls": calls("wittint.basis_mul"),
        "wittint.basis_mul.s": total("wittint.basis_mul"),
        "wittint.coords.s": total("wittint.coords"),
        "drwz.mul.calls": calls("drwz.mul"),
        "drwz.mul.s": total("drwz.mul"),
        "drwz.frobenius.s": total("drwz.frobenius"),
        "drwz.table.s": total("drwz.table"),
        "laws.suite.s": total("laws.suite"),
        "laws.checks": checks / n,
        "laws.checks_per_s": checks / suite_s if suite_s else 0.0,
        "cli.parse.s": total("cli.parse"),
        "cli.main.self_s": self_s("cli.main"),
    }


def setup_metrics(tr: Tracer) -> dict[str, float]:
    """Universal-polynomial work done by the traced set-up, as totals."""
    return {
        "universal.setup_compute.count": tr.stats("universal.compute")[0],
        "universal.setup_compute.s": tr.stats("universal.compute")[1],
        "universal.setup_terms": tr.extra.get("universal.terms", 0),
    }
