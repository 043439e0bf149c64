"""wittkit benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json and perfbench/manifest.json):
universal_torsion, poly_warm and cli_mix.  One process and one thread
drive each run, as a single client that sends its next call only after
the previous one returned.

A run generates its inputs from the seed, times `import wittkit` plus the
workload's own preparation (set-up), warms up, then runs whole rounds of
calls until --seconds have passed.  Afterwards every output is checked
exactly, outside the timed region.  With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics; with --trace 1 the
run repeats the same rounds with wrappers installed around each layer
(perfbench/tracing.py) and reports the per-layer metrics instead.  The
exit code is 0 only when every output is correct.

Every workload module provides generate(seed, size), prepare(inputs),
run_round(state, inputs, r, call), verify(state, inputs, outputs) and
close(state), optionally build(state, inputs) and same(a, b), plus
TAIL_PCT (the tail percentile) and WARMUP_ROUNDS (untimed rounds before
timing starts).  generate() imports nothing from wittkit, so the inputs
exist before the timed import starts.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import operator
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from common import HERMETIC_UNSET, OUT_DIR, ROOT, SRC, digest, hermetic_env, kernel_seconds, percentile

WORKLOADS = ("universal_torsion", "poly_warm", "cli_mix")
DEFAULT_SEED = 1
SETUP_PROBES = 6  # fresh processes timing set-up, besides the run's own
IMPORT_PROBES = 3
# The machine the benchmark was tuned on (a shared 2-vCPU VM) changes speed
# by up to 1.8x for stretches of seconds to minutes, with every process on it.
# Every timing is therefore scaled to a reference speed: the reference kernel
# (common.py) is timed between calls, at most every KERNEL_EVERY_S, and a
# call's time is multiplied by K_REF_S over the kernel's time around it.
# K_REF_S is the kernel's time on that machine when undisturbed, so scaled
# and wall times agree on a quiet machine; both are printed.
K_REF_S = 0.002
KERNEL_EVERY_S = 0.05
MAX_FAILURES_SHOWN = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one set-up probe, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_checkout():
    """Refuse to run without the package sources; drop the environment that would leak in."""
    if not os.path.isfile(os.path.join(SRC, "wittkit", "__init__.py")):
        sys.exit(f"perfbench: no wittkit sources under {SRC}; run from a full checkout")
    for name in HERMETIC_UNSET:
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)


def timed_setup(wl, inputs):
    """import wittkit plus the workload's preparation, as one timed span.

    Returns the state and the span's time at the reference speed, judged
    by kernel times taken just before and just after it.
    """
    kernel = [kernel_seconds() for _ in range(3)]
    t0 = time.perf_counter()
    import wittkit

    if os.path.dirname(os.path.abspath(wittkit.__file__)) != os.path.join(SRC, "wittkit"):
        sys.exit(f"perfbench: imported wittkit from {wittkit.__file__}, not from {SRC}")
    state = wl.prepare(inputs)
    seconds = time.perf_counter() - t0
    kernel += [kernel_seconds() for _ in range(3)]
    return state, seconds * K_REF_S / statistics.median(kernel)


def probe(extra: list[str]) -> float:
    """Run one fresh interpreter and return the float it prints last."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")] + extra
    done = subprocess.run(cmd, cwd=ROOT, env=hermetic_env(), capture_output=True,
                          text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"probe {extra} failed: {done.stderr.strip()[-400:]}")
    return float(done.stdout.strip().splitlines()[-1])


class Loop:
    """Closed-loop runner: times each call and keeps its output for checking."""

    def __init__(self, wl, state, inputs, first: dict, tracer=None):
        self.wl, self.state, self.inputs, self.tracer = wl, state, inputs, tracer
        # The first output of each schedule entry is kept for verification;
        # a repeat is compared with it at once, so memory does not grow with
        # the number of rounds.
        self.first = first
        self.same = getattr(wl, "same", operator.eq)
        self.records: list[tuple[int, bool]] = []
        self.latencies: list[float] = []
        self.errors: list[str] = []
        self.kernel: list[float] = []  # reference kernel times, in order
        self.kernel_after: list[int] = []  # per call: index of the first kernel time after it
        self._last_kernel = 0.0

    def call(self, index: int, thunk):
        """Run one call; one that raises or disagrees with an earlier run of its entry fails."""
        clock = time.perf_counter
        t = clock()
        try:
            if self.tracer is None:
                out = thunk()
            else:
                out = self.tracer.run_call(len(self.records), thunk)
            ok = True
        except Exception:  # a failing call is counted, and the run goes on
            out, ok = None, False
            if len(self.errors) < MAX_FAILURES_SHOWN:
                self.errors.append(f"call {index}: {traceback.format_exc()}")
        end = clock()
        self.latencies.append(end - t)
        self.kernel_after.append(len(self.kernel))
        if end - self._last_kernel >= KERNEL_EVERY_S:
            self.kernel.append(kernel_seconds())
            self._last_kernel = clock()
        if ok:
            if index not in self.first:
                self.first[index] = out
            elif not self.same(self.first[index], out):
                ok = False
                if len(self.errors) < MAX_FAILURES_SHOWN:
                    self.errors.append(f"call {index}: output differs from an earlier run of the entry")
        self.records.append((index, ok))

    def run(self, seconds: float | None = None, rounds: int | None = None) -> float:
        """Whole rounds for about `seconds` (or exactly `rounds`); returns wall time.

        A round starts only while at least half a mean round fits before the
        deadline, so the timed phase ends within half a round of it.
        """
        clock = time.perf_counter
        start = clock()
        r = 0
        while True:
            if rounds is not None:
                if r >= rounds:
                    break
            elif r:
                spent = clock() - start
                if spent + 0.5 * spent / r > seconds:
                    break
            self.wl.run_round(self.state, self.inputs, r, self.call)
            r += 1
            if r == 1:
                # outputs kept for checking grow with later rounds; the program's do not
                self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.rounds = r
        elapsed = clock() - start
        self.kernel.append(kernel_seconds())
        return elapsed

    def scaled_latencies(self) -> list[float]:
        """Each call's time at the reference speed (median of three kernel times around it)."""
        out = []
        for dt, j in zip(self.latencies, self.kernel_after):
            near = self.kernel[max(0, j - 1):j + 2]
            out.append(dt * K_REF_S / statistics.median(near))
        return out


def end_to_end(loop: Loop, tail_pct: int) -> tuple[dict, str]:
    """Throughput and latencies of the timed phase, at the reference speed."""
    scaled = loop.scaled_latencies()
    lat = sorted(scaled)
    raw = sorted(loop.latencies)
    values = {
        "throughput_ops_s": len(scaled) / sum(scaled),
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_tail_ms": percentile(lat, tail_pct) * 1e3,
    }
    beyond = sum(1 for v in lat if v > values["latency_tail_ms"] / 1e3)
    note = (f"latency_tail_ms is p{tail_pct} of {len(lat)} calls ({beyond} beyond it); "
            f"wall time: {len(raw) / sum(raw)!r} calls/s, p50 {percentile(raw, 50) * 1e3!r} ms, "
            f"p{tail_pct} {percentile(raw, tail_pct) * 1e3!r} ms; machine speed "
            f"{K_REF_S / statistics.median(loop.kernel):.3f} of the reference")
    return values, note


def import_seconds() -> float:
    code = "import time; t = time.perf_counter(); import wittkit.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=hermetic_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    check_checkout()
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    manifest = load_json(os.path.join(ROOT, "perfbench", "manifest.json"))
    size = "smoke" if args.smoke else "full"
    wl = importlib.import_module(args.workload)
    inputs = wl.generate(args.seed, size)

    if args.setup_probe:
        _, seconds = timed_setup(wl, inputs)
        print(seconds)
        return 0

    setup_samples = []
    if not args.trace:
        base = ["--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
        base += ["--smoke"] if args.smoke else []
        n_probes = 1 if args.smoke else SETUP_PROBES
        setup_samples = [probe(base) for _ in range(n_probes)]

    tracer = None
    if args.trace:
        import wittkit  # noqa: F401  (wrappers need the modules loaded)
        import tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.targets(), tracing.wittkit_modules())
    state, own_setup = timed_setup(wl, inputs)
    setup_samples.append(own_setup)
    if tracer:
        tracer.uninstall()
        setup_layers = tracing.setup_metrics(tracer)
    if hasattr(wl, "build"):
        wl.build(state, inputs)

    first: dict = {}
    Loop(wl, state, inputs, {}).run(rounds=wl.WARMUP_ROUNDS)
    gc.collect()

    loop = Loop(wl, state, inputs, first)
    elapsed = loop.run(seconds=args.seconds)
    records, errors = loop.records, loop.errors
    timed_calls = len(loop.records)

    if tracer:
        gc.collect()
        tracer.reset()
        traced = Loop(wl, state, inputs, first, tracer)
        tracer.install(tracing.targets(), tracing.wittkit_modules())
        try:
            traced_elapsed = traced.run(rounds=loop.rounds)
        finally:
            tracer.uninstall()
        records = records + traced.records
        errors = errors + traced.errors

    # entries the timed phase never reached are computed here, untimed, for the digest
    bad, items = wl.verify(state, inputs, first)
    failed = sum(1 for i, ok in records if not ok or i in bad) + len(bad - set(first))
    wl.close(state)
    run_digest = digest(items)
    expected = manifest["digests"].get(args.workload) if size == "full" and args.seed == DEFAULT_SEED else None
    digest_ok = expected is None or expected == run_digest

    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in names}
    if args.trace:
        values = tracing.layer_metrics(tracer, len(traced.records))
        values.update(setup_layers)
        values["cli.import_s"] = import_seconds()
        # times at the reference speed the traced phase ran at, as in end_to_end
        speed = K_REF_S / statistics.median(traced.kernel)
        for name, unit in units.items():
            if unit in ("s", "s/op"):
                values[name] *= speed
            elif unit == "1/s":
                values[name] /= speed
        values["trace.overhead_ratio"] = sum(traced.scaled_latencies()) / sum(loop.scaled_latencies())
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz")
        tracer.write(trace_path)
    else:
        values, note = end_to_end(loop, wl.TAIL_PCT)
        values["setup_s"] = statistics.median(setup_samples)
        values["peak_rss_mib"] = loop.peak_rss_mib
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    attempted = len(records)
    correct = failed == 0 and digest_ok
    for err in errors:
        print(err, file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} size {size}: {loop.rounds} rounds, "
          f"{timed_calls} calls in {elapsed:.3f} s")
    if not args.trace:
        print(f"{note}; setup_s is the median of {len(setup_samples)} set-ups")
    else:
        print(f"traced {len(traced.records)} calls in {traced_elapsed:.3f} s; spans in {trace_path}")
        if tracer.missing:
            print(f"not traced (absent in this version): {', '.join(tracer.missing)}")
    for name in units:
        print(f"{name} = {values[name]!r} {units[name]}")
    print(f"failed_ratio = {failed / max(attempted, 1)!r} ratio ({failed} of {attempted} calls)")
    print(f"digest = {run_digest} ({'matches the manifest' if expected and digest_ok else 'MISMATCH' if expected else 'not recorded for this seed'})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
