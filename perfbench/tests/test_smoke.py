"""Smoke tests for the benchmark: tiny inputs, both modes, and its checks.

Run from the repository root with `python -m pytest perfbench/tests`.
Nothing here asserts a timing; only structure and correctness.
"""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from common import ROOT, hermetic_env

WORKLOADS = ("universal_torsion", "poly_warm", "cli_mix")
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run_bench(cwd, *extra):
    cmd = [sys.executable, "perfbench/run.py", *extra]
    return subprocess.run(cmd, cwd=cwd, env=hermetic_env(), capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.3",
                     "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in table} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "failed_ratio = 0.0" in done.stdout
    else:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert os.path.exists(os.path.join(ROOT, ".perfbench_out", f"trace-{workload}-seed5.json.gz"))


def _outputs(name):
    """A workload's smoke inputs, its state, and the outputs of one round."""
    wl = importlib.import_module(name)
    inputs = wl.generate(5, "smoke")
    state = wl.prepare(inputs)
    if hasattr(wl, "build"):
        wl.build(state, inputs)
    outputs = {}
    wl.run_round(state, inputs, 0, lambda i, thunk: outputs.setdefault(i, thunk()))
    return wl, inputs, state, outputs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_verification_accepts_real_outputs_and_rejects_a_swapped_one(workload):
    wl, inputs, state, outputs = _outputs(workload)
    try:
        bad, items = wl.verify(state, inputs, outputs)
        assert bad == set() and items
        # give one entry the output of another entry whose result differs
        i = min(outputs)
        j = next(k for k in sorted(outputs) if k != i and repr(outputs[k]) != repr(outputs[i]))
        outputs[i] = outputs[j]
        bad, _ = wl.verify(state, inputs, outputs)
        assert i in bad
    finally:
        wl.close(state)


def test_poly_warm_requests_compute_one_polynomial_each():
    import tracing

    wl = importlib.import_module("poly_warm")
    inputs = wl.generate(5, "smoke")
    state = wl.prepare(inputs)
    tracer = tracing.Tracer()
    tracer.install(tracing.targets(), tracing.wittkit_modules())
    computed = []
    try:
        def call(i, thunk):
            before = tracer.stats("universal.compute")[0]
            thunk()
            computed.append(tracer.stats("universal.compute")[0] - before)

        wl.run_round(state, inputs, 0, call)
    finally:
        tracer.uninstall()
        wl.close(state)
    # every request computes one polynomial; the reload at the end of a pass none
    assert computed == ([1] * len(inputs["keys"]) + [0]) * wl.PASSES_PER_ROUND


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench(tmp_path, "--workload", "cli_mix", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(name.match(n) for n in names) and len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        assert unit.match(m["unit"]) and m["better"] in ("higher", "lower")
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s").items()
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and unit.match(m["unit"])
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
