"""The benchmark wraps library entry points by name; each must still exist.

A trace target that no longer resolves is only reported by the benchmark
run, and its per-layer metric then reads 0, so a rename would go unseen.
"""

import importlib.util
import pathlib


def _tracing():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing_contract", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = _tracing().targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
