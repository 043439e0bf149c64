"""Helpers shared by the benchmark runner and its workloads.

Nothing here imports wittkit, so input generation can run before the
timed `import wittkit` that starts the set-up measurement.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# Scratch space for cache files and traces; listed in the root .gitignore.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# The weight ceiling every PolySource the benchmark creates is pinned to,
# so WITTKIT_CEILING cannot change what a run measures.
CEILING = 64

# Environment variables that would make a run depend on the machine it
# runs on: a warm home cache or a different ceiling.
HERMETIC_UNSET = ("WITTKIT_CACHE", "WITTKIT_CEILING", "XDG_CACHE_HOME")


def hermetic_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in HERMETIC_UNSET}
    env["PYTHONPATH"] = SRC
    return env


def canon(x):
    """A JSON-ready canonical form of a ring payload (ints, tuples, dicts).

    Dict payloads (polynomials) become sorted pair lists, so equal payloads
    give equal text whatever their insertion order.
    """
    if isinstance(x, (tuple, list)):
        return [canon(v) for v in x]
    if isinstance(x, dict):
        return sorted([canon(k), canon(v)] for k, v in x.items())
    return x


def digest(items) -> str:
    """sha256 over the canonical JSON of a list of outputs."""
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated q-th percentile (0..100) of sorted values."""
    if not sorted_values:
        return math.nan
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# -- the reference kernel ---------------------------------------------------------
#
# A fixed piece of pure-Python work shaped like wittkit's payload arithmetic:
# a product of two sparse polynomials over Z/97 with merged monomials.  It
# never touches wittkit, so its time tracks only the speed of the machine.

def _kernel_inputs():
    import random

    rng = random.Random(5)

    def poly():
        return {
            tuple(sorted({(rng.randrange(8), rng.randint(1, 4)) for _ in range(3)})): rng.randrange(1, 97)
            for _ in range(40)
        }

    return poly(), poly()


_KP, _KQ = _kernel_inputs()


def _merge(a, b):
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        if a[i][0] == b[j][0]:
            out.append((a[i][0], a[i][1] + b[j][1]))
            i += 1
            j += 1
        elif a[i][0] < b[j][0]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def reference_kernel() -> dict:
    out: dict = {}
    for ma, ca in _KP.items():
        for mb, cb in _KQ.items():
            m = _merge(ma, mb)
            c = ca * cb % 97
            out[m] = (out[m] + c) % 97 if m in out else c
    return out


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t
