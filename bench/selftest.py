"""Self-test of the traced run.

Run from the root of a checkout:

    python3 bench/selftest.py

It checks that
- the tracer wraps every function at each place it is imported by name,
  and puts every original object back afterwards;
- two traced runs with the same seed and operation count, each in its own
  process, give identical counts (calls, entries, tuples, sum points and
  the ``_frac`` ratios) and correct outputs.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7
OPS = {"closure": 60, "round_m": 32, "cli_mix": 100}
# functions imported by name into other modules: (module, attribute)
BY_NAME = [
    ("latround.discrete_sets", "_membership_support"),
    ("latround.minkowski", "_membership_support"),
    ("latround.shapley_folkman", "_membership_support"),
    ("latround.discrete_sets", "hull_facets"),
    ("latround.shapley_folkman", "integral_convexity_witness"),
    ("latround.cli", "integral_convexity_witness"),
    ("latround.shapley_folkman", "minkowski_sum"),
    ("latround.cli", "minkowski_sum"),
    ("latround", "cube_round"),
]


def is_count(name):
    return (
        name.endswith(".calls")
        or name.endswith("_frac")
        or name
        in ("kernel.lp_feasible.entries", "minkowski.tuples", "minkowski.sum_points", "trace.ops")
    )


def traced_counts(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--trace", "1", "--ops", str(OPS[workload])],
        capture_output=True,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: traced run exited with {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = {k: v["value"] for k, v in result["metrics"].items() if is_count(k)}
    return result["correct"], counts


def check_wrapping():
    """Every by-name import is wrapped inside the tracer and restored after."""
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    os.environ["LATROUND_PURE"] = "1"
    import importlib

    import tracing

    importlib.import_module("latround.cli")
    originals = {site: getattr(sys.modules[site[0]], site[1]) for site in BY_NAME}
    with tracing.Tracer() as tracer:
        wrapped = all(
            getattr(sys.modules[mod], attr) is not originals[(mod, attr)]
            and getattr(sys.modules[mod], attr).__wrapped__ is originals[(mod, attr)]
            for mod, attr in BY_NAME
        )
    back = all(getattr(sys.modules[mod], attr) is originals[(mod, attr)] for mod, attr in BY_NAME)
    return wrapped and back and tracer.restored()


def main() -> int:
    ok = check_wrapping()
    print(f"{'PASS' if ok else 'FAIL'} wrappers at every by-name import, originals restored")
    for workload in OPS:
        correct_a, first = traced_counts(workload)
        correct_b, second = traced_counts(workload)
        same = first == second
        diff = sorted(k for k in first if first[k] != second.get(k))
        good = same and correct_a and correct_b
        ok = ok and good
        print(
            f"{'PASS' if good else 'FAIL'} {workload}: {len(first)} counts over "
            f"{OPS[workload]} operations, identical={same}, correct={correct_a and correct_b}"
            + (f", differing: {diff}" if diff else "")
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
