"""latround benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (stdlib only, pure kernel backend):

    python3 bench/run.py --workload closure --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1            # every workload

``--trace 0`` prints the end-to-end metrics: set-up time (median of
SETUP_RUNS fresh processes), throughput, median and 90th-percentile
latency, failure share and peak memory.  ``--trace 1`` runs a separate
traced process and prints the per-layer metrics and the tracing overhead.
``--ops N`` runs exactly N operations instead of a timed phase, so that
per-layer counts repeat exactly.  Each workload prints a table and, as its
last line, one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("closure", "round_m", "cli_mix")
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")
SETUP_RUNS = 5  # set-up samples per run, the measuring process included
TIME_LIMIT_S = 170.0  # every process of one workload's run ends before this


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(root, args, workload, deadline, setup_only=False):
    """Start one worker process, wait for it, and return its JSON result."""
    env = dict(os.environ, LATROUND_PURE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    proc = subprocess.run(
        cmd,
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - t0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(root, args, workload, deadline):
    setups = []
    if args.trace == 0 and args.ops is None:
        for _ in range(SETUP_RUNS - 1):
            setups.append(run_worker(root, args, workload, deadline, setup_only=True)["setup_s"])
    res = run_worker(root, args, workload, deadline)
    setups.append(res["setup_s"])
    metrics = res["metrics"]
    env = dict(res["env"], workload=workload, seed=args.seed, commit=git_commit(root))
    print(f"env: {json.dumps(env)}")
    print(f"operations: {json.dumps(res['kinds'])}")
    if args.trace == 0:
        setup_s = statistics.median(setups)
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "ops_per_s": f"{res['attempted'] - res['failed']} succeeded in "
            f"{metrics['wall_s']['value']:.3f} s",
            "op_p50_ms": f"n={metrics['samples']['value']}",
            "op_p90_ms": f"n={metrics['samples']['value']}, "
            f"{metrics['above_p90']['value']} above",
            "fail_frac": f"{res['failed']} of {res['attempted']} failed",
        }
        shown = {"setup_s": {"value": setup_s, "unit": "s"}}
        for name in ("ops_per_s", "op_p50_ms", "op_p90_ms", "fail_frac", "peak_rss_mb"):
            shown[name] = metrics[name]
        for name, m in shown.items():
            print(f"  {name:<12} {fmt(m['value']):>12} {m['unit']:<6} {notes.get(name, '')}")
        reported = {name: shown[name] for name in END_TO_END}
    else:
        for name, m in metrics.items():
            print(f"  {name:<44} {fmt(m['value']):>14} {m['unit']}")
        reported = metrics
    result = {
        "correct": res["failed"] == 0 and res.get("restored", True),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": reported,
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--ops", type=int, default=None, help="run exactly this many operations")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.ops is not None and args.ops < 1):
        parser.error("--seconds and --ops must be positive")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "latround", "__init__.py")):
        print("run from the root of a latround checkout (no src/latround here)", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            run_workload(root, args, workload, time.monotonic() + TIME_LIMIT_S)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
