"""One benchmark process: set up a workload, run its timed phase, check outputs.

``run.py`` starts this script in a fresh interpreter from the root of a
checkout, with ``src`` on PYTHONPATH and LATROUND_PURE=1, and reads the JSON
object it prints as its last line.  ``--t0`` is the parent's monotonic clock
reading just before the start, so set-up time includes the interpreter and
``import latround``.  The loop is closed: one caller, one thread, and the
next operation starts only when the previous one has returned.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from array import array
from time import perf_counter

import tracing  # imports no latround module itself

MIN_OPS = 100  # so that at least ten latency samples lie above the 90th percentile
TRACE_CHUNK = 25  # operations per alternation of the untraced and traced passes


class Raised:
    """An operation's exception, kept as its output."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text


def run_ops(workload, first, count, outputs, latencies):
    """Run operations first .. first + count - 1, cycling through the list.

    ``outputs[k]`` lists each distinct output of operation k with the number
    of times it was returned, so memory does not grow with the run length.
    """
    ops = workload.ops
    for i in range(first, first + count):
        k = i % len(ops)
        t0 = perf_counter()
        try:
            out = ops[k].run()
        except (Exception, SystemExit) as exc:  # a failed operation, counted later
            out = Raised(exc)
        latencies.append(perf_counter() - t0)
        for seen in outputs[k]:
            if seen[0] == out:
                seen[1] += 1
                break
        else:
            outputs[k].append([out, 1])


def timed_phase(workload, seconds, count):
    """Run whole blocks until ``seconds`` have passed and MIN_OPS are done,
    or exactly ``count`` operations when it is given.

    Returns (outputs, latencies, wall).
    """
    outputs = [[] for _ in workload.ops]
    latencies = array("d")
    start = perf_counter()
    done = 0
    while True:
        n = workload.block if count is None else count
        run_ops(workload, done, n, outputs, latencies)
        done += n
        wall = perf_counter() - start
        if count is not None or (done >= MIN_OPS and wall >= seconds):
            return outputs, latencies, wall


def traced_phase(workload, seconds, count):
    """Run each chunk of operations untraced, then again traced.

    Chunks alternate so that both passes see the same operations and the
    same machine speed; their wall times give the tracing overhead.
    Returns (untraced outputs, traced outputs, untraced wall, traced wall,
    operations per pass, tracer).
    """
    chunk = workload.block * -(-TRACE_CHUNK // workload.block)
    plain = [[] for _ in workload.ops]
    traced = [[] for _ in workload.ops]
    sink = array("d")
    tracer = tracing.Tracer()
    plain_wall = traced_wall = 0.0
    done = 0
    while True:
        n = chunk if count is None else min(chunk, count - done)
        t0 = perf_counter()
        run_ops(workload, done, n, plain, sink)
        plain_wall += perf_counter() - t0
        with tracer:
            t0 = perf_counter()
            run_ops(workload, done, n, traced, sink)
            traced_wall += perf_counter() - t0
        done += n
        if count is not None:
            if done >= count:
                return plain, traced, plain_wall, traced_wall, done, tracer
        elif done >= MIN_OPS and plain_wall + traced_wall >= seconds:
            return plain, traced, plain_wall, traced_wall, done, tracer


def count_failures(workload, outputs):
    """Operations that raised or whose output the check rejects."""
    return sum(
        n
        for op, seen in zip(workload.ops, outputs)
        for out, n in seen
        if isinstance(out, Raised) or not op.check(out)
    )


def end_to_end(latencies, wall, failed):
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ms = sorted(v * 1000.0 for v in latencies)
    p90 = statistics.quantiles(ms, n=10)[-1]
    return {
        "ops_per_s": ((len(ms) - failed) / wall, "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (p90, "ms"),
        "fail_frac": (failed / len(ms), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "samples": (len(ms), "count"),
        "above_p90": (sum(1 for v in ms if v > p90), "count"),
        "wall_s": (wall, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "latround", "__init__.py")):
        print(f"no latround sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import latround

    if os.path.dirname(os.path.dirname(os.path.abspath(latround.__file__))) != src:
        print(f"latround was imported from {latround.__file__}, not {src}", file=sys.stderr)
        return 2
    if latround.BACKEND != "pure":
        print(f"refusing the {latround.BACKEND!r} backend: set LATROUND_PURE=1", file=sys.stderr)
        return 2
    import workloads

    with tempfile.TemporaryDirectory(dir=root, prefix=".bench-work-") as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.monotonic() - args.t0
        env = {
            "backend": latround.BACKEND,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
        }
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "env": env}))
            return 0
        result = {"setup_s": setup_s, "env": env}
        if args.trace == 0:
            outputs, latencies, wall = timed_phase(workload, args.seconds, args.ops)
            failed = count_failures(workload, outputs)
            metrics = end_to_end(latencies, wall, failed)
        else:
            outputs, traced, wall, traced_wall, done, tracer = traced_phase(
                workload, args.seconds, args.ops
            )
            result["restored"] = tracer.restored()
            failed = count_failures(workload, outputs)
            # the traced pass must return what the untraced pass returned
            failed += sum(n for a, b in zip(outputs, traced) if a != b for _, n in b)
            metrics = tracer.metrics(traced_wall)
            metrics["trace.ops"] = (done, "count")
            metrics["trace.ops_per_s"] = (done / traced_wall, "1/s")
            metrics["trace.untraced_ops_per_s"] = (done / wall, "1/s")
            metrics["trace.overhead"] = (traced_wall / wall, "ratio")
        kinds = {}
        for op, seen in zip(workload.ops, outputs):
            kinds[op.kind] = kinds.get(op.kind, 0) + sum(n for _, n in seen)
        result.update(
            attempted=sum(n for seen in outputs for _, n in seen),
            failed=failed,
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            kinds=kinds,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
