"""The names the benchmark harness in bench/ reaches into must keep resolving.

bench/tracing.py wraps latround functions by module and name, and
bench/selftest.py checks functions imported by name into other modules.
These tests read both files and change nothing under bench/.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import latround

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_imports_no_latround_module():
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported and not any(name.split(".")[0] == "latround" for name in imported)


def test_traced_layers_resolve():
    layers = _load("tracing").LAYERS
    for home, names in layers.values():
        module = importlib.import_module(home)
        for name in names:
            assert callable(getattr(module, name, None)), f"{home}.{name}"


def test_selftest_by_name_imports_resolve():
    importlib.import_module("latround.cli")
    for home, name in _load("selftest").BY_NAME:
        assert callable(getattr(sys.modules[home], name, None)), f"{home}.{name}"


def test_backend_is_pure_without_compiled_module():
    compiled = importlib.util.find_spec("latround._kernel._speedups") is not None
    pure = os.environ.get("LATROUND_PURE") or not compiled
    assert latround.BACKEND == ("pure" if pure else "compiled")


def test_tracer_sees_the_layers_under_round_point(hole_pair):
    importlib.import_module("latround.cli")
    with _load("tracing").Tracer() as tracer:
        latround.round_point(hole_pair, (1, 1), cls="ic", norm="best")
    assert tracer.restored()
    calls = {k: v for k, (v, unit) in tracer.metrics(0.0).items() if k.endswith(".calls")}
    assert calls["predicates.integral_convexity_witness.calls"] == 2
    assert calls["minkowski.minkowski_sum.calls"] == 2  # the sum and the clipped sum
    assert calls["pipeline.sf_decompose.calls"] == 0
    assert calls["pipeline.decompose_into_summand_hulls.calls"] == 1
    assert calls["kernel.lp_feasible.calls"] == 1


def test_traced_counts_read_the_shapes_they_expect(tmp_path, capsys):
    # the traced run's extra counts read lp_feasible's rows as a dense list
    # of rows, and a sum's summands and size; each call below feeds them
    cli = importlib.import_module("latround.cli")
    path = tmp_path / "square.json"
    path.write_text('{"dim": 2, "points": [[0, 0], [1, 0], [0, 1], [1, 1]]}', encoding="utf-8")
    triangle = latround.LatticeSet([(0, 0), (1, 0), (0, 1)])
    third = Fraction(1, 3)
    with _load("tracing").Tracer() as tracer:
        assert latround.hull_membership(triangle, (third, third)) is not None
        assert len(latround.minkowski_sum([triangle, triangle])) == 6
        assert cli.main(["check", str(path), "--class", "ic"]) == 0
    assert tracer.restored()
    assert capsys.readouterr().out.endswith(": pass\n")
    metrics = {k: v for k, (v, unit) in tracer.metrics(0.0).items()}
    assert metrics["geometry.hull_membership.calls"] == 1
    assert metrics["kernel.lp_feasible.calls"] == 1  # the hull test: one LP
    assert metrics["kernel.lp_feasible.entries"] > 0
    assert metrics["minkowski.minkowski_sum.calls"] == 1
    assert metrics["minkowski.tuples"] == 9
    assert metrics["minkowski.sum_points"] == 6
    assert metrics["cli.main.calls"] == 1
    assert metrics["cli.load_set_file.calls"] == 1
    assert metrics["predicates.integral_convexity_witness.calls"] == 1


def test_traced_bench_run_is_correct_on_every_workload():
    # the traced run wraps every LAYERS name, so a name that no longer
    # resolves, or a wrapped call that breaks, fails here
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "1", "--trace", "1",
         "--ops", "40"],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 3
    assert all(result["correct"] is True for result in results)
