import json
import os
import subprocess
import sys

import pytest

import latround
from latround import UsageError
from latround.cli import main
from latround.minkowski import enumeration_budget

HOLE_S1 = {"dim": 2, "points": [[0, 0], [1, 1]]}
HOLE_S2 = {"dim": 2, "points": [[1, 0], [0, 1]]}
TRIPLE = [
    {"dim": 3, "points": [[0, 0, 0], [1, 1, 0]]},
    {"dim": 3, "points": [[0, 0, 0], [0, 1, 1]]},
    {"dim": 3, "points": [[0, 0, 0], [1, 0, 1]]},
]


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def hole_files(tmp_path):
    return [write(tmp_path, "s1.json", HOLE_S1), write(tmp_path, "s2.json", HOLE_S2)]


@pytest.fixture
def triple_files(tmp_path):
    return [write(tmp_path, f"t{i}.json", d) for i, d in enumerate(TRIPLE)]


def test_check_holefree_fails_with_witness(tmp_path, capsys):
    sum_file = write(
        tmp_path, "sum.json", {"dim": 2, "points": [[1, 0], [0, 1], [2, 1], [1, 2]]}
    )
    code = main(["check", sum_file, "--class", "holefree"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "(1, 1)" in out


def test_check_unit_square_subset_passes(tmp_path, capsys):
    path = write(tmp_path, "s.json", {"dim": 2, "points": [[0, 0], [1, 1], [0, 1]]})
    assert main(["check", path, "--class", "ic"]) == 0
    assert "pass" in capsys.readouterr().out


def test_check_ic_over_the_pair_budget_exits_3(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "s.json", {"dim": 2, "points": [[0, 0], [1, 0], [0, 1], [1, 1]]})
    monkeypatch.setenv("LATROUND_BUDGET", "5")
    assert main(["check", path, "--class", "ic"]) == 3
    captured = capsys.readouterr()
    assert "6 pairs" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_check_holefree_over_the_box_budget_exits_3(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "s.json", {"dim": 2, "points": [[0, 0], [3, 3]]})
    monkeypatch.setenv("LATROUND_BUDGET", "15")
    assert main(["check", path, "--class", "holefree"]) == 3
    captured = capsys.readouterr()
    assert "16 box points" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_check_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["check", str(path), "--class", "ic"]) == 2
    assert "error" in capsys.readouterr().err


def test_check_rejects_fractional_points(tmp_path):
    path = write(tmp_path, "frac.json", {"dim": 1, "points": [[0.5]]})
    assert main(["check", path, "--class", "ic"]) == 2


def test_sum_with_holes(hole_files, capsys):
    assert main(["sum", *hole_files, "--holes"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["points"] == [[0, 1], [1, 0], [1, 2], [2, 1]]
    assert data["holes"] == [[1, 1]]


def test_sum_triple(triple_files, capsys):
    assert main(["sum", *triple_files, "--holes"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["points"]) == 8
    assert data["holes"] == [[1, 1, 1]]


def test_sum_zero_identity(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"dim": 2, "points": [[0, 2], [3, 1]]})
    z = write(tmp_path, "z.json", {"dim": 2, "points": [[0, 0]]})
    assert main(["sum", a, z]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["points"] == [[0, 2], [3, 1]]


def test_sum_budget_exit_code(hole_files, monkeypatch):
    monkeypatch.setenv("LATROUND_BUDGET", "1")
    assert main(["sum", *hole_files]) == 3


@pytest.mark.parametrize("raw", ["-5", "0", "many"])
def test_bad_budget_is_a_usage_error(hole_files, monkeypatch, raw):
    monkeypatch.setenv("LATROUND_BUDGET", raw)
    with pytest.raises(UsageError):
        enumeration_budget()
    assert main(["sum", *hole_files]) == 2


def test_check_rejects_boolean_dim(tmp_path, capsys):
    path = write(tmp_path, "b.json", {"dim": True, "points": [[1]]})
    assert main(["check", path, "--class", "ic"]) == 2
    assert "'dim' must be an integer" in capsys.readouterr().err


def test_round_hole_point(hole_files, capsys):
    code = main(["round", *hole_files, "--x", "1,1", "--norm", "linf", "--class", "ic"])
    out = capsys.readouterr().out
    assert code == 0
    assert "distance_linf = 1 " in out
    assert "bound_linf = 1" in out
    assert "theorem = ic-linf" in out


def test_round_triple_lnat(triple_files, capsys):
    code = main(
        ["round", *triple_files, "--x", "1,1,1", "--norm", "linf", "--class", "lnat"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "bound_linf = 1" in out
    assert "theorem = lnat-linf" in out


def test_round_sum_point_is_exact(hole_files, capsys):
    code = main(["round", *hole_files, "--x", "2,1", "--class", "ic"])
    out = capsys.readouterr().out
    assert code == 0
    assert "distance_linf = 0 " in out


def test_round_outside_hull(hole_files, capsys):
    code = main(["round", *hole_files, "--x=-1,0", "--class", "ic"])
    assert code == 1
    assert "infeasible" in capsys.readouterr().err


def test_round_class_violation(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", {"dim": 2, "points": [[0, 0], [1, 1]]})
    code = main(["round", bad, "--x", "1/2,1/2", "--class", "mnat"])
    assert code == 1
    assert "witness" in capsys.readouterr().err


def test_round_rejects_float_literal(hole_files, capsys):
    assert main(["round", *hole_files, "--x", "0.5,0.5", "--class", "ic"]) == 2
    assert "floating point" in capsys.readouterr().err


def test_round_rejects_zero_denominator(hole_files, capsys):
    assert main(["round", *hole_files, "--x", "1/0,1", "--class", "ic"]) == 2
    err = capsys.readouterr().err
    assert "bad coordinate '1/0'" in err and "Traceback" not in err


def test_round_rational_query(hole_files, capsys):
    code = main(["round", *hole_files, "--x", "3/2,1", "--class", "ic", "--norm", "best"])
    assert code == 0
    out = capsys.readouterr().out
    assert "z = " in out
    assert "theorem = ic-best" in out


@pytest.mark.parametrize("norm", ["l2", "best"])
def test_round_mnat_rejects_other_norms(tmp_path, capsys, norm):
    tri = write(tmp_path, "tri.json", {"dim": 2, "points": [[0, 0], [1, 0], [0, 1]]})
    assert main(["round", tri, "--x", "1/2,1/4", "--class", "mnat", "--norm", norm]) == 2
    assert "linf" in capsys.readouterr().err


def test_round_trust_skips_verification(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", {"dim": 2, "points": [[0, 0], [1, 1]]})
    code = main(["round", bad, "--x", "1,1", "--class", "mnat", "--trust"])
    assert code == 0
    assert "distance_linf = 0" in capsys.readouterr().out


def test_bounds_reference_grid(capsys):
    assert main(["bounds", "--paper-table"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("n=")]
    assert len(lines) == 6
    # spot checks straight from the published grid
    assert lines[0].startswith("n=2")
    assert "4 3*" in lines[3]  # n=8, m=5
    assert "0* 2" in lines[5]  # n=16, m=1


def test_bounds_explicit_lists(capsys):
    assert main(["bounds", "--n-list", "3", "--m-list", "2"]) == 0
    out = capsys.readouterr().out
    assert "1 1" in out
    assert main(["bounds", "--n-list", "2", "--m-list", "1"]) == 0
    assert "0 0" in capsys.readouterr().out


def test_bounds_requires_some_input(capsys):
    assert main(["bounds"]) == 2


def test_verify_bounds_suite(capsys):
    assert main(["verify", "--suite", "bounds"]) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out
    assert "FAIL" not in out


def test_verify_predicates_suite(capsys):
    assert main(["verify", "--suite", "predicates"]) == 0
    out = capsys.readouterr().out
    assert out.count("[pass]") == 5


def test_verify_rounding_small(capsys):
    assert main(["verify", "--suite", "rounding", "--seed", "3", "--instances", "25"]) == 0
    out = capsys.readouterr().out
    assert "[pass]" in out


def test_verify_nothing_checked_is_not_a_pass(capsys):
    # one instance with a fractional x: the integral-x report checks nothing
    assert main(["verify", "--suite", "rounding", "--instances", "1", "--seed", "3"]) == 1
    out = capsys.readouterr().out
    assert "[none] integral x within min(n, m) - 1: 0 checked" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("count", ["0", "-1"])
def test_verify_rejects_nonpositive_instances(capsys, count):
    assert main(["verify", "--suite", "rounding", "--instances", count]) == 2
    captured = capsys.readouterr()
    assert "[pass]" not in captured.out
    assert "instance count must be positive" in captured.err


def test_round_output_deterministic(hole_files, capsys):
    main(["round", *hole_files, "--x", "1,1", "--class", "ic"])
    first = capsys.readouterr().out
    main(["round", *hole_files, "--x", "1,1", "--class", "ic"])
    assert capsys.readouterr().out == first


def _run_alone(argv):
    """Exit code, stdout and stderr of ``main(argv)`` in a fresh process."""
    src = os.path.dirname(os.path.dirname(latround.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys; from latround.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_one_parser_serves_a_sequence_of_calls(hole_files, capsys):
    sequence = [
        ["check", hole_files[0], "--class", "ic"],
        ["round", *hole_files, "--x", "1,1", "--norm", "best"],
        ["round", *hole_files, "--norm", "l3", "--x", "1,1"],  # malformed: exit 2
        ["bounds", "--n-list", "2", "3", "--m-list", "1", "2"],
    ]
    in_process = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        in_process.append((code, out.out, out.err))
    assert [code for code, _, _ in in_process] == [0, 0, 2, 0]
    assert in_process == [_run_alone(argv) for argv in sequence]
