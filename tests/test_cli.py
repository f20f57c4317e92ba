import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


# ------------------------------------------- inputs that used to end in a raw exception

NINES = "9" * 4300  # the longest integer the interpreter converts by default
NINES_FILE = b'{"dim": 1, "points": [[' + NINES.encode() + b"]]}"


def write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize(
    "data",
    [
        b'{"dim": 1, "points": [[\xff]]}',  # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,  # nested too deep to parse
        NINES_FILE.replace(b"[[", b"[[9"),  # past the digit limit
    ],
    ids=["not-utf8", "deep-nesting", "long-integer"],
)
def test_unreadable_set_file_is_a_usage_error(tmp_path, capsys, data):
    path = write_bytes(tmp_path, "bad.json", data)
    with pytest.raises(UsageError):
        latround.cli.load_set_file(path)
    assert main(["check", path, "--class", "ic"]) == 2
    assert "not readable JSON" in capsys.readouterr().err


def test_round_long_coordinate_is_a_usage_error(hole_files, capsys):
    with pytest.raises(UsageError):
        latround.cli.parse_query_point("9" * 4301 + ",1")
    assert main(["round", *hole_files, "--x", "9" * 4301 + ",1"]) == 2
    assert "coordinate too long" in capsys.readouterr().err


def test_sum_past_the_digit_limit_names_the_limit(tmp_path, capsys):
    # each file is valid; their sum has a coordinate of 4301 digits
    path = write_bytes(tmp_path, "s.json", NINES_FILE)
    assert main(["sum", path, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too long to print" in captured.err and "4300 digits" in captured.err


# ---------------------------------------------------------- fuzzed command lines


class _Digits(str):
    """The text of an integer too long for ``json.dumps`` to write."""


def _dump(value) -> str:
    """JSON text of ``value``; a ``_Digits`` is written as its digits."""
    if isinstance(value, _Digits):
        return str(value)
    if isinstance(value, list):
        return "[" + ",".join(map(_dump, value)) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_dump(v)}" for k, v in value.items()) + "}"
    return json.dumps(value)


_BIG = st.sampled_from([10**400, -(10**400), int(NINES), -int(NINES), _Digits("9" * 4301)])
_ODD = st.one_of(
    st.booleans(),
    st.floats(allow_infinity=False),
    st.text(max_size=2),
    st.none(),
    st.lists(st.integers(0, 1), max_size=2),
    st.integers(-1, 2),
)
_BAD_BYTES = [b"\xff\xfe{", b'{"dim": 1, "points": [[\xc3]]}', b"[" * 100_000 + b"]" * 100_000, b"{]"]


@st.composite
def _set_file(draw, n):
    """(bytes of a set file of dimension n, its points or None).

    Mostly a well-formed set of unit-cube points, so that many are
    integrally convex, some with a huge coordinate; else a set with one
    flaw (an integer past the interpreter's digit limit, a ragged
    or non-integer point, a wrong JSON type, a missing key), any JSON
    value, deep nesting or bytes that are not UTF-8.  The points are
    given for a set that loads.
    """
    kind = draw(st.sampled_from(["set"] * 10 + ["bytes", "json"]))
    if kind == "bytes":
        return draw(st.sampled_from(_BAD_BYTES)), None
    if kind == "json":
        leaf = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3))
        value = st.recursive(
            leaf,
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
            max_leaves=8,
        )
        return json.dumps(draw(value)).encode(), None
    coord = st.sampled_from([0, 1, 0, 1, 0, 1, 2, -1])
    points = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=4))
    obj = {"dim": n, "points": points}
    flaw = draw(st.sampled_from([None] * 6 + ["big", "odd", "type", "key"]))
    if flaw == "big":
        big = draw(_BIG)
        points[draw(st.integers(0, len(points) - 1))][draw(st.integers(0, n - 1))] = big
        if not isinstance(big, _Digits):
            flaw = None  # a huge integer that loads
    elif flaw == "odd":
        points.append(draw(st.lists(_ODD, max_size=4)))
    elif flaw == "type":
        obj[draw(st.sampled_from(["dim", "points"]))] = draw(st.sampled_from([0, -1, True, 2.0, "2", None, {}]))
    elif flaw == "key":
        del obj[draw(st.sampled_from(["dim", "points"]))]
    return _dump(obj).encode(), None if flaw else points


@st.composite
def _query(draw, n, sets):
    """A --x value: the sum of the sets' centroids (a hull point of their
    sum), n grid coordinates, or a malformed, huge or mis-sized one."""
    kind = draw(st.sampled_from(["centre", "centre", "grid", "odd"]))
    if kind == "centre" and all(sets):
        centroids = [[Fraction(sum(c), len(pts)) for c in zip(*pts)] for pts in sets]
        return ",".join(str(sum(c)) for c in zip(*centroids))
    if kind == "odd":
        odd = draw(st.sampled_from(["1/2", "0.5", "x", "", "1/0", NINES, "9" * 4301, str(10**400)]))
        return ",".join([odd] * draw(st.integers(1, 3)))
    return ",".join(draw(st.lists(st.sampled_from(["1/2", "1", "0", "1/3", "3/2", "-1"]), min_size=n, max_size=n)))


@st.composite
def _command_line(draw):
    """(command, set files, options) for check, sum or round."""
    command = draw(st.sampled_from(["check", "sum", "round"]))
    n = draw(st.integers(1, 3))
    drawn = draw(st.lists(_set_file(n), min_size=1, max_size=2))
    files = [data for data, _ in drawn]
    if command == "check":
        options = ["--class", draw(st.sampled_from(["ic", "mnat", "lnat", "holefree"]))]
    elif command == "sum":
        options = draw(st.sampled_from([[], ["--holes"]]))
    else:
        options = [
            f"--x={draw(_query(n, [points for _, points in drawn]))}",
            "--class",
            draw(st.sampled_from(["ic", "mnat", "lnat"])),
            "--norm",
            draw(st.sampled_from(["linf", "l2", "best"])),
        ] + draw(st.sampled_from([[], ["--trust"]]))
    return command, files, options


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_command_line())
# the five inputs that once ended in a raw exception
@example(("check", [_BAD_BYTES[1]], ["--class", "ic"]))
@example(("check", [_BAD_BYTES[2]], ["--class", "ic"]))
@example(("sum", [NINES_FILE.replace(b"[[", b"[[9")], []))
@example(("round", [NINES_FILE], [f"--x={NINES}9"]))
@example(("sum", [NINES_FILE] * 2, []))
def test_no_command_line_ends_in_a_raw_exception(tmp_path_factory, case):
    # every outcome is an exit code of 0 to 3; nothing but SystemExit (from
    # argparse) leaves main
    command, files, options = case
    folder = tmp_path_factory.mktemp("fuzz")
    paths = [write_bytes(folder, f"s{i}.json", data) for i, data in enumerate(files)]
    try:
        code = main([command, *paths, *options])
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2, 3)
