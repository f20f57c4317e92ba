"""Command line interface.

Subcommands: check (class predicates with witnesses), sum (witnessed
Minkowski sums and holes), round (the rounding pipelines), bounds (the
closed-form bound table) and verify (the property suites).

Set files are JSON objects with integer "dim" and a "points" list of
integer vectors.  Query points are comma-separated exact rationals like
"1/2" or "-3"; floating point literals are rejected.  Exit codes:
0 pass, 1 mathematical failure or infeasibility, 2 usage or parse
error, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .bounds import TABLE_M_VALUES, bounds_table
from .discrete_sets import (
    LatticeSet,
    find_hole,
    integral_convexity_witness,
    lnat_violation,
    mnat_violation,
)
from .errors import BudgetError, DomainError, UsageError
from .exact_geometry import RationalPoint
from .minkowski import find_holes, minkowski_sum
from .shapley_folkman import round_point
from .verify import run_suites

__all__ = ["main"]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d*[1-9]\d*)?$")


def load_set_file(path: str) -> LatticeSet:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON, bytes that are not UTF-8, nesting too deep to parse, or
        # an integer longer than the interpreter's digit limit
        raise UsageError(f"{path}: not readable JSON ({exc})") from exc
    if not isinstance(data, dict) or "dim" not in data or "points" not in data:
        raise UsageError(f"{path}: expected an object with 'dim' and 'points'")
    dim = data["dim"]
    points = data["points"]
    if not isinstance(dim, int) or isinstance(dim, bool) or not isinstance(points, list):
        raise UsageError(f"{path}: 'dim' must be an integer and 'points' a list")
    for p in points:
        if (
            not isinstance(p, list)
            or len(p) != dim
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in p)
        ):
            raise UsageError(f"{path}: bad point {p!r}")
    try:
        return LatticeSet(points, dim=dim)
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def dump_set(s: LatticeSet, holes=None) -> str:
    data = {"dim": s.dim, "points": [list(p) for p in s.points]}
    if holes is not None:
        data["holes"] = [list(p) for p in holes.points]
    return json.dumps(data)


def parse_query_point(text: str) -> RationalPoint:
    parts = [p.strip() for p in text.strip().lstrip("(").rstrip(")").split(",")]
    coords = []
    for part in parts:
        if not _RATIONAL_RE.match(part):
            raise UsageError(
                f"bad coordinate {part!r}: expected an integer or 'p/q' with "
                "q > 0 (floating point literals are rejected)"
            )
        try:
            coords.append(Fraction(part))
        except ValueError as exc:  # more digits than the interpreter's limit
            raise UsageError(f"coordinate too long: {exc}") from exc
    return RationalPoint(coords)


def _fmt(q: Fraction) -> str:
    return str(q)


def _approx(q: Fraction) -> str:
    return f"{float(q):.6g}"


def cmd_check(args) -> int:
    checks = {
        "ic": ("integrally convex", integral_convexity_witness),
        "mnat": ("exchange-convex", mnat_violation),
        "lnat": ("midpoint-convex", lnat_violation),
        "holefree": ("hole-free", find_hole),
    }
    label, witness_fn = checks[args.cls]
    failed = False
    for path in args.files:
        s = load_set_file(path)
        witness = witness_fn(s)
        if witness is None:
            print(f"{path}: {label}: pass")
        else:
            failed = True
            print(f"{path}: {label}: FAIL witness={witness}")
    return 1 if failed else 0


def cmd_sum(args) -> int:
    sets = [load_set_file(path) for path in args.files]
    w = minkowski_sum(sets)
    holes = find_holes(w) if args.holes else None
    print(dump_set(w.result, holes))
    return 0


def cmd_round(args) -> int:
    sets = [load_set_file(path) for path in args.files]
    x = parse_query_point(args.x)
    result = round_point(sets, x, cls=args.cls, norm=args.norm, verify=not args.trust)
    print(f"x = {result.x}")
    print(f"z = {tuple(result.z)}")
    print(
        f"distance_linf = {_fmt(result.distance_linf)} "
        f"(approx {_approx(result.distance_linf)})"
    )
    print(
        f"distance_l2_sq = {_fmt(result.distance_l2_sq)} "
        f"(approx {_approx(result.distance_l2_sq)})"
    )
    if result.bound_linf is not None:
        print(f"bound_linf = {_fmt(result.bound_linf)}")
    if result.bound_l2_sq is not None:
        print(f"bound_l2_sq = {_fmt(result.bound_l2_sq)}")
    print(f"theorem = {result.theorem_tag}")
    return 0


def cmd_bounds(args) -> int:
    if args.paper_table:
        table = bounds_table()
    else:
        if not args.n_list or not args.m_list:
            raise UsageError("provide --paper-table, or both --n-list and --m-list")
        table = bounds_table(args.n_list, args.m_list)
    ms = args.m_list if (args.m_list and not args.paper_table) else TABLE_M_VALUES
    header = "        " + "  ".join(f"m={m}".ljust(8) for m in ms)
    print(header)
    for n, row in table:
        cells = []
        for fa, fb, flag in row:
            a = f"{fa}*" if flag == "alpha" else f"{fa}"
            b = f"{fb}*" if flag == "beta" else f"{fb}"
            cells.append(f"{a} {b}".ljust(8))
        print(f"n={n}".ljust(8) + "  ".join(cells))
    return 0


def cmd_verify(args) -> int:
    reports = run_suites(args.suite, seed=args.seed, instances=args.instances)
    for rep in reports:
        if rep.failures:
            status = "FAIL"
        elif rep.passed:
            status = "pass"
        else:
            status = "none"  # nothing was checked, which is not a pass
        line = f"[{status}] {rep.name}: {rep.checked} checked"
        if rep.failures:
            line += f", {len(rep.failures)} failures, first at {rep.failures[0]}"
        print(line)
    return 0 if all(rep.passed for rep in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latround",
        description="Exact discrete convexity toolkit: predicates, Minkowski "
        "sums, rounding pipelines, bound tables and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="classify set files, with witnesses")
    p_check.add_argument("files", nargs="+")
    p_check.add_argument(
        "--class",
        dest="cls",
        required=True,
        choices=["ic", "mnat", "lnat", "holefree"],
    )
    p_check.set_defaults(func=cmd_check)

    p_sum = sub.add_parser("sum", help="Minkowski sum of set files")
    p_sum.add_argument("files", nargs="+")
    p_sum.add_argument("--holes", action="store_true", help="also list hull holes")
    p_sum.set_defaults(func=cmd_sum)

    p_round = sub.add_parser("round", help="round a hull point to a sum point")
    p_round.add_argument("files", nargs="+")
    p_round.add_argument("--x", required=True, help="query point, e.g. '1/2,3/4'")
    p_round.add_argument(
        "--norm",
        default="linf",
        choices=["linf", "l2", "best"],
        help="linf: within alpha(n, m); l2: within beta(n, m); best: the nearer "
        "of the two in the max norm, within min(alpha, beta). The mnat class "
        "takes only linf",
    )
    p_round.add_argument("--class", dest="cls", default="ic", choices=["ic", "mnat", "lnat"])
    p_round.add_argument(
        "--trust",
        action="store_true",
        help="skip the summand class verification",
    )
    p_round.set_defaults(func=cmd_round)

    p_bounds = sub.add_parser("bounds", help="floor bound tables")
    p_bounds.add_argument(
        "--paper-table",
        action="store_true",
        help="emit the published 6x5 reference grid",
    )
    p_bounds.add_argument("--n-list", type=int, nargs="+")
    p_bounds.add_argument("--m-list", type=int, nargs="+")
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=["predicates", "rounding", "bounds", "all"],
    )
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--instances", type=int, default=200)
    p_verify.set_defaults(func=cmd_verify)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except BudgetError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # an answer or a message holds an integer with more digits than the
        # interpreter converts to text; its message names that limit
        if "int_max_str_digits" not in str(exc):
            raise
        print(f"error: a number is too long to print: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
