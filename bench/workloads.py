"""The three benchmark workloads: inputs from a seed, operations, output checks.

A workload is a list of operations grouped in blocks.  One block holds the
workload's operation mix once, and the timed phase always runs whole blocks,
so every run measures the same mix whatever the seed.  Operations look up
latround's functions at call time, which lets the tracer's wrappers see them.

Inputs are made with plain set arithmetic (``set_sum``) and latround's cheap
class predicates; the checks use only ``latround.oracle`` and arithmetic
written here, never the timed code paths' own results.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import random
from fractions import Fraction
from itertools import product

import latround
from latround import LatticeSet, bound_pair, cli, oracle
from latround.minkowski import WitnessedSum

GRID2 = list(product(range(3), repeat=2))
CUBE3 = list(product(range(2), repeat=3))


class Op:
    """One operation: ``run()`` calls latround, ``check(output)`` judges it."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


class Workload:
    __slots__ = ("name", "ops", "block")

    def __init__(self, name, ops, block):
        if len(ops) % block:
            raise ValueError("the operation list must hold whole blocks")
        self.name = name
        self.ops = ops
        self.block = block


def subsets(cells):
    """Every nonempty subset of ``cells``, in bitmask order."""
    for mask in range(1, 1 << len(cells)):
        yield [cells[i] for i in range(len(cells)) if mask >> i & 1]


def set_sum(sets):
    """The Minkowski sum as a plain set of points."""
    acc = {(0,) * sets[0].dim}
    for s in sets:
        acc = {tuple(a + b for a, b in zip(p, q)) for p in acc for q in s.points}
    return acc


def hull_point(rng, points, n):
    """A non-integral rational convex combination of 2..n+1 of ``points``."""
    pts = sorted(points)
    for _ in range(100):
        chosen = rng.sample(pts, min(len(pts), rng.randint(2, n + 1)))
        weights = [rng.randint(1, 5) for _ in chosen]
        total = sum(weights)
        x = tuple(
            Fraction(sum(w * p[i] for w, p in zip(weights, chosen)), total) for i in range(n)
        )
        if any(c.denominator != 1 for c in x):
            return x
    raise ValueError("no fractional hull point found")


def _stratified(rng, items, stratum):
    """Seeded order in which every stretch of len(items) / ``stratum`` items
    holds one item of each size stratum, so that any run's prefix has the
    whole family's spread of set sizes."""
    ranked = sorted(items, key=lambda s: (len(s), s.points))
    strata = [ranked[i : i + stratum] for i in range(0, len(ranked), stratum)]
    for group in strata:
        rng.shuffle(group)
    out = []
    for r in range(stratum):
        rng.shuffle(strata)
        out += [group[r] for group in strata if r < len(group)]
    return out


def _interleave(first, second):
    """Merge two lists keeping their ratio in every prefix."""
    total = len(first) + len(second)
    out = []
    i = j = 0
    for k in range(total):
        if (k + 1) * len(first) // total > k * len(first) // total:
            out.append(first[i])
            i += 1
        else:
            out.append(second[j])
            j += 1
    return out


# ---------------------------------------------------------------- checks


def rounding_ok(sets, x, z, cls, norm, bound_linf, bound_l2_sq):
    """Whether z in W is within the theorem's bound and its stated bounds.

    W is the plain set sum.  The nearest points of W that ``oracle_nearest``
    finds, in both norms, must also be within the theorem's bounds.
    """
    w = set_sum(sets)
    z = tuple(z)
    if z not in w:
        return False
    n = len(x)
    m = len(sets)
    xq = latround.RationalPoint(x)
    d_linf = xq.linf_distance(latround.RationalPoint(z))
    d_l2sq = xq.l2sq_distance(latround.RationalPoint(z))
    if cls == "mnat":
        cap_linf = Fraction(n - 1, n)
        cap_l2sq = None
    else:
        pair = bound_pair(n, -(-m // 2) if cls == "lnat" else m)
        cap_linf = pair.alpha
        cap_l2sq = pair.beta_sq
    # the bound the theorem guarantees for the chosen norm
    if norm == "l2" and cls != "mnat":
        if d_l2sq > cap_l2sq:
            return False
    elif d_linf > cap_linf or (norm == "best" and cls != "mnat" and d_linf**2 > cap_l2sq):
        return False
    # stated bounds hold for z and are no looser than a theorem bound
    if bound_linf is not None:
        if d_linf > bound_linf:
            return False
        if bound_linf > cap_linf and (cap_l2sq is None or bound_linf**2 > cap_l2sq):
            return False
    if bound_l2_sq is not None:
        if d_l2sq > bound_l2_sq or cap_l2sq is None or bound_l2_sq > cap_l2sq:
            return False
    # the oracle's global nearest point confirms no bound is violated
    ws = WitnessedSum(LatticeSet(w), {}, tuple(sets))  # oracle_nearest reads only the points
    _, best_linf = oracle.oracle_nearest(ws, x, "linf")
    _, best_l2sq = oracle.oracle_nearest(ws, x, "l2")
    return best_linf <= cap_linf and (cap_l2sq is None or best_l2sq <= cap_l2sq)


def holes_by_oracle(s: LatticeSet):
    """Integer hull points missing from s, decided by ``oracle_membership``."""
    return {
        p
        for p in product(*(range(lo, hi + 1) for lo, hi in s.bbox))
        if p not in s and oracle.oracle_membership(s, p)
    }


def mnat_witness_ok(s: LatticeSet, witness) -> bool:
    """Whether (x, y, i) violates the exchange property of s."""
    x, y, i = witness
    if x not in s or y not in s or x[i] <= y[i]:
        return False
    n = len(x)

    def moved(p, plus, minus):
        return tuple(v + (k == plus) - (k == minus) for k, v in enumerate(p))

    if moved(x, -1, i) in s and moved(y, i, -1) in s:
        return False
    return not any(
        moved(x, j, i) in s and moved(y, i, j) in s for j in range(n) if x[j] < y[j]
    )


def lnat_witness_ok(s: LatticeSet, witness) -> bool:
    """Whether the rounded midpoints of (x, y) leave s."""
    x, y = witness
    if x not in s or y not in s:
        return False
    up = tuple(-((-a - b) // 2) for a, b in zip(x, y))
    down = tuple((a + b) // 2 for a, b in zip(x, y))
    return up not in s or down not in s


# ---------------------------------------------------------------- closure


CLOSURE_STRATUM = 8


def _pair_sums(family):
    seen = {}
    for i, a in enumerate(family):
        for b in family[i:]:
            seen.setdefault(tuple(sorted(set_sum([a, b]))), None)
    return [LatticeSet(pts) for pts in seen]


def _mnat_op(s):
    return Op(
        "mnat_sum",
        lambda: (latround.is_mnat_convex(s), latround.is_hole_free(s)),
        lambda out: out == (True, True),
    )


def _lnat_op(s):
    return Op("lnat_sum", lambda: latround.is_integrally_convex(s), lambda out: out is True)


def closure(seed: int, workdir: str) -> Workload:
    """Criterion 8: every distinct pairwise sum of the Mnat sets of the 3x3
    grid (exchange-convex and hole-free) and of the Lnat sets of {0,1}^3
    (integrally convex), in a seeded order that keeps the families' ratio
    and their spread of sizes in every stretch of a few hundred operations."""
    mnat = [LatticeSet(s) for s in subsets(GRID2) if latround.is_mnat_convex(LatticeSet(s))]
    lnat = [LatticeSet(s) for s in subsets(CUBE3) if latround.is_lnat_convex(LatticeSet(s))]
    mnat_sums = _pair_sums(mnat)
    lnat_sums = _pair_sums(lnat)
    if (len(mnat), len(lnat), len(mnat_sums), len(lnat_sums)) != (68, 73, 777, 2224):
        raise ValueError("the criterion-8 families have changed size")
    rng = random.Random(seed)
    mnat_ops = [_mnat_op(s) for s in _stratified(rng, mnat_sums, CLOSURE_STRATUM)]
    lnat_ops = [_lnat_op(s) for s in _stratified(rng, lnat_sums, CLOSURE_STRATUM)]
    ops = _interleave(mnat_ops, lnat_ops)
    return Workload("closure", ops, 1)


# ---------------------------------------------------------------- round_m

ROUND_M_CASES = [(2, m) for m in range(2, 11)] + [(3, m) for m in range(2, 9)]
ROUND_M_BLOCKS = 16


def summand_sizes(m):
    """Fixed point counts per summand, so the tuple count of each (n, m)
    case, and with it the enumeration cost, does not depend on the seed."""
    return [5] + [3 + i % 2 for i in range(m - 1)]


def _round_pools():
    """Integrally convex sets of 3..5 points, by dimension and size.

    In 2-d: the Mnat and Lnat subsets of the 3x3 grid (both classes are
    integrally convex).  In 3-d: subsets of the unit cube, all of which
    are integrally convex.
    """
    pools = {2: {}, 3: {}}
    for raw in subsets(GRID2):
        s = LatticeSet(raw)
        if 3 <= len(s) <= 5 and (latround.is_mnat_convex(s) or latround.is_lnat_convex(s)):
            pools[2].setdefault(len(s), []).append(s)
    for raw in subsets(CUBE3):
        if 3 <= len(raw) <= 5:
            pools[3].setdefault(len(raw), []).append(LatticeSet(raw))
    return pools


def _round_op(sets, x, norm):
    fn_name = "sf_round_linf" if norm == "linf" else "sf_round_l2"

    def run():
        res = getattr(latround, fn_name)(sets, x)
        return (res.z, res.bound_linf, res.bound_l2_sq)

    def check(out):
        z, b_linf, b_l2 = out
        return rounding_ok(sets, x, z, "ic", norm, b_linf, b_l2)

    return Op(f"{fn_name}.n{len(x)}.m{len(sets)}", run, check)


def round_m(seed: int, workdir: str) -> Workload:
    """sf_round_linf and sf_round_l2, verification on, for every (n, m) of
    ROUND_M_CASES in each block, at seeded fractional hull points."""
    pools = _round_pools()
    ops = []
    for b in range(ROUND_M_BLOCKS):
        rng = random.Random(seed * 1_000_003 + b)
        for n, m in ROUND_M_CASES:
            for norm in ("linf", "l2"):
                sets = [rng.choice(pools[n][k]) for k in summand_sizes(m)]
                ops.append(_round_op(sets, hull_point(rng, set_sum(sets), n), norm))
    return Workload("round_m", ops, 2 * len(ROUND_M_CASES))


# ---------------------------------------------------------------- cli_mix

CLI_BLOCKS = 160
CHECK_CASES = [(cls, n) for cls in ("ic", "mnat", "lnat", "holefree") for n in (2, 3)]
CHECK_PASS_EVERY = 3  # one check in three draws a class member; about 40 % of checks fail
ROUND_CASES = [
    (cls, norm, n, m)
    for cls, norm in [(c, nm) for c in ("ic", "lnat") for nm in ("linf", "l2", "best")]
    + [("mnat", "linf")]
    for n in (2, 3)
    for m in (1, 2, 3)
]
SUM_CASES = [(n, m) for n in (2, 3) for m in (2, 3)]
SUM_INSTANCES = 40  # sums repeat across blocks: re-deriving holes by oracle is slow
SUM_POINTS_LIMIT = 8


def _call_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class SetFiles:
    """Writes each distinct set once as a JSON set file under ``workdir``."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.paths = {}

    def path(self, s: LatticeSet) -> str:
        key = (s.dim, s.points)
        if key not in self.paths:
            path = os.path.join(self.workdir, f"set{len(self.paths)}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"dim": s.dim, "points": [list(p) for p in s.points]}, handle)
            self.paths[key] = path
        return self.paths[key]


def _class_pools():
    """Every subset of the grid, and known members of each class, by dimension."""
    pools = {}
    for n, cells in ((2, GRID2), (3, CUBE3)):
        every = [LatticeSet(raw) for raw in subsets(cells)]
        mnat = [s for s in every if latround.is_mnat_convex(s)]
        lnat = [s for s in every if latround.is_lnat_convex(s)]
        # subsets of a unit cube are integrally convex, hence hole-free
        cube = [s for s in every if all(hi - lo <= 1 for lo, hi in s.bbox)]
        ic = sorted(set(mnat) | set(lnat) | set(cube), key=lambda s: s.points)
        pools[n] = {"any": every, "mnat": mnat, "lnat": lnat, "ic": ic, "holefree": ic}
    return pools


def _mnat_verdict(s):
    return not any(
        mnat_witness_ok(s, (x, y, i)) for x in s.points for y in s.points for i in range(s.dim)
    )


def _lnat_verdict(s):
    return not any(lnat_witness_ok(s, (x, y)) for x in s.points for y in s.points)


# the verdict a check must report: the oracles where they apply, else the
# class definitions tested pair by pair
VERDICTS = {
    "ic": oracle.oracle_integral_convexity,
    "holefree": lambda s: not holes_by_oracle(s),
    "mnat": _mnat_verdict,
    "lnat": _lnat_verdict,
}


def _check_op(files, s, cls):
    argv = ["check", files.path(s), "--class", cls]

    def check(out):
        code, text = out
        if code == 0:
            return text.endswith(": pass\n") and VERDICTS[cls](s)
        if code != 1 or "FAIL witness=" not in text or VERDICTS[cls](s):
            return False
        if cls == "ic":
            return True
        witness = ast.literal_eval(text.split("witness=", 1)[1].strip())
        if cls == "holefree":
            return witness in holes_by_oracle(s)
        if cls == "mnat":
            return mnat_witness_ok(s, witness)
        return lnat_witness_ok(s, witness)

    return Op(f"check.{cls}", lambda: _call_cli(argv), check)


def _parse_rounding(text):
    fields = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    z = ast.literal_eval(fields["z"])
    b_linf = Fraction(fields["bound_linf"]) if "bound_linf" in fields else None
    b_l2 = Fraction(fields["bound_l2_sq"]) if "bound_l2_sq" in fields else None
    return z, b_linf, b_l2


def _cli_round_op(files, sets, x, cls, norm):
    argv = ["round", *(files.path(s) for s in sets), "--x", ",".join(map(str, x))]
    argv += ["--class", cls, "--norm", norm]

    def check(out):
        code, text = out
        if code != 0:
            return False
        z, b_linf, b_l2 = _parse_rounding(text)
        return rounding_ok(sets, x, z, cls, norm, b_linf, b_l2)

    return Op(f"round.{cls}.{norm}", lambda: _call_cli(argv), check)


def _sum_op(files, sets):
    argv = ["sum", *(files.path(s) for s in sets), "--holes"]

    def check(out):
        code, text = out
        if code != 0:
            return False
        data = json.loads(text)
        w = LatticeSet(set_sum(sets))
        got_points = {tuple(p) for p in data["points"]}
        got_holes = {tuple(p) for p in data["holes"]}
        return got_points == set(w.points) and got_holes == holes_by_oracle(w)

    return Op("sum.holes", lambda: _call_cli(argv), check)


def cli_mix(seed: int, workdir: str) -> Workload:
    """Small in-process requests through latround.cli.main: check, round
    and sum --holes in a 3:1:1 ratio on sets of {0,1,2}^2 and {0,1}^3.

    The cases (class, norm, dimension, summand count) cycle in a fixed
    order, so every seed gives the same mix; the seed draws the sets and x.
    """
    pools = _class_pools()
    files = SetFiles(workdir)
    rng = random.Random(seed)
    checks = []
    for k in range(3 * CLI_BLOCKS):
        cls, n = CHECK_CASES[k % len(CHECK_CASES)]
        pool = pools[n][cls] if k % CHECK_PASS_EVERY == 0 else pools[n]["any"]
        checks.append(_check_op(files, rng.choice(pool), cls))
    rounds = []
    for k in range(CLI_BLOCKS):
        cls, norm, n, m = ROUND_CASES[k % len(ROUND_CASES)]
        sets = [rng.choice(pools[n][cls]) for _ in range(m)]
        pts = set_sum(sets)
        x = next(iter(pts)) if len(pts) == 1 else hull_point(rng, pts, n)
        rounds.append(_cli_round_op(files, sets, x, cls, norm))
    sums = []
    for k in range(SUM_INSTANCES):
        n, m = SUM_CASES[k % len(SUM_CASES)]
        small = [s for s in pools[n]["any"] if len(s) <= 3]
        while True:
            sets = [rng.choice(small) for _ in range(m)]
            if len(set_sum(sets)) <= SUM_POINTS_LIMIT:
                sums.append(_sum_op(files, sets))
                break
    ops = []
    for b in range(CLI_BLOCKS):
        c = checks[3 * b : 3 * b + 3]
        ops += [c[0], rounds[b], c[1], sums[b % SUM_INSTANCES], c[2]]
    return Workload("cli_mix", ops, 5)


WORKLOADS = {"closure": closure, "round_m": round_m, "cli_mix": cli_mix}
