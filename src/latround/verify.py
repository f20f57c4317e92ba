"""Randomized and exhaustive property suites.

Each suite re-checks a family of guarantees on generated instances and
reports per-invariant counts.  Failures carry the (seed, index) pair
that reproduces the instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .bounds import Comparison, alpha_beta_compare, bound_pair, theta
from .discrete_sets import (
    integral_convexity_witness,
    integral_neighborhood,
    is_hole_free,
    is_lnat_convex,
    is_mnat_convex,
)
from .errors import UsageError
from .exact_geometry import RationalPoint, hull_membership
from .minkowski import minkowski_sum
from .oracle import (
    InstanceFamily,
    enumerate_class_sets,
    oracle_integral_convexity,
    oracle_membership,
    oracle_nearest,
)
from .shapley_folkman import decompose_into_summand_hulls, sf_round_l2, sf_round_linf

__all__ = [
    "InvariantReport",
    "rounding_instances",
    "run_predicates_suite",
    "run_rounding_suite",
    "run_bounds_suite",
    "run_suites",
]


@dataclass
class InvariantReport:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)

    def ok(self):
        self.checked += 1

    def fail(self, detail):
        self.checked += 1
        self.failures.append(detail)

    @property
    def passed(self) -> bool:
        """No failures, and at least one instance checked."""
        return self.checked >= 1 and not self.failures


def _exhaustive_grid_family():
    fam = InstanceFamily(dim=2, box=((0, 2), (0, 2)), class_filter="any", seed=0)
    return enumerate_class_sets(fam)


def run_predicates_suite() -> list:
    """Exhaustive class implications over the 3x3 grid."""
    mnat_ic = InvariantReport("mnat implies integrally convex")
    lnat_ic = InvariantReport("lnat implies integrally convex")
    ic_holefree = InvariantReport("integrally convex implies hole-free")
    certified = InvariantReport("integral-convexity witnesses are certified by the oracle")
    oracle_ic = InvariantReport("integral convexity test agrees with the oracle")
    for s in _exhaustive_grid_family():
        w = integral_convexity_witness(s)
        ic = w is None
        if is_mnat_convex(s):
            if ic:
                mnat_ic.ok()
            else:
                mnat_ic.fail(s.points)
        if is_lnat_convex(s):
            if ic:
                lnat_ic.ok()
            else:
                lnat_ic.fail(s.points)
        if ic:
            if is_hole_free(s):
                ic_holefree.ok()
            else:
                ic_holefree.fail(s.points)
        if not ic:
            local = s.intersect_points(integral_neighborhood(w))
            if oracle_membership(s, w.coords) and (
                not local or not oracle_membership(local, w.coords)
            ):
                certified.ok()
            else:
                certified.fail(s.points)
        if oracle_integral_convexity(s) == ic:
            oracle_ic.ok()
        else:
            oracle_ic.fail(s.points)
    return [mnat_ic, lnat_ic, ic_holefree, certified, oracle_ic]


def rounding_instances(seed: int, count: int):
    """Deterministic stream of (sets, x, index) rounding instances.

    Dimensions 2 and 3, up to three integrally convex summands drawn
    from boxes inside {0,..,2}^n (exhaustively filtered in 2-d, sampled
    then filtered in 3-d), and x a random rational combination of sum
    points, snapped to an integral hull point about a third of the time.
    """
    for sets, x, index, _ in _rounding_instances(seed, count):
        yield sets, x, index


def _rounding_instances(seed: int, count: int):
    """The stream of ``rounding_instances``, each with its witnessed sum
    W: (sets, x, index, W)."""
    for index in range(count):
        rng = random.Random(seed * 9_176_941 + index + 1)
        n = rng.choice([2, 3])
        m = rng.choice([1, 2, 3])
        sets = []
        for _ in range(m):
            box = tuple((0, rng.randint(1, 2)) for _ in range(n))
            fam = InstanceFamily(
                dim=n,
                box=box,
                class_filter="integrally_convex",
                seed=rng.randrange(2**31),
            )
            sets.append(next(enumerate_class_sets(fam, count=1)))
        w = minkowski_sum(sets)
        k = rng.randint(1, min(3, len(w.result)))
        chosen = rng.sample(list(w.result.points), k)
        weights = [Fraction(rng.randint(1, 5)) for _ in chosen]
        total = sum(weights)
        coords = [
            sum((wt / total) * p[i] for wt, p in zip(weights, chosen))
            for i in range(n)
        ]
        x = RationalPoint(coords)
        if rng.random() < 0.35:
            snapped = tuple(x.floor())
            if hull_membership(w.result, snapped) is not None:
                x = RationalPoint(snapped)
        yield sets, x, index, w


def run_rounding_suite(seed: int = 42, instances: int = 200) -> list:
    """Distance bounds and decomposition invariants on random instances."""
    linf_bound = InvariantReport("max-norm distance within alpha(n, m)")
    linf_floor = InvariantReport("integral x within min(n, m) - 1")
    l2_bound = InvariantReport("squared distance within beta(n, m)^2")
    decomp = InvariantReport("basic split: |I| <= min(n, m), exact rebuild")
    pipeline_in_sum = InvariantReport("rounded points are sum points")
    oracle_opt = InvariantReport("global scan confirms the bound")
    for sets, x, index, w in _rounding_instances(seed, instances):
        n = sets[0].dim
        m = len(sets)
        pair = bound_pair(n, m)
        tag = (seed, index)
        res_inf = sf_round_linf(sets, x, verify=False)
        res_l2 = sf_round_l2(sets, x, verify=False)
        integral = x.is_integral()
        if res_inf.distance_linf <= pair.alpha:
            linf_bound.ok()
        else:
            linf_bound.fail(tag)
        if integral:
            if res_inf.distance_linf <= min(n, m) - 1:
                linf_floor.ok()
            else:
                linf_floor.fail(tag)
        if res_l2.distance_l2_sq <= pair.beta_sq:
            l2_bound.ok()
        else:
            l2_bound.fail(tag)
        if res_inf.z in w and res_l2.z in w:
            pipeline_in_sum.ok()
        else:
            pipeline_in_sum.fail(tag)
        # the one stacked split that both pipelines round from
        split = decompose_into_summand_hulls(sets, x)
        fractional = sum(len(comb) > 1 for _, comb in split)
        rebuilt = tuple(map(sum, zip(*(y.coords for y, _ in split))))
        if fractional <= min(n, m) and rebuilt == x.coords:
            decomp.ok()
        else:
            decomp.fail(tag)
        _, best_inf = oracle_nearest(w, x, "linf")
        _, best_l2 = oracle_nearest(w, x, "l2")
        if (
            best_inf <= res_inf.distance_linf
            and best_l2 <= res_l2.distance_l2_sq
            and best_inf <= pair.alpha
            and best_l2 <= pair.beta_sq
        ):
            oracle_opt.ok()
        else:
            oracle_opt.fail(tag)
    return [linf_bound, linf_floor, l2_bound, decomp, pipeline_in_sum, oracle_opt]


def run_bounds_suite() -> list:
    """Exact trichotomy sweep and threshold estimates."""
    trichotomy = InvariantReport("comparator matches the case analysis")
    sandwich = InvariantReport("(n+2)/4 < theta(n) < (n+3)/4 for n >= 5")
    noninteger = InvariantReport("theta(n) is never an integer for n >= 3")
    threshold = InvariantReport("m vs theta(n) decides the comparison")
    for n in range(2, 201):
        for m in range(1, 201):
            got = alpha_beta_compare(n, m)
            if m == 1:
                want = Comparison.ALPHA_SMALLER
            elif n == 2:
                want = Comparison.EQUAL
            elif n <= 4 * m - 3:
                want = Comparison.BETA_SMALLER
            else:
                want = Comparison.ALPHA_SMALLER
            if got == want:
                trichotomy.ok()
            else:
                trichotomy.fail((n, m))
            if m >= 2 and n >= 3:
                t = theta(n)
                agrees = (got == Comparison.ALPHA_SMALLER) == (m < t) and (
                    got == Comparison.BETA_SMALLER
                ) == (m > t)
                if agrees:
                    threshold.ok()
                else:
                    threshold.fail((n, m))
    for n in range(5, 10_001):
        t = theta(n)
        if Fraction(n + 2, 4) < t < Fraction(n + 3, 4):
            sandwich.ok()
        else:
            sandwich.fail(n)
    for n in range(3, 10_001):
        if theta(n).denominator != 1:
            noninteger.ok()
        else:
            noninteger.fail(n)
    return [trichotomy, sandwich, noninteger, threshold]


def run_suites(suite: str, seed: int = 42, instances: int = 200) -> list:
    if instances < 1:
        raise UsageError(f"the instance count must be positive, got {instances}")
    reports = []
    if suite in ("predicates", "all"):
        reports.extend(run_predicates_suite())
    if suite in ("rounding", "all"):
        reports.extend(run_rounding_suite(seed, instances))
    if suite in ("bounds", "all"):
        reports.extend(run_bounds_suite())
    return reports
