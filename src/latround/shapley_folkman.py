"""Decomposition and rounding pipelines for Minkowski sums.

Given integrally convex summands and a hull point x of their sum W,
these pipelines produce an actual sum point z within the closed-form
distance bounds: alpha(n, m) in the max norm and beta(n, m) in the
Euclidean norm.  Every step carries an exact certificate and every
claimed bound is asserted before a result is returned.  ``round_point``
is the one dispatcher over summand class and norm; ``sf_round_linf``,
``sf_round_l2``, ``mnat_round`` and ``lnat_round`` are named entry
points into it.

Every summand class is rounded by one integrally convex core, after a
reduction to integrally convex summands:

- integrally convex summands are passed as given;
- midpoint-convex summands are summed in consecutive pairs, and each
  pair sum is integrally convex, so m becomes ceil(m/2);
- exchange-convex summands are summed into W, which is exchange-convex
  and so one integrally convex summand; alpha(n, 1) = 1 - 1/n is the
  exchange-convex bound.

The core never enumerates the sum of its summands for a fractional x.
It runs one stacked LP over all its summands at once
(``decompose_into_summand_hulls``):

- the LP splits x into per-summand hull points y_i.  Its basic solution
  leaves at most min(n, m) summands (I) on more than one point; every
  other summand j (J) contributes one lattice point p_j;
- each summand i in I is clipped to T_i = S_i ∩ N(y_i), its points in
  the integral neighborhood of y_i.  An integrally convex S_i has y_i in
  conv(T_i), and T_i lies in a translated unit cube;
- for the max norm, each y_i is cube-rounded to its nearest point of
  T_i, at most 1 - 1/n away, so z is within |I| (1 - 1/n) <= alpha(n, m)
  of x.  The Euclidean norm scans the small sum of the T_i instead.

Summands that were not verified (``verify=False``) are checked at each
share by ``local_restrictions``, one local LP per fractional share, so a
summand that is not integrally convex raises DomainError naming it.
z is assembled from one point per summand, each checked to lie in its
summand.  The sum W is built (by ``minkowski_sum``) only to test whether
an integral x is itself a sum point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .bounds import bound_pair
from .discrete_sets import (
    LatticeSet,
    integral_convexity_witness,
    integral_neighborhood,
    lnat_violation,
    mnat_violation,
)
from .errors import DomainError, InternalError, UsageError
from .exact_geometry import (
    ConvexCombination,
    RationalPoint,
    _membership_lp,
    _membership_support,
    _point_sum,
    _Value,
)
from .minkowski import _check_sets, minkowski_sum

__all__ = [
    "SfDecomposition",
    "RoundingResult",
    "decompose_into_summand_hulls",
    "local_restrictions",
    "sf_decompose",
    "cube_round",
    "sf_round_linf",
    "sf_round_l2",
    "mnat_round",
    "lnat_round",
    "round_point",
]


class SfDecomposition(_Value):
    """Index split of a sum decomposition: hull points on I, lattice
    points on J, reconstructing x exactly with |I| <= min(n, m)."""

    __slots__ = ("x", "fractional", "integral")

    def __init__(self, x: RationalPoint, fractional: dict, integral: dict):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "fractional", dict(fractional))
        object.__setattr__(self, "integral", dict(integral))
        n = x.dim
        m = len(self.fractional) + len(self.integral)
        if len(self.fractional) > min(n, m):
            raise InternalError(
                f"{len(self.fractional)} fractional summands exceed min({n}, {m})"
            )
        shares = [comb.target for comb in self.fractional.values()]
        total = _point_sum(shares + [RationalPoint(z) for z in self.integral.values()])
        if total != x:
            raise InternalError(f"decomposition reconstructs {total}, not {x}")

    def _key(self):
        return (
            self.x,
            tuple(sorted(self.fractional.items())),
            tuple(sorted(self.integral.items())),
        )

    def _args(self):
        return (self.x, self.fractional, self.integral)

    @property
    def index_sets(self):
        return (tuple(sorted(self.fractional)), tuple(sorted(self.integral)))

    def hull_point(self, i: int) -> RationalPoint:
        return self.fractional[i].target

    def __repr__(self):
        i_set, j_set = self.index_sets
        return f"SfDecomposition(I={list(i_set)}, J={list(j_set)})"


class RoundingResult(_Value):
    """A sum point z near x, with exact distances and the asserted bound.

    Distances are recomputed from x and z on construction; whichever
    bounds are supplied are checked right here, so a RoundingResult that
    exists honors its bounds; a copied or unpickled one is rebuilt here
    too.  Two results are equal when x, z, the tag and both bounds are.
    """

    __slots__ = (
        "x",
        "z",
        "distance_linf",
        "distance_l2_sq",
        "bound_linf",
        "bound_l2_sq",
        "theorem_tag",
    )

    def __init__(
        self,
        x: RationalPoint,
        z: tuple,
        theorem_tag: str,
        bound_linf: Optional[Fraction] = None,
        bound_l2_sq: Optional[Fraction] = None,
    ):
        x = RationalPoint(x)
        z = tuple(int(c) for c in z)
        d_linf = x.linf_distance(RationalPoint(z))
        d_l2sq = x.l2sq_distance(RationalPoint(z))
        if bound_linf is not None and d_linf > bound_linf:
            raise InternalError(
                f"max-norm distance {d_linf} violates the bound {bound_linf}"
            )
        if bound_l2_sq is not None and d_l2sq > bound_l2_sq:
            raise InternalError(
                f"squared distance {d_l2sq} violates the bound {bound_l2_sq}"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "distance_linf", d_linf)
        object.__setattr__(self, "distance_l2_sq", d_l2sq)
        object.__setattr__(self, "bound_linf", bound_linf)
        object.__setattr__(self, "bound_l2_sq", bound_l2_sq)
        object.__setattr__(self, "theorem_tag", theorem_tag)

    def _key(self):
        # also the constructor's arguments, in its order
        return (self.x, self.z, self.theorem_tag, self.bound_linf, self.bound_l2_sq)

    _args = _key

    def __repr__(self):
        return (
            f"RoundingResult(z={self.z}, linf={self.distance_linf}, "
            f"l2_sq={self.distance_l2_sq}, tag={self.theorem_tag!r})"
        )


def decompose_into_summand_hulls(sets: Sequence[LatticeSet], x) -> list:
    """Split x in conv(S_1 + ... + S_m) into certified per-summand hull points.

    Returns [(y_i, combination over summand i)] with sum(y_i) = x.  One
    kernel LP decides membership and splits x at once, over the stacked
    system: n coordinate rows, then one convex-weight row per summand,
    over the sum of |S_i| columns.  Its basic feasible solution has at
    most m + n positive weights and each summand needs at least one, so
    at most n summands get more than one support point; all others are
    single lattice points.  Each summand's first point starts basic in
    its convex-weight row, so phase 1 only pivots out the n coordinate
    rows' artificials.  Bland's rule in the kernel makes the split
    deterministic.  Raises DomainError, carrying this LP's phase-1
    infeasibility gap, when x is outside the hull.
    """
    sets = list(sets)
    n = _check_sets(sets)
    x = RationalPoint(x)
    if x.dim != n:
        raise UsageError(f"x is {x.dim}-dimensional, the summands are {n}-dimensional")
    groups = [s.points for s in sets]
    status, payload = _membership_lp(groups, x)
    if status != "feasible":
        gap = Fraction(*payload)
        raise DomainError(
            f"{x} is outside the hull of the sum (phase-1 infeasibility gap {gap})",
            witness=x,
        )
    columns = [p for points in groups for p in points]
    owners = [i for i, points in enumerate(groups) for _ in points]
    per_set: list = [[] for _ in sets]
    for entry in payload:
        per_set[owners[entry[0]]].append(entry)
    parts = [ConvexCombination.from_payload(columns, entries) for entries in per_set]
    if _point_sum([part.target for part in parts]) != x:
        raise InternalError("summand hull points do not add up to x")
    return [(part.target, part) for part in parts]


def local_restrictions(sets: Sequence[LatticeSet], ys: Sequence) -> list:
    """Clip each summand to the integral neighborhood of its hull point,
    and certify the point in the hull of the clipped set.

    Returns [(T_i, combination certifying y_i in conv(T_i))].  T_i sits
    inside a translated unit cube by construction.  A failed certificate
    means the summand is not integrally convex at y_i, which is reported
    with that witness.  A lattice-point y_i is its own neighborhood, so
    it certifies itself with weight 1 and needs no LP.

    The rounding core runs this only on summands it has not verified, as
    the check that each share lies in the hull of its clipped summand;
    verified integrally convex summands are clipped without an LP.
    """
    if len(sets) != len(ys):
        raise UsageError("one hull point per summand is required")
    out = []
    for i, (s, y) in enumerate(zip(sets, ys)):
        y = RationalPoint(y)
        if y.dim != s.dim:
            raise UsageError("dimension mismatch between summand and hull point")
        local = _clip(s, y)
        if not len(local):
            cert = None
        elif y.is_integral():
            cert = ConvexCombination.from_numerators(local.points, (1,), 1)
        else:
            cert = _membership_support(local.points, y)
        if cert is None:
            raise DomainError(
                f"summand {i} is not integrally convex: {y} has no local certificate",
                witness=y,
            )
        out.append((local, cert))
    return out


def _clip(s: LatticeSet, y: RationalPoint) -> LatticeSet:
    """The points of s in the integral neighborhood of y."""
    return s.intersect_points(integral_neighborhood(y).members)


def sf_decompose(ts: Sequence[LatticeSet], x, certs: Sequence[ConvexCombination]) -> SfDecomposition:
    """Reduce a per-summand hull representation of x to basic form.

    The stacked system has one convex-weight row per summand and one row
    per coordinate; a basic solution of it leaves at most min(n, m)
    summands with more than one support point.  Those form I (hull
    points); the rest contribute a single lattice point each and form J.
    A one-point certificate is the only column in its convex-weight row,
    so it stays as it is: only the certificates with more than one point
    are reduced, to a basic solution of the stacked membership LP over
    their points at the sum of their targets
    (``decompose_into_summand_hulls``).  With one summand, |I| <= 1 holds
    as given, so its certificate is kept unchanged, without an LP.
    """
    x = RationalPoint(x)
    ts = list(ts)
    certs = list(certs)
    if len(ts) != len(certs) or not ts:
        raise UsageError("need one certificate per summand")
    n = x.dim
    for s, cert in zip(ts, certs):
        if not isinstance(cert, ConvexCombination):
            raise UsageError("certificates must be ConvexCombination values")
        if cert.dim != n or s.dim != n:
            raise UsageError("dimension mismatch in decomposition input")
        for p in cert.points():
            if p not in s:
                raise UsageError(f"certificate point {p} is not in its summand")
    total = _point_sum([cert.target for cert in certs])
    if total != x:
        raise UsageError(f"certificates sum to {total}, not {x}")

    integral = {i: cert.points()[0] for i, cert in enumerate(certs) if len(cert) == 1}
    multi = [i for i, cert in enumerate(certs) if len(cert) > 1]
    if len(certs) == 1 or not multi:
        return SfDecomposition(x, {i: certs[i] for i in multi}, integral)
    split = decompose_into_summand_hulls(
        [LatticeSet(certs[i].points()) for i in multi],
        _point_sum([certs[i].target for i in multi]),
    )
    fractional = {}
    for i, (_, part) in zip(multi, split):
        if len(part) == 1:
            integral[i] = part.points()[0]
        else:
            fractional[i] = part
    return SfDecomposition(x, fractional, integral)


def cube_round(s: LatticeSet, x, cert: ConvexCombination) -> tuple:
    """Nearest point of a unit-cube-contained set in the max norm.

    Requires n >= 2, s inside a translated unit cube and a certificate
    that x is in conv(s).  The exact scan over s (at most 2^n points)
    returns the lexicographically least minimizer; its distance is
    asserted to be at most 1 - 1/n, which holds for every certified
    input.  The rounding core runs the same scan on each clipped summand
    of I, whose share it has already certified.
    """
    x = RationalPoint(x)
    n = x.dim
    if n < 2:
        raise UsageError("cube rounding needs dimension at least 2")
    if not isinstance(s, LatticeSet) or len(s) == 0 or s.dim != n:
        raise UsageError("need a nonempty lattice set of matching dimension")
    if any(hi - lo > 1 for lo, hi in s.bbox):
        raise UsageError("set is not contained in a translated unit cube")
    if not isinstance(cert, ConvexCombination) or cert.target != x:
        raise UsageError("certificate does not certify x")
    for p in cert.points():
        if p not in s:
            raise UsageError(f"certificate point {p} is outside the set")
    return _cube_nearest(s, x)


def _cube_nearest(s: LatticeSet, x: RationalPoint) -> tuple:
    """The lexicographically least max-norm-nearest point of s to x,
    asserted to be at most 1 - 1/n away (x in conv(s), s in a unit cube)."""
    # min keeps the first, lexicographically least, of equally near points
    best = min(s.points, key=lambda p: x.linf_distance(RationalPoint(p)))
    best_d = x.linf_distance(RationalPoint(best))
    n = x.dim
    if best_d > Fraction(n - 1, n):
        raise InternalError(
            f"cube rounding distance {best_d} exceeds 1 - 1/{n}; upstream bug"
        )
    return best


_CLASS_LABELS = {"ic": "integrally convex", "mnat": "exchange-convex", "lnat": "midpoint-convex"}
_NORMS = ("linf", "l2", "best")


def round_point(
    sets: Sequence[LatticeSet], x, cls: str = "ic", norm: str = "linf", verify: bool = True
) -> RoundingResult:
    """Round x in conv(W), W the sum of ``sets``, to a point z of W.

    ``cls`` names the summand class and picks the theorem:

    - "ic", integrally convex: max-norm distance at most alpha(n, m),
      and at most min(n, m) - 1 for integral x; squared Euclidean
      distance at most beta(n, m)^2.
    - "mnat", exchange-convex: the sum W is exchange-convex, hence one
      integrally convex summand, so the "ic" bound holds with m = 1:
      max-norm distance at most alpha(n, 1) = 1 - 1/n, and 0 for
      integral x.  Only ``norm="linf"`` is supported.
    - "lnat", midpoint-convex: summands are paired (1,2), (3,4), ...;
      the pair sums are integrally convex, so the "ic" bounds hold with
      m' = ceil(m/2) in place of m.

    Each class is thus reduced to a list of integrally convex summands,
    which one core (``_round_ic``) rounds.

    ``norm`` picks the pipeline: "linf" cube-rounds each fractional
    share to its nearest point of its clipped summand; "l2" scans the
    sum of the clipped summands for the nearest point; "best" runs both
    on one split and keeps the nearer point in the max norm, which is
    within min(alpha, beta).  Every norm but ic/l2 needs dimension at
    least 2.  ``verify=False`` skips the class check of the summands and
    trusts the caller; the core then certifies each fractional share in
    its clipped summand with one local LP (``local_restrictions``), so a
    summand that is not integrally convex there still raises DomainError
    naming it.  The result is tagged "mnat" or "<cls>-<norm>".

    The core splits x over its summands with one stacked LP
    (``decompose_into_summand_hulls``), whatever the norm.  It never
    enumerates their sum for a fractional x, so for "ic" and "lnat" the
    cost grows with the sum of the summand sizes, not their product.  An
    integral x is first looked up in the enumerated sum, which keeps the
    enumeration budget: past it, such a call raises BudgetError; "mnat"
    enumerates W always.
    """
    if cls not in _CLASS_LABELS:
        raise UsageError(f"unknown class {cls!r}")
    if norm not in _NORMS:
        raise UsageError(f"unknown norm {norm!r}")
    if cls == "mnat" and norm != "linf":
        raise UsageError(f"exchange-convex rounding supports only the linf norm, not {norm!r}")
    sets = list(sets)
    n = _check_sets(sets)
    if n < 2 and (cls, norm) != ("ic", "l2"):
        raise UsageError(f"{cls} {norm} rounding needs dimension at least 2")
    x = RationalPoint(x)
    if x.dim != n:
        raise UsageError("dimension mismatch between x and the summands")
    if verify:
        # resolved per call, so that wrappers on these module names (the
        # traced bench run installs some) see the calls
        witness_fn = {
            "ic": integral_convexity_witness,
            "mnat": mnat_violation,
            "lnat": lnat_violation,
        }[cls]
        for i, s in enumerate(sets):
            bad = witness_fn(s)
            if bad is not None:
                raise DomainError(
                    f"summand {i} is not {_CLASS_LABELS[cls]}: witness {bad}", witness=bad
                )
    if cls == "mnat":
        return _round_ic([minkowski_sum(sets).result], x, norm, "mnat", verify)
    if cls == "lnat":
        # the pair sums are checked to be integrally convex in any case
        return _round_ic(_pair_sums(sets, verify), x, norm, f"lnat-{norm}", True)
    return _round_ic(sets, x, norm, f"ic-{norm}", verify)


def _pair_sums(sets: list, verify: bool) -> list:
    """Sums of the consecutive pairs of midpoint-convex summands, each
    checked to be integrally convex."""
    effective = [
        minkowski_sum(sets[i : i + 2]).result if i + 1 < len(sets) else sets[i]
        for i in range(0, len(sets), 2)
    ]
    for i, s in enumerate(effective):
        bad = integral_convexity_witness(s)
        if bad is not None:
            if verify:
                raise InternalError(
                    f"pair sum {i} of verified midpoint-convex sets is not "
                    f"integrally convex at {bad}"
                )
            raise DomainError(
                f"pair sum {i} is not integrally convex; summands were not verified",
                witness=bad,
            )
    return effective


def _round_ic(sets: list, x: RationalPoint, norm: str, tag: str, certified: bool) -> RoundingResult:
    """The integrally convex core; W is built only for an integral x.

    One stacked LP splits x; the max norm takes, for each summand of I,
    the lexicographically least nearest point of its clipped summand to
    its share, and the summands of J keep their points.
    ``certified`` says that every summand is known to be integrally
    convex, so each share y_i lies in the hull of its clipped summand
    S_i ∩ N(y_i) and the clipping needs no LP.  Otherwise
    ``local_restrictions`` certifies every share first, with one local LP
    per fractional share, and raises DomainError at the first summand
    that fails.
    """
    n = x.dim
    m = len(sets)
    pair = bound_pair(n, m)
    integral = x.is_integral()
    if integral and x.as_int_tuple() in minkowski_sum(sets):
        z = x.as_int_tuple()
    else:
        split = decompose_into_summand_hulls(sets, x)
        # I: the summands that the split leaves on more than one point
        again = [i for i, (_, comb) in enumerate(split) if len(comb) > 1]
        if certified:
            clipped = [_clip(sets[i], split[i][0]) for i in again]
        else:
            local = local_restrictions(sets, [y for y, _ in split])
            clipped = [local[i][0] for i in again]
        candidates = []
        if norm != "l2":
            cubed = [_cube_nearest(t, split[i][0]) for i, t in zip(again, clipped)]
            candidates.append(_assemble(split, again, cubed))
        if norm != "linf":
            candidates.append(_assemble(split, again, _nearest_clipped(split, again, clipped)))
        # min keeps the first of equally near candidates: linf before l2
        z, parts = min(candidates, key=lambda c: x.linf_distance(RationalPoint(c[0])))
        for i, (s, p) in enumerate(zip(sets, parts)):
            if p not in s:
                raise InternalError(f"rounded part {p} is not a point of summand {i}")
    if norm == "linf":
        bound = Fraction(min(n, m) - 1) if integral else pair.alpha
        return RoundingResult(x, z, tag, bound_linf=bound)
    if norm == "l2":
        bound = Fraction(pair.floor_beta) if integral else None
        return RoundingResult(x, z, tag, bound_l2_sq=pair.beta_sq, bound_linf=bound)
    # the better of the two is within min(alpha, beta) in the max norm,
    # i.e. within alpha and within beta at once; beta is irrational, so
    # its half of the check compares squares
    d = x.linf_distance(RationalPoint(z))
    if d > pair.alpha or d * d > pair.beta_sq:
        raise InternalError(f"combined distance {d} violates the bound")
    bound = Fraction(min(pair.floor_alpha, pair.floor_beta)) if integral else pair.alpha
    return RoundingResult(x, z, tag, bound_linf=bound)


def _nearest_clipped(split, again, clipped) -> tuple:
    """The points of the clipped summands of I whose sum is nearest, and
    lexicographically least among the nearest, in the Euclidean norm to
    the rest of x, their shares' sum.

    The summands of J are single points, so the clipped sum is the sum
    over I, at most n summands whatever m is, moved by the points of J;
    its nearest point to x is the nearest point of the sum over I to the
    rest of x, moved by the same points.
    """
    rest = _point_sum([split[i][0] for i in again])  # x less the points of J
    total = minkowski_sum(clipped)
    # min keeps the first, lexicographically least, of equally near points
    best = min(total.result.points, key=lambda p: rest.l2sq_distance(RationalPoint(p)))
    return total.witnesses[best]


def _assemble(split, again, chosen) -> tuple:
    """(z, parts): one point per summand, the points of J with ``chosen``
    put in for the summands of I, and their sum z."""
    parts = [comb.points()[0] for _, comb in split]
    for i, p in zip(again, chosen):
        parts[i] = p
    return tuple(map(sum, zip(*parts))), tuple(parts)


def sf_round_linf(sets: Sequence[LatticeSet], x, verify: bool = True) -> RoundingResult:
    """Round x in conv(W) to z in W with max-norm distance at most
    alpha(n, m); at most min(n, m) - 1 when x is integral.

    Split x over the summand hulls with one stacked LP, clip each of the
    at most min(n, m) fractional summands to the integral neighborhood
    of its share, and cube-round the share to its lexicographically
    least nearest point there.  Same as
    ``round_point(sets, x, "ic", "linf", verify)``.
    """
    return round_point(sets, x, "ic", "linf", verify)


def sf_round_l2(sets: Sequence[LatticeSet], x, verify: bool = True) -> RoundingResult:
    """Round x in conv(W) to the nearest point of the clipped sum in the
    Euclidean norm; the squared distance is at most beta(n, m)^2, and
    for integral x the max-norm distance is at most floor(beta(n, m)).
    Same as ``round_point(sets, x, "ic", "l2", verify)``.
    """
    return round_point(sets, x, "ic", "l2", verify)


def mnat_round(sets: Sequence[LatticeSet], x, verify: bool = True) -> RoundingResult:
    """Round over exchange-convex summands: distance at most 1 - 1/n,
    the integrally convex bound alpha(n, 1) for their sum W as one
    summand.  Same as ``round_point(sets, x, "mnat", "linf", verify)``.
    """
    return round_point(sets, x, "mnat", "linf", verify)


def lnat_round(
    sets: Sequence[LatticeSet], x, norm: str = "best", verify: bool = True
) -> RoundingResult:
    """Round over midpoint-convex summands by pairing them first, within
    alpha(n, m') and beta(n, m') for m' = ceil(m/2); norm is "linf",
    "l2", or "best" for the better of the two.  Same as
    ``round_point(sets, x, "lnat", norm, verify)``.
    """
    return round_point(sets, x, "lnat", norm, verify)
