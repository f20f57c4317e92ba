"""Lattice sets and discrete convexity predicates.

A LatticeSet is a finite set of integer points.  The predicates decide
integral convexity, hole-freeness, exchange-property convexity (the
"Mnat" class) and discrete midpoint convexity (the "Lnat" class), each
with an exact witness when the answer is negative.  Integral convexity
is decided by the pairwise midpoint characterisation.  Each midpoint
question reduces to whether the centre of a unit cube lies in the hull
of a pattern of its corners; the verdict depends on the pattern alone,
so each pattern is decided by one exact kernel LP and the boolean is
kept in a bounded per-process cache.  Hole-freeness is decided by a
scan of the bounding box: exact integer support bounds in the
directions ±e_i ± e_j and the box's own vertices rule most points out
of the hull, and only the rest cost one exact kernel LP each.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import prod
from operator import add, sub
from typing import Iterable, Optional

from .errors import UsageError, check_budget
from .exact_geometry import RationalPoint, _as_lattice_point, _in_hull, _Value
# bench/selftest.py resolves these two here
from .exact_geometry import _membership_support, hull_facets  # noqa: F401

__all__ = [
    "LatticeSet",
    "IntegralNeighborhood",
    "integral_neighborhood",
    "is_integrally_convex",
    "integral_convexity_witness",
    "is_hole_free",
    "find_hole",
    "is_mnat_convex",
    "mnat_violation",
    "is_lnat_convex",
    "lnat_violation",
]


class LatticeSet(_Value):
    """A finite set of points of Z^n with a cached bounding box."""

    __slots__ = ("dim", "points", "bbox", "_index")

    def __init__(self, points: Iterable, dim: Optional[int] = None, allow_empty: bool = False):
        pts = set(map(_as_lattice_point, points))
        if not pts and not allow_empty:
            raise UsageError("empty lattice set")
        dims = {len(p) for p in pts}
        if len(dims) > 1:
            raise UsageError("points have mixed dimensions")
        if dims:
            (inferred,) = dims
            if dim is not None and dim != inferred:
                raise UsageError(f"points are {inferred}-dimensional, not {dim}")
            dim = inferred
        elif dim is None:
            raise UsageError("empty set needs an explicit dimension")
        self._fill(tuple(sorted(pts)), dim)

    def _fill(self, ordered: tuple, dim: int):
        """Set the fields from sorted distinct integer points."""
        cols = tuple(zip(*ordered))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "points", ordered)
        object.__setattr__(self, "bbox", tuple(zip(map(min, cols), map(max, cols))))
        object.__setattr__(self, "_index", frozenset(ordered))

    def _key(self):
        return (self.dim, self.points)

    def _args(self):
        return (self.points, self.dim, not self.points)

    def __contains__(self, p):
        return tuple(p) in self._index

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __bool__(self):
        return bool(self.points)

    def __repr__(self):
        return f"LatticeSet(dim={self.dim}, points={list(self.points)})"

    def intersect_points(self, pts: Iterable) -> "LatticeSet":
        """The given points that lie in this set, as a possibly empty set."""
        index = self._index
        # members of the set are integer points already: no re-validation
        found = sorted({tuple(map(int, p)) for p in pts if p in index})
        out = object.__new__(LatticeSet)
        out._fill(tuple(found), self.dim)
        return out


class IntegralNeighborhood(_Value):
    """The integer box between floor(x) and ceil(x), componentwise."""

    __slots__ = ("anchor", "members")

    def __init__(self, anchor: RationalPoint, members: tuple):
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "members", members)

    def _key(self):
        return (self.anchor, self.members)

    _args = _key

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, p):
        return tuple(p) in self.members

    def __repr__(self):
        return f"IntegralNeighborhood(anchor={self.anchor}, members={list(self.members)})"


def integral_neighborhood(x) -> IntegralNeighborhood:
    """Integer points z with floor(x) <= z <= ceil(x) in every coordinate."""
    x = RationalPoint(x)
    lo = x.floor()
    hi = x.ceil()
    # product over increasing ranges yields the members in sorted order
    members = tuple(product(*(range(a, b + 1) for a, b in zip(lo, hi))))
    return IntegralNeighborhood(x, members)


def _require_nonempty(s: LatticeSet):
    if not isinstance(s, LatticeSet):
        raise UsageError("expected a LatticeSet")
    if len(s) == 0:
        raise UsageError("predicate is undefined for the empty set")


# The unit k-cube has 2^(2^k) patterns of corners, 278 in all for k <= 3,
# so every pattern of a set in dimension n <= 3 stays cached.
_PATTERN_CACHE_SIZE = 4096


@lru_cache(maxsize=_PATTERN_CACHE_SIZE)
def _centre_in_hull(pattern: tuple) -> bool:
    """Whether the centre (1/2, ..., 1/2) of the unit k-cube lies in the
    hull of the corners that ``pattern`` flags.

    ``pattern`` holds one bool per corner of {0,1}^k, the corners in
    the lexicographic order of ``product((0, 1), repeat=k)``, so its
    length 2^k gives k.  At least one corner is flagged.  Decided by the
    exact kernel LP; only the verdict is kept.
    """
    k = len(pattern).bit_length() - 1
    corners = [c for c, hit in zip(product((0, 1), repeat=k), pattern) if hit]
    return _in_hull(corners, RationalPoint.from_numerators((1,) * k, 2))


def integral_convexity_witness(s: LatticeSet) -> Optional[RationalPoint]:
    """A hull point missing from its local hull, or None when s is
    integrally convex.

    S is integrally convex when every x in conv(S) lies in
    conv(S ∩ N(x)), where N(x) = {z in Z^n : floor(x) <= z <= ceil(x)}
    is the integral neighborhood of x.  For a finite nonempty S ⊆ Z^n
    this holds if and only if, for all x, y in S with ||x - y||_inf >= 2,
    the midpoint (x + y)/2 lies in conv(S ∩ N((x + y)/2)) (Murota and
    Tamura, "Recent progress on integrally convex functions", Japan J.
    Indust. Appl. Math. 40, 2023).  Pairs with ||x - y||_inf <= 1 are
    skipped: x and y then both lie in N((x + y)/2), so the midpoint is
    in the local hull trivially.

    Each midpoint question depends only on a unit-cube pattern.  Let k
    be the number of coordinates where x_i + y_i is odd.  N(mid) is the
    k-dimensional face of the unit cube at floor(mid), and mid is its
    centre.  Translating by floor(mid) and dropping the n - k fixed
    coordinates maps S ∩ N(mid) onto a pattern T ⊆ {0,1}^k and mid onto
    (1/2, ..., 1/2); this affine map is one-to-one on the face, so hull
    membership is the same on both sides.  Each pattern's verdict is
    decided once by an exact LP and kept, as a boolean, in a cache of at
    most _PATTERN_CACHE_SIZE patterns; for k <= 3 there are at most 278
    patterns, whatever n is.

    The witness is the midpoint of the first failing pair (x, y), x
    before y, in the lexicographic order of s.points: its local slice
    is empty or does not have it in its hull.  Raises BudgetError when
    the |S|(|S| - 1)/2 pairs exceed the enumeration budget.
    """
    _require_nonempty(s)
    pts = s.points
    check_budget(len(pts) * (len(pts) - 1) // 2, "the midpoint test", "pairs")
    index = s._index
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            if max(map(abs, map(sub, x, y))) <= 1:
                continue
            sums = tuple(map(add, x, y))
            # the face N(mid): floor and ceil of each coordinate of mid
            face = [(v >> 1,) if v & 1 == 0 else (v >> 1, (v >> 1) + 1) for v in sums]
            pattern = tuple([p in index for p in product(*face)])
            if True in pattern and _centre_in_hull(pattern):
                continue
            return RationalPoint.from_numerators(sums, 2)
    return None


def is_integrally_convex(s: LatticeSet) -> bool:
    """Whether every hull point of s lies in the hull of its integral
    neighborhood slice."""
    return integral_convexity_witness(s) is None


def _hole_candidates(s: LatticeSet):
    """The bounding-box points outside s that may lie in conv(s), in
    lexicographic order.

    Two exact integer tests rule a box point p out of conv(s) without an
    LP.  First, p is a vertex of the box (every p_i is lo_i or hi_i): the
    box contains conv(s), so such a p lies in conv(s) only if it is in
    s.  Second, for every pair i < j, p_i + p_j and p_i - p_j lie within
    their min and max over s: these are the support values of s in the
    2n(n - 1) directions ±e_i ± e_j, found once with O(n^2 |s|)
    additions, and p outside one of them is outside conv(s).  Every
    point that passes both may still be outside conv(s).  Raises
    BudgetError, before the first point, when the box holds more points
    than the enumeration budget.
    """
    bbox = s.bbox
    check_budget(prod(hi - lo + 1 for lo, hi in bbox), "the hole scan", "box points")
    pairs = []
    for i, j in combinations(range(s.dim), 2):
        sums = [q[i] + q[j] for q in s.points]
        diffs = [q[i] - q[j] for q in s.points]
        pairs.append((i, j, min(sums), max(sums), min(diffs), max(diffs)))
    index = s._index
    for p in product(*(range(lo, hi + 1) for lo, hi in bbox)):
        if p in index or all(v == lo or v == hi for v, (lo, hi) in zip(p, bbox)):
            continue
        for i, j, sum_lo, sum_hi, diff_lo, diff_hi in pairs:
            a, b = p[i], p[j]
            if not (sum_lo <= a + b <= sum_hi and diff_lo <= a - b <= diff_hi):
                break
        else:
            yield p


def find_hole(s: LatticeSet) -> Optional[tuple]:
    """An integer hull point missing from s, or None when s is hole-free.

    Scans the bounding box in lexicographic order and returns the first
    point outside s in conv(s).  Points that the box vertices or the
    pair-direction support bounds of ``_hole_candidates`` rule out need
    no LP; each other point outside s costs one exact kernel LP.  Raises
    BudgetError when the box holds more points than the enumeration
    budget.
    """
    _require_nonempty(s)
    for p in _hole_candidates(s):
        if _in_hull(s.points, RationalPoint(p)):
            return p
    return None


def is_hole_free(s: LatticeSet) -> bool:
    """Whether s equals the integer points of its own convex hull."""
    return find_hole(s) is None


def mnat_violation(s: LatticeSet) -> Optional[tuple]:
    """A triple (x, y, i) violating the exchange property, or None.

    The property: for x, y in s and x_i > y_i, either both x - e_i and
    y + e_i belong to s, or some j with x_j < y_j has both x - e_i + e_j
    and y + e_i - e_j in s.  Raises BudgetError when the |S|^2 ordered
    pairs exceed the enumeration budget.
    """
    _require_nonempty(s)
    n = s.dim
    pts = s.points
    check_budget(len(pts) * len(pts), "the exchange test", "ordered pairs")
    index = s._index
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    # x - e_i and y + e_i with their membership in s, built on first use,
    # once per x and once per y
    ups = {}
    for x in pts:
        xm = None
        for y in pts:
            for i in range(n):
                if x[i] <= y[i]:
                    continue
                if xm is None:
                    xm = [tuple(map(sub, x, e)) for e in units]
                    xm_in = [q in index for q in xm]
                up = ups.get(y)
                if up is None:
                    row = [tuple(map(add, y, e)) for e in units]
                    up = ups[y] = (row, [q in index for q in row])
                yp, yp_in = up
                if xm_in[i] and yp_in[i]:
                    continue
                xmi, ypi = xm[i], yp[i]
                for j in range(n):
                    if (
                        x[j] < y[j]
                        and tuple(map(add, xmi, units[j])) in index
                        and tuple(map(sub, ypi, units[j])) in index
                    ):
                        break
                else:
                    return (x, y, i)
    return None


def is_mnat_convex(s: LatticeSet) -> bool:
    """Whether s has the coordinate exchange property."""
    return mnat_violation(s) is None


def lnat_violation(s: LatticeSet) -> Optional[tuple]:
    """A pair (x, y) whose rounded midpoints leave s, or None.

    Raises BudgetError when the |S|(|S| - 1)/2 pairs exceed the
    enumeration budget.
    """
    _require_nonempty(s)
    pts = s.points
    check_budget(len(pts) * (len(pts) - 1) // 2, "the midpoint-rounding test", "pairs")
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            up = tuple(-((-a - b) // 2) for a, b in zip(x, y))
            down = tuple((a + b) // 2 for a, b in zip(x, y))
            if up not in s or down not in s:
                return (x, y)
    return None


def is_lnat_convex(s: LatticeSet) -> bool:
    """Whether s is closed under rounded midpoints."""
    return lnat_violation(s) is None
