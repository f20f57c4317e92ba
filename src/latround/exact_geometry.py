"""Exact rational convex geometry.

Hull membership with verified certificates, Caratheodory support
reduction (a basic solution of the membership LP over the given
support), nonnegative linear feasibility and hull facets.  Points and
convex weights are kept as integer numerators over one positive common
denominator in lowest terms, and all arithmetic on them is integer
arithmetic; ``fractions.Fraction`` appears only where a value leaves the
module (coordinates, support weights, distances).  No floating point
enters any certified path.

This module does no elimination of its own: feasibility, basic
solutions, rank tests and null-space bases all go through the integer
kernel (``latround._kernel``).

``_Value`` is the one place that defines the value-type protocol shared
by the package's value objects (points, convex combinations, lattice
sets, neighborhoods, witnessed sums, decompositions and rounding
results): immutability, equality and hashing by a key, and copies and
pickles that rebuild through the validating constructor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from . import _kernel
from .errors import InternalError, UsageError

# Exact scalar type used across the package.  fractions.Fraction already
# guarantees lowest terms, a positive denominator and value equality.
Rational = Fraction

__all__ = [
    "Rational",
    "RationalPoint",
    "ConvexCombination",
    "hull_membership",
    "caratheodory_reduce",
    "solve_linear_feasibility",
    "hull_vertices",
    "hull_facets",
]


def as_rational(value) -> Fraction:
    """Coerce to an exact Fraction, refusing floats outright."""
    if isinstance(value, float):
        raise UsageError(
            "floating point values are not allowed; pass int, Fraction or 'p/q'"
        )
    try:
        return Fraction(value)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"not a rational value: {value!r}") from exc


class _Value:
    """Base of the immutable value types.

    A subclass sets its fields with ``object.__setattr__`` and defines
    ``_key()``, the tuple that equality and hashing compare, and
    ``_args()``, the constructor arguments that rebuild it; copy and
    pickle go through the constructor, so a tampered pickle fails its
    checks on load.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is type(self):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return (type(self), self._args())


class RationalPoint(_Value):
    """A point of Q^n with exact componentwise arithmetic.

    Stored as integer numerators ``num`` over one positive common
    denominator ``den``, in lowest terms: gcd(den, *num) == 1, so equal
    points have equal (num, den).  ``coords``, indexing and iteration give
    the coordinates as Fractions; arithmetic and distances work on the
    integers and build at most one Fraction, for a returned distance.
    """

    __slots__ = ("num", "den")

    def __new__(cls, coords):
        if isinstance(coords, RationalPoint):
            return coords  # immutable, so shared
        vals = tuple(coords)
        if all(type(c) is int for c in vals):
            return _point(vals, 1)
        vals = tuple(as_rational(c) for c in vals)
        den = lcm(*(v.denominator for v in vals))
        return _point(tuple(v.numerator * (den // v.denominator) for v in vals), den)

    @classmethod
    def from_numerators(cls, num, den: int) -> "RationalPoint":
        """The point num/den for an integer tuple num and an integer den > 0,
        reduced to lowest terms."""
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = tuple(a // g for a in num)
                den //= g
        return _point(tuple(num), den)

    @property
    def coords(self) -> tuple:
        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    @property
    def dim(self) -> int:
        return len(self.num)

    def __len__(self):
        return len(self.num)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    # _Value's key equality is overridden: a point also equals the tuple
    # of its coordinates, and hashes like it
    def __eq__(self, other):
        if isinstance(other, RationalPoint):
            return self.den == other.den and self.num == other.num
        if isinstance(other, tuple):
            return self.coords == tuple(Fraction(c) for c in other)
        return NotImplemented

    def __hash__(self):
        # the hash of the Fraction coordinates; an int hashes like the
        # equal Fraction, so integral points need none built
        return hash(self.num) if self.den == 1 else hash(self.coords)

    def _args(self):
        return (self.coords,)

    def _cross(self, other):
        """self and other as numerator tuples over one common denominator
        (the shared one, else the product of the two), and that
        denominator."""
        other = other if isinstance(other, RationalPoint) else RationalPoint(other)
        _check_same_dim(self, other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return self.num, other.num, d1
        return (
            tuple(a * d2 for a in self.num),
            tuple(b * d1 for b in other.num),
            d1 * d2,
        )

    def __add__(self, other):
        a, b, den = self._cross(other)
        return RationalPoint.from_numerators(tuple(p + q for p, q in zip(a, b)), den)

    def __sub__(self, other):
        a, b, den = self._cross(other)
        return RationalPoint.from_numerators(tuple(p - q for p, q in zip(a, b)), den)

    def scale(self, factor) -> "RationalPoint":
        f = as_rational(factor)
        fn = f.numerator
        return RationalPoint.from_numerators(tuple(fn * a for a in self.num), self.den * f.denominator)

    def is_integral(self) -> bool:
        return self.den == 1

    def as_int_tuple(self) -> tuple:
        if self.den != 1:
            raise UsageError(f"{self} is not an integer point")
        return self.num

    def floor(self) -> tuple:
        den = self.den
        return tuple(a // den for a in self.num)

    def ceil(self) -> tuple:
        den = self.den
        return tuple(-(-a // den) for a in self.num)

    def linf_distance(self, other) -> Fraction:
        a, b, den = self._cross(other)
        return Fraction(max(abs(p - q) for p, q in zip(a, b)), den)

    def l2sq_distance(self, other) -> Fraction:
        a, b, den = self._cross(other)
        return Fraction(sum((p - q) * (p - q) for p, q in zip(a, b)), den * den)

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def _point(num: tuple, den: int) -> RationalPoint:
    """The point num/den, trusted to be in lowest terms."""
    p = object.__new__(RationalPoint)
    object.__setattr__(p, "num", num)
    object.__setattr__(p, "den", den)
    return p


def _point_sum(points: Sequence[RationalPoint]) -> RationalPoint:
    """The exact sum of a nonempty sequence of points of one dimension, in
    one integer pass over their common denominator."""
    den = lcm(*(p.den for p in points))
    rows = [p.num if p.den == den else [a * (den // p.den) for a in p.num] for p in points]
    return RationalPoint.from_numerators(tuple(map(sum, zip(*rows))), den)


def _check_same_dim(a: RationalPoint, b: RationalPoint):
    if a.dim != b.dim:
        raise UsageError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _as_lattice_point(p) -> tuple:
    """p as a tuple of ints; UsageError unless every coordinate is an
    integer value (an integral float such as 1.0 is one)."""
    try:
        vals = tuple(p)
        out = tuple(map(int, vals))
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"not an integer lattice point: {p!r}") from exc
    if out != vals:
        raise UsageError(f"not an integer lattice point: {vals!r}")
    return out


class ConvexCombination(_Value):
    """Positive rational weights on lattice points, summing to one.

    The weights are kept as integer numerators ``nums``, aligned with
    ``points()``, over one positive common denominator ``den`` in lowest
    terms; ``support`` gives (point, Fraction weight) pairs.  The
    certified target is the exact weighted point sum; it is computed on
    construction and every invariant (positivity, total weight one) is
    checked there, so a ConvexCombination that exists is valid.
    """

    __slots__ = ("_points", "nums", "den", "target")

    def __init__(self, support: Iterable):
        merged = {}
        for point, weight in support:
            pt = _as_lattice_point(point)
            w = as_rational(weight)
            merged[pt] = merged.get(pt, Fraction(0)) + w
        items = sorted(merged.items())
        den = lcm(*(w.denominator for _, w in items))
        self._init(
            tuple(pt for pt, _ in items),
            tuple(w.numerator * (den // w.denominator) for _, w in items),
            den,
        )

    @classmethod
    def from_numerators(cls, points, nums, den: int) -> "ConvexCombination":
        """Weights nums/den on ``points``: integer points of one dimension
        in strictly increasing order, and integer weight numerators over an
        integer den > 0, reduced here to lowest terms."""
        comb = object.__new__(cls)
        comb._init(tuple(points), tuple(nums), den)
        return comb

    @classmethod
    def from_payload(cls, points, payload) -> "ConvexCombination":
        """The combination a kernel LP solution describes: ``payload`` lists
        (column, num, den) with num/den > 0 reduced and columns increasing,
        and ``points[column]`` is that column's lattice point."""
        den = 1
        for _, _, d in payload:
            if d != den:
                den = lcm(den, d)
        return cls.from_numerators(
            [points[col] for col, _, _ in payload],
            [num * (den // d) for _, num, d in payload],
            den,
        )

    def _init(self, points: tuple, nums: tuple, den: int):
        """Check every invariant and set the fields; both constructors end here."""
        if not points:
            raise UsageError("a convex combination needs a nonempty support")
        n = len(points[0])
        for p, q in zip(points, points[1:]):
            if len(q) != n:
                raise UsageError("support points have mixed dimensions")
            if p >= q:
                raise UsageError("support points must be distinct and in increasing order")
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple(v // g for v in nums)
            den //= g
        if min(nums) <= 0:
            for pt, v in zip(points, nums):
                if v <= 0:
                    raise UsageError(f"nonpositive weight {Fraction(v, den)} on {pt}")
        total = sum(nums)
        if total != den:
            raise UsageError(f"weights sum to {Fraction(total, den)}, not 1")
        if len(points) == 1:
            target = _point(points[0], 1)
        else:
            sums = tuple([sum(map(mul, nums, col)) for col in zip(*points)])
            target = RationalPoint.from_numerators(sums, den)
        object.__setattr__(self, "_points", points)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "target", target)

    @property
    def support(self) -> tuple:
        den = self.den
        return tuple((pt, Fraction(v, den)) for pt, v in zip(self._points, self.nums))

    @property
    def dim(self) -> int:
        return self.target.dim

    def points(self):
        return self._points

    def __len__(self):
        return len(self._points)

    def __iter__(self):
        return iter(self.support)

    def _key(self):
        return (self._points, self.den, self.nums)

    def _args(self):
        return (self.support,)

    def __repr__(self):
        inner = ", ".join(f"{pt}: {w}" for pt, w in self.support)
        return f"ConvexCombination({{{inner}}})"


def _point_list(points) -> list:
    """Accept a LatticeSet-like object or a plain iterable of points."""
    raw = getattr(points, "points", points)
    out = sorted({_as_lattice_point(p) for p in raw})
    if not out:
        raise UsageError("empty point set")
    dims = {len(p) for p in out}
    if len(dims) != 1:
        raise UsageError("points have mixed dimensions")
    return out


def _scaled_rows(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Clear denominators row by row; row scaling preserves the solutions."""
    int_rows = []
    int_rhs = []
    for row, b in zip(matrix, rhs):
        scale = lcm(b.denominator, *(v.denominator for v in row)) if row else b.denominator
        int_rows.append([int(v * scale) for v in row])
        int_rhs.append(int(b * scale))
    return int_rows, int_rhs


def solve_linear_feasibility(matrix, rhs) -> Optional[list]:
    """Exact nonnegative solution of ``A @ lam = b`` with basic support.

    Returns a list of Fractions whose positive entries sit on linearly
    independent columns of A, or None when no nonnegative solution
    exists.
    """
    mat = [[as_rational(v) for v in row] for row in matrix]
    b = [as_rational(v) for v in rhs]
    if len(mat) != len(b):
        raise UsageError(f"{len(mat)} rows but {len(b)} right-hand sides")
    widths = {len(row) for row in mat}
    if len(widths) > 1:
        raise UsageError("ragged matrix")
    ncols = widths.pop() if widths else 0
    int_rows, int_rhs = _scaled_rows(mat, b)
    status, payload = _kernel.lp_feasible(int_rows, int_rhs)
    if status != "feasible":
        return None
    lam = [Fraction(0)] * ncols
    for col, num, den in payload:
        lam[col] = Fraction(num, den)
    return lam


def _membership_lp(groups: list, x: RationalPoint):
    """Run the kernel LP for x as a sum of one convex combination per group.

    The system is ``sum_g points_g @ lam_g = x`` and ``sum(lam_g) = 1`` per
    group, with ``lam >= 0``; columns run over the groups' points in
    order.  With a single group this is hull membership of x in
    conv(points).  Each coordinate row is written after substituting
    lam_g0 = 1 - sum_{j != 0} lam_gj, where p_g0 is the first point of
    group g: the column of a point p of group g holds p - p_g0 and the
    right-hand side is x - sum_g p_g0, each coordinate scaled by its own
    reduced denominator.  The convex-weight rows, one per group, are kept
    as they are.  This is a row operation, so lam solves the same system;
    but the column of p_g0 is now the unit vector of its group's row, so
    the kernel starts with p_g0 basic there and only the coordinate rows
    need artificial variables.
    """
    rows = []
    rhs = []
    den = x.den
    for i, a in enumerate(x.num):
        g = gcd(a, den)
        scale = den // g
        row = []
        shift = 0
        for points in groups:
            base = points[0][i]
            shift += base
            row.extend([(p[i] - base) * scale for p in points])
        rows.append(row)
        rhs.append(a // g - shift * scale)
    width = sum(map(len, groups))
    start = 0
    for points in groups:
        rows.append([0] * start + [1] * len(points) + [0] * (width - start - len(points)))
        rhs.append(1)
        start += len(points)
    return _kernel.lp_feasible(rows, rhs)


def _in_hull(points: Sequence, x: RationalPoint) -> bool:
    """Whether x lies in conv(points), by the kernel LP alone: no
    certificate is built."""
    return _membership_lp([points], x)[0] == "feasible"


def _membership_support(points: Sequence, x: RationalPoint) -> Optional[ConvexCombination]:
    """A basic convex combination of ``points`` (in increasing order)
    hitting x, or None."""
    status, payload = _membership_lp([points], x)
    if status != "feasible":
        return None
    return ConvexCombination.from_payload(points, payload)


def hull_membership(points, x) -> Optional[ConvexCombination]:
    """Certificate that x lies in the convex hull of the given lattice points.

    Returns a verified ConvexCombination with target x, or None when x is
    outside the hull.  ``points`` may be a LatticeSet, whose sorted points
    and bounding box are used as cached, or any iterable of integer points.
    """
    cached = getattr(points, "bbox", None)  # truthy only on a nonempty LatticeSet
    pts = points.points if cached else _point_list(points)
    x = RationalPoint(x)
    if x.dim != len(pts[0]):
        raise UsageError(f"dimension mismatch: point set is {len(pts[0])}-d, x is {x.dim}-d")
    bbox = cached or [(min(p[i] for p in pts), max(p[i] for p in pts)) for i in range(x.dim)]
    # cheap exact rejections and the one-point fast path
    den = x.den
    for a, (lo, hi) in zip(x.num, bbox):
        if a < lo * den or a > hi * den:
            return None
    if den == 1:
        xi = x.num
        if xi in (points if cached else set(pts)):
            return ConvexCombination.from_numerators((xi,), (1,), 1)
    comb = _membership_support(pts, x)
    if comb is None:
        return None
    if comb.target != x:
        raise InternalError(f"certificate target {comb.target} differs from {x}")
    return comb


def caratheodory_reduce(comb: ConvexCombination, dim: Optional[int] = None) -> ConvexCombination:
    """Shrink a convex combination to at most dim + 1 support points.

    Returns a basic solution of the membership LP of the target over the
    support points: that system has dim + 1 rows, so the basic solution
    has at most dim + 1 points, affinely independent.  The target is
    preserved exactly and the output support is a subset of the input
    support.
    """
    if not isinstance(comb, ConvexCombination):
        raise UsageError("caratheodory_reduce expects a ConvexCombination")
    n = comb.dim
    if dim is not None and dim != n:
        raise UsageError(f"combination lives in dimension {n}, not {dim}")
    if len(comb) <= n + 1:
        return comb
    reduced = _membership_support(comb.points(), comb.target)
    if reduced is None or reduced.target != comb.target:
        raise InternalError("support reduction moved the target")
    if len(reduced) > n + 1:
        raise InternalError("support reduction left a dependent support")
    return reduced


def hull_vertices(points) -> list:
    """Vertices of conv(points): the points outside the hull of the others."""
    pts = _point_list(points)
    if len(pts) == 1:
        return pts
    out = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1 :]
        if not _in_hull(others, RationalPoint(p)):
            out.append(p)
    return out


def _transpose(matrix: list) -> list:
    return [list(col) for col in zip(*matrix)]


def _independent_columns(columns: list) -> list:
    """Indices of the first maximal linearly independent subset of the
    integer vectors ``columns``, picked greedily in order by the kernel."""
    chosen = []
    for j, col in enumerate(columns):
        if len(chosen) == len(col):
            break
        trial = [columns[i] for i in chosen] + [col]
        if _kernel.nullspace_vector(_transpose(trial)) is None:
            chosen.append(j)
    return chosen


def _nullspace_basis(rows: list, width: int) -> list:
    """Integer basis of {h : rows @ h = 0}: per free column, the kernel's
    primitive vector over the pivot columns plus that one, made positive
    at the free column."""
    if not rows:
        return [[int(i == j) for j in range(width)] for i in range(width)]
    columns = _transpose(rows)
    pivots = _independent_columns(columns)
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        cols = sorted(pivots + [free])
        v = _kernel.nullspace_vector(_transpose([columns[c] for c in cols]))
        sign = 1 if v[cols.index(free)] > 0 else -1
        h = [0] * width
        for c, coef in zip(cols, v):
            h[c] = sign * coef
        basis.append(h)
    return basis


def _primitive_pair(vec: list, c: int):
    """Divide (h, c) by gcd(h); c stays integral because h . x = c holds
    at a lattice point."""
    g = 0
    for v in vec:
        g = gcd(g, v)
    if g > 1:
        return tuple(v // g for v in vec), c // g
    return tuple(vec), c


def hull_facets(points):
    """Exact H-representation of conv(points).

    Returns ``(equalities, inequalities)``: the affine hull as integer
    pairs (h, c) meaning h . x == c, and the facets as pairs meaning
    h . x <= c.  Brute force over point subsets; intended for the desk
    scale this package certifies at (n <= 4, small sets).
    """
    pts = _point_list(points)
    n = len(pts[0])
    base = pts[0]
    offsets = [[a - b for a, b in zip(p, base)] for p in pts[1:]]
    dirs = [offsets[j] for j in _independent_columns(offsets)]
    d = len(dirs)
    equalities = []
    for h in _nullspace_basis(dirs, n):
        c = sum(a * b for a, b in zip(h, base))
        equalities.append(_primitive_pair(h, c))
    if d == 0:
        return equalities, []
    verts = hull_vertices(pts)
    inequalities = set()
    for team in combinations(verts, d):
        t0 = team[0]
        diffs = [[a - b for a, b in zip(t, t0)] for t in team[1:]]
        if d == 1:
            coeffs = [1]
        else:
            gram = [[sum(a * b for a, b in zip(diff, v)) for v in dirs] for diff in diffs]
            # skip teams whose differences are dependent: their hyperplane
            # through the team is not unique
            if _kernel.nullspace_vector(_transpose(gram)) is not None:
                continue
            coeffs = _kernel.nullspace_vector(gram)
        h = [0] * n
        for coef, v in zip(coeffs, dirs):
            if coef:
                for i in range(n):
                    h[i] += coef * v[i]
        if not any(h):
            continue
        c = sum(a * b for a, b in zip(h, t0))
        lo = hi = False
        for p in pts:
            s = sum(a * b for a, b in zip(h, p))
            if s < c:
                lo = True
            elif s > c:
                hi = True
            if lo and hi:
                break
        if lo and hi:
            continue
        if hi:
            h = [-v for v in h]
            c = -c
        inequalities.add(_primitive_pair(h, c))
    return equalities, sorted(inequalities)

