"""Integer-scaled points and combinations against a Fraction reference.

RationalPoint and ConvexCombination keep integer numerators over one
common denominator; every value they hand out must equal what plain
Fraction arithmetic, written out here, gives for the same input.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latround import ConvexCombination, RationalPoint, UsageError

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)

fractions_ = st.fractions(min_value=-20, max_value=20, max_denominator=12)
point_pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(fractions_, min_size=n, max_size=n),
        st.lists(fractions_, min_size=n, max_size=n),
    )
)


def _error(fn, *args):
    try:
        return ("ok", fn(*args))
    except UsageError as exc:
        return ("UsageError", str(exc))


@PROPERTY
@given(point_pairs, fractions_)
def test_point_matches_fraction_reference(pair, factor):
    a, b = (tuple(v) for v in pair)
    p, q = RationalPoint(a), RationalPoint(b)
    assert p.den > 0 and math.gcd(p.den, *p.num) == 1
    assert p.coords == a and all(type(c) is Fraction for c in p.coords)
    assert tuple(p) == a and [p[i] for i in range(len(a))] == list(a)
    assert (p + q).coords == tuple(x + y for x, y in zip(a, b))
    assert (p - q).coords == tuple(x - y for x, y in zip(a, b))
    assert p.scale(factor).coords == tuple(factor * x for x in a)
    assert p.floor() == tuple(math.floor(x) for x in a)
    assert p.ceil() == tuple(math.ceil(x) for x in a)
    assert p.is_integral() == all(x.denominator == 1 for x in a)
    d_linf = p.linf_distance(q)
    d_l2sq = p.l2sq_distance(q)
    assert type(d_linf) is Fraction and d_linf == max(abs(x - y) for x, y in zip(a, b))
    assert type(d_l2sq) is Fraction and d_l2sq == sum((x - y) ** 2 for x, y in zip(a, b))
    assert p.linf_distance(b) == d_linf and p.l2sq_distance(b) == d_l2sq
    assert (p == q) == (a == b) and p == a and p == RationalPoint(str(x) for x in a)
    assert hash(p) == hash(a)
    assert repr(p) == "(" + ", ".join(str(x) for x in a) + ")"
    assert RationalPoint.from_numerators(p.num, p.den) == p
    k = 1 + len(a)
    assert RationalPoint.from_numerators(tuple(k * v for v in p.num), k * p.den) == p
    if p.is_integral():
        assert p.as_int_tuple() == tuple(int(x) for x in a)
        assert hash(p) == hash(tuple(int(x) for x in a))
    else:
        with pytest.raises(UsageError):
            p.as_int_tuple()


def test_point_rejects_the_same_inputs():
    with pytest.raises(UsageError, match="floating point values are not allowed"):
        RationalPoint((Fraction(1, 2), 0.5))
    with pytest.raises(UsageError, match="not a rational value"):
        RationalPoint(("1/x",))
    p, q = RationalPoint((1, Fraction(1, 2))), RationalPoint((1, 2, 3))
    for op in (p.__add__, p.__sub__, p.linf_distance, p.l2sq_distance):
        with pytest.raises(UsageError, match="dimension mismatch: 2 vs 3"):
            op(q)
    with pytest.raises(UsageError, match="floating point"):
        p.scale(0.5)


@st.composite
def combinations_(draw):
    """Distinct sorted lattice points, their positive Fraction weights
    summing to one, and a column list holding the points in order."""
    n = draw(st.integers(1, 3))
    cells = st.tuples(*[st.integers(-3, 3)] * n)
    points = sorted(draw(st.sets(cells, min_size=1, max_size=5)))
    raw = draw(st.lists(st.integers(1, 9), min_size=len(points), max_size=len(points)))
    weights = [Fraction(r, sum(raw)) for r in raw]
    extra = draw(st.sets(cells, max_size=4))
    columns = sorted(set(points) | extra)
    return points, weights, columns


@PROPERTY
@given(combinations_())
def test_combination_from_payload_matches_fraction_weights(case):
    points, weights, columns = case
    payload = [(columns.index(p), w.numerator, w.denominator) for p, w in zip(points, weights)]
    from_payload = ConvexCombination.from_payload(columns, payload)
    from_fractions = ConvexCombination(list(zip(points, weights)))
    assert from_payload == from_fractions
    assert hash(from_payload) == hash(from_fractions)
    assert from_payload.support == tuple(zip(points, weights))
    assert all(type(w) is Fraction for _, w in from_payload.support)
    target = tuple(sum(w * p[i] for p, w in zip(points, weights)) for i in range(len(points[0])))
    assert from_payload.target == RationalPoint(target)
    assert from_payload.target == from_fractions.target
    assert from_payload.den > 0 and math.gcd(from_payload.den, *from_payload.nums) == 1
    assert from_payload.points() == tuple(points)


@PROPERTY
@given(combinations_(), st.lists(st.integers(-3, 9), min_size=5, max_size=5), st.integers(1, 12))
def test_invalid_weights_raise_the_same_message(case, nums, den):
    points, _, _ = case
    nums = nums[: len(points)]
    by_fractions = _error(ConvexCombination, [(p, Fraction(v, den)) for p, v in zip(points, nums)])
    by_numerators = _error(ConvexCombination.from_numerators, points, nums, den)
    assert by_numerators == by_fractions


def test_invalid_supports_raise_the_same_message():
    for points in ([], [(0, 0), (1,)]):
        nums = [1] * len(points)
        assert _error(ConvexCombination.from_numerators, points, nums, max(1, len(points))) == _error(
            ConvexCombination, [(p, Fraction(1, len(points))) for p in points]
        )
    with pytest.raises(UsageError, match="increasing order"):
        ConvexCombination.from_numerators([(1, 0), (0, 0)], [1, 1], 2)
