import random
from fractions import Fraction
from itertools import product

import pytest

from latround import (
    ConvexCombination,
    LatticeSet,
    RationalPoint,
    UsageError,
    caratheodory_reduce,
    hull_membership,
    solve_linear_feasibility,
)
from latround.exact_geometry import hull_facets, hull_vertices
from latround.oracle import _affinely_independent, oracle_membership

HOLE_SUM = LatticeSet([(1, 0), (0, 1), (2, 1), (1, 2)])


def test_rational_point_rejects_floats():
    with pytest.raises(UsageError):
        RationalPoint((0.5, 1))


# each entry point takes one point p and checks it as a lattice point
POINT_ENTRIES = {
    "LatticeSet": lambda p: LatticeSet([p]),
    "hull_membership": lambda p: hull_membership([p], (0, 0)),
    "ConvexCombination": lambda p: ConvexCombination([(p, 1)]),
}


@pytest.mark.parametrize("entry", POINT_ENTRIES)
@pytest.mark.parametrize(
    "point",
    [(float("inf"), 0), (0, float("nan")), (None, 0), 1, ("a", 0), (Fraction(1, 2), 0)],
    ids=["inf", "nan", "none", "not-iterable", "str", "fraction"],
)
def test_malformed_point_raises_usage_error(entry, point):
    with pytest.raises(UsageError):
        POINT_ENTRIES[entry](point)


@pytest.mark.parametrize("entry", POINT_ENTRIES)
def test_integral_float_point_is_accepted(entry):
    POINT_ENTRIES[entry]((1.0, 2.0))


def test_rational_point_arithmetic():
    p = RationalPoint((Fraction(1, 2), 1))
    q = RationalPoint((Fraction(1, 2), -1))
    assert p + q == RationalPoint((1, 0))
    assert (p - q).coords == (Fraction(0), Fraction(2))
    assert p.scale(2).is_integral()
    assert p.floor() == (0, 1)
    assert p.ceil() == (1, 1)
    assert p.linf_distance(q) == 2
    assert p.l2sq_distance(q) == 4


def test_combination_invariants_enforced():
    with pytest.raises(UsageError):
        ConvexCombination([((0, 0), Fraction(1, 2))])  # weights must total 1
    with pytest.raises(UsageError):
        ConvexCombination([((0, 0), 1), ((1, 1), 0)])  # positive weights only
    with pytest.raises(UsageError):
        ConvexCombination([])
    # duplicate support points merge exactly
    c = ConvexCombination([((0, 0), Fraction(1, 2)), ((0, 0), Fraction(1, 4)), ((1, 1), Fraction(1, 4))])
    assert c.support == (((0, 0), Fraction(3, 4)), ((1, 1), Fraction(1, 4)))
    assert c.target == RationalPoint((Fraction(1, 4), Fraction(1, 4)))


def test_feasibility_segment():
    lam = solve_linear_feasibility([[1, 1]], [1])
    assert lam in ([Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)])


def test_feasibility_identity():
    assert solve_linear_feasibility([[1, 0], [0, 1]], [1, 2]) == [1, 2]


def test_feasibility_sign_contradiction():
    assert solve_linear_feasibility([[1], [-1]], [1, 1]) is None


def test_feasibility_shape_mismatch():
    with pytest.raises(UsageError):
        solve_linear_feasibility([[1, 2]], [1, 2])


def test_membership_midpoint():
    c = hull_membership(LatticeSet([(0, 0), (1, 1)]), (Fraction(1, 2), Fraction(1, 2)))
    assert c.support == (((0, 0), Fraction(1, 2)), ((1, 1), Fraction(1, 2)))


def test_membership_hole_point():
    x = (1, 1)
    c = hull_membership(HOLE_SUM, x)
    assert c is not None
    assert c.target == RationalPoint(x)
    assert set(c.points()) <= set(HOLE_SUM.points)
    assert oracle_membership(HOLE_SUM, x)


def test_membership_absent():
    assert hull_membership(HOLE_SUM, (2, 0)) is None
    assert not oracle_membership(HOLE_SUM, (2, 0))


def test_membership_dimension_mismatch():
    with pytest.raises(UsageError):
        hull_membership(HOLE_SUM, (1, 1, 1))


def test_caratheodory_collinear():
    c = ConvexCombination(
        [((0, 0), Fraction(1, 3)), ((1, 0), Fraction(1, 3)), ((2, 0), Fraction(1, 3))]
    )
    r = caratheodory_reduce(c)
    assert len(r) <= 3
    assert r.target == c.target
    assert set(r.points()) <= set(c.points())
    # oracle: some sub-support of size <= 3 realizes the target
    assert oracle_membership(LatticeSet(c.points()), c.target)


def test_caratheodory_singleton_unchanged():
    c = ConvexCombination([((4, 7), 1)])
    assert caratheodory_reduce(c) == c


def test_caratheodory_four_points_plane():
    c = ConvexCombination(
        [
            ((0, 0), Fraction(1, 4)),
            ((1, 1), Fraction(1, 4)),
            ((2, 2), Fraction(1, 4)),
            ((0, 2), Fraction(1, 4)),
        ]
    )
    assert c.target == RationalPoint((Fraction(3, 4), Fraction(5, 4)))
    r = caratheodory_reduce(c)
    assert len(r) <= 3
    assert r.target == c.target


def test_caratheodory_random_combinations():
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(1, 3)
        pts = {tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(2, 9))}
        pts = sorted(pts)
        raw = [rng.randint(1, 6) for _ in pts]
        total = sum(raw)
        comb = ConvexCombination([(p, Fraction(w, total)) for p, w in zip(pts, raw)])
        red = caratheodory_reduce(comb)
        assert len(red) <= n + 1
        assert red.target == comb.target
        assert set(red.points()) <= set(comb.points())


def test_caratheodory_is_the_basic_membership_solution():
    # more than n + 1 points: the reduction is the membership LP's basic
    # solution over the support, so its points are affinely independent
    from latround.exact_geometry import _membership_support

    rng = random.Random(1717)
    seen = 0
    while seen < 80:
        n = rng.randint(1, 3)
        pts = sorted({tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(2, 10))})
        if len(pts) <= n + 1:
            continue
        raw = [rng.randint(1, 6) for _ in pts]
        comb = ConvexCombination([(p, Fraction(w, sum(raw))) for p, w in zip(pts, raw)])
        red = caratheodory_reduce(comb)
        assert red == _membership_support(comb.points(), comb.target)
        assert _affinely_independent(red.points())
        seen += 1


def test_membership_matches_oracle_seeded():
    rng = random.Random(1234)
    for _ in range(120):
        n = rng.randint(1, 3)
        size = rng.randint(1, 8)
        pts = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(size)}
        s = LatticeSet(pts)
        x = tuple(Fraction(rng.randint(0, 9), 3) for _ in range(n))
        ours = hull_membership(s, x) is not None
        assert ours == oracle_membership(s, x)


def test_hull_vertices_and_facets_square():
    square = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 0)]
    assert hull_vertices(square) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    eqs, ineqs = hull_facets(square + [(0, 0)])
    assert eqs == []
    assert set(ineqs) == {
        ((-1, 0), 0),
        ((0, -1), 0),
        ((1, 0), 1),
        ((0, 1), 1),
    }


def test_hull_facets_lower_dimensional():
    eqs, ineqs = hull_facets([(0, 0), (1, 1), (2, 2)])
    assert eqs == [((1, -1), 0)] or eqs == [((-1, 1), 0)]
    # the two endpoint constraints
    assert len(ineqs) == 2
    for h, c in ineqs:
        assert all(sum(a * b for a, b in zip(h, p)) <= c for p in [(0, 0), (1, 1), (2, 2)])


def test_hull_facets_singleton():
    eqs, ineqs = hull_facets([(3, 5)])
    assert ineqs == []
    assert len(eqs) == 2


def test_hull_facets_match_oracle_seeded():
    rng = random.Random(97)
    for _ in range(150):
        n = rng.randint(1, 3)
        pts = sorted({tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 7))})
        eqs, ineqs = hull_facets(pts)

        def holds(p):
            dot = lambda h: sum(a * b for a, b in zip(h, p))
            return all(dot(h) == c for h, c in eqs) and all(dot(h) <= c for h, c in ineqs)

        assert all(holds(p) for p in pts)
        s = LatticeSet(pts)
        for p in product(*(range(lo, hi + 1) for lo, hi in s.bbox)):
            assert holds(p) == oracle_membership(s, p)
        team = [pts[0]]
        for p in pts[1:]:
            if _affinely_independent(team + [p]):
                team.append(p)
        assert len(eqs) == n - (len(team) - 1)
