from fractions import Fraction
from itertools import product

import pytest

from latround import (
    BudgetError,
    LatticeSet,
    UsageError,
    find_hole,
    integral_convexity_witness,
    integral_neighborhood,
    is_hole_free,
    is_integrally_convex,
    is_lnat_convex,
    is_mnat_convex,
    lnat_violation,
    mnat_violation,
)
from latround.oracle import oracle_integral_convexity, oracle_membership

from conftest import HOLE_SUM_POINTS, TRIPLE_SUM_POINTS


def all_subsets(cells):
    for mask in range(1, 1 << len(cells)):
        yield [cells[i] for i in range(len(cells)) if mask >> i & 1]


def assert_certified_witness(s, witness):
    """The witness is a hull point of s whose local slice is empty or
    misses it, both decided by the enumeration oracle."""
    assert oracle_membership(s, witness.coords), (s.points, witness)
    local = s.intersect_points(integral_neighborhood(witness))
    assert not local or not oracle_membership(local, witness.coords), (s.points, witness)


def test_lattice_set_basics():
    s = LatticeSet([(2, 1), (0, 0), (2, 1)])
    assert s.points == ((0, 0), (2, 1))
    assert s.bbox == ((0, 2), (0, 1))
    assert (2, 1) in s and (1, 1) not in s
    with pytest.raises(UsageError):
        LatticeSet([])
    with pytest.raises(UsageError):
        LatticeSet([(0, 0), (1, 1, 1)])
    with pytest.raises(UsageError):
        LatticeSet([(Fraction(1, 2), 0)])


def test_integral_neighborhood_fractional():
    nbh = integral_neighborhood((Fraction(1, 2), Fraction(3, 4)))
    assert nbh.members == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_integral_neighborhood_pinned():
    nbh = integral_neighborhood((1, Fraction(1, 2)))
    assert nbh.members == ((1, 0), (1, 1))


def test_integral_neighborhood_integer_point():
    assert integral_neighborhood((2, 3)).members == ((2, 3),)


def test_neighborhood_cardinality_property():
    import random

    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 4)
        coords = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4])) for _ in range(n)]
        nbh = integral_neighborhood(coords)
        frac = sum(1 for c in coords if c.denominator > 1)
        assert len(nbh) == 2**frac


def test_unit_box_subsets_are_integrally_convex():
    for s in all_subsets(list(product((0, 1), repeat=2))):
        assert is_integrally_convex(LatticeSet(s))


def test_hole_sum_is_not_integrally_convex():
    s = LatticeSet(HOLE_SUM_POINTS)
    assert not is_integrally_convex(s)
    # (0, 1) and (2, 1) are the first pair at max-norm distance 2
    assert integral_convexity_witness(s).coords == (1, 1)


def test_long_diagonal_is_not_integrally_convex():
    s = LatticeSet([(0, 0), (2, 1)])
    witness = integral_convexity_witness(s)
    assert witness is not None and witness.coords == (1, Fraction(1, 2))
    assert_certified_witness(s, witness)


def test_integral_convexity_agrees_with_oracle_seeded():
    """All subsets of {0,1}^3 and of {0..5}, plus random subsets of
    {0,1,2}^3."""
    import random

    families = [list(product((0, 1), repeat=3)), [(a,) for a in range(6)]]
    sets = [LatticeSet(raw) for cells in families for raw in all_subsets(cells)]
    rng = random.Random(11)
    cube = list(product(range(3), repeat=3))
    sets += [LatticeSet(rng.sample(cube, rng.randint(2, 7))) for _ in range(300)]
    verdicts = set()
    for s in sets:
        witness = integral_convexity_witness(s)
        assert (witness is None) == oracle_integral_convexity(s), s.points
        if witness is not None:
            assert_certified_witness(s, witness)
        verdicts.add(witness is None)
    assert verdicts == {True, False}


def test_midpoint_test_budgets_its_pairs(monkeypatch):
    s = LatticeSet([(0, 0), (1, 0), (2, 0), (0, 2)])
    monkeypatch.setenv("LATROUND_BUDGET", "5")
    with pytest.raises(BudgetError) as err:
        integral_convexity_witness(s)
    assert err.value.required == 6 and err.value.budget == 5
    monkeypatch.setenv("LATROUND_BUDGET", "6")
    assert integral_convexity_witness(s).coords == (0, 1)


def test_hole_scan_budgets_its_box(monkeypatch):
    # the bounding box [0, 2] x [0, 2] holds 9 points; all but the corners are holes
    s = LatticeSet([(0, 0), (2, 0), (0, 2), (2, 2)])
    monkeypatch.setenv("LATROUND_BUDGET", "8")
    with pytest.raises(BudgetError) as err:
        find_hole(s)
    assert err.value.required == 9 and err.value.budget == 8
    monkeypatch.setenv("LATROUND_BUDGET", "9")
    assert find_hole(s) == (0, 1)


def test_exchange_test_budgets_its_ordered_pairs(monkeypatch):
    s = LatticeSet([(0, 0), (1, 1), (2, 2)])
    monkeypatch.setenv("LATROUND_BUDGET", "8")
    with pytest.raises(BudgetError) as err:
        mnat_violation(s)
    assert err.value.required == 9 and err.value.budget == 8
    monkeypatch.setenv("LATROUND_BUDGET", "9")
    assert mnat_violation(s) == ((1, 1), (0, 0), 0)


def test_midpoint_rounding_test_budgets_its_pairs(monkeypatch):
    s = LatticeSet([(0, 0), (1, 0), (2, 0), (0, 2)])
    monkeypatch.setenv("LATROUND_BUDGET", "5")
    with pytest.raises(BudgetError) as err:
        lnat_violation(s)
    assert err.value.required == 6 and err.value.budget == 5
    monkeypatch.setenv("LATROUND_BUDGET", "6")
    assert lnat_violation(s) == ((0, 0), (0, 2))


def test_hole_free_examples():
    assert find_hole(LatticeSet(HOLE_SUM_POINTS)) == (1, 1)
    assert find_hole(LatticeSet(TRIPLE_SUM_POINTS)) == (1, 1, 1)
    assert is_hole_free(LatticeSet([(0, 0), (1, 0), (2, 0)]))


def test_mnat_examples():
    assert is_mnat_convex(LatticeSet([(5, 7)]))
    assert not is_mnat_convex(LatticeSet([(0, 0), (1, 1)]))
    assert mnat_violation(LatticeSet([(0, 0), (1, 1)])) == ((1, 1), (0, 0), 0)
    assert is_mnat_convex(LatticeSet([(0, 0), (1, 0), (0, 1)]))


def reference_mnat_violation(s):
    """The first (x, y, i) in loop order without an exchange, written out."""
    n = s.dim

    def moved(p, plus, minus):
        return tuple(v + (k == plus) - (k == minus) for k, v in enumerate(p))

    for x in s:
        for y in s:
            for i in range(n):
                if x[i] <= y[i]:
                    continue
                if moved(x, None, i) in s and moved(y, i, None) in s:
                    continue
                if not any(
                    x[j] < y[j] and moved(x, j, i) in s and moved(y, i, j) in s
                    for j in range(n)
                ):
                    return (x, y, i)
    return None


def test_mnat_violation_matches_the_reference_seeded():
    import random

    rng = random.Random(5)
    sets = [LatticeSet(raw) for raw in all_subsets(list(product(range(3), repeat=2)))]
    for _ in range(300):
        n = rng.choice((2, 3, 4))
        sets.append(
            LatticeSet(
                tuple(rng.randint(-1, 2) for _ in range(n)) for _ in range(rng.randint(1, 8))
            )
        )
    found = [mnat_violation(s) for s in sets]
    assert found == [reference_mnat_violation(s) for s in sets]
    assert None in found and any(v is not None for v in found)


def test_lnat_examples():
    assert is_lnat_convex(LatticeSet([(0, 0, 0), (1, 1, 0)]))
    assert lnat_violation(LatticeSet([(1, 0), (0, 1)])) == ((0, 1), (1, 0))
    assert is_lnat_convex(LatticeSet([(0, 0), (1, 1)]))


def test_predicates_reject_empty():
    empty = LatticeSet([], dim=2, allow_empty=True)
    for fn in (is_integrally_convex, is_hole_free, is_mnat_convex, is_lnat_convex):
        with pytest.raises(UsageError):
            fn(empty)


def test_exhaustive_grid_implications():
    """Class inclusions, and an oracle-certified witness for every
    non-integrally-convex set, on every nonempty subset of the 3x3
    grid."""
    cells = [(a, b) for a in range(3) for b in range(3)]
    counts = {"mnat": 0, "lnat": 0, "ic": 0}
    for raw in all_subsets(cells):
        s = LatticeSet(raw)
        witness = integral_convexity_witness(s)
        ic = witness is None
        if ic:
            counts["ic"] += 1
            assert is_hole_free(s), s.points
        else:
            assert_certified_witness(s, witness)
        if is_mnat_convex(s):
            counts["mnat"] += 1
            assert ic, s.points
        if is_lnat_convex(s):
            counts["lnat"] += 1
            assert ic, s.points
    assert counts == {"mnat": 68, "lnat": 68, "ic": 117}


def test_one_dimensional_sets():
    assert is_integrally_convex(LatticeSet([(0,), (1,), (2,)]))
    assert not is_integrally_convex(LatticeSet([(0,), (2,)]))
    assert integral_convexity_witness(LatticeSet([(0,), (2,)])).coords == (1,)
    assert find_hole(LatticeSet([(0,), (2,)])) == (1,)
