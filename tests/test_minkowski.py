import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latround import (
    BudgetError,
    ConvexCombination,
    LatticeSet,
    RationalPoint,
    UsageError,
    find_holes,
    hull_membership,
    is_hole_free,
    is_integrally_convex,
    is_lnat_convex,
    is_mnat_convex,
    minkowski_sum,
)

from conftest import HOLE_SUM_POINTS, TRIPLE_SUM_POINTS


def all_subsets(cells):
    for mask in range(1, 1 << len(cells)):
        yield [cells[i] for i in range(len(cells)) if mask >> i & 1]


def test_hole_pair_sum(hole_pair):
    w = minkowski_sum(hole_pair)
    assert w.result.points == HOLE_SUM_POINTS
    for point, witness in w.witnesses.items():
        assert tuple(sum(c) for c in zip(*witness)) == point
        for s, part in zip(hole_pair, witness):
            assert part in s


def test_witnesses_are_lexicographically_least(hole_pair):
    w = minkowski_sum(hole_pair)
    for point, witness in w.witnesses.items():
        candidates = [
            tup
            for tup in product(*(s.points for s in hole_pair))
            if tuple(sum(c) for c in zip(*tup)) == point
        ]
        assert witness == min(candidates)


def test_zero_summand_identity():
    s = LatticeSet([(0, 2), (1, 0), (3, 3)])
    zero = LatticeSet([(0, 0)])
    w = minkowski_sum([s, zero])
    assert w.result == s
    for point, witness in w.witnesses.items():
        assert witness == (point, (0, 0))


def test_triple_sum(lnat_triple):
    w = minkowski_sum(lnat_triple)
    assert w.result.points == TRIPLE_SUM_POINTS


def test_find_holes_examples(hole_pair, lnat_triple):
    assert find_holes(minkowski_sum(hole_pair)).points == ((1, 1),)
    assert find_holes(minkowski_sum(lnat_triple)).points == ((1, 1, 1),)


def test_intervals_sum_without_holes():
    a = LatticeSet([(0,), (1,), (2,)])
    b = LatticeSet([(5,), (6,)])
    w = minkowski_sum([a, b])
    assert w.result.points == ((5,), (6,), (7,), (8,))
    assert len(find_holes(w)) == 0


def test_sum_is_permutation_invariant():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(1, 3)
        sets = [
            LatticeSet({tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 4))})
            for _ in range(3)
        ]
        reference = minkowski_sum(sets).result
        for perm in permutations(sets):
            assert minkowski_sum(perm).result == reference
        # associativity: fold pairwise
        left = minkowski_sum([minkowski_sum(sets[:2]).result, sets[2]]).result
        assert left == reference


def product_scan(sets):
    """Witnessed sum by scanning every tuple in lexicographic order."""
    witnesses = {}
    for tup in product(*(s.points for s in sets)):
        witnesses.setdefault(tuple(sum(c) for c in zip(*tup)), tup)
    return witnesses


@st.composite
def summand_lists(draw):
    n = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-2, 2)] * n)
    raw = draw(st.lists(st.sets(point, min_size=1, max_size=5), min_size=1, max_size=5))
    return [LatticeSet(pts) for pts in raw]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(summand_lists())
def test_fold_witnesses_match_product_scan(sets):
    w = minkowski_sum(sets)
    # same witnesses, and the same order: by witness
    assert list(w.witnesses.items()) == list(product_scan(sets).items())
    assert w.result.points == tuple(sorted(w.witnesses))


def test_budget_error_names_the_bound(monkeypatch):
    monkeypatch.setenv("LATROUND_BUDGET", "100")
    sets = [LatticeSet([(i,) for i in range(10)]) for _ in range(3)]
    with pytest.raises(BudgetError) as err:
        minkowski_sum(sets)
    assert err.value.budget == 100
    assert err.value.required == 1000
    assert "100" in str(err.value)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("LATROUND_BUDGET", "3")
    sets = [LatticeSet([(0,), (1,)]), LatticeSet([(0,), (5,)])]
    with pytest.raises(BudgetError):
        minkowski_sum(sets)


def test_budget_env_is_read_on_every_call(monkeypatch):
    # each value is parsed once, but a changed value takes effect on the
    # next call, and an invalid one raises on every call
    from latround.errors import DEFAULT_BUDGET, enumeration_budget

    sets = [LatticeSet([(0,), (1,)]), LatticeSet([(0,), (5,)])]
    for raw, want in (("3", 3), ("4", 4), ("3", 3), ("", DEFAULT_BUDGET)):
        monkeypatch.setenv("LATROUND_BUDGET", raw)
        assert enumeration_budget() == want
    monkeypatch.setenv("LATROUND_BUDGET", "3")
    with pytest.raises(BudgetError):
        minkowski_sum(sets)
    monkeypatch.setenv("LATROUND_BUDGET", "4")
    assert len(minkowski_sum(sets)) == 4
    monkeypatch.delenv("LATROUND_BUDGET")
    assert enumeration_budget() == DEFAULT_BUDGET
    for raw in ("many", "0", "many"):
        monkeypatch.setenv("LATROUND_BUDGET", raw)
        for _ in range(2):
            with pytest.raises(UsageError):
                enumeration_budget()
            with pytest.raises(UsageError):
                minkowski_sum(sets)


def test_hole_scan_of_a_sum_budgets_its_box(monkeypatch):
    # the hole pair's sum lies in the box [0, 2]^2, whose 9 points the scan visits
    w = minkowski_sum([LatticeSet([(0, 0), (1, 1)]), LatticeSet([(1, 0), (0, 1)])])
    monkeypatch.setenv("LATROUND_BUDGET", "8")
    with pytest.raises(BudgetError) as err:
        find_holes(w)
    assert err.value.required == 9 and err.value.budget == 8
    monkeypatch.setenv("LATROUND_BUDGET", "9")
    assert find_holes(w).points == ((1, 1),)


def test_dimension_mismatch():
    with pytest.raises(UsageError):
        minkowski_sum([LatticeSet([(0, 0)]), LatticeSet([(0,)])])


def test_hull_of_sum_is_sum_of_hulls(hole_pair):
    """Sampled rational points: sums of per-summand hull points are in
    the hull of the sum, and hull points of the sum split back through
    the witnesses."""
    rng = random.Random(2024)
    w = minkowski_sum(hole_pair)
    for _ in range(25):
        parts = []
        for s in hole_pair:
            k = rng.randint(1, len(s))
            chosen = rng.sample(list(s.points), k)
            raw = [rng.randint(1, 4) for _ in chosen]
            total = sum(raw)
            parts.append(
                RationalPoint(
                    [
                        sum(Fraction(r, total) * p[i] for r, p in zip(raw, chosen))
                        for i in range(s.dim)
                    ]
                )
            )
        x = parts[0] + parts[1]
        assert hull_membership(w.result, x) is not None
    for _ in range(25):
        chosen = rng.sample(list(w.result.points), rng.randint(1, 3))
        raw = [rng.randint(1, 4) for _ in chosen]
        total = sum(raw)
        comb = ConvexCombination([(p, Fraction(r, total)) for p, r in zip(chosen, raw)])
        # push through witnesses: the split parts must be hull members
        per_set = [dict(), dict()]
        for p, wt in comb.support:
            for i, part in enumerate(w.witnesses[p]):
                per_set[i][part] = per_set[i].get(part, Fraction(0)) + wt
        split_total = None
        for i, s in enumerate(hole_pair):
            piece = ConvexCombination(per_set[i].items())
            assert hull_membership(s, piece.target) is not None
            split_total = piece.target if split_total is None else split_total + piece.target
        assert split_total == comb.target


def test_mnat_closure_small():
    """Exchange-convex subsets of the unit square: sums stay in class and
    hole-free (the full grid runs in the acceptance suite)."""
    cells = list(product((0, 1), repeat=2))
    family = [LatticeSet(s) for s in all_subsets(cells) if is_mnat_convex(LatticeSet(s))]
    for a in family:
        for b in family:
            w = minkowski_sum([a, b])
            assert is_mnat_convex(w.result)
            assert is_hole_free(w.result)


def test_lnat_pair_sums_integrally_convex_small():
    cells = list(product((0, 1), repeat=2))
    family = [LatticeSet(s) for s in all_subsets(cells) if is_lnat_convex(LatticeSet(s))]
    seen = set()
    for a in family:
        for b in family:
            w = minkowski_sum([a, b])
            if w.result.points in seen:
                continue
            seen.add(w.result.points)
            assert is_integrally_convex(w.result)
