"""The hole scan of find_hole and find_holes.

Box points that the box vertices or the support bounds in the
directions ±e_i ± e_j put outside the hull are skipped without an LP;
every other point outside the set is decided by the exact LP.  Skipping
only points outside the hull must leave the witnesses and hole sets of
a plain lexicographic box scan unchanged.
"""

from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

import latround._kernel
from latround import LatticeSet, find_hole, is_mnat_convex, minkowski_sum
from latround.minkowski import find_holes
from latround.oracle import oracle_membership

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)

# coordinates and set sizes per dimension, small enough for the oracle
SHAPES = {1: (6, 5), 2: (4, 8), 3: (3, 7), 4: (3, 5)}


def lattice_sets():
    """Sets of 2 to 8 points of a small box in dimension 1 to 4."""
    return st.sampled_from(sorted(SHAPES)).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(0, SHAPES[n][0] - 1)] * n),
            min_size=2,
            max_size=SHAPES[n][1],
        ).map(LatticeSet)
    )


def oracle_holes(s):
    """The box points outside s in conv(s), in lexicographic order."""
    box = product(*(range(lo, hi + 1) for lo, hi in s.bbox))
    return [p for p in box if p not in s and oracle_membership(s, p)]


def count_lps(monkeypatch):
    calls = []
    original = latround._kernel.lp_feasible

    def counted(rows, rhs):
        calls.append(1)
        return original(rows, rhs)

    monkeypatch.setattr(latround._kernel, "lp_feasible", counted)
    return calls


@PROPERTY
@given(lattice_sets())
def test_scan_finds_the_holes_of_a_plain_box_scan(s):
    expected = oracle_holes(s)
    assert find_hole(s) == (expected[0] if expected else None), s.points
    assert list(find_holes(minkowski_sum([s])).points) == expected, s.points


def test_one_dimensional_gap_is_a_hole():
    # in 1-d there are no pair directions; the LP decides (1,)
    s = LatticeSet([(0,), (2,)])
    assert find_hole(s) == (1,)
    assert find_holes(minkowski_sum([s])).points == ((1,),)


def test_tetrahedron_corner_passes_the_pair_bounds_but_is_a_box_vertex(monkeypatch):
    s = LatticeSet([(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)])
    corner = (1, 1, 1)
    for i, j in combinations(range(3), 2):
        for sign in (1, -1):
            values = [q[i] + sign * q[j] for q in s]
            assert min(values) <= corner[i] + sign * corner[j] <= max(values)
    assert not oracle_membership(s, corner)
    calls = count_lps(monkeypatch)
    assert find_hole(s) is None
    assert find_holes(minkowski_sum([s])).points == ()
    assert calls == []


def test_hole_pair_still_has_its_hole(hole_pair):
    w = minkowski_sum(hole_pair)
    assert find_hole(w.result) == (1, 1)
    assert find_holes(w).points == ((1, 1),)


def test_closure_family_needs_no_lp(monkeypatch):
    grid = list(product(range(3), repeat=2))
    family = []
    for mask in range(1, 1 << len(grid)):
        s = LatticeSet([c for i, c in enumerate(grid) if mask >> i & 1])
        if is_mnat_convex(s):
            family.append(s)
    sums = {}
    for i, a in enumerate(family):
        for b in family[i:]:
            r = minkowski_sum([a, b]).result
            sums.setdefault(r.points, r)
    assert len(sums) == 777
    calls = count_lps(monkeypatch)
    assert [find_hole(s) for s in sums.values()] == [None] * 777
    assert calls == []
