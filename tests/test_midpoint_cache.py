"""The unit-cube pattern cache behind the integral-convexity midpoint test.

Each midpoint question is decided once per pattern of cube corners and
only the verdict is kept, so the answers must not depend on what the
cache already holds: not on the order of the calls, not on where in Z^n
the set sits.  Every LP the test runs is a cache miss.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

import latround._kernel
from latround import LatticeSet, integral_convexity_witness
from latround.discrete_sets import _centre_in_hull
from latround.oracle import oracle_integral_convexity

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


def lattice_sets(max_size=6):
    """Sets of 1 to max_size points of {0,1,2}^n, n in {2, 3}."""
    return st.sampled_from((2, 3)).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=max_size
        ).map(LatticeSet)
    )


def test_cold_cache_runs_one_lp_per_pattern(monkeypatch):
    calls = []
    original = latround._kernel.lp_feasible

    def counted(rows, rhs):
        calls.append(1)
        return original(rows, rhs)

    monkeypatch.setattr(latround._kernel, "lp_feasible", counted)
    _centre_in_hull.cache_clear()
    cells = list(product(range(3), repeat=2))
    for mask in range(1, 1 << len(cells)):
        integral_convexity_witness(
            LatticeSet([c for i, c in enumerate(cells) if mask >> i & 1])
        )
    misses = _centre_in_hull.cache_info().misses
    assert 0 < len(calls) == misses <= 278


@PROPERTY
@given(st.lists(lattice_sets(), min_size=2, max_size=12))
def test_witnesses_do_not_depend_on_call_order(sets):
    _centre_in_hull.cache_clear()
    forward = [integral_convexity_witness(s) for s in sets]
    _centre_in_hull.cache_clear()
    backward = [integral_convexity_witness(s) for s in reversed(sets)]
    assert forward == backward[::-1]


@PROPERTY
@given(lattice_sets(), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_witness_moves_with_the_set_and_matches_the_oracle(s, shift):
    t = shift[: s.dim]
    moved = LatticeSet(tuple(a + b for a, b in zip(p, t)) for p in s)
    witness = integral_convexity_witness(s)
    shifted = integral_convexity_witness(moved)
    if witness is None:
        assert shifted is None
    else:
        assert shifted == witness + t
    assert (witness is None) == oracle_integral_convexity(s), s.points
