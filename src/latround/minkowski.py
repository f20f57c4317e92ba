"""Witnessed Minkowski sums of lattice sets and hole detection."""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence

from .discrete_sets import LatticeSet, _hole_candidates
from .errors import DEFAULT_BUDGET, UsageError, check_budget
from .errors import enumeration_budget  # noqa: F401  re-exported
from .exact_geometry import RationalPoint, _in_hull, _Value
# bench/selftest.py resolves it here
from .exact_geometry import _membership_support  # noqa: F401

__all__ = ["WitnessedSum", "minkowski_sum", "find_holes", "DEFAULT_BUDGET"]


class WitnessedSum(_Value):
    """A Minkowski sum together with one decomposition per sum point.

    The witness for a point w is the lexicographically least tuple
    (s1, ..., sm) of summand points with s1 + ... + sm = w.
    """

    __slots__ = ("result", "witnesses", "summands")

    def __init__(self, result: LatticeSet, witnesses: dict, summands: tuple):
        object.__setattr__(self, "result", result)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "summands", summands)

    def _key(self):
        # the witnesses sorted, so that equality ignores their order
        return (self.result, self.summands, tuple(sorted(self.witnesses.items())))

    def _args(self):
        return (self.result, self.witnesses, self.summands)

    @property
    def dim(self) -> int:
        return self.result.dim

    def __contains__(self, p):
        return p in self.result

    def __len__(self):
        return len(self.result)

    def __repr__(self):
        return f"WitnessedSum({len(self.summands)} summands, {len(self.result)} points)"


def _check_sets(sets: Sequence) -> int:
    """The common dimension of a nonempty sequence of nonempty lattice
    sets; UsageError otherwise."""
    if not sets:
        raise UsageError("need at least one summand")
    for s in sets:
        if not isinstance(s, LatticeSet) or len(s) == 0:
            raise UsageError("summands must be nonempty lattice sets")
    dim = sets[0].dim
    if any(s.dim != dim for s in sets):
        raise UsageError("summands have mixed dimensions")
    return dim


def minkowski_sum(sets: Sequence[LatticeSet]) -> WitnessedSum:
    """Sum of lattice sets with a stored witness tuple per result point.

    A fold over partial sums: W_1 = S_1 and W_k = W_{k-1} + S_k, keeping
    one witness per partial-sum point.  The least witness of a point of
    W_k starts with the least witness of its partial sum in W_{k-1}, so
    walking W_{k-1} in the order of its witnesses and S_k in sorted
    order meets the candidates of each point in lexicographic order, and
    the first one seen is the lexicographically least.  Each dict so
    built is also ordered by witness.  The work is sum |W_{k-1}| |S_k|
    rather than the product of the |S_i|.  The budget gate still
    compares the product of the summand sizes with the enumeration
    budget and raises BudgetError over it.
    """
    sets = tuple(sets)
    dim = _check_sets(sets)
    check_budget(prod(map(len, sets)), "sum enumeration", "tuples")
    witnesses = {p: (p,) for p in sets[0].points}
    for s in sets[1:]:
        grown: dict = {}
        for u, prefix in witnesses.items():
            for q in s.points:
                w = tuple(a + b for a, b in zip(u, q))
                if w not in grown:
                    grown[w] = prefix + (q,)
        witnesses = grown
    result = LatticeSet(witnesses.keys(), dim=dim)
    return WitnessedSum(result, witnesses, sets)


def find_holes(w: WitnessedSum) -> LatticeSet:
    """Integer hull points of the sum that are not sum points.

    Returns a possibly empty LatticeSet: conv(W) cap Z^n minus W, found
    by exact membership over the bounding box.  Only the points that
    ``discrete_sets._hole_candidates`` cannot rule out by the box
    vertices and the pair-direction support bounds cost an LP.  Raises
    BudgetError when the box holds more points than the enumeration
    budget.
    """
    res = w.result
    holes = [p for p in _hole_candidates(res) if _in_hull(res.points, RationalPoint(p))]
    return LatticeSet(holes, dim=res.dim, allow_empty=True)
