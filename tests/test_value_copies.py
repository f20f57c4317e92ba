"""Copies and pickles of the value types rebuild through their constructors.

A copy is equal to the original, hashes and prints the same; a pickle
that breaks an invariant fails on load with the constructor's error.
Every value type is immutable and equal only to values of its own type.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from latround import (
    ConvexCombination,
    LatticeSet,
    RationalPoint,
    SfDecomposition,
    UsageError,
    integral_neighborhood,
    minkowski_sum,
    sf_round_linf,
)
from latround.errors import InternalError
from latround.shapley_folkman import RoundingResult


def values():
    half = Fraction(1, 2)
    return [
        RationalPoint((half, -3, Fraction(2, 3))),
        RationalPoint((4, 0)),
        ConvexCombination([((0, 0), Fraction(1, 3)), ((1, 1), Fraction(2, 3))]),
        LatticeSet([(0, 1), (2, 2), (1, 0)]),
        LatticeSet([], dim=3, allow_empty=True),
        sf_round_linf(
            [LatticeSet([(0, 0), (1, 1)]), LatticeSet([(1, 0), (0, 1)])], (half, half)
        ),
        RoundingResult((half, 0), (0, 0), "ic-linf", half, None),
        minkowski_sum([LatticeSet([(0, 0), (1, 1)]), LatticeSet([(1, 0), (0, 1)])]),
        integral_neighborhood((half, 2, Fraction(-1, 3))),
        SfDecomposition(
            RationalPoint((half, Fraction(3, 2))),
            {0: ConvexCombination([((0, 0), half), ((1, 1), half)])},
            {1: (0, 1)},
        ),
    ]


def copies(value):
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol=protocol))


@pytest.mark.parametrize("value", values(), ids=lambda v: type(v).__name__)
def test_value_survives_copy_and_pickle(value):
    for twin in copies(value):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)
        assert repr(twin) == repr(value)


@pytest.mark.parametrize("value", values(), ids=lambda v: type(v).__name__)
def test_value_is_immutable_and_equal_only_to_its_kind(value):
    with pytest.raises(AttributeError, match="immutable"):
        setattr(value, type(value).__slots__[0], None)
    with pytest.raises(AttributeError, match="immutable"):
        value.unheard_of = 1
    assert (value == object()) is False


@pytest.mark.parametrize("value", values(), ids=lambda v: type(v).__name__)
def test_value_fields_cannot_be_deleted(value):
    before = repr(value)
    for name in type(value).__slots__:
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, name)
    assert repr(value) == before


def test_rational_point_still_equals_and_hashes_like_its_tuple():
    # RationalPoint overrides the shared key equality and hash
    assert RationalPoint((1, 2)) == (1, 2)
    assert hash(RationalPoint((1, 2))) == hash((1, 2))


class _Forged:
    """Pickles as a call to ``cls`` with ``args``, as a tampered file would."""

    def __init__(self, cls, *args):
        self.cls, self.args = cls, args

    def __reduce__(self):
        return (self.cls, self.args)


@pytest.mark.parametrize(
    "forged, error",
    [
        (_Forged(ConvexCombination, (((0,), Fraction(1, 2)), ((1,), Fraction(1, 3)))), UsageError),
        (_Forged(LatticeSet, ((0,), (1, 2)), None, False), UsageError),
        (_Forged(RationalPoint, (0.5,)), UsageError),
        # max-norm distance 1 over a bound of 1/2
        (_Forged(RoundingResult, (0, 0), (1, 0), "ic-linf", Fraction(1, 2), None), InternalError),
        # the parts rebuild (0, 1), not x
        (_Forged(SfDecomposition, RationalPoint((1, 1)), {}, {0: (0, 1)}), InternalError),
    ],
)
def test_invalid_pickle_fails_on_load(forged, error):
    data = pickle.dumps(forged)
    with pytest.raises(error):
        pickle.loads(data)
