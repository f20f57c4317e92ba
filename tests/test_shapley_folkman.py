import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latround import (
    BudgetError,
    ConvexCombination,
    DomainError,
    LatticeSet,
    RationalPoint,
    UsageError,
    bound_pair,
    caratheodory_reduce,
    cube_round,
    decompose_into_summand_hulls,
    hull_membership,
    integral_convexity_witness,
    is_mnat_convex,
    lnat_round,
    local_restrictions,
    minkowski_sum,
    mnat_round,
    round_point,
    sf_decompose,
    sf_round_l2,
    sf_round_linf,
)
from latround.oracle import oracle_membership, oracle_nearest
from latround.verify import rounding_instances


def certificate_for(s, x):
    c = hull_membership(s, x)
    assert c is not None
    return c


# ---------------------------------------------------------------- decompose


def test_decompose_hole_point(hole_pair):
    half = Fraction(1, 2)
    parts = decompose_into_summand_hulls(hole_pair, (1, 1))
    assert len(parts) == 2
    total = None
    for (y, cert), s in zip(parts, hole_pair):
        assert y == RationalPoint((half, half))
        assert cert.target == y
        assert set(cert.points()) <= set(s.points)
        total = y if total is None else total + y
    assert total == RationalPoint((1, 1))


def test_decompose_single_summand():
    s = LatticeSet([(0, 0), (1, 0), (0, 1)])
    x = (Fraction(1, 3), Fraction(1, 3))
    ((y, cert),) = decompose_into_summand_hulls([s], x)
    assert y == RationalPoint(x)
    assert cert.target == y


def test_decompose_vertex_uses_witness(hole_pair):
    w = minkowski_sum(hole_pair)
    parts = decompose_into_summand_hulls(hole_pair, (2, 1))
    witness = w.witnesses[(2, 1)]
    for (y, cert), part in zip(parts, witness):
        assert y == RationalPoint(part)
        assert cert.support == ((part, Fraction(1)),)


def test_decompose_outside_hull(hole_pair):
    with pytest.raises(DomainError):
        decompose_into_summand_hulls(hole_pair, (5, 5))


def _random_hull_point(rng, s):
    chosen = rng.sample(list(s.points), rng.randint(1, len(s)))
    raw = [rng.randint(1, 4) for _ in chosen]
    total = sum(raw)
    return ConvexCombination([(p, Fraction(r, total)) for p, r in zip(chosen, raw)]).target


def test_decompose_stacked_split_is_certified_and_basic():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.choice([2, 3])
        m = rng.randint(1, 6)
        sets = [
            LatticeSet({tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 5))})
            for _ in range(m)
        ]
        x = RationalPoint([0] * n)
        for s in sets:
            x = x + _random_hull_point(rng, s)
        parts = decompose_into_summand_hulls(sets, x)
        assert len(parts) == m
        total = RationalPoint([0] * n)
        for (y, cert), s in zip(parts, sets):
            assert cert.target == y
            assert set(cert.points()) <= set(s.points)
            assert oracle_membership(s, y.coords)
            total = total + y
        assert total == x
        assert sum(not y.is_integral() for y, _ in parts) <= min(n, m)
        # a basic solution: at most n + m positive weights in all
        assert sum(len(cert) for _, cert in parts) <= n + m


def _small_stacks():
    """(sets, x): n <= 3, 1 to 5 summands of points of {0,1,2}^n whose
    plain sum has at most 20 points (the membership oracle's limit), and
    x either a rational combination of sum points or a point over the
    denominator 2, 3 or 4 in a box around the sum."""

    def with_x(sets):
        points = minkowski_sum(sets).result.points
        n = sets[0].dim
        inside = st.lists(
            st.tuples(st.sampled_from(points), st.integers(1, 4)),
            min_size=min(2, len(points)),
            max_size=4,
            unique_by=lambda pair: pair[0],
        ).map(lambda chosen: ConvexCombination(
            [(p, Fraction(w, sum(v for _, v in chosen))) for p, w in chosen]
        ).target)
        anywhere = st.tuples(
            # numerators over 4 reach past the sum's box [0, 2m]^n on both sides
            st.lists(st.integers(-1, 8 * len(sets) + 1), min_size=n, max_size=n),
            st.integers(2, 4),
        ).map(lambda pair: RationalPoint([Fraction(a, pair[1]) for a in pair[0]]))
        return st.tuples(st.just(sets), st.one_of(inside, anywhere))

    def summands(n):
        one = st.lists(
            st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=3
        ).map(LatticeSet)
        return st.lists(one, min_size=1, max_size=5).filter(
            lambda sets: len(minkowski_sum(sets)) <= 20
        )

    return st.integers(1, 3).flatmap(summands).flatmap(with_x)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_small_stacks())
def test_decompose_agrees_with_the_oracle_and_is_basic(stack):
    sets, x = stack
    n = x.dim
    inside = oracle_membership(minkowski_sum(sets).result, x.coords)
    try:
        parts = decompose_into_summand_hulls(sets, x)
    except DomainError:
        assert not inside
        return
    assert inside
    total = RationalPoint([0] * n)
    for (y, cert), s in zip(parts, sets):
        assert cert.target == y
        assert set(cert.points()) <= set(s.points)
        total = total + y
    assert total == x
    assert sum(len(cert) > 1 for _, cert in parts) <= n


# ------------------------------------------------------- local restrictions


def test_local_restriction_whole_set():
    s = LatticeSet([(0, 0), (1, 1)])
    ((t, cert),) = local_restrictions([s], [(Fraction(1, 2), Fraction(1, 2))])
    assert t == s
    assert cert.target == RationalPoint((Fraction(1, 2), Fraction(1, 2)))


def test_local_restriction_interval():
    s = LatticeSet([(0,), (1,), (2,), (3,)])
    ((t, _),) = local_restrictions([s], [(Fraction(3, 2),)])
    assert t.points == ((1,), (2,))


def test_local_restriction_unit_square_slice(hole_pair):
    _, s2 = hole_pair
    ((t, _),) = local_restrictions([s2], [(Fraction(1, 2), Fraction(1, 2))])
    assert t.points == ((0, 1), (1, 0))


def test_local_restriction_reports_nonconvexity():
    s = LatticeSet([(0, 0), (2, 1)])
    with pytest.raises(DomainError) as err:
        local_restrictions([s], [(1, Fraction(1, 2))])
    assert "integrally convex" in str(err.value)
    assert err.value.witness == RationalPoint((1, Fraction(1, 2)))


def test_local_restriction_integral_share_outside_the_set():
    s = LatticeSet([(0, 0), (1, 1)])
    with pytest.raises(DomainError) as err:
        local_restrictions([s], [(1, 0)])
    assert "integrally convex" in str(err.value)
    assert err.value.witness == RationalPoint((1, 0))


def test_local_restriction_integral_share_certifies_itself():
    s = LatticeSet([(0, 0), (1, 0), (1, 1)])
    ((t, cert),) = local_restrictions([s], [(1, 0)])
    assert t.points == ((1, 0),)
    assert cert.support == (((1, 0), Fraction(1)),)


# ------------------------------------------------------------- sf_decompose


def test_sf_decompose_three_intervals():
    ts = [LatticeSet([(0,), (2,)]) for _ in range(3)]
    certs = [ConvexCombination([((0,), Fraction(1, 2)), ((2,), Fraction(1, 2))])] * 3
    dec = sf_decompose(ts, (3,), certs)
    i_set, j_set = dec.index_sets
    assert len(i_set) <= 1
    # exhaustive oracle: some assignment with one fractional summand exists
    found = False
    for z2 in (0, 2):
        for z3 in (0, 2):
            rest = 3 - z2 - z3
            if 0 <= rest <= 2:
                found = True
    assert found


def test_sf_decompose_pair_needs_two(hole_pair):
    x = (1, 1)
    half = Fraction(1, 2)
    certs = [
        certificate_for(hole_pair[0], (half, half)),
        certificate_for(hole_pair[1], (half, half)),
    ]
    dec = sf_decompose(list(hole_pair), x, certs)
    i_set, _ = dec.index_sets
    assert len(i_set) == 2
    # exhaustive residual oracle: no single-fractional split exists
    for keep, other in ((0, 1), (1, 0)):
        for z in hole_pair[other].points:
            residual = tuple(a - b for a, b in zip(x, z))
            assert not oracle_membership(hole_pair[keep], residual)


def test_sf_decompose_single_integral():
    t = LatticeSet([(0, 0), (1, 1)])
    cert = certificate_for(t, (1, 1))
    dec = sf_decompose([t], (1, 1), cert and [cert])
    i_set, j_set = dec.index_sets
    assert i_set == () and j_set == (0,)
    assert dec.integral[0] == (1, 1)


def test_sf_decompose_rejects_foreign_points():
    t = LatticeSet([(0, 0), (1, 1)])
    cert = ConvexCombination([((0, 0), Fraction(1, 2)), ((2, 2), Fraction(1, 2))])
    with pytest.raises(UsageError):
        sf_decompose([t], (1, 1), [cert])


def test_sf_decompose_one_summand_keeps_its_certificate(monkeypatch):
    # with one summand the local certificate is already basic, so the
    # decomposition reuses it without a pivot (no null-space call)
    import latround._kernel as kernel

    rng = random.Random(61)
    seen = {True: 0, False: 0}
    for _ in range(60):
        n = rng.choice([2, 3])
        w = minkowski_sum([_random_mnat_set(rng, n) for _ in range(rng.randint(1, 3))]).result
        x = _random_hull_point(rng, w)
        ((t, cert),) = local_restrictions([w], [x])
        calls = []
        original = kernel.nullspace_vector
        monkeypatch.setattr(kernel, "nullspace_vector", lambda rows: calls.append(rows) or original(rows))
        dec = sf_decompose([t], x, [cert])
        monkeypatch.setattr(kernel, "nullspace_vector", original)
        assert calls == []
        if len(cert) == 1:
            assert dec.fractional == {} and dec.integral == {0: cert.points()[0]}
        else:
            assert dec.integral == {} and dec.fractional[0] is cert
        seen[len(cert) == 1] += 1
    assert seen[True] >= 5 and seen[False] >= 5


def _full_reduction(ts, x, certs):
    """The reference sf_decompose: the stacked membership LP over every
    summand's certificate points, one-point certificates included."""
    from latround.shapley_folkman import SfDecomposition

    x = RationalPoint(x)
    if len(certs) == 1:
        (cert,) = certs
        if len(cert) == 1:
            return SfDecomposition(x, {}, {0: cert.points()[0]})
        return SfDecomposition(x, {0: cert}, {})
    split = decompose_into_summand_hulls([LatticeSet(c.points()) for c in certs], x)
    fractional = {i: part for i, (_, part) in enumerate(split) if len(part) > 1}
    integral = {i: part.points()[0] for i, (_, part) in enumerate(split) if len(part) == 1}
    return SfDecomposition(x, fractional, integral)


def _assert_basic(dec):
    """The columns (marker + p) of the fractional summands' points are
    independent: the stacked system over them, with right-hand side the
    ones and x less the points of J, has their weights as its one
    solution."""
    from latround.oracle import _solve_unique

    fractional = sorted(dec.fractional.items())
    if not fractional:
        return
    k = len(fractional)
    columns, weights = [], []
    for row, (_, comb) in enumerate(fractional):
        for p, wt in comb.support:
            columns.append((0,) * row + (1,) + (0,) * (k - row - 1) + p)
            weights.append(wt)
    rest = dec.x.coords
    for z in dec.integral.values():
        rest = tuple(a - b for a, b in zip(rest, z))
    rows = [list(r) for r in zip(*columns)]
    assert _solve_unique(rows, [1] * k + list(rest)) == weights


def _certified_stacks():
    """(ts, certs): 1 to 5 summands of points of {0,1,2}^n, n <= 3, each
    with a convex combination of 1 to 4 of its points."""

    def stack(n):
        point = st.tuples(*[st.integers(0, 2)] * n)
        comb = st.lists(
            st.tuples(point, st.integers(1, 5)), min_size=1, max_size=4, unique_by=lambda pw: pw[0]
        ).map(lambda chosen: ConvexCombination(
            [(p, Fraction(w, sum(v for _, v in chosen))) for p, w in chosen]
        ))
        summand = st.tuples(comb, st.lists(point, max_size=2)).map(
            lambda pair: (LatticeSet(list(pair[0].points()) + pair[1]), pair[0])
        )
        return st.lists(summand, min_size=1, max_size=5)

    return st.integers(1, 3).flatmap(stack)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_certified_stacks())
def test_sf_decompose_matches_the_full_reduction(stack):
    # the stacked LP over only the certificates with more than one point
    # gives the decomposition that the LP over every summand's
    # certificate gives, and it is basic
    ts = [t for t, _ in stack]
    certs = [c for _, c in stack]
    x = RationalPoint([0] * ts[0].dim)
    for c in certs:
        x = x + c.target
    dec = sf_decompose(ts, x, certs)
    ref = _full_reduction(ts, x, certs)
    assert dec == ref
    assert dec.fractional == ref.fractional and dec.integral == ref.integral
    if len(certs) > 1:
        _assert_basic(dec)


def _seeded_multi_stacks(seed, count):
    """(ts, x, certs): 2 to 5 summands of points of {0,1,2}^n, n = 2 or 3,
    at least two of them with a certificate of more than one point."""
    rng = random.Random(seed)
    while count:
        n = rng.choice([2, 3])
        ts, certs = [], []
        for _ in range(rng.randint(2, 5)):
            pts = sorted({tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 6))})
            raw = [rng.randint(1, 5) for _ in pts]
            certs.append(ConvexCombination([(p, Fraction(r, sum(raw))) for p, r in zip(pts, raw)]))
            ts.append(LatticeSet(pts))
        if sum(len(c) > 1 for c in certs) < 2:
            continue
        x = RationalPoint([0] * n)
        for c in certs:
            x = x + c.target
        yield ts, x, certs
        count -= 1


def test_basic_forms_run_no_null_space_pivot(monkeypatch):
    # sf_decompose and caratheodory_reduce reach a basic solution through
    # the stacked membership LP, not by null-space pivoting
    import latround._kernel as kernel

    calls = []
    original = kernel.nullspace_vector
    monkeypatch.setattr(kernel, "nullspace_vector", lambda rows: calls.append(rows) or original(rows))
    reduced = 0
    for ts, x, certs in _seeded_multi_stacks(83, 40):
        dec = sf_decompose(ts, x, certs)
        assert len(dec.fractional) <= min(x.dim, len(certs))
        _assert_basic(dec)
        big = max(certs, key=len)
        if len(big) > x.dim + 1:
            assert len(caratheodory_reduce(big)) <= x.dim + 1
            reduced += 1
    assert calls == []
    assert reduced >= 10


# --------------------------------------------------------------- cube_round


@pytest.mark.parametrize("n", range(2, 9))
def test_cube_round_tight_family(n):
    pts = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    s = LatticeSet(pts)
    x = tuple(Fraction(1, n) for _ in range(n))
    cert = certificate_for(s, x)
    v = cube_round(s, x, cert)
    assert v in s
    assert RationalPoint(x).linf_distance(RationalPoint(v)) == 1 - Fraction(1, n)


def test_cube_round_integral_point():
    s = LatticeSet([(0, 0), (1, 0), (1, 1)])
    cert = certificate_for(s, (1, 1))
    assert cube_round(s, (1, 1), cert) == (1, 1)


def test_cube_round_corner_triangle():
    s = LatticeSet([(0, 0), (1, 0), (0, 1)])
    x = (Fraction(1, 2), Fraction(1, 2))
    cert = certificate_for(s, x)
    v = cube_round(s, x, cert)
    assert RationalPoint(x).linf_distance(RationalPoint(v)) == Fraction(1, 2)


def test_cube_round_randomized_bound():
    rng = random.Random(31337)
    for _ in range(80):
        n = rng.randint(2, 4)
        cube = list(product((0, 1), repeat=n))
        pts = rng.sample(cube, rng.randint(1, len(cube)))
        s = LatticeSet(pts)
        raw = [rng.randint(0, 4) for _ in pts]
        if sum(raw) == 0:
            raw[0] = 1
        total = sum(raw)
        x = RationalPoint(
            [sum(Fraction(r, total) * p[i] for r, p in zip(raw, pts)) for i in range(n)]
        )
        cert = certificate_for(s, x)
        v = cube_round(s, x, cert)
        assert x.linf_distance(RationalPoint(v)) <= 1 - Fraction(1, n)


def test_cube_round_requires_unit_cube():
    s = LatticeSet([(0, 0), (2, 0)])
    cert = ConvexCombination([((0, 0), Fraction(1, 2)), ((2, 0), Fraction(1, 2))])
    with pytest.raises(UsageError):
        cube_round(s, (1, 0), cert)


# ---------------------------------------------------------------- pipelines


def test_round_linf_hole_point(hole_pair):
    res = sf_round_linf(hole_pair, (1, 1))
    assert res.z in minkowski_sum(hole_pair)
    assert res.distance_linf == 1 == bound_pair(2, 2).alpha
    assert res.theorem_tag == "ic-linf"


def test_round_linf_short_circuit(hole_pair):
    res = sf_round_linf(hole_pair, (2, 1))
    assert res.z == (2, 1)
    assert res.distance_linf == 0


def test_round_linf_triple(lnat_triple):
    res = sf_round_linf(lnat_triple, (1, 1, 1))
    assert bound_pair(3, 3).alpha == 2
    assert res.distance_linf <= 2
    # integral input tightens the guarantee to min(n, m) - 1 = 2
    assert res.bound_linf == 2


def test_round_linf_rejects_dimension_one():
    with pytest.raises(UsageError):
        sf_round_linf([LatticeSet([(0,), (1,)])], (Fraction(1, 2),))


def test_round_linf_rejects_nonconvex_summand():
    bad = LatticeSet([(0, 0), (2, 1)])
    with pytest.raises(DomainError):
        sf_round_linf([bad], (1, Fraction(1, 2)))
    # trusted mode skips verification and still satisfies the local step
    # for points whose neighborhood certificate exists
    res = sf_round_linf([LatticeSet([(0, 0), (1, 1)])], (Fraction(1, 2), Fraction(1, 2)), verify=False)
    assert res.distance_linf <= Fraction(1, 2)


def test_round_linf_outside_hull(hole_pair):
    with pytest.raises(DomainError):
        sf_round_linf(hole_pair, (Fraction(1, 5), Fraction(1, 5)))


def test_round_l2_hole_point(hole_pair):
    res = sf_round_l2(hole_pair, (1, 1))
    assert res.distance_l2_sq == 1
    assert res.bound_l2_sq == bound_pair(2, 2).beta_sq == 1


def test_round_l2_triple(lnat_triple):
    res = sf_round_l2(lnat_triple, (1, 1, 1))
    assert res.distance_l2_sq == 1
    assert res.distance_l2_sq <= bound_pair(3, 3).beta_sq == Fraction(9, 4)


def test_round_l2_dimension_one():
    sets = [LatticeSet([(0,), (1,)]), LatticeSet([(0,), (1,)])]
    res = sf_round_l2(sets, (Fraction(1, 2),))
    assert res.distance_l2_sq == Fraction(1, 4) == bound_pair(1, 2).beta_sq


def test_round_results_deterministic(hole_pair):
    a = sf_round_linf(hole_pair, (1, 1))
    b = sf_round_linf(hole_pair, (1, 1))
    assert a.z == b.z


def _set_sum(sets):
    acc = {(0,) * sets[0].dim}
    for s in sets:
        acc = {tuple(a + b for a, b in zip(p, q)) for p in acc for q in s.points}
    return acc


UNIT_SQUARE = LatticeSet(product((0, 1), repeat=2))
TRIANGLE = LatticeSet([(0, 0), (1, 0), (0, 1)])


@pytest.mark.parametrize(
    "sets, x",
    [
        # 4^12 tuples, over the enumeration budget, for a 169-point sum
        ([UNIT_SQUARE] * 12, (Fraction(13, 2), Fraction(10, 3))),
        ([TRIANGLE, UNIT_SQUARE] * 32, (Fraction(74, 3), Fraction(121, 5))),
    ],
)
def test_many_summands_round_without_the_sum(sets, x):
    n = len(x)
    pair = bound_pair(n, len(sets))
    w = _set_sum(sets)
    res_inf = sf_round_linf(sets, x)
    assert res_inf.z in w
    assert res_inf.distance_linf <= pair.alpha
    res_l2 = sf_round_l2(sets, x)
    assert res_l2.z in w
    assert res_l2.distance_l2_sq <= pair.beta_sq


def test_many_summands_integral_x_still_needs_the_sum():
    # an integral x is tested against the enumerated sum, whose budget
    # is kept on purpose
    sets = [UNIT_SQUARE] * 12
    with pytest.raises(BudgetError):
        sf_round_linf(sets, (6, 6))
    with pytest.raises(BudgetError):
        sf_round_l2(sets, (6, 6))


def _count_kernel_lps(monkeypatch):
    """The row counts of the kernel LPs run from here on, as a list."""
    from latround import exact_geometry

    rows_seen = []
    original = exact_geometry._kernel.lp_feasible

    def counted(rows, rhs):
        rows_seen.append(len(rows))
        return original(rows, rhs)

    monkeypatch.setattr(exact_geometry._kernel, "lp_feasible", counted)
    return rows_seen


def _unit_cube_stacks(seed, count):
    """(sets, x): 2 to 6 subsets of {0,1}^n, n = 2, 3 (each integrally
    convex), and a fractional hull point x of their sum."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice([2, 3])
        cube = list(product((0, 1), repeat=n))
        m = rng.randint(2, 6)
        sets = [LatticeSet(rng.sample(cube, rng.randint(2, len(cube)))) for _ in range(m)]
        x = RationalPoint([0] * n)
        for s in sets:
            x = x + _random_hull_point(rng, s)
        if not x.is_integral():
            out.append((sets, x))
    return out


def test_round_runs_one_stacked_lp_per_split(monkeypatch):
    # certified summands: every norm runs the one split, over n + m rows.
    # Trusted summands add one local LP per fractional share.
    fractional_seen = set()
    for sets, x in _unit_cube_stacks(71, 30):
        n, m = x.dim, len(sets)
        split = decompose_into_summand_hulls(sets, x)
        fractional = sum(not y.is_integral() for y, _ in split)
        fractional_seen.add(fractional)
        for s in sets:
            integral_convexity_witness(s)  # fills the midpoint pattern cache
        rows = _count_kernel_lps(monkeypatch)
        sf_round_linf(sets, x)
        assert rows == [n + m]
        rows.clear()
        round_point(sets, x, "ic", "best")
        assert rows == [n + m]
        rows.clear()
        sf_round_l2(sets, x)
        assert rows == [n + m]
        rows.clear()
        sf_round_l2(sets, x, verify=False)
        assert len(rows) == 1 + fractional
        rows.clear()
        sf_round_linf(sets, x, verify=False)
        assert len(rows) == 1 + fractional
        monkeypatch.undo()
    assert {1, 2} <= fractional_seen


def _cube_rule(sets, x):
    """z by the proof's rule, from the stacked split alone: the summands
    with one support point keep it; every other summand gives the
    lexicographically least point of S_i ∩ N(y_i) nearest to its share
    y_i in the max norm.  Also returns the number of fractional shares."""
    parts = []
    fractional = 0
    for s, (y, comb) in zip(sets, decompose_into_summand_hulls(sets, x)):
        fractional += not y.is_integral()
        if len(comb) == 1:
            parts.append(comb.points()[0])
            continue
        near = [p for p in s.points if all(abs(a - b) < 1 for a, b in zip(p, y))]
        parts.append(min(sorted(near), key=lambda p: y.linf_distance(RationalPoint(p))))
    return tuple(map(sum, zip(*parts))), fractional


def _grid_stacks(seed, count):
    """(sets, x): 2 to 7 integrally convex subsets of {0,1,2}^2 or
    {0,1}^3, and a fractional hull point x of their sum."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice([2, 3])
        cells = list(product(range(3) if n == 2 else range(2), repeat=n))
        m = rng.randint(2, 7)
        sets = []
        while len(sets) < m:
            s = LatticeSet(rng.sample(cells, rng.randint(2, 5)))
            if integral_convexity_witness(s) is None:
                sets.append(s)
        x = RationalPoint([0] * n)
        for s in sets:
            x = x + _random_hull_point(rng, s)
        if not x.is_integral():
            out.append((sets, x))
    return out


def test_round_linf_cube_rounds_the_first_split():
    # the shares of the one stacked split, each cube-rounded in its clipped
    # summand, as in the proof: here z is farther than the nearest sum
    # point (9, 5), but within the bound
    sets = [
        LatticeSet(pts)
        for pts in (
            [(1, 0), (1, 1), (1, 2), (2, 1), (2, 2)],
            [(0, 2), (1, 1), (2, 0)],
            [(0, 1), (1, 0), (1, 1), (2, 0)],
            [(1, 1), (2, 1), (2, 2)],
            [(0, 2), (1, 1), (1, 2), (2, 1)],
            [(0, 2), (1, 1), (1, 2)],
            [(0, 1), (0, 2), (1, 0), (1, 1)],
        )
    ]
    res = sf_round_linf(sets, (9, Fraction(19, 4)))
    assert res.z == (8, 5)
    assert res.distance_linf == 1 == res.bound_linf
    for sets, x in _grid_stacks(83, 60):
        z, fractional = _cube_rule(sets, x)
        for verify in (True, False):
            res = sf_round_linf(sets, x, verify=verify)
            assert res.z == z
            assert res.distance_linf <= fractional * (1 - Fraction(1, x.dim))


@pytest.mark.parametrize("norm", ["linf", "l2", "best"])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_trusted_round_names_the_nonconvex_summand(norm, where):
    # verify=False skips the class check, but the local certificate of
    # the bad summand's share (1, 1/2) fails, and the error names that
    # summand
    bad = LatticeSet([(0, 0), (2, 1)])
    sets = [LatticeSet([(0, 0)]), LatticeSet([(1, 1)])]
    sets.insert(where, bad)
    x = (2, Fraction(3, 2))
    with pytest.raises(DomainError) as err:
        round_point(sets, x, "ic", norm, verify=False)
    assert f"summand {where} is not integrally convex" in str(err.value)
    assert err.value.witness == RationalPoint((1, Fraction(1, 2)))


# --------------------------------------------------------------- mnat_round


def test_mnat_round_integral_is_exact():
    sets = [
        LatticeSet([(0, 0), (1, 0), (0, 1)]),
        LatticeSet([(0, 0), (1, 0), (0, 1), (1, 1)]),
    ]
    res = mnat_round(sets, (1, 1))
    assert res.z == (1, 1)
    assert res.distance_linf == 0
    assert res.bound_linf == 0  # min(n, 1) - 1 for the sum as one summand


def test_mnat_round_triangle():
    s = LatticeSet([(0, 0), (1, 0), (0, 1)])
    res = mnat_round([s], (Fraction(1, 2), Fraction(1, 4)))
    assert res.z in ((0, 0), (1, 0))
    assert res.distance_linf == Fraction(1, 2) == 1 - Fraction(1, 2)
    assert res.theorem_tag == "mnat"


def test_mnat_round_matroid_style():
    # independent sets of two small matroids on three elements
    u13 = LatticeSet([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    u23 = LatticeSet(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    )
    x = (Fraction(2, 3), Fraction(2, 3), Fraction(1, 3))
    res = mnat_round([u13, u23], x)
    assert res.distance_linf <= 1 - Fraction(1, 3)


def _random_mnat_set(rng, n):
    top = 2 if n == 2 else 1
    while True:
        pts = {tuple(rng.randint(0, top) for _ in range(n)) for _ in range(rng.randint(1, 5))}
        s = LatticeSet(pts)
        if is_mnat_convex(s):
            return s


@pytest.mark.parametrize("verify", [True, False])
def test_mnat_round_is_least_nearest_local_sum_point(verify):
    # the exchange-convex sum W is rounded as one integrally convex
    # summand: z is the lexicographically least max-norm-nearest point of
    # W in the integral neighborhood of x
    rng = random.Random(53)
    kinds = {True: 0, False: 0}
    for _ in range(60):
        n = rng.choice([2, 3])
        sets = [_random_mnat_set(rng, n) for _ in range(rng.randint(1, 3))]
        w = _set_sum(sets)
        x = _random_hull_point(rng, LatticeSet(w))
        res = mnat_round(sets, x, verify=verify)
        lo, hi = x.floor(), x.ceil()
        local = sorted(p for p in w if all(a <= c <= b for a, c, b in zip(lo, p, hi)))
        assert res.z == min(local, key=lambda p: x.linf_distance(RationalPoint(p)))
        assert res.theorem_tag == "mnat"
        assert res.bound_linf == (0 if x.is_integral() else 1 - Fraction(1, n))
        kinds[x.is_integral()] += 1
    assert kinds[True] >= 5 and kinds[False] >= 5


def test_mnat_round_rejects_nonexchange():
    bad = LatticeSet([(0, 0), (1, 1)])
    with pytest.raises(DomainError) as err:
        mnat_round([bad], (Fraction(1, 2), Fraction(1, 2)))
    assert err.value.witness == ((1, 1), (0, 0), 0)


# --------------------------------------------------------------- lnat_round


def test_lnat_round_triple_linf(lnat_triple):
    res = lnat_round(lnat_triple, (1, 1, 1), norm="linf")
    assert res.distance_linf <= 1
    assert res.bound_linf == 1  # floor of alpha(3, 2) = 4/3
    assert res.z in minkowski_sum(lnat_triple)


def test_lnat_round_single_integral():
    s = LatticeSet([(0, 0), (1, 1)])
    res = lnat_round([s], (1, 1), norm="linf")
    assert res.z == (1, 1)
    assert res.distance_linf == 0


def test_lnat_round_triple_l2(lnat_triple):
    res = lnat_round(lnat_triple, (1, 1, 1), norm="l2")
    assert res.distance_l2_sq == 1
    assert res.bound_l2_sq == bound_pair(3, 2).beta_sq == Fraction(3, 2)


def test_lnat_round_best(lnat_triple):
    res = lnat_round(lnat_triple, (1, 1, 1), norm="best")
    assert res.distance_linf <= 1
    assert res.theorem_tag == "lnat-best"


def test_lnat_round_rejects_nonmidpoint():
    bad = LatticeSet([(1, 0), (0, 1)])
    with pytest.raises(DomainError) as err:
        lnat_round([bad], (Fraction(1, 2), Fraction(1, 2)))
    assert err.value.witness == ((0, 1), (1, 0))


def test_lnat_round_unknown_norm(lnat_triple):
    with pytest.raises(UsageError):
        lnat_round(lnat_triple, (1, 1, 1), norm="l7")
    with pytest.raises(UsageError):
        round_point(lnat_triple, (1, 1, 1), cls="xyz")


# -------------------------------------------------------------- round_point


def _outcome(fn, *args, **kwargs):
    try:
        res = fn(*args, **kwargs)
    except (DomainError, UsageError) as exc:
        return type(exc), str(exc)
    return res.z, res.theorem_tag, res.bound_linf, res.bound_l2_sq


@pytest.mark.parametrize(
    "fixture, xs",
    [
        ("hole_pair", [(1, 1), (2, 1), (Fraction(3, 2), 1), (Fraction(1, 3), Fraction(2, 3))]),
        ("lnat_triple", [(1, 1, 1), (Fraction(1, 2), Fraction(1, 2), 1), (2, 2, 2)]),
    ],
)
@pytest.mark.parametrize("verify", [True, False])
def test_round_point_matches_named_pipelines(request, fixture, xs, verify):
    sets = request.getfixturevalue(fixture)
    for x in xs:
        named = {
            ("ic", "linf"): _outcome(sf_round_linf, sets, x, verify),
            ("ic", "l2"): _outcome(sf_round_l2, sets, x, verify),
            ("mnat", "linf"): _outcome(mnat_round, sets, x, verify),
        }
        for norm in ("linf", "l2", "best"):
            named[("lnat", norm)] = _outcome(lnat_round, sets, x, norm, verify)
        for (cls, norm), want in named.items():
            assert _outcome(round_point, sets, x, cls, norm, verify) == want
        # ic "best" keeps the nearer of the two ic pipelines and reports
        # its bound the way lnat "best" does
        a, b = named[("ic", "linf")], named[("ic", "l2")]
        best = _outcome(round_point, sets, x, "ic", "best", verify)
        if isinstance(a[0], type):
            assert best == a
            continue
        xq = RationalPoint(x)
        nearer = min((a, b), key=lambda r: xq.linf_distance(RationalPoint(r[0])))
        pair = bound_pair(len(x), len(sets))
        bound = min(pair.floor_alpha, pair.floor_beta) if xq.is_integral() else pair.alpha
        assert best == (nearer[0], "ic-best", bound, None)


# ------------------------------------------------------------ random suite


def test_randomized_bounds_small():
    for sets, x, _ in rounding_instances(seed=7, count=40):
        n = sets[0].dim
        m = len(sets)
        pair = bound_pair(n, m)
        w = minkowski_sum(sets)
        res_inf = sf_round_linf(sets, x, verify=False)
        assert res_inf.distance_linf <= pair.alpha
        assert res_inf.z in w
        if x.is_integral():
            assert res_inf.distance_linf <= min(n, m) - 1
        res_l2 = sf_round_l2(sets, x, verify=False)
        assert res_l2.distance_l2_sq <= pair.beta_sq
        # the oracle's global optimum is never beaten, and meets the bound
        _, best_inf = oracle_nearest(w, x, "linf")
        assert best_inf <= res_inf.distance_linf


def test_rounding_suite_builds_each_sum_once(monkeypatch):
    import latround.verify as verify

    calls = []
    original = verify.minkowski_sum
    monkeypatch.setattr(verify, "minkowski_sum", lambda sets: calls.append(1) or original(sets))
    reports = verify.run_rounding_suite(3, 25)
    assert len(calls) == 25
    assert [(r.checked, r.failures) for r in reports] == [
        (25, []), (14, []), (25, []), (25, []), (25, []), (25, [])
    ]
    assert all(len(item) == 3 for item in rounding_instances(3, 5))
