import random
from fractions import Fraction

import pytest

from latround._kernel import pure


# one backend, the pure kernel; the id keeps the test names stable
@pytest.fixture(params=[pure], ids=["pure"])
def kern(request):
    return request.param


def test_lp_segment_vertex(kern):
    status, support = kern.lp_feasible([[1, 1]], [1])
    assert status == "feasible"
    # column 0 is a positive unit column of the one row, so it starts basic
    assert support == [(0, 1, 1)]


def test_lp_identity(kern):
    status, support = kern.lp_feasible([[1, 0], [0, 1]], [1, 2])
    assert status == "feasible"
    assert support == [(0, 1, 1), (1, 2, 1)]


def test_lp_sign_contradiction(kern):
    status, gap = kern.lp_feasible([[1], [-1]], [1, 1])
    assert status == "infeasible"
    num, den = gap
    assert num > 0 and den > 0


def test_lp_rational_solution(kern):
    # lam = (1/2, 1/2) is the unique solution
    status, support = kern.lp_feasible([[0, 2], [1, 1]], [1, 1])
    assert status == "feasible"
    assert support == [(0, 1, 2), (1, 1, 2)]


def test_lp_zero_rhs(kern):
    status, support = kern.lp_feasible([[1, -1]], [0])
    assert status == "feasible"
    assert support == []


def test_nullspace_dependency(kern):
    v = kern.nullspace_vector([[0, 1, 2], [0, 0, 0], [1, 1, 1]])
    assert v == [1, -2, 1]


def test_nullspace_independent(kern):
    assert kern.nullspace_vector([[1, 0], [0, 1]]) is None


def test_nullspace_lowest_free_column(kern):
    # columns 0 and 1 are equal: the dependency must use them, not column 2
    v = kern.nullspace_vector([[1, 1, 0], [2, 2, 1]])
    assert v == [1, -1, 0]


def test_solve_square_exact(kern):
    assert kern.solve_square([[2, 0], [0, 4]], [1, 3]) == [(1, 2), (3, 4)]
    assert kern.solve_square([[1, 1], [1, -1]], [2, 0]) == [(1, 1), (1, 1)]


def test_solve_square_singular(kern):
    assert kern.solve_square([[1, 1], [2, 2]], [1, 2]) is None


def test_solve_square_matches_the_oracle_seeded(kern):
    # the oracle's Fraction elimination, as reduced (num, den) pairs with
    # positive denominators; singular systems, zero and negative pivots
    # included
    from latround.oracle import _solve_unique

    assert kern.solve_square([], []) == []
    rng = random.Random(5150)
    singular = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2:
            # force a dependent row
            rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[-2 if n > 1 else 0])]
        rhs = [rng.randint(-5, 5) for _ in range(n)]
        got = kern.solve_square(rows, rhs)
        want = _solve_unique(rows, rhs)
        if want is None:
            singular += 1
            assert got is None
        else:
            assert got == [(q.numerator, q.denominator) for q in want]
            assert all(den > 0 for _, den in got)
    assert singular >= 40


def test_lp_solution_satisfies_system(kern):
    rng = random.Random(20240817)
    feasible_seen = 0
    for _ in range(300):
        m = rng.randint(1, 5)
        k = rng.randint(1, 9)
        rows = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
        rhs = [rng.randint(-4, 4) for _ in range(m)]
        status, payload = kern.lp_feasible([r[:] for r in rows], list(rhs))
        if status != "feasible":
            continue
        feasible_seen += 1
        lam = [Fraction(0)] * k
        for col, num, den in payload:
            lam[col] = Fraction(num, den)
            assert lam[col] > 0
        for row, b in zip(rows, rhs):
            assert sum(c * v for c, v in zip(row, lam)) == b
        # support columns must be linearly independent
        cols = [col for col, _, _ in payload]
        if cols:
            matrix = [[rows[i][c] for c in cols] for i in range(m)]
            assert kern.nullspace_vector(matrix) is None
    assert feasible_seen > 50


def test_lp_crash_columns_give_the_solution(kern):
    # each row has a positive multiple of its unit vector (column 3 is a
    # later one of row 0 and stays out): no pivot is needed, and the first
    # such columns carry the values b_i / c
    rows = [[3, 2, 0, 1, 0], [1, 0, 4, 0, 0], [1, 0, 0, 0, 5]]
    status, support = kern.lp_feasible(rows, [6, 2, 10])
    assert status == "feasible"
    assert support == [(1, 3, 1), (2, 1, 2), (4, 2, 1)]


def test_lp_unit_column_on_a_negative_row_is_not_crashed(kern):
    # row 0 is negated for its rhs of -2, so column 0 turns to -e_0 and
    # may not start basic; the only solution uses column 1
    status, support = kern.lp_feasible([[1, -1], [0, 1]], [-2, 2])
    assert status == "feasible"
    assert support == [(1, 2, 1)]
    status, gap = kern.lp_feasible([[1, 0], [0, 1]], [-1, 1])
    assert status == "infeasible"
    assert gap == (1, 1)


def test_lp_infeasible_with_crash_rows_has_a_positive_gap(kern):
    # the convex-weight row lam_0 + lam_1 = 1 is crashed on column 0; the
    # coordinate row 2 lam_1 = 3 asks for lam_1 = 3/2, which it cannot give
    status, gap = kern.lp_feasible([[0, 2], [1, 1]], [3, 1])
    assert status == "infeasible"
    num, den = gap
    assert num > 0 and den > 0
    assert Fraction(num, den) == 1
