"""Exact integer pivoting kernels, in pure Python.

Apart from the independent oracles, these routines are the package's only
exact elimination, and this is their only implementation.
``lp_feasible`` decides every hull-membership certificate (and so every
integral-convexity verdict), the stacked per-summand split of the
rounding pipelines and every reduction to a basic solution
(``sf_decompose``, ``caratheodory_reduce``); ``nullspace_vector`` serves
only the rank tests of ``hull_facets`` and ``solve_square``, which reads
its solution off a null vector of [A | -b] and has no caller in the
package.  One elimination step, ``_eliminate``, does the row operations
of both ``lp_feasible`` and ``nullspace_vector``.  Callers pass integer
rows and read integer results: a solution comes back as reduced
(num, den) pairs, which the geometry layer keeps as integer numerators
over one common denominator.  All arithmetic is on Python integers, so
results are exact at any magnitude, and every eliminated row is divided
by the gcd of its entries to keep them small.

``lp_feasible`` starts phase 1 from a crash basis: a row i for which some
column is a positive multiple of the unit vector e_i starts with the first
such column basic, and needs no artificial variable.  The membership LPs
are written so that every convex-weight row has one (see
``exact_geometry._membership_lp``), so phase 1 only pivots out the
coordinate rows' artificials.  The infeasibility gap it reports is the
phase-1 optimum over those remaining artificials: exact and positive, but
not comparable with a gap taken with an artificial on every row.
"""

from math import gcd

__all__ = ["lp_feasible", "nullspace_vector", "solve_square"]


def _gcd_reduce(row):
    """Divide the integer list ``row`` in place by the gcd of its entries."""
    g = gcd(*row)
    if g > 1:
        row[:] = [v // g for v in row]
    return row


def _eliminate(mat, prow, col):
    """Clear column ``col`` from every row of the integer matrix ``mat`` but
    row ``prow``, in place, and divide each changed row and the pivot row
    by the gcd of its entries."""
    prow_vals = mat[prow]
    piv = prow_vals[col]
    for i, row in enumerate(mat):
        f = row[col]
        if f and i != prow:
            mat[i] = _gcd_reduce([piv * a - f * b for a, b in zip(row, prow_vals)])
    _gcd_reduce(prow_vals)


def lp_feasible(rows, rhs):
    """Decide whether A @ lam = b admits lam >= 0, by exact phase-1 simplex.

    ``rows`` is a list of integer rows of A and ``rhs`` the integer right
    hand side.  Returns ``("feasible", support)`` where ``support`` lists
    ``(column, num, den)`` for the positive entries of a basic feasible
    solution (its support columns are linearly independent), or
    ``("infeasible", (num, den))`` carrying the positive optimum of the
    phase-1 objective.  Bland's rule on both the entering column and the
    leaving row makes the pivoting finite and deterministic.

    Rows with a negative right-hand side are negated first.  Then the
    start basis is crashed: the first column that is a positive multiple
    c e_i of the unit vector e_i starts basic in row i, at the value
    b_i / c >= 0.  Only the rows left without such a column get an
    artificial variable, so phase 1 pivots out those artificials alone.
    The infeasibility gap is the phase-1 optimum: the sum of the
    artificials that remain in the basis, an exact positive rational.
    """
    m = len(rows)
    if m == 0:
        return ("feasible", [])
    ncols = len(rows[0])
    tab = [list(r) if b >= 0 else [-v for v in r] for r, b in zip(rows, rhs)]
    basis = [-1] * m
    for j, col in enumerate(zip(*tab)):
        hits = [i for i, v in enumerate(col) if v]
        if len(hits) == 1 and col[hits[0]] > 0 and basis[hits[0]] < 0:
            basis[hits[0]] = j
    basic_cols = {j for j in basis if j >= 0}
    art_rows = [j < 0 for j in basis]
    nart = m - len(basic_cols)
    last = ncols + nart
    k = ncols
    for i, row in enumerate(tab):
        row.extend([0] * nart)
        row.append(abs(rhs[i]))
        if art_rows[i]:
            row[k] = 1
            basis[i] = k
            k += 1

    while True:
        active = [i for i in range(m) if art_rows[i]]
        if all(tab[i][last] == 0 for i in active):
            break
        # price real columns against the artificial rows only:
        # score_j = sum_i tab[i][j] / tab[i][basis[i]] over artificial rows,
        # computed over the common positive denominator prod(tab[i][basis[i]]).
        dens = [tab[i][basis[i]] for i in active]
        prod = 1
        for d in dens:
            prod *= d
        shares = [prod // d for d in dens]
        entering = -1
        for j in range(ncols):
            if j in basic_cols:
                continue
            score = 0
            for i, s in zip(active, shares):
                t = tab[i][j]
                if t:
                    score += t * s
            if score > 0:
                entering = j
                break
        if entering < 0:
            num = 0
            den = 1
            for i in active:
                rn = tab[i][last]
                rd = tab[i][basis[i]]
                num = num * rd + rn * den
                den *= rd
            g = gcd(num, den)
            return ("infeasible", (num // g, den // g))
        # exact ratio test with Bland tie-break on the basis index
        prow = -1
        rn = rd = 0
        for i in range(m):
            t = tab[i][entering]
            if t <= 0:
                continue
            bn = tab[i][last]
            if prow < 0 or bn * rd < rn * t or (bn * rd == rn * t and basis[i] < basis[prow]):
                prow, rn, rd = i, bn, t
        # a positive score forces a positive entry in some artificial row
        assert prow >= 0
        _eliminate(tab, prow, entering)
        if art_rows[prow]:
            art_rows[prow] = False
        else:
            basic_cols.discard(basis[prow])
        basis[prow] = entering
        basic_cols.add(entering)

    support = []
    for i in range(m):
        j = basis[i]
        if j < ncols and tab[i][last] > 0:
            num = tab[i][last]
            den = tab[i][j]
            g = gcd(num, den)
            support.append((j, num // g, den // g))
    support.sort()
    return ("feasible", support)


def nullspace_vector(rows):
    """Integer v != 0 with M @ v = 0, or None when the columns of M are
    linearly independent.

    Deterministic: the vector corresponds to the lowest-index dependent
    column, with the remaining free columns held at zero.
    """
    m = len(rows)
    k = len(rows[0]) if m else 0
    mat = [list(r) for r in rows]
    piv_rows = []  # (row, col) in discovery order
    nextrow = 0
    for c in range(k):
        pr = -1
        for r in range(nextrow, m):
            if mat[r][c]:
                pr = r
                break
        if pr < 0:
            # c is the first dependent column; back-read the reduced rows
            v = [0] * k
            lcm = 1
            for r, pc in piv_rows:
                e = mat[r][pc]
                lcm = lcm // gcd(lcm, e) * abs(e)
            v[c] = lcm
            for r, pc in piv_rows:
                e = mat[r][pc]
                v[pc] = -mat[r][c] * (lcm // e)
            _gcd_reduce(v)
            for x in v:
                if x:
                    if x < 0:
                        v = [-y for y in v]
                    break
            return v
        if pr != nextrow:
            mat[pr], mat[nextrow] = mat[nextrow], mat[pr]
        _eliminate(mat, nextrow, c)
        piv_rows.append((nextrow, c))
        nextrow += 1
    return None


def solve_square(rows, rhs):
    """Solve an n-by-n integer system exactly.

    Returns the solution as a list of reduced ``(num, den)`` pairs with
    positive denominators, or None when the matrix is singular.  The
    solution is read off the null vector of [A | -b]: A is singular
    exactly when that vector's dependent column is one of A's.
    """
    n = len(rows)
    v = nullspace_vector([list(r) + [-b] for r, b in zip(rows, rhs)])
    if v is None:
        return []  # n == 0
    den = v[n]
    if den == 0:
        return None
    if den < 0:
        v = [-a for a in v]
        den = -den
    out = []
    for num in v[:n]:
        g = gcd(num, den)
        out.append((num // g, den // g))
    return out
