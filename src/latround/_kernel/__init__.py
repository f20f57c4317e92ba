"""The exact integer kernel: phase-1 simplex, null vectors, square solves.

There is one implementation, the pure Python one in ``pure``; ``BACKEND``
names it.
"""

from latround._kernel.pure import lp_feasible, nullspace_vector, solve_square

BACKEND = "pure"

__all__ = ["lp_feasible", "nullspace_vector", "solve_square", "BACKEND"]
