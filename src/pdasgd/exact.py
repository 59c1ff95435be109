"""Exact optimal transport values for tiny instances, by vertex enumeration.

Every vertex of the transport polytope is supported on at most 2n-1 cells,
so enumerating cell subsets of size up to 2n-1, solving the marginal
equations on each, and keeping the cheapest nonnegative solution recovers
the exact optimum.  This is a verification oracle: the enumeration budget
restricts it to n <= 5.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .core import OTInstance, TransportPlan

MAX_ORACLE_SIZE = 5
_RESIDUAL_TOL = 1e-10
_NONNEG_TOL = 1e-12
_TIE_TOL = 1e-12


def exact_ot_oracle(cost, alpha, beta) -> tuple[TransportPlan, float]:
    """Exact minimum of <C, X> over the transport polytope, n <= 5.

    Enumerates supports of size up to 2n-1 in lexicographic (row-major cell)
    order, keeps supports whose marginal system determines the plan uniquely,
    filters to nonnegative solutions, and returns the minimum-cost vertex.
    Ties between equal-cost vertices are broken toward the lexicographically
    smallest support, so the output is deterministic.  Raw inputs are
    validated by their containers (:meth:`OTInstance.of`), so the marginals
    must be probability vectors and the cost finite and nonnegative.  The
    enumeration grows fast with n: on a 2-CPU x86 host one call took 0.2-0.4
    s at n = 4 and 30-52 s at n = 5, so tests that sweep many instances stay
    at n <= 4.
    """
    instance = OTInstance.of(cost, alpha, beta)
    n = instance.n
    if n > MAX_ORACLE_SIZE:
        raise ValueError(f"exact oracle is limited to n <= {MAX_ORACLE_SIZE}, got n = {n}")
    c, a, b = instance.cost.entries, instance.row_marginal.weights, instance.col_marginal.weights

    cells = [(i, j) for i in range(n) for j in range(n)]
    # Linear system columns: row constraints 0..n-1, column constraints
    # n..2n-2 (the last column constraint is redundant given equal masses).
    col_of_cell = []
    mask_of_cell = []
    for i, j in cells:
        col = np.zeros(2 * n - 1)
        col[i] = 1.0
        if j < n - 1:
            col[n + j] = 1.0
        col_of_cell.append(col)
        mask_of_cell.append((1 << i) | (1 << (n + j)))
    rhs = np.concatenate([a, b[: n - 1]])

    # A support can only be feasible if it touches every row and column
    # that carries positive mass.
    need = 0
    for i in range(n):
        if a[i] > 0:
            need |= 1 << i
    for j in range(n):
        if b[j] > 0:
            need |= 1 << (n + j)

    best_cost = np.inf
    best_support = None
    best_values = None
    max_support = 2 * n - 1
    for k in range(1, max_support + 1):
        for support in combinations(range(n * n), k):
            touched = 0
            for cell in support:
                touched |= mask_of_cell[cell]
            if touched & need != need:
                continue
            mat = np.stack([col_of_cell[cell] for cell in support], axis=1)
            sol, _, rank, _ = np.linalg.lstsq(mat, rhs, rcond=None)
            if rank < k:
                continue  # underdetermined support, skip
            if sol.min() < -_NONNEG_TOL:
                continue
            if np.abs(mat @ sol - rhs).max() > _RESIDUAL_TOL:
                continue
            sol = np.maximum(sol, 0.0)
            value = float(sum(c[cells[cell]] * sol[idx] for idx, cell in enumerate(support)))
            if value < best_cost - _TIE_TOL or (
                abs(value - best_cost) <= _TIE_TOL
                and (best_support is None or support < best_support)
            ):
                best_cost = value
                best_support = support
                best_values = sol
    if best_support is None:
        raise ValueError("no feasible vertex found; marginals are inconsistent")

    plan = np.zeros((n, n))
    for idx, cell in enumerate(best_support):
        plan[cells[cell]] = best_values[idx]
    return TransportPlan(plan), best_cost
