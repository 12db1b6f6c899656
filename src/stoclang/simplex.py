"""Two-phase dense simplex with Bland's rule.

Solves min c·z subject to A·z = b, z ≥ 0, and returns the row prices y
of the optimal basis B (Bᵀy = c_B) with the solution.  Pivoting is
deterministic (Bland's entering rule; ties in the ratio test broken by
smallest basic index), which both prevents cycling and makes every
caller reproducible.  Meant for few rows: the learner hands it the dual
of its Chebyshev fit, one row per state plus one, and many columns.
"""
from __future__ import annotations

import numpy as np

ZERO_TOL = 1e-9
FEAS_TOL = 1e-7

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
DEGENERATE = "degenerate"


def _pivot(t: np.ndarray, basis: list[int], row: int, col: int) -> None:
    t[row] /= t[row, col]
    piv = t[row]
    for i in range(t.shape[0]):
        if i != row and t[i, col] != 0.0:
            t[i] -= t[i, col] * piv
    basis[row] = col


def _iterate(t: np.ndarray, basis: list[int], ncols: int, max_iter: int) -> str:
    m = t.shape[0] - 1
    for _ in range(max_iter):
        negative = t[m, :ncols] < -ZERO_TOL
        if not negative.any():
            return OPTIMAL
        enter = int(negative.argmax())
        leave = -1
        best_ratio = None
        best_basic = None
        for i in range(m):
            aij = t[i, enter]
            if aij > ZERO_TOL:
                ratio = t[i, -1] / aij
                if (best_ratio is None or ratio < best_ratio - ZERO_TOL
                        or (abs(ratio - best_ratio) <= ZERO_TOL and basis[i] < best_basic)):
                    best_ratio = ratio
                    best_basic = basis[i]
                    leave = i
        if leave < 0:
            return UNBOUNDED
        _pivot(t, basis, leave, enter)
    return DEGENERATE


def solve_lp(a: np.ndarray, b: np.ndarray, c: np.ndarray, max_iter: int = 20000
             ) -> tuple[str, np.ndarray | None, float, np.ndarray | None]:
    """Returns (status, z, objective, y); z and y are None unless optimal.

    y prices the rows of `a` as given: bᵀy equals the objective and
    c − aᵀy ≥ 0 up to the pivoting tolerance.  When phase 1 drops a
    redundant row, y is the least-norm solution of Bᵀy = c_B.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    c = np.array(c, dtype=float)
    m, n = a.shape if a.size else (len(b), len(c))
    if m == 0:
        if np.all(c >= -ZERO_TOL):
            return OPTIMAL, np.zeros(n), 0.0, np.zeros(0)
        return UNBOUNDED, None, -np.inf, None
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1: artificial basis, minimize the artificial mass
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n:n + m] = np.eye(m)
    t[:m, -1] = b
    basis = list(range(n, n + m))
    t[m, :n] = -a.sum(axis=0)
    t[m, -1] = -b.sum()
    # artificials may not re-enter: scan structural columns only
    status = _iterate(t, basis, n, max_iter)
    if status != OPTIMAL:
        return (DEGENERATE if status == DEGENERATE else INFEASIBLE), None, np.inf, None
    if -t[m, -1] > FEAS_TOL:
        return INFEASIBLE, None, np.inf, None

    # drive leftover artificials out of the basis; drop redundant rows
    keep_rows = []
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if abs(t[i, j]) > ZERO_TOL), None)
            if enter is None:
                continue
            _pivot(t, basis, i, enter)
        keep_rows.append(i)
    if len(keep_rows) < m:
        t = t[keep_rows + [m]]
        basis = [basis[i] for i in keep_rows]
        m = len(keep_rows)

    # phase 2 on the structural columns only
    t2 = np.zeros((m + 1, n + 1))
    t2[:m, :n] = t[:m, :n]
    t2[:m, -1] = t[:m, -1]
    t2[m, :n] = c
    for i in range(m):
        if c[basis[i]] != 0.0:
            t2[m] -= c[basis[i]] * t2[i]
    status = _iterate(t2, basis, n, max_iter)
    if status != OPTIMAL:
        return status, None, np.inf, None
    z = np.zeros(n)
    for i in range(m):
        z[basis[i]] = t2[i, -1]
    basic = a[:, basis].T
    if m == len(b):
        y = np.linalg.solve(basic, c[basis])
    else:
        y = np.linalg.lstsq(basic, c[basis], rcond=None)[0]
    y[neg] *= -1.0  # price the rows as given, before their sign was normalized
    return OPTIMAL, z, float(c @ z), y
