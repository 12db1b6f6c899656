"""The small dense LP solver against hand cases and scipy."""
from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from stoclang.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


def test_trivial_equality():
    # min x subject to x = 3
    status, z, obj, _ = solve_lp(np.array([[1.0]]), np.array([3.0]), np.array([1.0]))
    assert status == OPTIMAL
    assert z[0] == pytest.approx(3.0)
    assert obj == pytest.approx(3.0)


def test_two_variable_choice():
    # min x1 + 2 x2 subject to x1 + x2 = 1: put everything on x1
    status, z, obj, _ = solve_lp(np.array([[1.0, 1.0]]), np.array([1.0]),
                              np.array([1.0, 2.0]))
    assert status == OPTIMAL
    assert z[0] == pytest.approx(1.0) and z[1] == pytest.approx(0.0)
    assert obj == pytest.approx(1.0)


def test_negative_rhs_is_normalized():
    # -x1 - x2 = -1 is the same feasible set as x1 + x2 = 1
    status, _, obj, _ = solve_lp(np.array([[-1.0, -1.0]]), np.array([-1.0]),
                              np.array([1.0, 3.0]))
    assert status == OPTIMAL and obj == pytest.approx(1.0)


def test_infeasible_system():
    status, z, _, _ = solve_lp(np.array([[1.0, 1.0]]), np.array([-1.0]),
                            np.array([0.0, 0.0]))
    assert status == INFEASIBLE and z is None


def test_unbounded_objective():
    # min -x1 subject to x1 - x2 = 1: x1 can grow with x2
    status, _, _, _ = solve_lp(np.array([[1.0, -1.0]]), np.array([1.0]),
                            np.array([-1.0, 0.0]))
    assert status == UNBOUNDED


def test_redundant_rows_survive_phase_one():
    a = np.array([[1.0, 1.0], [2.0, 2.0]])
    status, z, obj, _ = solve_lp(a, np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert status == OPTIMAL and obj == pytest.approx(1.0)


def test_zero_rows_and_empty_system():
    status, z, obj, _ = solve_lp(np.zeros((0, 2)), np.zeros(0), np.array([1.0, 1.0]))
    assert status == OPTIMAL and obj == pytest.approx(0.0)
    status, _, _, _ = solve_lp(np.zeros((1, 2)), np.array([1.0]), np.zeros(2))
    assert status == INFEASIBLE


def test_beale_cycling_example_terminates():
    # classic cycling tableau for naive pivoting; Bland's rule must finish
    a = np.array([
        [0.25, -8.0, -1.0, 9.0, 1.0, 0.0, 0.0],
        [0.5, -12.0, -0.5, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    status, _, obj, _ = solve_lp(a, b, c)
    assert status == OPTIMAL
    assert obj == pytest.approx(-0.77, abs=1e-9)  # optimum confirmed by scipy


def test_matches_scipy_on_random_feasible_instances():
    rng = np.random.default_rng(77)
    for _ in range(60):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, m + 5))
        a = rng.normal(size=(m, n))
        x0 = rng.random(n)
        b = a @ x0
        c = rng.normal(size=n)
        status, z, obj, _ = solve_lp(a, b, c)
        ref = linprog(c, A_eq=a, b_eq=b, bounds=[(0, None)] * n, method="highs")
        if ref.status == 0:
            assert status == OPTIMAL
            assert obj == pytest.approx(ref.fun, abs=1e-6)
            assert np.allclose(a @ z, b, atol=1e-7)
            assert (z >= -1e-9).all()
        elif ref.status == 3:
            assert status == UNBOUNDED
        else:
            assert status == INFEASIBLE


def test_row_prices_match_scipy_marginals():
    # y prices each equality row; for a nondegenerate optimum it is unique and
    # equals HiGHS's sensitivity of the objective to b
    rng = np.random.default_rng(79)
    checked = 0
    for _ in range(60):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, m + 5))
        a = rng.normal(size=(m, n))
        b = a @ rng.random(n)
        c = rng.normal(size=n)
        status, _, obj, y = solve_lp(a, b, c)
        ref = linprog(c, A_eq=a, b_eq=b, bounds=[(0, None)] * n, method="highs")
        if ref.status != 0:
            continue
        assert status == OPTIMAL
        assert np.allclose(y, ref.eqlin.marginals, atol=1e-7)
        assert b @ y == pytest.approx(obj, abs=1e-9)
        assert (c - a.T @ y >= -1e-9).all()
        checked += 1
    assert checked >= 20


def test_matches_scipy_on_random_possibly_infeasible():
    rng = np.random.default_rng(78)
    agree = 0
    for _ in range(40):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        c = np.abs(rng.normal(size=n))
        status, z, obj, _ = solve_lp(a, b, c)
        ref = linprog(c, A_eq=a, b_eq=b, bounds=[(0, None)] * n, method="highs")
        if ref.status == 0:
            assert status == OPTIMAL
            assert obj == pytest.approx(ref.fun, abs=1e-6)
        elif ref.status == 2:
            assert status == INFEASIBLE
        agree += 1
    assert agree == 40
