import numpy as np
import pytest
from scipy.optimize import linprog

from devport import lp
from devport.errors import InternalCheckError


def test_epigraph_problem():
    # min max(x1; x2; -x1-x2) s.t. x2 >= 0.8, epigraph form.
    problem = lp.LinearProgram.build(
        [0.0, 0.0, 1.0],
        a_ub=[
            [1.0, 0.0, -1.0],
            [0.0, 1.0, -1.0],
            [-1.0, -1.0, -1.0],
            [0.0, -1.0, 0.0],
        ],
        b_ub=[0.0, 0.0, 0.0, -0.8],
    )
    sol = lp.solve(problem)
    assert sol.optimal
    assert sol.value == pytest.approx(0.8, abs=1e-9)


def test_infeasible():
    problem = lp.LinearProgram.build(
        [1.0], a_ub=[[-1.0], [1.0]], b_ub=[-1.0, 0.0]
    )  # x >= 1 and x <= 0
    assert lp.solve(problem).status == "Infeasible"


def test_unbounded_with_ray():
    problem = lp.LinearProgram.build([-1.0], a_ub=[[-1.0]], b_ub=[0.0])  # min -x, x>=0
    sol = lp.solve(problem)
    assert sol.status == "Unbounded"
    assert sol.ray is not None and sol.ray[0] > 0


def test_equality_only():
    problem = lp.LinearProgram.build(
        [1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], a_ub=[[-1.0, 0.0], [0.0, -1.0]],
        b_ub=[0.0, 0.0],
    )
    sol = lp.solve(problem)
    assert sol.optimal
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-9)


def test_random_against_scipy():
    rng = np.random.default_rng(3)
    solved = 0
    for _ in range(60):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 7))
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(m, n))
        b_ub = rng.normal(size=m)
        # Box the variables so the problem is bounded.
        a_full = np.vstack([a_ub, np.eye(n), -np.eye(n)])
        b_full = np.concatenate([b_ub, np.full(2 * n, 5.0)])
        ref = linprog(c, A_ub=a_full, b_ub=b_full, bounds=(None, None), method="highs")
        sol = lp.solve(lp.LinearProgram.build(c, a_full, b_full))
        if ref.status == 2:
            assert sol.status == "Infeasible"
            continue
        assert ref.status == 0
        assert sol.optimal
        assert sol.value == pytest.approx(ref.fun, abs=1e-7)
        solved += 1
    assert solved > 20


def test_duals_against_scipy():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        c = rng.normal(size=n)
        a_ub = np.vstack([rng.normal(size=(3, n)), np.eye(n), -np.eye(n)])
        b_ub = np.concatenate([rng.normal(size=3) + 2.0, np.full(2 * n, 4.0)])
        a_eq = rng.normal(size=(1, n))
        b_eq = np.array([0.5])
        ref = linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=(None, None), method="highs",
        )
        sol = lp.solve(lp.LinearProgram.build(c, a_ub, b_ub, a_eq, b_eq))
        if ref.status != 0:
            assert not sol.optimal
            continue
        assert sol.optimal
        # Strong duality was certified internally; compare objective values.
        assert sol.value == pytest.approx(ref.fun, abs=1e-7)
        dual_val = float(b_ub @ sol.duals_ub + b_eq @ sol.duals_eq)
        assert dual_val == pytest.approx(sol.value, abs=1e-7)


def test_degenerate_duplicate_rows():
    problem = lp.LinearProgram.build(
        [1.0],
        a_ub=[[-1.0], [-1.0]],
        b_ub=[0.0, 0.0],
    )
    sol = lp.solve(problem)
    assert sol.optimal
    assert sol.value == pytest.approx(0.0, abs=1e-12)
