"""Dense two-phase simplex with Bland's rule and certified solutions.

Problems have free variables, inequality rows A_ub x <= b_ub and equality
rows A_eq x = b_eq. Every Optimal result carries duals read off the final
tableau and is checked for feasibility, complementary slackness and the
duality gap before being returned.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalCheckError,
    IterationLimit,
    ValidationError,
)

FEAS_TOL = 1e-9
OPT_TOL = 1e-9
GAP_TOL = 1e-8
ITERATION_CAP = 10**6


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x free."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        n = c.size
        a_ub = np.asarray(self.a_ub, dtype=float).reshape(-1, n)
        b_ub = np.atleast_1d(np.asarray(self.b_ub, dtype=float))
        a_eq = np.asarray(self.a_eq, dtype=float).reshape(-1, n)
        b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
        if b_ub.size != a_ub.shape[0] or b_eq.size != a_eq.shape[0]:
            raise DimensionMismatch("row counts of A and b disagree")
        for arr in (c, a_ub, b_ub, a_eq, b_eq):
            if not np.all(np.isfinite(arr)):
                raise ValidationError("LP data must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a_ub", a_ub)
        object.__setattr__(self, "b_ub", b_ub)
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)

    @property
    def n_vars(self) -> int:
        return self.c.size

    @classmethod
    def build(cls, c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> "LinearProgram":
        c = np.atleast_1d(np.asarray(c, dtype=float))
        n = c.size
        if a_ub is None:
            a_ub, b_ub = np.zeros((0, n)), np.zeros(0)
        if a_eq is None:
            a_eq, b_eq = np.zeros((0, n)), np.zeros(0)
        return cls(c, a_ub, b_ub, a_eq, b_eq)


@dataclass(frozen=True)
class LpSolution:
    status: str  # Optimal | Infeasible | Unbounded
    x: np.ndarray | None = None
    value: float | None = None
    duals_ub: np.ndarray | None = None
    duals_eq: np.ndarray | None = None
    active_rows: tuple[int, ...] = ()
    ray: np.ndarray | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "Optimal"


class _Tableau:
    """Simplex state over the standardized system A z = b, z >= 0."""

    def __init__(self, a: np.ndarray, b: np.ndarray):
        m, n = a.shape
        # b >= 0 required for the all-artificial start; remember flips for duals.
        self.flip = b < 0
        a = np.where(self.flip[:, None], -a, a)
        b = np.where(self.flip, -b, b)
        self.m, self.n = m, n
        self.table = np.hstack([a, np.eye(m), b[:, None]])
        self.basis = list(range(n, n + m))
        self.iterations = 0

    @property
    def n_total(self) -> int:
        return self.n + self.m

    def rhs(self) -> np.ndarray:
        return self.table[:, -1]

    def _pivot(self, row: int, col: int) -> None:
        t = self.table
        t[row] /= t[row, col]
        hits = np.flatnonzero(np.abs(t[:, col]) > 0)
        hits = hits[hits != row]
        t[hits] -= np.outer(t[hits, col], t[row])
        self.basis[row] = col

    def run(self, cost: np.ndarray, allowed: np.ndarray) -> tuple[str, int | None]:
        """Minimize cost.z over the current feasible basis with Bland's rule.

        allowed marks columns permitted to enter. Returns ("Optimal", None)
        or ("Unbounded", entering_column).
        """
        while True:
            self.iterations += 1
            if self.iterations > ITERATION_CAP:
                raise IterationLimit(f"simplex exceeded {ITERATION_CAP} iterations")
            body = self.table[:, : self.n_total]
            reduced = cost - cost[self.basis] @ body
            candidates = np.flatnonzero(allowed & (reduced < -OPT_TOL))
            if candidates.size == 0:
                return "Optimal", None
            col = int(candidates[0])  # Bland: smallest eligible index
            column = self.table[:, col]
            positive = np.flatnonzero(column > FEAS_TOL)
            if positive.size == 0:
                return "Unbounded", col
            ratios = self.rhs()[positive] / column[positive]
            best = ratios.min()
            tied = positive[ratios <= best + 1e-12]
            # Bland again: leave the variable with the smallest index.
            row = int(min(tied, key=lambda r: self.basis[r]))
            self._pivot(row, col)

    def duals(self, cost: np.ndarray) -> np.ndarray:
        """y = cost_B . B^-1, read from the artificial columns, unflipped."""
        body = self.table[:, self.n : self.n_total]
        y = cost[self.basis] @ body
        return np.where(self.flip, -y, y)


def _standardize(lp: LinearProgram):
    """Split free vars into differences and add slacks for the ub rows."""
    n = lp.n_vars
    m_ub, m_eq = lp.b_ub.size, lp.b_eq.size
    a = np.zeros((m_ub + m_eq, 2 * n + m_ub))
    a[:m_ub, :n] = lp.a_ub
    a[:m_ub, n : 2 * n] = -lp.a_ub
    a[:m_ub, 2 * n :] = np.eye(m_ub)
    a[m_ub:, :n] = lp.a_eq
    a[m_ub:, n : 2 * n] = -lp.a_eq
    b = np.concatenate([lp.b_ub, lp.b_eq])
    cost = np.concatenate([lp.c, -lp.c, np.zeros(m_ub)])
    return a, b, cost


def _certify(lp: LinearProgram, x, value, y_ub, y_eq) -> None:
    scale = 1.0 + float(np.max(np.abs(lp.b_ub), initial=0.0)) + float(
        np.max(np.abs(lp.b_eq), initial=0.0)
    )
    if lp.b_ub.size:
        slack = lp.b_ub - lp.a_ub @ x
        if slack.min(initial=0.0) < -FEAS_TOL * scale:
            raise InternalCheckError("primal infeasible at claimed optimum")
        # Rows within the activity resolution count as binding; near-duplicate
        # rows can leave an active row with slack just above FEAS_TOL.
        slack = np.where(slack <= GAP_TOL * scale, 0.0, slack)
        if np.max(np.abs(y_ub * slack), initial=0.0) > 1e-9 * scale * (
            1.0 + float(np.max(np.abs(y_ub)))
        ):
            raise InternalCheckError("complementary slackness violated")
        if y_ub.max(initial=0.0) > OPT_TOL:
            raise InternalCheckError("ub dual has wrong sign")
    if lp.b_eq.size:
        if np.max(np.abs(lp.a_eq @ x - lp.b_eq)) > FEAS_TOL * scale:
            raise InternalCheckError("equality rows violated at claimed optimum")
    dual_value = float(lp.b_ub @ y_ub + lp.b_eq @ y_eq)
    if abs(value - dual_value) > GAP_TOL * (1.0 + abs(value)):
        raise InternalCheckError(
            f"duality gap {value - dual_value!r} exceeds tolerance"
        )
    # Stationarity: A_ub^T y_ub + A_eq^T y_eq = c for free primal variables.
    grad = lp.c - (lp.a_ub.T @ y_ub + lp.a_eq.T @ y_eq)
    if np.max(np.abs(grad), initial=0.0) > 1e-7 * (
        1.0 + float(np.max(np.abs(lp.c), initial=0.0))
    ):
        raise InternalCheckError("dual stationarity violated")


def solve(lp: LinearProgram) -> LpSolution:
    """Two-phase simplex. Optimal results are certified before return."""
    n = lp.n_vars
    m_ub = lp.b_ub.size
    a, b, cost = _standardize(lp)
    tab = _Tableau(a, b)
    n_std = a.shape[1]

    # Phase 1: drive the artificials to zero.
    phase1_cost = np.concatenate([np.zeros(n_std), np.ones(tab.m)])
    allowed = np.ones(tab.n_total, dtype=bool)
    status, _ = tab.run(phase1_cost, allowed)
    if status != "Optimal":
        raise InternalCheckError("phase 1 cannot be unbounded")
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    if float(phase1_cost[tab.basis] @ tab.rhs()) > FEAS_TOL * scale:
        return LpSolution(status="Infeasible")
    # Pivot out any artificial still basic at zero so phase 2 cannot use it.
    for row in range(tab.m):
        if tab.basis[row] >= n_std:
            body_row = tab.table[row, :n_std]
            pivots = np.flatnonzero(np.abs(body_row) > FEAS_TOL)
            if pivots.size:
                tab._pivot(row, int(pivots[0]))
            # A row with no real pivot is redundant; its artificial stays
            # basic at value zero and never moves.

    phase2_cost = np.concatenate([cost, np.zeros(tab.m)])
    allowed = np.concatenate(
        [np.ones(n_std, dtype=bool), np.zeros(tab.m, dtype=bool)]
    )
    status, entering = tab.run(phase2_cost, allowed)

    if status == "Unbounded":
        direction = np.zeros(tab.n_total)
        direction[entering] = 1.0
        column = tab.table[:, entering]
        for row in range(tab.m):
            direction[tab.basis[row]] = -column[row]
        ray = direction[:n] - direction[n : 2 * n]
        return LpSolution(status="Unbounded", ray=ray)

    z = np.zeros(tab.n_total)
    z[tab.basis] = tab.rhs()
    x = z[:n] - z[n : 2 * n]
    value = float(lp.c @ x)
    y = tab.duals(phase2_cost)
    # Roundoff from the tableau leaves duals of size ~1e-8 on inactive rows;
    # snap them to zero so certification tests true complementarity.
    y[np.abs(y) <= 1e-7 * (1.0 + float(np.max(np.abs(y), initial=0.0)))] = 0.0
    y_ub, y_eq = y[:m_ub], y[m_ub:]
    # Minimization dual for <= rows is non-positive; clip roundoff.
    y_ub = np.minimum(y_ub, 0.0)
    _certify(lp, x, value, y_ub, y_eq)
    active = tuple(
        int(i)
        for i in range(m_ub)
        if lp.b_ub[i] - lp.a_ub[i] @ x <= FEAS_TOL * (1.0 + abs(lp.b_ub[i]))
    )
    return LpSolution(
        status="Optimal",
        x=x,
        value=value,
        duals_ub=y_ub,
        duals_eq=y_eq,
        active_rows=active,
    )


def feasible(
    a_ub=None, b_ub=None, a_eq=None, b_eq=None, n_vars: int | None = None
) -> bool:
    """Feasibility probe: solve with a zero objective."""
    if n_vars is None:
        if a_ub is not None:
            n_vars = np.asarray(a_ub, dtype=float).shape[-1]
        else:
            n_vars = np.asarray(a_eq, dtype=float).shape[-1]
    lp = LinearProgram.build(np.zeros(n_vars), a_ub, b_ub, a_eq, b_eq)
    return solve(lp).optimal
