"""Capital allocation, equilibrium-price selection and cooperative investment.

Capital contributions come from the extended gradient of a positively
homogeneous max-linear risk function. The cooperative machinery solves the
joint utility LP for agents with U_i = E - D_i, intersects their risk
envelopes, and settles fairness through side payments equalizing the
agents' value under the critical scenario Q*.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, lp
from .envelope import Measure, RiskEnvelope, risk_identifiers
from .errors import (
    DimensionMismatch,
    EmptyIntersection,
    InternalCheckError,
    SpaceMismatch,
    TooManyScenarios,
    ValidationError,
)
from .probspace import FiniteProbSpace, RandomVariable

INTERSECT_SCENARIO_GUARD = 8


@dataclass(frozen=True)
class CapitalAllocationResult:
    contributions: np.ndarray  # k_i per sub-portfolio
    total_risk: float
    gradient: np.ndarray  # G_Y of the risk function


@dataclass(frozen=True)
class CooperativeSolution:
    coalition_envelope: RiskEnvelope
    weights: np.ndarray  # joint portfolio x, summing to 1
    joint_payoff: np.ndarray  # X* = capital * R'x
    shares: np.ndarray  # canonical Y_i, one row per agent
    utilities: np.ndarray  # u_i at the canonical shares
    total_utility: float  # u*
    critical_identifier: np.ndarray  # Q*
    side_payments: np.ndarray  # C_i, summing to 0
    final_shares: np.ndarray  # Y_i + C_i


def deviation_function(env: RiskEnvelope) -> geometry.PwlConvexFunction:
    """The deviation measure as a max-linear function on payoff vectors.

    D(v) = max_Q sum_j w_j v_j (1 - Q_j), so each generator contributes the
    gradient w * (1 - Q) with zero intercept.
    """
    w = env.space.weights
    grads = w[None, :] * (1.0 - env.generators)
    return geometry.PwlConvexFunction(grads, np.zeros(env.n_generators))


def capital_allocation(
    risk: geometry.PwlConvexFunction,
    subportfolios,
    config: geometry.SteinerConfig | None = None,
) -> CapitalAllocationResult:
    """k_i = X_i . G_Y(risk) with Y the total portfolio.

    Requires a positively homogeneous risk (zero intercepts), for which the
    Euler identity sum k_i = risk(Y) holds by construction.
    """
    if np.max(np.abs(risk.intercepts)) > 0:
        raise ValidationError(
            "capital allocation needs a positively homogeneous risk "
            "(all intercepts zero)"
        )
    if not subportfolios:
        raise ValidationError("need at least one sub-portfolio")
    parts = [
        p.values if isinstance(p, RandomVariable) else np.asarray(p, dtype=float)
        for p in subportfolios
    ]
    if any(p.shape != (risk.dim,) for p in parts):
        raise DimensionMismatch(f"every sub-portfolio needs {risk.dim} values")
    total = np.sum(parts, axis=0)
    grad = geometry.extended_gradient(risk, total, config)
    contributions = np.asarray([p @ grad for p in parts])
    return CapitalAllocationResult(
        contributions=contributions,
        total_risk=risk.value(total),
        gradient=grad,
    )


def equilibrium_price_selection(
    total_risk: geometry.PwlConvexFunction,
    y,
    config: geometry.SteinerConfig | None = None,
) -> np.ndarray:
    """Steiner point of the subdifferential of the aggregate risk at Y."""
    return geometry.extended_gradient(total_risk, y, config)


def cooperative_envelope(envelopes) -> RiskEnvelope:
    """Coalition envelope: intersection of the agents' risk envelopes."""
    if len(envelopes) < 2:
        raise ValidationError("need at least two envelopes to intersect")
    space = envelopes[0].space
    if space.n_scenarios > INTERSECT_SCENARIO_GUARD:
        raise TooManyScenarios(
            f"envelope intersection supported up to N={INTERSECT_SCENARIO_GUARD}"
        )
    poly = envelopes[0].polytope()
    for e in envelopes[1:]:
        if not e.space.same_as(space):
            raise SpaceMismatch("envelopes live on different probability spaces")
        try:
            poly = geometry.intersect(poly, e.polytope())
        except EmptyIntersection as exc:
            # Impossible for valid envelopes: each contains the constant 1.
            raise InternalCheckError(
                "risk envelopes claim an empty intersection"
            ) from exc
    return RiskEnvelope(
        poly.vertices, space, Measure("custom", generators=poly.vertices)
    )


def _min_expected(env: RiskEnvelope, values: np.ndarray) -> float:
    """u(Y) = E[Y] - D(Y) = min over generators of E[QY]."""
    weighted = env.space.weights * values
    return float(np.min(env.generators @ weighted))


def solve_individual(returns, space: FiniteProbSpace, env: RiskEnvelope):
    """One agent's problem: max over budget portfolios x of min_Q E[Q R'x].

    Returns (x, utility).
    """
    sol = _joint_lp(returns, space, [env], capital=1.0)
    return sol["x"], sol["value"]


def _joint_lp(returns, space: FiniteProbSpace, envelopes, capital: float) -> dict:
    returns = np.asarray(returns, dtype=float)
    n_assets, n_scen = returns.shape
    if n_scen != space.n_scenarios:
        raise ValidationError("returns must have one column per scenario")
    m = len(envelopes)
    w = space.weights
    # Variables: (a_1..a_m, Y_1..Y_m flattened, x).
    n_vars = m + m * n_scen + n_assets
    def y_slice(i):
        return slice(m + i * n_scen, m + (i + 1) * n_scen)
    x_slice = slice(m + m * n_scen, n_vars)
    rows_ub = []
    b_ub = []
    for i, env in enumerate(envelopes):
        for q in env.generators:
            row = np.zeros(n_vars)
            row[i] = 1.0
            row[y_slice(i)] = -(w * q)
            rows_ub.append(row)
            b_ub.append(0.0)
    rows_eq = []
    b_eq = []
    for j in range(n_scen):
        row = np.zeros(n_vars)
        for i in range(m):
            row[m + i * n_scen + j] = 1.0
        row[x_slice] = -capital * returns[:, j]
        rows_eq.append(row)
        b_eq.append(0.0)
    budget = np.zeros(n_vars)
    budget[x_slice] = 1.0
    rows_eq.append(budget)
    b_eq.append(1.0)
    c = np.zeros(n_vars)
    c[:m] = -1.0
    sol = lp.solve(lp.LinearProgram.build(c, rows_ub, b_ub, rows_eq, b_eq))
    if not sol.optimal:
        raise InternalCheckError(f"cooperative LP ended {sol.status}")
    shares = np.asarray([sol.x[y_slice(i)] for i in range(m)])
    return {
        "value": -sol.value,
        "a": sol.x[:m].copy(),
        "shares": shares,
        "x": sol.x[x_slice].copy(),
    }


def solve_cooperative(
    returns,
    space: FiniteProbSpace,
    envelopes,
    capital: float | None = None,
    config: geometry.SteinerConfig | None = None,
) -> CooperativeSolution:
    """Joint investment of `capital` units split among the agents.

    The LP's split of the payoff is canonicalized (all Pareto optima differ
    by constants) so agents 2..m sit at utility zero before side payments;
    the payments then equalize everyone's value under Q*.
    """
    m = len(envelopes)
    if m < 1:
        raise ValidationError("need at least one agent")
    if capital is None:
        capital = float(m)
    res = _joint_lp(returns, space, envelopes, capital)
    x = res["x"]
    shares = res["shares"]
    joint = shares.sum(axis=0)
    utilities = np.asarray(
        [_min_expected(env, y) for env, y in zip(envelopes, shares)]
    )
    total_u = float(utilities.sum())
    # Constant shifts: push agents 2..m to utility 0, agent 1 absorbs.
    if m > 1:
        shifts = np.zeros(m)
        shifts[1:] = -utilities[1:]
        shifts[0] = utilities[1:].sum()
        shares = shares + shifts[:, None]
        utilities = np.asarray(
            [_min_expected(env, y) for env, y in zip(envelopes, shares)]
        )
    if abs(float(utilities.sum()) - total_u) > 1e-8 * (1.0 + abs(total_u)):
        raise InternalCheckError("constant shifts changed the total utility")
    if m > 1:
        coalition = cooperative_envelope(envelopes)
    else:
        coalition = envelopes[0]
    ident = risk_identifiers(coalition, joint)
    q_star, _err = geometry.steiner_point(ident.polytope, config)
    w = space.weights
    prices = np.asarray([float(w @ (q_star * y)) for y in shares])  # E[Q* Y_i]
    side = -prices + prices.sum() / m
    final = shares + side[:, None]
    if abs(side.sum()) > 1e-10:
        raise InternalCheckError("side payments do not sum to zero")
    return CooperativeSolution(
        coalition_envelope=coalition,
        weights=x,
        joint_payoff=joint,
        shares=shares,
        utilities=utilities,
        total_utility=total_u,
        critical_identifier=q_star,
        side_payments=side,
        final_shares=final,
    )
