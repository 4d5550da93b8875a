"""Inverse portfolio problem and selectors.

Given a portfolio x_M held as optimal with target Delta_M, the set of mean
vectors making it so is the hull of delta * D_i over the generators active
at x_M, delta = Delta_M / D(R'x_M). Selectors pick a canonical identifier
(and hence a canonical mu): the robust selector via closed forms or the
Steiner point, the law-invariant one via conditional expectation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forward, geometry
from .envelope import Measure, RiskEnvelope, evaluate, risk_identifiers
from .errors import (
    DichotomyViolation,
    DimensionMismatch,
    NotAnIdentifier,
    ValidationError,
    ZeroRiskPortfolio,
)
from .probspace import FiniteProbSpace, MarketModel, RandomVariable, matrix_rank

IDENT_TOL = 1e-8
TIE_REL_TOL = 1e-9


@dataclass(frozen=True)
class InverseSolutionSet:
    polytope: geometry.VPolytope  # vertices delta * D_i in R^n
    delta_scale: float
    active_indices: tuple[int, ...]  # envelope generator indices active at x_M


def _portfolio_deviation(market: MarketModel, env: RiskEnvelope, x_m) -> tuple:
    x_m = np.asarray(x_m, dtype=float)
    if x_m.shape != (market.n_assets,):
        raise DimensionMismatch("x_M must have one weight per asset")
    if np.max(np.abs(x_m)) == 0.0:
        raise ValidationError("x_M must be non-zero")
    ret = market.portfolio_return(x_m)
    dev = evaluate(env, ret)
    if dev <= 1e-12:
        raise ZeroRiskPortfolio(
            "portfolio return has zero deviation; inverse problem undefined"
        )
    return x_m, ret, dev


def inverse_solution_set(
    market: MarketModel, env: RiskEnvelope, x_m, delta_m: float
) -> InverseSolutionSet:
    delta_m = float(delta_m)
    if delta_m <= 0:
        raise ValidationError("Delta_M must be positive")
    x_m, ret, dev = _portfolio_deviation(market, env, x_m)
    scale = delta_m / dev
    ident = risk_identifiers(env, ret)
    weighted = market.centered_returns * market.space.weights
    d_active = -(ident.polytope.vertices @ weighted.T)
    poly = geometry.extreme_filter(scale * d_active, 1e-10)
    return InverseSolutionSet(poly, scale, ident.active_indices)


def _cvar_identifier_equalized(
    space: FiniteProbSpace, x: np.ndarray, alpha: float
) -> np.ndarray:
    """CVaR identifier with the tied block at the loss threshold equalized.

    Scenarios strictly below the threshold take the cap 1/alpha, scenarios
    above take 0, and the tied block shares the leftover mass at a common
    value.
    """
    w = space.weights
    cap = 1.0 / alpha
    order = np.argsort(x, kind="stable")
    tol = TIE_REL_TOL * (1.0 + float(np.max(np.abs(x))))
    q = np.zeros(x.size)
    budget = 1.0  # remaining expectation to place
    i = 0
    while i < x.size and budget > 1e-15:
        # Tied block of equal x-values.
        j = i
        while j + 1 < x.size and x[order[j + 1]] - x[order[i]] <= tol:
            j += 1
        block = order[i : j + 1]
        block_mass = float(w[block].sum()) * cap
        if block_mass <= budget + 1e-15:
            q[block] = cap
            budget -= block_mass
        else:
            q[block] = budget / float(w[block].sum())
            budget = 0.0
        i = j + 1
    return q


def robust_selector(
    env: RiskEnvelope, x, config: geometry.SteinerConfig | None = None
) -> RandomVariable:
    """The unique robust selector: a closed form when the measure's recipe
    has one, otherwise the Steiner point of the identifier set."""
    values = x.values if isinstance(x, RandomVariable) else np.asarray(x, dtype=float)
    q = _closed_form(env.measure, env.space, values)
    if q is None:
        q, _err = geometry.steiner_point(risk_identifiers(env, values).polytope, config)
    target = evaluate(env, values)
    got = float(env.space.expectation(values)) + float(
        env.space.expectation(-values * q)
    )
    if abs(got - target) > IDENT_TOL * (1.0 + abs(target)):
        raise NotAnIdentifier(
            f"selector output misses the deviation value by {got - target!r}"
        )
    return RandomVariable(q, env.space)


def _closed_form(measure: Measure, space: FiniteProbSpace, values) -> np.ndarray | None:
    """Robust selector of a MAD, CVaR or mix recipe; None for the others."""
    if measure.kind == "mad":
        centered = values - float(space.expectation(values))
        tol = 1e-12 * (1.0 + float(np.max(np.abs(values))))
        z = np.where(np.abs(centered) <= tol, 0.0, np.sign(centered))
        return 1.0 + float(space.expectation(z)) - z
    if measure.kind == "cvar":
        return _cvar_identifier_equalized(space, values, measure.alpha)
    if measure.kind != "mix":
        return None
    # The Steiner point is Minkowski additive, so a mix selects the same
    # mixture of its parts' selectors.
    out = np.full(values.size, 1.0 - sum(measure.lambdas))
    for part, lam in zip(measure.parts, measure.lambdas):
        q = _closed_form(part, space, values)
        if q is None:
            return None
        out += lam * q
    return out


def law_invariant_selector(env: RiskEnvelope, x) -> RandomVariable:
    """E[Q|X] for a deterministic seed identifier Q.

    The seed is the lowest-index active generator; averaging Q over the
    level sets of X keeps it an identifier whenever the deviation measure
    respects concave order (otherwise NotAnIdentifier is raised).
    """
    values = x.values if isinstance(x, RandomVariable) else np.asarray(x, dtype=float)
    space = env.space
    ident = risk_identifiers(env, values)
    q = env.generators[ident.active_indices[0]].copy()
    tol = TIE_REL_TOL * (1.0 + float(np.max(np.abs(values))))
    order = np.argsort(values, kind="stable")
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and (
            values[order[j + 1]] - values[order[i]] <= tol
        ):
            j += 1
        block = order[i : j + 1]
        w = space.weights[block]
        q[block] = float(w @ q[block]) / float(w.sum())
        i = j + 1
    target = ident.value
    got = float(space.expectation(values)) + float(space.expectation(-values * q))
    if abs(got - target) > IDENT_TOL * (1.0 + abs(target)):
        raise NotAnIdentifier(
            "conditional averaging left the identifier set; the deviation "
            "measure is not consistent with concave order"
        )
    return RandomVariable(q, space)


def robust_mu(
    market: MarketModel,
    env: RiskEnvelope,
    x_m,
    delta_m: float,
    config: geometry.SteinerConfig | None = None,
) -> np.ndarray:
    """The mean vector induced by the robust selector's identifier."""
    delta_m = float(delta_m)
    if delta_m <= 0:
        raise ValidationError("Delta_M must be positive")
    x_m, ret, dev = _portfolio_deviation(market, env, x_m)
    q = robust_selector(env, ret, config).values
    weighted = market.centered_returns * market.space.weights
    mu = (delta_m / dev) * (-(weighted @ q))
    return mu


def verify_dichotomy(
    market: MarketModel, env: RiskEnvelope, x_m, delta_m: float
) -> dict:
    """Uniqueness dichotomy between the forward and inverse problems.

    One active generator at x_M forces a singleton inverse set and an
    (n-1)-dimensional forward face; a unique forward optimum forces the
    active generators to span R^n, so the inverse set has affine dimension
    at least n-1 and therefore at least n vertices. (The bound n is tight:
    two active generators on a line off the origin span R^2 while their
    hull is a segment with two extreme points.)
    """
    n = market.n_assets
    inv = inverse_solution_set(market, env, x_m, delta_m)
    mu = robust_mu(market, env, x_m, delta_m)
    solved = forward.solve_forward(
        MarketModel(
            market.centered_returns,
            mu,
            market.riskless_rate,
            delta_m,
            market.space,
        ),
        env,
        delta_m,
    )
    # x_M itself must be optimal under the recovered mu.
    x_dev = evaluate(env, market.portfolio_return(np.asarray(x_m, dtype=float)))
    x_scaled = np.asarray(x_m, dtype=float) * (delta_m / float(mu @ x_m))
    scaled_dev = evaluate(env, market.portfolio_return(x_scaled))
    if scaled_dev > solved.value + IDENT_TOL * (1.0 + solved.value):
        raise DichotomyViolation("x_M is not optimal under the recovered mu")
    report = {
        "n": n,
        "inverse_vertices": inv.polytope.n_vertices,
        "forward_unique": solved.unique,
        "forward_face_vertices": solved.optimal_set.n_vertices,
        "active_at_x_m": len(inv.active_indices),
        "branch": None,
    }
    if len(inv.active_indices) == 1:
        report["branch"] = "unique-inverse"
        face_dim = geometry._affine_hull(solved.optimal_set.vertices)[1].shape[1]
        report["forward_face_dim"] = face_dim
        if inv.polytope.n_vertices != 1:
            raise DichotomyViolation("one active generator but inverse set not a point")
        if solved.optimal_set.n_vertices < n or face_dim != n - 1:
            raise DichotomyViolation(
                "unique inverse solution without an (n-1)-dimensional forward face"
            )
    elif solved.unique:
        report["branch"] = "unique-forward"
        weighted = market.centered_returns * market.space.weights
        d_active = -(
            np.asarray(
                [env.generators[i] for i in inv.active_indices]
            )
            @ weighted.T
        )
        span = matrix_rank(d_active)
        report["active_span"] = span
        report["inverse_affine_dim"] = (
            geometry._affine_hull(inv.polytope.vertices)[1].shape[1]
        )
        if span < n:
            raise DichotomyViolation(
                "unique forward optimum but active generators do not span"
            )
        if inv.polytope.n_vertices < n:
            raise DichotomyViolation(
                f"unique forward optimum but only {inv.polytope.n_vertices} "
                f"inverse vertices (need >= {n})"
            )
        if report["inverse_affine_dim"] < n - 1:
            raise DichotomyViolation(
                "unique forward optimum but the inverse set is too flat"
            )
    else:
        report["branch"] = "degenerate-both"
    return report


def concave_order_leq(x, y, space: FiniteProbSpace) -> bool:
    """Whether X dominates Y in concave order (X less spread, equal means).

    Uniform spaces compare ascending partial sums; general weights compare
    the put values E[(t - X)+] at all knots.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mean_x = float(space.expectation(x))
    mean_y = float(space.expectation(y))
    if abs(mean_x - mean_y) > 1e-10 * (1.0 + abs(mean_x)):
        raise ValidationError("concave order needs equal means")
    tol = 1e-10 * (1.0 + float(np.max(np.abs(np.concatenate([x, y])))))
    if space.is_uniform and x.size == y.size:
        xs = np.sort(x)
        ys = np.sort(y)
        return bool(np.all(np.cumsum(xs) >= np.cumsum(ys) - tol))
    knots = np.concatenate([x, y])
    for t in knots:
        put_x = float(space.expectation(np.maximum(t - x, 0.0)))
        put_y = float(space.expectation(np.maximum(t - y, 0.0)))
        if put_x > put_y + tol:
            return False
    return True
