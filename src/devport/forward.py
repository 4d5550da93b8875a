"""Forward mean-deviation portfolio problem.

minimize D(R'x) subject to mu.x >= Delta, rewritten through portfolio risk
generators D_i = E[-R_hat Q_i] as the epigraph LP

    min A   s.t.  D_i.x <= A,  mu.x >= Delta.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, lp
from .envelope import RiskEnvelope, evaluate
from .errors import (
    InternalCheckError,
    SpaceMismatch,
    SpanDeficient,
)
from .probspace import MarketModel, matrix_rank

ACTIVE_TOL = 1e-9


@dataclass(frozen=True)
class PortfolioRiskGenerators:
    """Extreme vectors D_i = E[-R_hat Q_i] with their source generators."""

    vectors: np.ndarray  # one D_i per row, in R^n
    source_indices: tuple[tuple[int, ...], ...]  # envelope generators mapping to each

    @property
    def count(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class ForwardSolution:
    value: float  # A*
    x: np.ndarray  # representative optimal portfolio
    optimal_set: geometry.VPolytope
    active_generators: tuple[int, ...]  # indices into the D list, at x
    unique: bool
    generators: PortfolioRiskGenerators
    binding: dict


def portfolio_risk_generators(
    market: MarketModel, env: RiskEnvelope
) -> PortfolioRiskGenerators:
    """All D_i = E[-R_hat Q_i], deduplicated and extreme-filtered.

    The filtered set must span R^n; failure means some non-zero portfolio
    has deviation zero, contradicting the non-degeneracy assumption.
    """
    if not market.space.same_as(env.space):
        raise SpaceMismatch("market and envelope live on different spaces")
    weighted = market.centered_returns * market.space.weights  # n x N
    raw = -(env.generators @ weighted.T)  # one D per envelope generator
    poly = geometry.extreme_filter(raw, 1e-10)
    vectors = poly.vertices
    sources = []
    for d in vectors:
        hits = np.flatnonzero(np.max(np.abs(raw - d), axis=1) <= 1e-9)
        sources.append(tuple(int(i) for i in hits))
    if matrix_rank(vectors) < market.n_assets:
        raise SpanDeficient(
            "portfolio risk generators do not span the asset space"
        )
    return PortfolioRiskGenerators(vectors, tuple(sources))


def _forward_lp(gens: PortfolioRiskGenerators, mu, delta) -> lp.LinearProgram:
    n = gens.vectors.shape[1]
    m = gens.count
    # Variables (x, A): rows D_i.x - A <= 0, then -mu.x <= -Delta.
    a_ub = np.zeros((m + 1, n + 1))
    a_ub[:m, :n] = gens.vectors
    a_ub[:m, n] = -1.0
    a_ub[m, :n] = -mu
    b_ub = np.zeros(m + 1)
    b_ub[m] = -delta
    c = np.zeros(n + 1)
    c[n] = 1.0
    return lp.LinearProgram.build(c, a_ub, b_ub)


def solve_forward(
    market: MarketModel,
    env: RiskEnvelope,
    delta: float | None = None,
    gens: PortfolioRiskGenerators | None = None,
) -> ForwardSolution:
    delta = market.require_optimizable(delta)
    if gens is None:
        gens = portfolio_risk_generators(market, env)
    n = market.n_assets
    mu = market.mu
    problem = _forward_lp(gens, mu, delta)
    sol = lp.solve(problem)
    if not sol.optimal:
        raise InternalCheckError(
            f"forward LP ended {sol.status}; the model guarantees an optimum"
        )
    a_star = float(sol.value)
    x = sol.x[:n]
    if not a_star > 0:
        raise InternalCheckError(
            f"optimal deviation {a_star!r} not positive; degeneracy in inputs"
        )
    slack = float(mu @ x) - delta
    if abs(slack) > 1e-9 * (1.0 + delta):
        raise InternalCheckError("target constraint not binding at the optimum")
    # Strong duality of the portfolio dual: Delta * q = A*.
    q_dual = -float(sol.duals_ub[-1])
    if abs(delta * q_dual - a_star) > 1e-8 * (1.0 + abs(a_star)):
        raise InternalCheckError("dual identity Delta*q = A* failed")
    # Optimal set in x-space: every feasible point of this face attains A*.
    face = geometry.enumerate_face_vertices(
        a_ub=np.vstack([gens.vectors, -mu[None, :]]),
        b_ub=np.concatenate([np.full(gens.count, a_star), [-delta]]),
        a_eq=np.zeros((0, n)),
        b_eq=np.zeros(0),
    )
    unique = face.n_vertices == 1
    if unique:
        x = face.vertices[0]
    scores = gens.vectors @ x
    active = tuple(
        int(i)
        for i in np.flatnonzero(scores >= a_star - ACTIVE_TOL * (1.0 + abs(a_star)))
    )
    binding = {
        "target_slack": slack,
        "dual_q": q_dual,
        "duality_product": delta * q_dual,
    }
    return ForwardSolution(
        value=a_star,
        x=x,
        optimal_set=face,
        active_generators=active,
        unique=unique,
        generators=gens,
        binding=binding,
    )


def diagnose_uniqueness(solution: ForwardSolution, mu) -> dict:
    """Explain the uniqueness verdict through the active generators.

    Unique optimum: exhibit n linearly independent active generators.
    Non-unique: the generators active on the whole optimal face span a
    subspace containing mu.
    """
    mu = np.asarray(mu, dtype=float)
    gens = solution.generators.vectors
    n = gens.shape[1]
    if solution.unique:
        active = gens[list(solution.active_generators)]
        rank = matrix_rank(active)
        return {
            "unique": True,
            "active_indices": solution.active_generators,
            "independent_count": int(rank),
            "certified": bool(rank >= n),
        }
    # Generators active at every face vertex.
    scores = solution.optimal_set.vertices @ gens.T  # n_vertices x m
    a_star = solution.value
    everywhere = np.all(
        scores >= a_star - ACTIVE_TOL * (1.0 + abs(a_star)), axis=0
    )
    idx = [int(i) for i in np.flatnonzero(everywhere)]
    basis = gens[idx]
    coeffs, *_ = np.linalg.lstsq(basis.T, mu, rcond=None)
    residual = float(np.linalg.norm(basis.T @ coeffs - mu))
    return {
        "unique": False,
        "active_indices": tuple(idx),
        "mu_span_residual": residual,
        "certified": bool(len(idx) <= n - 1 and residual <= 1e-8),
        "coefficients": coeffs.tolist(),
    }


def representation_gap(market: MarketModel, env: RiskEnvelope, x) -> float:
    """|D(R'x) - max_i D_i.x|: the generator representation identity."""
    x = np.asarray(x, dtype=float)
    gens = portfolio_risk_generators(market, env)
    direct = evaluate(env, market.portfolio_return(x))
    via_gens = float(np.max(gens.vectors @ x))
    return abs(direct - via_gens)
