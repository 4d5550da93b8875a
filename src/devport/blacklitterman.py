"""Discrete Black-Litterman pipeline.

Equilibrium means come from the inverse problem; investor views reweight
the scenario probabilities through a Gaussian likelihood evaluated in log
space; the posterior market is re-centered and re-optimized, with the
envelope rebuilt on the posterior space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import envelope as env_mod
from . import forward, geometry, inverse
from .envelope import RiskEnvelope
from .errors import (
    DimensionMismatch,
    NumericUnderflow,
    Unsupported,
    ValidationError,
)
from .probspace import FiniteProbSpace, MarketModel


@dataclass(frozen=True)
class Views:
    """Pick matrix P, view values v and a Gaussian noise covariance."""

    pick: np.ndarray  # m x n
    values: np.ndarray  # m
    noise_cov: np.ndarray  # m x m, symmetric positive definite

    def __post_init__(self):
        p = np.asarray(self.pick, dtype=float)
        if p.ndim == 1:
            p = p[None, :]
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        cov = np.asarray(self.noise_cov, dtype=float)
        m = p.shape[0]
        if m == 0:
            raise ValidationError("views need at least one row; omit views instead")
        if v.size != m or cov.shape != (m, m):
            raise DimensionMismatch("views need matching pick rows, values, covariance")
        if np.max(np.abs(p), axis=1).min() == 0.0:
            raise ValidationError("every pick row must be non-zero")
        if np.max(np.abs(cov - cov.T)) > 1e-12 * (1.0 + np.abs(cov).max()):
            raise ValidationError("noise covariance must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValidationError("noise covariance must be positive definite") from None
        for name, arr in (("pick", p), ("values", v), ("noise_cov", cov)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def count(self) -> int:
        return self.pick.shape[0]


@dataclass(frozen=True)
class BlResult:
    mu_eq: np.ndarray
    posterior_space: FiniteProbSpace
    mu_post: np.ndarray
    posterior_market: MarketModel
    posterior_envelope: RiskEnvelope
    solution: forward.ForwardSolution
    narrative: dict


def equilibrium_mu(
    market: MarketModel,
    env: RiskEnvelope,
    x_m,
    delta_m: float,
    config: geometry.SteinerConfig | None = None,
) -> np.ndarray:
    """Mean excess returns making x_M optimal, via the robust selector."""
    return inverse.robust_mu(market, env, x_m, delta_m, config)


def posterior_space(
    space: FiniteProbSpace, market: MarketModel, mu_eq, views: Views | None
) -> FiniteProbSpace:
    """Reweight scenarios by the view likelihood f_eps(v - P mu_eq - P R(w)).

    Densities are handled in log space with log-sum-exp normalization.
    """
    if views is None:
        return space
    mu_eq = np.asarray(mu_eq, dtype=float)
    p = views.pick
    if p.shape[1] != market.n_assets:
        raise DimensionMismatch("pick matrix must have one column per asset")
    resid = (
        views.values[:, None]
        - (p @ mu_eq)[:, None]
        - p @ market.centered_returns
    )  # m x N
    cov_inv = np.linalg.inv(views.noise_cov)
    log_density = -0.5 * np.einsum("ij,ik,kj->j", resid, cov_inv, resid)
    log_w = np.log(space.weights) + log_density
    peak = float(log_w.max())
    if peak < -700.0:
        raise NumericUnderflow(
            "all posterior densities underflow", max_log_density=peak
        )
    shifted = np.exp(log_w - peak)
    return FiniteProbSpace(shifted / shifted.sum())


def bl_pipeline(
    market: MarketModel,
    env: RiskEnvelope,
    x_m,
    delta_m: float,
    views: Views | None = None,
    posterior_weights=None,
    config: geometry.SteinerConfig | None = None,
) -> BlResult:
    """Full pipeline: inverse, reweight, re-center, forward.

    posterior_weights overrides the view-based reweighting with explicit
    probabilities; passing neither views nor an override reproduces the
    prior market analysis.
    """
    delta_m = float(delta_m)
    mu_eq = equilibrium_mu(market, env, x_m, delta_m, config)
    if posterior_weights is not None:
        if views is not None:
            raise ValidationError("give either views or posterior weights, not both")
        q_space = FiniteProbSpace(np.asarray(posterior_weights, dtype=float))
        if q_space.n_scenarios != market.space.n_scenarios:
            raise DimensionMismatch("posterior weights must cover every scenario")
    else:
        q_space = posterior_space(market.space, market, mu_eq, views)
    shift = market.centered_returns @ q_space.weights  # E_Q[R_hat]
    mu_post = mu_eq + shift
    recentered = market.centered_returns - shift[:, None]
    post_market = MarketModel(
        recentered, mu_post, market.riskless_rate, delta_m, q_space
    )
    if np.array_equal(q_space.weights, market.space.weights):
        post_env = env  # unchanged space: nothing to transport
    elif not env.measure.portable:
        raise Unsupported(
            "cannot transport an envelope with custom generators to the "
            "posterior space: they are tied to the prior probabilities"
        )
    else:
        post_env = env_mod.build(env.measure, q_space)
    solution = forward.solve_forward(post_market, post_env, delta_m)
    narrative = {
        "views_applied": views is not None or posterior_weights is not None,
        "unique": solution.unique,
        "active_generators": solution.active_generators,
        "optimal_vertices": solution.optimal_set.vertices.tolist(),
    }
    return BlResult(
        mu_eq=mu_eq,
        posterior_space=q_space,
        mu_post=mu_post,
        posterior_market=post_market,
        posterior_envelope=post_env,
        solution=solution,
        narrative=narrative,
    )
