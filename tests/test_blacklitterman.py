import numpy as np
import pytest

from devport import (
    FiniteProbSpace,
    MarketModel,
    Views,
    bl_pipeline,
    build_cvar,
    build_custom,
    build_mad,
    equilibrium_mu,
    posterior_space,
    scale,
)
from devport.errors import (
    DimensionMismatch,
    NumericUnderflow,
    Unsupported,
    ValidationError,
)


def _market():
    space = FiniteProbSpace.uniform(3)
    return MarketModel(
        np.array([[-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]]),
        np.array([1 / 3, 2 / 3]),
        0.0,
        0.4,
        space,
    )


def _env():
    return build_cvar(FiniteProbSpace.uniform(3), 0.05)


def test_views_validation():
    with pytest.raises(DimensionMismatch):
        Views(np.eye(2), np.zeros(3), np.eye(2))
    with pytest.raises(ValidationError):
        Views(np.zeros((1, 2)), np.zeros(1), np.eye(1))
    with pytest.raises(ValidationError):
        Views(np.ones((2, 2)), np.zeros(2), np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        Views(np.ones((1, 2)), np.zeros(1), -np.eye(1))
    v = Views([1.0, -1.0], [0.2], np.array([[0.5]]))
    assert v.count == 1
    assert v.pick.shape == (1, 2)


def test_equilibrium_mu_golden():
    mu = equilibrium_mu(_market(), _env(), [0.2, 0.8], 0.4)
    assert np.allclose(mu, [0.0, 0.5], atol=1e-9)


def test_posterior_space_no_views_identity():
    market = _market()
    space = posterior_space(market.space, market, np.zeros(2), None)
    assert space is market.space


def test_posterior_space_reweights_toward_view():
    market = _market()
    mu_eq = np.array([0.0, 0.5])
    # A strong view that asset 2 outperforms: scenarios where it does gain mass.
    views = Views([0.0, 1.0], [2.0], np.array([[0.25]]))
    space = posterior_space(market.space, market, mu_eq, views)
    w = space.weights
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    # Scenario 3 (asset 2 return +1) fits the view best, scenario 2 worst.
    assert w[2] > w[0] > w[1]


def test_posterior_space_underflow():
    market = _market()
    views = Views([0.0, 1.0], [1e6], np.array([[1e-6]]))
    with pytest.raises(NumericUnderflow) as err:
        posterior_space(market.space, market, np.zeros(2), views)
    assert err.value.max_log_density < -700


def test_no_view_pipeline_reproduces_prior_face():
    res = bl_pipeline(_market(), _env(), [0.2, 0.8], 0.4)
    assert not res.solution.unique
    assert res.solution.value == pytest.approx(0.8, abs=1e-8)
    got = {tuple(np.round(v, 8)) for v in res.solution.optimal_set.vertices}
    assert got == {(-1.6, 0.8), (0.8, 0.8)}
    assert np.allclose(res.mu_post, res.mu_eq, atol=1e-12)
    # Unchanged weights: the prior envelope is reused as-is.
    assert res.posterior_space.same_as(_market().space)


def test_override_pipeline_golden():
    res = bl_pipeline(
        _market(), _env(), [0.2, 0.8], 0.4, posterior_weights=[0.25, 0.25, 0.5]
    )
    assert np.allclose(res.mu_post, [0.25, 0.75], atol=1e-9)
    assert res.solution.unique
    assert np.allclose(res.solution.x, [0.4, 0.4], atol=1e-9)
    active = res.solution.generators.vectors[list(res.solution.active_generators)]
    got = {tuple(np.round(v, 8)) for v in active}
    assert got == {(1.25, 0.25), (0.25, 1.25)}


def test_override_and_views_are_exclusive():
    views = Views([0.0, 1.0], [0.5], np.array([[1.0]]))
    with pytest.raises(ValidationError):
        bl_pipeline(
            _market(), _env(), [0.2, 0.8], 0.4,
            views=views, posterior_weights=[0.25, 0.25, 0.5],
        )


def test_view_pipeline_consistency():
    # The posterior market is centered, its mu is shifted by E_Q[R_hat], and
    # the envelope is rebuilt on the posterior space.
    market = _market()
    views = Views([0.0, 1.0], [0.6], np.array([[0.5]]))
    res = bl_pipeline(market, _env(), [0.2, 0.8], 0.4, views=views)
    post = res.posterior_market
    means = post.centered_returns @ post.space.weights
    assert np.max(np.abs(means)) <= 1e-9
    shift = market.centered_returns @ res.posterior_space.weights
    assert np.allclose(res.mu_post, res.mu_eq + shift, atol=1e-12)
    assert res.posterior_envelope.space.same_as(res.posterior_space)
    direct = build_cvar(res.posterior_space, 0.05)
    assert res.posterior_envelope.measure == direct.measure
    assert np.array_equal(res.posterior_envelope.generators, direct.generators)


def test_rebuild_composite_envelope():
    space = FiniteProbSpace.uniform(3)
    env = scale(build_mad(space), 0.5)
    views = Views([0.0, 1.0], [0.6], np.array([[0.5]]))
    market = _market()
    res = bl_pipeline(market, env, [0.5, 0.5], 0.4, views=views)
    assert res.posterior_envelope.space.same_as(res.posterior_space)
    direct = scale(build_mad(res.posterior_space), 0.5)
    assert res.posterior_envelope.measure == env.measure == direct.measure
    assert np.array_equal(res.posterior_envelope.generators, direct.generators)


def test_custom_envelope_cannot_move_spaces():
    space = FiniteProbSpace.uniform(3)
    env = build_custom(space, build_cvar(space, 0.05).generators)
    views = Views([0.0, 1.0], [0.6], np.array([[0.5]]))
    with pytest.raises(Unsupported):
        bl_pipeline(_market(), env, [0.2, 0.8], 0.4, views=views)


def test_weak_views_approach_prior():
    # Huge noise variance: the posterior barely moves.
    market = _market()
    views = Views([0.0, 1.0], [0.6], np.array([[1e8]]))
    res = bl_pipeline(market, build_mad(market.space), [0.5, 0.5], 0.4, views=views)
    assert np.max(np.abs(res.posterior_space.weights - market.space.weights)) <= 1e-6
    assert np.allclose(res.mu_post, res.mu_eq, atol=1e-6)
