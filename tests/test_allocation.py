import numpy as np
import pytest

from devport import (
    FiniteProbSpace,
    build_custom,
    build_cvar,
    build_mad,
    capital_allocation,
    cooperative_envelope,
    deviation_function,
    equilibrium_price_selection,
    evaluate,
    robust_selector,
    scale,
    solve_cooperative,
    solve_individual,
)
from devport import lp
from devport.errors import (
    DimensionMismatch,
    SpaceMismatch,
    TooManyScenarios,
    ValidationError,
)
from devport.geometry import PwlConvexFunction, SteinerConfig


def _coop_setup():
    space = FiniteProbSpace.uniform(3)
    returns = np.array([[-1.0, 1.0, 1.0], [-1.0, -1.0, 7.0]])
    env1 = build_cvar(space, 2 / 3)
    env2 = scale(build_mad(space), 0.5)
    return space, returns, env1, env2


def test_deviation_function_matches_evaluate():
    rng = np.random.default_rng(3)
    space = FiniteProbSpace.uniform(4)
    env = build_mad(space)
    risk = deviation_function(env)
    for _ in range(25):
        x = rng.normal(size=4)
        assert risk.value(x) == pytest.approx(evaluate(env, x), abs=1e-10)


def test_capital_allocation_euler_identity():
    rng = np.random.default_rng(7)
    space = FiniteProbSpace.uniform(5)
    env = build_cvar(space, 0.4)
    risk = deviation_function(env)
    for _ in range(25):
        parts = [rng.normal(size=5) for _ in range(3)]
        res = capital_allocation(risk, parts)
        assert res.contributions.sum() == pytest.approx(res.total_risk, abs=1e-8)


def test_capital_allocation_diversification():
    # k_i <= D(X_i): no sub-portfolio is charged more than standalone.
    rng = np.random.default_rng(11)
    space = FiniteProbSpace.uniform(4)
    env = build_mad(space)
    risk = deviation_function(env)
    for _ in range(25):
        parts = [rng.normal(size=4) for _ in range(3)]
        res = capital_allocation(risk, parts)
        for k, p in zip(res.contributions, parts):
            assert k <= risk.value(p) + 1e-8


def test_capital_allocation_rejects_intercepts():
    risk = PwlConvexFunction([[1.0, 0.0]], [1.0])
    with pytest.raises(ValidationError):
        capital_allocation(risk, [np.zeros(2)])
    good = PwlConvexFunction([[1.0, 0.0]], [0.0])
    with pytest.raises(ValidationError):
        capital_allocation(good, [])


def test_capital_allocation_rejects_mismatched_parts():
    risk = deviation_function(build_mad(FiniteProbSpace.uniform(3)))
    for parts in ([np.zeros(2)], [np.zeros(3), np.zeros(4)]):
        with pytest.raises(DimensionMismatch):
            capital_allocation(risk, parts)


@pytest.mark.parametrize("tied", [2, 3])
def test_selectors_solve_no_lp_on_custom_faces(monkeypatch, tied):
    # Generators are made extreme when the envelope is built; Steiner points
    # of its faces, exact (hull dimension 2) or Monte Carlo (3), need no LP.
    w = np.linspace(1.0, 2.0, 6)
    space = FiniteProbSpace(w / w.sum())
    env = build_custom(space, build_mad(space).generators)
    x = np.array([0.0, 0.0, 0.0, 1.5, -2.0, 0.5])
    free = np.arange(tied, 6)
    x[:tied] = space.weights[free] @ x[free] / space.weights[free].sum()

    def no_lp(*_args, **_kwargs):
        raise AssertionError("lp.solve was called")

    monkeypatch.setattr(lp, "solve", no_lp)
    config = SteinerConfig(samples=20000, seed=1)
    q = robust_selector(env, x, config).values
    # The face is the MAD face at x, whose Steiner point has a closed form.
    closed = robust_selector(build_mad(space), x).values
    assert np.max(np.abs(q - closed)) <= (1e-12 if tied == 2 else 0.05)
    risk = deviation_function(env)
    part = np.linspace(-1.0, 1.0, 6)
    res = capital_allocation(risk, [part, x - part], config)
    assert res.total_risk == pytest.approx(evaluate(env, x), abs=1e-12)
    assert res.contributions.sum() == pytest.approx(res.total_risk, abs=1e-8)


def test_equilibrium_price_is_gradient_at_smooth_points():
    space = FiniteProbSpace.uniform(3)
    env = build_mad(space)
    risk = deviation_function(env)
    y = np.array([-3.0, 1.0, 2.0])
    g = equilibrium_price_selection(risk, y)
    vals = risk.gradients @ y + risk.intercepts
    assert np.allclose(g, risk.gradients[np.argmax(vals)], atol=1e-9)


def test_cooperative_envelope_golden():
    space, _r, env1, env2 = _coop_setup()
    coal = cooperative_envelope([env1, env2])
    assert coal.n_generators == 9
    expected = {
        tuple(np.round(v, 9))
        for v in [
            (1.5, 1.0, 0.5), (1.5, 0.5, 1.0), (1.0, 1.5, 0.5),
            (0.5, 1.5, 1.0), (1.0, 0.5, 1.5), (0.5, 1.0, 1.5),
            (round(4 / 3, 9), round(4 / 3, 9), round(1 / 3, 9)),
            (round(4 / 3, 9), round(1 / 3, 9), round(4 / 3, 9)),
            (round(1 / 3, 9), round(4 / 3, 9), round(4 / 3, 9)),
        ]
    }
    got = {tuple(np.round(v, 9)) for v in coal.generators}
    assert got == expected


def test_cooperative_envelope_validation():
    space, _r, env1, _env2 = _coop_setup()
    with pytest.raises(ValidationError):
        cooperative_envelope([env1])
    other = build_cvar(FiniteProbSpace.uniform(4), 0.5)
    with pytest.raises(SpaceMismatch):
        cooperative_envelope([env1, other])
    big1 = build_cvar(FiniteProbSpace.uniform(9), 1 / 3)
    big2 = build_cvar(FiniteProbSpace.uniform(9), 2 / 3)
    with pytest.raises(TooManyScenarios):
        cooperative_envelope([big1, big2])


def test_individual_optima_golden():
    space, returns, env1, env2 = _coop_setup()
    _x1, u1 = solve_individual(returns, space, env1)
    x2, u2 = solve_individual(returns, space, env2)
    assert u1 == pytest.approx(0.0, abs=1e-9)
    assert u2 == pytest.approx(1 / 15, abs=1e-9)
    assert np.allclose(x2, [0.8, 0.2], atol=1e-9)


def test_cooperative_golden():
    space, returns, env1, env2 = _coop_setup()
    sol = solve_cooperative(returns, space, [env1, env2])
    assert np.allclose(sol.weights, [0.8, 0.2], atol=1e-9)
    assert sol.total_utility == pytest.approx(2 / 15, abs=1e-9)
    assert np.allclose(sol.joint_payoff, [-2.0, 6 / 5, 22 / 5], atol=1e-9)
    assert np.allclose(sol.critical_identifier, [17 / 12, 7 / 6, 5 / 12], atol=1e-9)
    assert sol.side_payments[0] == pytest.approx(-1 / 15, abs=1e-9)
    assert np.allclose(sol.final_shares[0], np.full(3, 1 / 15), atol=1e-9)
    assert np.allclose(sol.final_shares[1], [-31 / 15, 17 / 15, 13 / 3], atol=1e-9)


def test_cooperative_beats_individuals():
    # Superadditivity: the coalition does at least as well as the sum.
    space, returns, env1, env2 = _coop_setup()
    _x1, u1 = solve_individual(returns, space, env1)
    _x2, u2 = solve_individual(returns, space, env2)
    sol = solve_cooperative(returns, space, [env1, env2])
    assert sol.total_utility >= u1 + u2 - 1e-9


def test_cooperative_side_payments_balance():
    space, returns, env1, env2 = _coop_setup()
    sol = solve_cooperative(returns, space, [env1, env2])
    assert abs(sol.side_payments.sum()) <= 1e-10
    # After payments everyone values their share equally under Q*.
    w = space.weights
    values = [float(w @ (sol.critical_identifier * y)) for y in sol.final_shares]
    assert np.max(values) - np.min(values) <= 1e-9


def test_cooperative_single_agent_matches_individual():
    space, returns, env1, _env2 = _coop_setup()
    _x, u = solve_individual(returns, space, env1)
    sol = solve_cooperative(returns, space, [env1], capital=1.0)
    assert sol.total_utility == pytest.approx(u, abs=1e-9)
    assert np.max(np.abs(sol.side_payments)) <= 1e-10


def test_cooperative_three_agents():
    space, returns, env1, env2 = _coop_setup()
    envs = [env1, env2, build_cvar(space, 1 / 3)]
    sol = solve_cooperative(returns, space, envs)
    assert abs(sol.side_payments.sum()) <= 1e-9
    assert np.allclose(sol.shares.sum(axis=0), sol.joint_payoff, atol=1e-8)
    # Agents 2..m sit at utility zero after canonicalization.
    assert np.max(np.abs(sol.utilities[1:])) <= 1e-8
    assert sol.utilities[0] == pytest.approx(sol.total_utility, abs=1e-8)
