import numpy as np
import pytest
from scipy.optimize import linprog

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
    risk_identifiers,
    robust_selector,
    scale,
    solve_cooperative,
    solve_individual,
)
from devport import allocation, lp
from devport.errors import (
    DimensionMismatch,
    EmptyIntersection,
    InternalCheckError,
    SpaceMismatch,
    TooManyScenarios,
    ValidationError,
)
from devport.geometry import PwlConvexFunction, SteinerConfig, contains, steiner_point


def _coop_setup():
    space = FiniteProbSpace.uniform(3)
    returns = np.array([[-1.0, 1.0, 1.0], [-1.0, -1.0, 7.0]])
    env1 = build_cvar(space, 2 / 3)
    env2 = scale(build_mad(space), 0.5)
    return space, returns, env1, env2


def _space(n, weights):
    if weights == "uniform":
        return FiniteProbSpace.uniform(n)
    w = np.linspace(1.0, 2.0, n)  # 1, 4/3, 5/3, 2 at N=4
    return FiniteProbSpace(w / w.sum())


def _priced_returns(seed, space, n_assets):
    """Returns priced at 0.05 by one Q0 = 1 + d, |d| <= 0.2, that lies in
    every envelope of these tests, so the joint LP is bounded."""
    rng = np.random.default_rng(seed)
    w = space.weights
    returns = rng.normal(0.05, 0.3, size=(n_assets, space.n_scenarios))
    d = rng.uniform(-0.1, 0.1, size=space.n_scenarios)
    q0 = 1.0 + d - w @ d
    return returns + (0.05 - returns @ (w * q0))[:, None]


def _same_vertex_set(a, b, tol):
    dist = np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2)
    return a.shape == b.shape and max(dist.min(axis=0).max(), dist.min(axis=1).max()) <= tol


def _agents(kind, space):
    if kind == "mad+cvar1/2":
        return [build_mad(space), build_cvar(space, 1 / 2)]
    if kind == "cvar2/3+mad/2":
        return [build_cvar(space, 2 / 3), scale(build_mad(space), 0.5)]
    return [build_cvar(space, 2 / 3), scale(build_mad(space), 0.5), build_cvar(space, 1 / 3)]


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


def test_cooperative_rejects_envelopes_on_other_spaces():
    space, returns, env1, _env2 = _coop_setup()
    skewed = FiniteProbSpace(np.array([0.2, 0.3, 0.5]))
    for other in (build_cvar(FiniteProbSpace.uniform(4), 0.5), build_mad(skewed)):
        with pytest.raises(SpaceMismatch):
            solve_cooperative(returns, space, [env1, other])


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


@pytest.mark.parametrize(
    "agents, n, weights",
    [
        (agents, n, weights)
        for agents in ("mad+cvar1/2", "cvar2/3+mad/2")
        for n in (3, 4)
        for weights in ("uniform", "linear")
    ]
    + [("three", 3, "uniform"), ("three", 4, "uniform")],
)
def test_critical_face_is_the_coalition_face(agents, n, weights):
    space = _space(n, weights)
    envs = _agents(agents, space)
    coalition = cooperative_envelope(envs)
    # Two assets give segment faces; three give polygons at N=4 and, at N=3,
    # a riskless X* whose face is the whole coalition envelope.
    for n_assets in (2, 3):
        sol = solve_cooperative(_priced_returns(n, space, n_assets), space, envs)
        face = risk_identifiers(coalition, sol.joint_payoff).polytope
        assert _same_vertex_set(sol.critical_face.vertices, face.vertices, 1e-9)
        q, _err = steiner_point(face)
        assert np.max(np.abs(sol.critical_identifier - q)) <= 1e-12


def test_cooperative_never_builds_the_coalition_envelope(monkeypatch):
    space, returns, env1, env2 = _coop_setup()
    envs = [env1, env2, build_cvar(space, 1 / 3)]
    expected = solve_cooperative(returns, space, envs)

    def no_envelope(*_args, **_kwargs):
        raise AssertionError("cooperative_envelope was called")

    monkeypatch.setattr(allocation, "cooperative_envelope", no_envelope)
    sol = solve_cooperative(returns, space, envs)
    for name in ("weights", "shares", "critical_identifier", "side_payments", "final_shares"):
        assert np.array_equal(getattr(sol, name), getattr(expected, name))
    assert sol.total_utility == expected.total_utility


@pytest.mark.parametrize("fault", ["face-off-the-payoff", "faces-do-not-meet"])
def test_cooperative_certifies_the_face(monkeypatch, fault):
    space, returns, env1, env2 = _coop_setup()
    if fault == "face-off-the-payoff":
        # At a zero payoff every generator is active: the whole envelopes.
        monkeypatch.setattr(
            allocation, "risk_identifiers", lambda env, _y: risk_identifiers(env, np.zeros(3))
        )
    else:
        def no_meet(*_args):
            raise EmptyIntersection("the polytopes do not intersect")

        monkeypatch.setattr(allocation.geometry, "intersect", no_meet)
    with pytest.raises(InternalCheckError):
        solve_cooperative(returns, space, [env1, env2])


def test_cooperative_at_five_scenarios():
    # The coalition envelope of MAD and CVaR(2/5) at N=5 needs more bases
    # than geometry.intersect allows; the agents' faces are small.
    space = FiniteProbSpace.uniform(5)
    envs = [build_mad(space), build_cvar(space, 2 / 5)]
    returns = _priced_returns(0, space, 3)
    sol = solve_cooperative(returns, space, envs)
    # The joint LP over (a_1, a_2, Y_1, Y_2, x): max a_1 + a_2 with
    # a_i <= E[Q Y_i] per generator, Y_1 + Y_2 = 2 R'x and sum x = 1.
    w = space.weights
    n_vars = 2 + 2 * 5 + 3
    a_ub = []
    for i, env in enumerate(envs):
        block = np.zeros((env.n_generators, n_vars))
        block[:, i] = 1.0
        block[:, 2 + 5 * i : 7 + 5 * i] = -(env.generators * w)
        a_ub.append(block)
    a_eq = np.zeros((6, n_vars))
    a_eq[:5, 2:7] = a_eq[:5, 7:12] = np.eye(5)
    a_eq[:5, 12:] = -2.0 * returns.T
    a_eq[5, 12:] = 1.0
    c = np.zeros(n_vars)
    c[:2] = -1.0
    a_ub = np.vstack(a_ub)
    ref = linprog(c, A_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]), A_eq=a_eq,
                  b_eq=np.r_[np.zeros(5), 1.0], bounds=(None, None), method="highs")
    assert ref.status == 0
    assert sol.total_utility == pytest.approx(-ref.fun, abs=1e-8)
    q = sol.critical_identifier
    assert all(contains(env.polytope(), q) for env in envs)
    assert float(w @ (q * sol.joint_payoff)) == pytest.approx(sol.total_utility, abs=1e-8)


def test_coalition_envelope_is_built_once_on_demand(monkeypatch):
    space, returns, env1, env2 = _coop_setup()
    calls = []

    def counted(envelopes):
        calls.append(1)
        return cooperative_envelope(envelopes)

    monkeypatch.setattr(allocation, "cooperative_envelope", counted)
    sol = solve_cooperative(returns, space, [env1, env2])
    assert calls == []
    coal = sol.coalition_envelope
    assert sol.coalition_envelope is coal
    assert calls == [1]
    assert np.array_equal(coal.generators, cooperative_envelope([env1, env2]).generators)
    single = solve_cooperative(returns, space, [env1], capital=1.0)
    assert single.coalition_envelope is env1
