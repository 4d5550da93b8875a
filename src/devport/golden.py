"""The paper's worked examples as a golden regression table.

`devport paper-examples` runs every case and `tests/test_acceptance.py`
runs them one per test: cooperative investment, the MAD and CVaR markets,
Black-Litterman and the epigraph LP.
"""
from __future__ import annotations

import itertools

import numpy as np

from . import allocation, blacklitterman, envelope, forward, geometry, inverse, lp
from .probspace import FiniteProbSpace, MarketModel


def _close(a, b, tol=1e-9) -> bool:
    return bool(np.max(np.abs(np.asarray(a, float) - np.asarray(b, float))) <= tol)


def _vertex_set_match(got, expected, tol=1e-8) -> bool:
    got = np.asarray(got, float)
    expected = np.asarray(expected, float)
    if got.shape[0] != expected.shape[0]:
        return False
    used = set()
    for e in expected:
        hit = None
        for i, g in enumerate(got):
            if i not in used and np.max(np.abs(g - e)) <= tol:
                hit = i
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def _perms(*vals):
    return np.unique(np.asarray(list(itertools.permutations(vals))), axis=0)


def _mad_market():
    space = FiniteProbSpace.uniform(3)
    return MarketModel(
        np.asarray([[-1.0, -1.0, 2.0], [-2.0, 1.0, 1.0]]),
        np.asarray([0.4, 0.6]),
        0.0,
        0.5,
        space,
    )


def _cvar_market(mu=(1.0 / 3.0, 2.0 / 3.0), delta=0.5):
    space = FiniteProbSpace.uniform(3)
    return MarketModel(
        np.asarray([[-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]]),
        np.asarray(mu, dtype=float),
        0.0,
        delta,
        space,
    )


def _coop_setup():
    space = FiniteProbSpace.uniform(3)
    returns = np.asarray([[-1.0, 1.0, 1.0], [-1.0, -1.0, 7.0]])
    env1 = envelope.build_cvar(space, 2.0 / 3.0)
    env2 = envelope.scale(envelope.build_mad(space), 0.5)
    return space, returns, env1, env2


def golden_cases():
    """(name, case) pairs; each case returns (passed, detail)."""
    u3 = FiniteProbSpace.uniform(3)

    def mad_count():
        env = envelope.build_mad(u3)
        ok = env.n_generators == 6
        row = np.asarray([-1.0 / 3.0, 5.0 / 3.0, 5.0 / 3.0])
        ok &= any(_close(g, row) for g in env.generators)
        return ok, f"{env.n_generators} generators"

    def cvar_perm300():
        env = envelope.build_cvar(u3, 0.05)
        ok = _vertex_set_match(env.generators, _perms(3.0, 0.0, 0.0))
        return ok, f"{env.n_generators} vertices"

    def mad_value():
        env = envelope.build_mad(u3)
        val = envelope.evaluate(env, np.asarray([-1.5, 0.0, 1.5]))
        return _close(val, 1.0), f"MAD = {val}"

    def mad_identifier_segment():
        env = envelope.build_mad(u3)
        ident = envelope.risk_identifiers(env, np.asarray([-1.5, 0.0, 1.5]))
        expected = np.asarray(
            [[7.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0], [5.0 / 3.0, 5.0 / 3.0, -1.0 / 3.0]]
        )
        ok = _vertex_set_match(ident.polytope.vertices, expected)
        return ok, f"{ident.polytope.n_vertices} active"

    def coalition_envelope():
        space, _r, env1, env2 = _coop_setup()
        coal = allocation.cooperative_envelope([env1, env2])
        expected = np.vstack(
            [_perms(1.5, 1.0, 0.5), _perms(4.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0)]
        )
        ok = _vertex_set_match(coal.generators, expected, 1e-9)
        return ok, f"{coal.n_generators} vertices"

    def coalition_identifiers():
        space, _r, env1, env2 = _coop_setup()
        coal = allocation.cooperative_envelope([env1, env2])
        x_star = np.asarray([-2.0, 6.0 / 5.0, 22.0 / 5.0])
        ident = envelope.risk_identifiers(coal, x_star)
        expected = np.asarray(
            [[1.5, 1.0, 0.5], [4.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0]]
        )
        ok = _vertex_set_match(ident.polytope.vertices, expected)
        value = min(
            float(u3.expectation(x_star * q)) for q in ident.polytope.vertices
        )
        ok &= _close(value, 2.0 / 15.0)
        return ok, f"E[QX*] = {value}"

    def steiner_midpoint():
        poly = geometry.VPolytope(
            np.asarray([[1.5, 1.0, 0.5], [4.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0]])
        )
        point, _e = geometry.steiner_point(poly)
        ok = _close(point, [17.0 / 12.0, 7.0 / 6.0, 5.0 / 12.0])
        return ok, f"Q* = {point.tolist()}"

    def individual_optima():
        space, returns, env1, env2 = _coop_setup()
        _x1, u1 = allocation.solve_individual(returns, space, env1)
        x2, u2 = allocation.solve_individual(returns, space, env2)
        ok = _close(u1, 0.0) and _close(u2, 1.0 / 15.0)
        ok &= _close(x2, [0.8, 0.2])
        return ok, f"u1={u1}, u2={u2}"

    def cooperative():
        space, returns, env1, env2 = _coop_setup()
        sol = allocation.solve_cooperative(returns, space, [env1, env2])
        ok = _close(sol.weights, [0.8, 0.2])
        ok &= _close(sol.total_utility, 2.0 / 15.0)
        ok &= _close(sol.joint_payoff, [-2.0, 6.0 / 5.0, 22.0 / 5.0])
        ok &= _close(sol.critical_identifier, [17.0 / 12.0, 7.0 / 6.0, 5.0 / 12.0])
        ok &= _close(sol.side_payments[0], -1.0 / 15.0)
        ok &= _close(sol.final_shares[0], [1.0 / 15.0] * 3)
        ok &= _close(
            sol.final_shares[1], [-31.0 / 15.0, 17.0 / 15.0, 13.0 / 3.0]
        )
        return ok, f"u*={sol.total_utility}, C={sol.side_payments[0]}"

    def mad_forward():
        market = _mad_market()
        env = envelope.build_mad(u3)
        sol = forward.solve_forward(market, env, 0.5)
        ok = sol.unique and _close(sol.x, [0.5, 0.5]) and _close(sol.value, 1.0)
        return ok, f"x={sol.x.tolist()}"

    def mad_inverse():
        market = _mad_market()
        env = envelope.build_mad(u3)
        inv = inverse.inverse_solution_set(market, env, [0.5, 0.5], 0.5)
        expected = np.asarray([[1.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 1.0 / 3.0]])
        ok = _vertex_set_match(inv.polytope.vertices, expected, 1e-9)
        mu = inverse.robust_mu(market, env, [0.5, 0.5], 0.5)
        ok &= _close(mu, [0.5, 0.5])
        return ok, f"robust mu={mu.tolist()}"

    def cvar_forward():
        market = _cvar_market()
        env = envelope.build_cvar(u3, 0.05)
        sol = forward.solve_forward(market, env, 0.5)
        ok = sol.unique and _close(sol.x, [0.5, 0.5])
        return ok, f"x={sol.x.tolist()}"

    def cvar_identifier_face():
        # Identifier family Q = (q, 3-q, 0) at x*: both endpoints identify.
        market = _cvar_market()
        env = envelope.build_cvar(u3, 0.05)
        sol = forward.solve_forward(market, env, 0.5)
        x_star = market.portfolio_return(sol.x).values
        ident = envelope.risk_identifiers(env, x_star)
        expected = np.asarray([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        ok = _vertex_set_match(ident.polytope.vertices, expected, 1e-9)
        return ok, f"{ident.polytope.n_vertices} active"

    def cvar_inverse():
        market = _cvar_market()
        env = envelope.build_cvar(u3, 0.05)
        inv = inverse.inverse_solution_set(market, env, [0.5, 0.5], 0.5)
        expected = np.asarray([[0.0, 1.0], [1.0, 0.0]])
        ok = _vertex_set_match(inv.polytope.vertices, expected, 1e-9)
        q = inverse.robust_selector(env, np.asarray([-0.5, -0.5, 1.0])).values
        ok &= _close(q, [1.5, 1.5, 0.0])
        mu = inverse.robust_mu(market, env, [0.5, 0.5], 0.5)
        ok &= _close(mu, [0.5, 0.5])
        return ok, f"q={q.tolist()}, mu={mu.tolist()}"

    def bl_generators():
        market = _cvar_market()
        env = envelope.build_cvar(u3, 0.05)
        gens = forward.portfolio_risk_generators(market, env)
        expected = np.asarray([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        ok = _vertex_set_match(gens.vectors, expected, 1e-9)
        return ok, f"{gens.count} generators"

    def bl_mu_star():
        market = _cvar_market()
        env = envelope.build_cvar(u3, 0.05)
        inv = inverse.inverse_solution_set(market, env, [0.2, 0.8], 0.4)
        ok = inv.polytope.n_vertices == 1
        ok &= _close(inv.polytope.vertices[0], [0.0, 0.5])
        return ok, f"mu*={inv.polytope.vertices[0].tolist()}"

    def bl_noview_face():
        market = _cvar_market()
        env = envelope.build_cvar(u3, 0.05)
        res = blacklitterman.bl_pipeline(market, env, [0.2, 0.8], 0.4)
        ok = not res.solution.unique
        ok &= _close(res.solution.value, 0.8, 1e-8)
        expected = np.asarray([[-1.6, 0.8], [0.8, 0.8]])
        ok &= _vertex_set_match(res.solution.optimal_set.vertices, expected)
        return ok, f"face={res.solution.optimal_set.vertices.tolist()}"

    def bl_override():
        market = _cvar_market()
        env = envelope.build_cvar(u3, 0.05)
        res = blacklitterman.bl_pipeline(
            market, env, [0.2, 0.8], 0.4, posterior_weights=[0.25, 0.25, 0.5]
        )
        ok = res.solution.unique
        ok &= _close(res.mu_post, [0.25, 0.75])
        ok &= _close(res.solution.x, [0.4, 0.4])
        gens = res.solution.generators.vectors
        active = gens[list(res.solution.active_generators)]
        expected = np.asarray([[1.25, 0.25], [0.25, 1.25]])
        ok &= _vertex_set_match(active, expected, 1e-9)
        return ok, f"x={res.solution.x.tolist()}"

    def lp_63_value():
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
        ok = sol.optimal and _close(sol.value, 0.8)
        return ok, f"value={sol.value}"

    return [
        ("mad-generator-count", mad_count),
        ("cvar-005-perm300", cvar_perm300),
        ("mad-evaluate-x-star", mad_value),
        ("mad-identifier-segment", mad_identifier_segment),
        ("coalition-envelope", coalition_envelope),
        ("coalition-identifier-face", coalition_identifiers),
        ("steiner-segment-midpoint", steiner_midpoint),
        ("individual-optima", individual_optima),
        ("cooperative-investment", cooperative),
        ("mad-forward", mad_forward),
        ("mad-inverse", mad_inverse),
        ("cvar-forward", cvar_forward),
        ("cvar-identifier-face", cvar_identifier_face),
        ("cvar-inverse", cvar_inverse),
        ("portfolio-risk-generators", bl_generators),
        ("inverse-unique-mu-star", bl_mu_star),
        ("no-view-optimal-face", bl_noview_face),
        ("posterior-override", bl_override),
        ("epigraph-lp-value", lp_63_value),
    ]
