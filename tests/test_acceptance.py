"""End-to-end acceptance suite.

The paper's worked examples (cooperative investment, MAD and CVaR markets,
Black-Litterman) are the golden table of `devport paper-examples`, run
here one case per test. Each other test covers one acceptance criterion
and prints a single PASS/FAIL line (run pytest with -s to see them).
"""
import numpy as np
import pytest

from devport import (
    FiniteProbSpace,
    MarketModel,
    SteinerConfig,
    VPolytope,
    build_cvar,
    build_custom,
    build_mad,
    capital_allocation,
    deviation_function,
    evaluate,
    law_invariant_selector,
    minkowski_sum,
    portfolio_risk_generators,
    risk_identifiers,
    robust_selector,
    solve_forward,
    steiner_point,
    verify_dichotomy,
)
from devport.golden import golden_cases
from devport.errors import ZeroRiskPortfolio
from devport.geometry import contains, extreme_filter
from devport import lp
from math import comb


GOLDEN = golden_cases()


def _report(name):
    """Emit the criterion's PASS line; failures surface as assertion errors
    before this runs, and pytest prints the FAIL for them."""
    print(f"PASS  {name}")


@pytest.mark.parametrize("name, case", GOLDEN, ids=[name for name, _case in GOLDEN])
def test_paper_example(name, case):
    ok, detail = case()
    assert ok, f"{name}: {detail}"


def test_acceptance_05_envelope_cardinalities():
    for n in (2, 3, 4, 5):
        env = build_mad(FiniteProbSpace.uniform(n))
        assert env.n_generators == 2**n - 2
    # alpha = k/N needs 0 < alpha < 1, so k runs to N-1.
    for n in range(2, 9):
        for k in range(1, n):
            env = build_cvar(FiniteProbSpace.uniform(n), k / n)
            assert env.n_generators == comb(n, k), (n, k)
    _report("05 envelope-cardinalities")


def test_acceptance_06_steiner_property_suite():
    rng = np.random.default_rng(100)
    # 50 seeded polygons: membership, exact-vs-MC within 3 standard errors.
    mc_cfg = SteinerConfig(samples=8192, seed=7, method="montecarlo")
    for _ in range(50):
        poly = extreme_filter(rng.normal(size=(7, 2)))
        exact, err0 = steiner_point(poly)
        assert np.all(err0 == 0)
        assert contains(poly, exact, tol=1e-7)
        mc, err = steiner_point(poly, mc_cfg)
        assert np.all(np.abs(mc - exact) <= 3 * err + 1e-12)
    # Singleton identity is exact.
    pt, err = steiner_point(VPolytope([[0.3, -1.2, 4.0]]))
    assert np.allclose(pt, [0.3, -1.2, 4.0]) and np.all(err == 0)
    # 25 pairs in d=3: additivity and rotation equivariance within
    # combined MC error.
    for trial in range(25):
        p1 = extreme_filter(rng.normal(size=(6, 3)))
        p2 = extreme_filter(rng.normal(size=(6, 3)))
        cfg = SteinerConfig(samples=16384, seed=trial)
        s1, e1 = steiner_point(p1, cfg)
        s2, e2 = steiner_point(p2, cfg)
        s12, e12 = steiner_point(minkowski_sum(p1, p2), cfg)
        tol = 3 * np.sqrt(e1**2 + e2**2 + e12**2) + 1e-9
        assert np.all(np.abs(s12 - (s1 + s2)) <= tol)
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q *= np.sign(np.diag(r))
        rot = VPolytope(p1.vertices @ q.T)
        sr, er = steiner_point(rot, cfg)
        tol = 3 * (np.abs(q) @ e1 + er) + 1e-9
        assert np.all(np.abs(sr - q @ s1) <= tol)
    _report("06 steiner-property-suite")


def _random_instance(rng, n, big_n):
    raw = rng.normal(size=(n, big_n))
    raw -= raw.mean(axis=1, keepdims=True)
    mu = rng.uniform(0.2, 1.0, size=n)
    return MarketModel(raw, mu, 0.0, 0.5, FiniteProbSpace.uniform(big_n))


def test_acceptance_07_dichotomy_property_suite():
    # The provable bound for a unique forward optimum is >= n inverse
    # vertices (active generators span R^n, hence affine dimension >= n-1);
    # n is attained by two-point inverse segments in n = 2.
    rng = np.random.default_rng(200)
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 4))
        big_n = int(rng.integers(3, 7))
        try:
            market = _random_instance(rng, n, big_n)
        except Exception:
            continue
        space = market.space
        env = (
            build_mad(space)
            if rng.random() < 0.5
            else build_cvar(space, float(rng.uniform(0.15, 0.85)))
        )
        x_m = rng.uniform(0.1, 1.0, size=n)
        try:
            report = verify_dichotomy(market, env, x_m, 0.5)
        except ZeroRiskPortfolio:
            continue
        if report["branch"] == "unique-inverse":
            assert report["inverse_vertices"] == 1
            assert report["forward_face_vertices"] >= n
            assert report["forward_face_dim"] == n - 1
        elif report["branch"] == "unique-forward":
            assert report["inverse_vertices"] >= n
            assert report["active_span"] == n
        checked += 1
    _report("07 dichotomy-property-suite")


def test_acceptance_08_uniqueness_sampling():
    rng = np.random.default_rng(300)
    instances = [
        (_random_instance(np.random.default_rng(301), 2, 4), "mad"),
        (_random_instance(np.random.default_rng(302), 3, 5), "cvar"),
    ]
    for market, kind in instances:
        env = (
            build_mad(market.space)
            if kind == "mad"
            else build_cvar(market.space, 0.4)
        )
        gens = portfolio_risk_generators(market, env)
        unique_count = 0
        draws = 0
        while draws < 100:
            mu = rng.uniform(0.1, 1.0, size=market.n_assets)
            m2 = MarketModel(
                market.centered_returns, mu, 0.0, 0.5, market.space
            )
            sol = solve_forward(m2, env, 0.5, gens=gens)
            # Redraw on activity ties: a generator just outside the active
            # tolerance band makes the draw borderline.
            scores = gens.vectors @ sol.x
            margin = sol.value - scores
            borderline = np.any((margin > 1e-9) & (margin < 1e-6))
            if borderline:
                continue
            draws += 1
            unique_count += int(sol.unique)
        assert unique_count == draws == 100
    _report("08 uniqueness-sampling")


def test_acceptance_09_lp_certification():
    # solve() certifies feasibility, complementary slackness and the duality
    # gap internally (InternalCheckError otherwise); re-verify externally
    # and check the forward identities Delta*q = A* and mu.x* = Delta.
    rng = np.random.default_rng(400)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        c = rng.normal(size=n)
        a_ub = np.vstack([rng.normal(size=(4, n)), np.eye(n), -np.eye(n)])
        b_ub = np.concatenate([rng.normal(size=4) + 1.0, np.full(2 * n, 4.0)])
        sol = lp.solve(lp.LinearProgram.build(c, a_ub, b_ub))
        if not sol.optimal:
            continue
        slack = b_ub - a_ub @ sol.x
        assert slack.min() >= -1e-9 * (1.0 + np.abs(b_ub).max())
        assert np.max(np.abs(sol.duals_ub * np.where(slack <= 1e-8, 0.0, slack))) <= 1e-8
        gap = abs(sol.value - float(b_ub @ sol.duals_ub))
        assert gap <= 1e-8 * (1.0 + abs(sol.value))
    for _ in range(20):
        try:
            market = _random_instance(rng, int(rng.integers(2, 4)), 5)
        except Exception:
            continue
        env = build_mad(market.space)
        sol = solve_forward(market, env, 0.5)
        assert abs(float(market.mu @ sol.x) - 0.5) <= 1e-9 * 1.5
        assert abs(sol.binding["duality_product"] - sol.value) <= 1e-8 * (
            1.0 + abs(sol.value)
        )
    _report("09 lp-certification")


def test_acceptance_10_selector_identity_suite():
    rng = np.random.default_rng(500)
    space = FiniteProbSpace.uniform(5)
    envs = [build_mad(space), build_cvar(space, 0.4), build_cvar(space, 0.05)]
    for env in envs:
        for _ in range(20):
            x = rng.normal(size=5)
            target = evaluate(env, x)
            for q in (
                robust_selector(env, x).values,
                law_invariant_selector(env, x).values,
            ):
                got = float(np.mean(x)) + float(np.mean(-x * q))
                assert abs(got - target) <= 1e-8 * (1.0 + abs(target))
    # Law-invariant selector is constant on level sets of X (exactly).
    env = build_cvar(space, 0.4)
    x = np.array([-1.0, -1.0, 0.5, 0.5, 2.0])
    q = law_invariant_selector(env, x).values
    assert q[0] == q[1] and q[2] == q[3]
    # Closed-form robust selectors match the generic Steiner fallback within
    # 3 MC standard errors (ties included so identifier sets have extent).
    cfg = SteinerConfig(samples=16384, seed=9)
    cases = [
        (build_cvar(space, 0.05), np.array([-0.5, -0.5, 1.0, 1.0, 1.0])),
        (build_cvar(space, 0.4), np.array([-1.0, -1.0, 0.0, 1.0, 2.0])),
        (build_mad(space), np.array([-1.0, 0.25, 0.25, 0.25, 0.25])),
        (build_mad(space), rng.normal(size=5)),
    ]
    for env, x in cases:
        closed = robust_selector(env, x).values
        custom = build_custom(space, env.generators)
        ident = risk_identifiers(custom, x)
        point, err = steiner_point(ident.polytope, cfg)
        assert np.all(np.abs(point - closed) <= 3 * err + 1e-7)
    _report("10 selector-identity-suite")


def test_acceptance_11_capital_allocation_suite():
    rng = np.random.default_rng(600)
    space = FiniteProbSpace.uniform(5)
    envs = [build_mad(space), build_cvar(space, 0.4)]
    for case in range(100):
        env = envs[case % 2]
        risk = deviation_function(env)
        parts = [rng.normal(size=5) for _ in range(int(rng.integers(2, 5)))]
        res = capital_allocation(risk, parts)
        assert abs(res.contributions.sum() - res.total_risk) <= 1e-8
        for k, p in zip(res.contributions, parts):
            assert k <= risk.value(p) + 1e-8
    # Perturbation robustness: gradients at nearby smooth points agree, so
    # contributions move within 3 standard errors (zero for exact paths).
    env = build_mad(space)
    risk = deviation_function(env)
    for _ in range(20):
        parts = [rng.normal(size=5) for _ in range(3)]
        base = capital_allocation(risk, parts)
        total = np.sum(parts, axis=0)
        vals = risk.gradients @ total
        order = np.sort(vals)
        if order[-1] - order[-2] < 1e-6:
            continue  # keep to smooth points for the deterministic bound
        eps = 1e-9
        wobble = [p + rng.uniform(-eps, eps, 5) for p in parts]
        moved = capital_allocation(risk, wobble)
        assert np.max(np.abs(moved.contributions - base.contributions)) <= 1e-6
    _report("11 capital-allocation-suite")
