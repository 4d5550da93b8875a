"""The benchmark's workloads, and the diagnostic ones that fail today.

A workload builds a fixed cycle of problem classes (sizes and measures)
and, from the seed, a pool of problems: whole cycles with fresh data in
each. The timed loop runs the pool cycle by cycle, so the mix of classes
in a run does not depend on the seed; only the data does.

Every problem is one whole user problem. ``solve`` calls devport through
its defining modules (``dv.forward.solve_forward``, not
``devport.solve_forward``) so that the tracer sees every call, and
``check`` compares the answer with the independent oracle.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

import numpy as np

import oracle

POOL_CYCLES = 48
N_ASSETS = 3
DELTA = 0.05


@dataclass(frozen=True)
class Problem:
    label: str  # problem class, e.g. "mad-N6"
    data: dict


def _centered_market(dv, rng, space, n_assets=N_ASSETS):
    raw = rng.normal(0.0, 0.2, size=(n_assets, space.n_scenarios))
    raw += rng.normal(0.05, 0.03, size=(n_assets, 1))
    return dv.probspace.center_market(raw, space, 0.0, DELTA)


def _build_envelope(dv, space, measure):
    kind = measure[0]
    if kind == "mad":
        return dv.envelope.build_mad(space)
    if kind == "cvar":
        return dv.envelope.build_cvar(space, measure[1])
    if kind == "mixed":
        alphas, lambdas = zip(*measure[1])
        return dv.envelope.build_mixed_cvar(space, alphas, lambdas)
    return dv.envelope.build_custom(space, measure[1])


def _first_failure(*reasons):
    return next((r for r in reasons if r is not None), None)


class Workload:
    name = ""
    classes: list = []
    # A diagnostic workload shows a known failure of devport and is left out
    # of BENCHMARK.json, whose workloads must run without a failed problem.
    diagnostic = False

    def setup(self, dv, rng) -> list[Problem]:
        """Build the problem pool: POOL_CYCLES cycles of self.classes."""
        shared = self.shared(dv, rng)
        return [
            self.make(dv, rng, spec, shared)
            for _ in range(POOL_CYCLES)
            for spec in self.classes
        ]

    def shared(self, dv, rng) -> Any:
        """Inputs reused by every problem, built once per set-up."""
        return None

    def make(self, dv, rng, spec, shared) -> Problem:
        raise NotImplementedError

    def solve(self, dv, problem: Problem) -> Any:
        raise NotImplementedError

    def check(self, problem: Problem, output) -> str | None:
        raise NotImplementedError


class ForwardInverse(Workload):
    """Forward and inverse problems on uniform spaces.

    On the forward LP of solve_forward, lp.solve returns a point that
    violates a row by about 1e-5 on about 1 problem in 5000 today, from CVaR
    N=9 (20 rows) to MAD N=6 (32 rows), and raises InternalCheckError:
    primal infeasible at claimed optimum.
    """

    name = "forward_inverse"
    diagnostic = True
    # (label, N, measure); alpha * N is an integer for the CVaR terms.
    classes = [
        ("mad-N5", 5, ("mad",)),
        ("mad-N6", 6, ("mad",)),
        ("cvar-N8-a0.25", 8, ("cvar", 0.25)),
        ("cvar-N8-a0.375", 8, ("cvar", 0.375)),
        ("cvar-N9-a2/9", 9, ("cvar", 2.0 / 9.0)),
        ("cvar-N10-a0.2", 10, ("cvar", 0.2)),
        ("mixed-N4", 4, ("mixed", ((0.25, 0.5), (0.5, 0.5)))),
    ]

    def make(self, dv, rng, spec, shared):
        label, n_scen, measure = spec
        space = dv.probspace.FiniteProbSpace.uniform(n_scen)
        market = _centered_market(dv, rng, space)
        return Problem(label, {"market": market, "measure": measure})

    def solve(self, dv, problem):
        market, measure = problem.data["market"], problem.data["measure"]
        env = _build_envelope(dv, market.space, measure)
        sol = dv.forward.solve_forward(market, env, DELTA)
        inv = dv.inverse.inverse_solution_set(market, env, sol.x, DELTA)
        mu = dv.inverse.robust_mu(market, env, sol.x, DELTA)
        payoff = market.centered_returns.T @ sol.x
        q = dv.inverse.law_invariant_selector(env, payoff).values
        return {"value": sol.value, "x": sol.x, "inverse": inv.polytope.vertices,
                "robust_mu": mu, "law_invariant": q}

    def check(self, problem, out):
        market, measure = problem.data["market"], problem.data["measure"]
        r, w, x = market.centered_returns, market.space.weights, out["x"]
        reasons = [oracle.check_forward(measure, r, w, market.mu, DELTA, out["value"], x)]
        if not np.allclose(out["inverse"] @ x, DELTA, rtol=0, atol=oracle.REL_TOL):
            reasons.append("an inverse-set mean vector does not price x_M at Delta_M")
        reasons.append(oracle.check_robust_mu(measure, r, w, x, DELTA, out["robust_mu"]))
        reasons.append(oracle.check_identifier(measure, r.T @ x, w, out["law_invariant"]))
        return _first_failure(*reasons)


class BlackLitterman(Workload):
    """Black-Litterman on MAD at N=5-6 and CVaR at N=6-8.

    The same lp.solve failure as in ForwardInverse, on the posterior
    forward LP (32-50 rows): a few problems in a thousand today, in every
    class from MAD N=6 up.
    """

    name = "black_litterman"
    diagnostic = True
    classes = [
        ("mad-N5", 5, ("mad",)),
        ("mad-N6", 6, ("mad",)),
        ("cvar-N6-a1/3", 6, ("cvar", 1.0 / 3.0)),
        ("cvar-N7-a2/7", 7, ("cvar", 2.0 / 7.0)),
        ("cvar-N8-a0.2", 8, ("cvar", 0.2)),
    ]

    def shared(self, dv, rng):
        # The prior envelope depends only on the class, so it is reused.
        return {
            label: _build_envelope(dv, dv.probspace.FiniteProbSpace.uniform(n), measure)
            for label, n, measure in self.classes
        }

    def make(self, dv, rng, spec, shared):
        label, n_scen, measure = spec
        market = _centered_market(dv, rng, shared[label].space)
        a, b = rng.choice(N_ASSETS, size=2, replace=False)
        pick = np.zeros((1, N_ASSETS))
        pick[0, a], pick[0, b] = 1.0, -1.0
        # The view's noise variance is the picked portfolio's own prior
        # variance; the view itself is drawn with half that deviation.
        sd = float(np.sqrt(market.space.weights @ (pick @ market.centered_returns)[0] ** 2))
        views = dv.blacklitterman.Views(
            pick=pick, values=[0.5 * sd * rng.standard_normal()], noise_cov=[[sd * sd]]
        )
        x_m = rng.dirichlet(np.ones(N_ASSETS))
        return Problem(label, {"market": market, "env": shared[label], "measure": measure,
                               "views": views, "x_m": x_m})

    def solve(self, dv, problem):
        d = problem.data
        res = dv.blacklitterman.bl_pipeline(
            d["market"], d["env"], d["x_m"], DELTA, views=d["views"]
        )
        return {"mu_eq": res.mu_eq, "weights": res.posterior_space.weights,
                "mu_post": res.mu_post, "value": res.solution.value, "x": res.solution.x}

    def check(self, problem, out):
        d = problem.data
        market, measure, views = d["market"], d["measure"], d["views"]
        r, w = market.centered_returns, market.space.weights
        weights = oracle.posterior_weights(
            w, r, out["mu_eq"], views.pick, views.values, views.noise_cov
        )
        shift = r @ weights
        reasons = [oracle.check_robust_mu(measure, r, w, d["x_m"], DELTA, out["mu_eq"])]
        if not oracle.close(out["weights"], weights, 1e-9):
            reasons.append("posterior weights differ from the numpy recomputation")
        elif not oracle.close(out["mu_post"], out["mu_eq"] + shift, 1e-9):
            reasons.append("posterior mean is not mu_eq + E_post[R]")
        else:
            reasons.append(oracle.check_forward(
                measure, r - shift[:, None], weights, out["mu_post"], DELTA,
                out["value"], out["x"],
            ))
        return _first_failure(*reasons)


def _symmetric_sign_generators(w):
    """Q = 1 + E[Z] - Z over sign vectors whose last two signs are opposite.

    The set is closed under Z -> -Z, so it contains the constant 1 in its
    hull; a payoff tied at its mean on k of the first N-2 scenarios, above
    it on scenario N-1 and below on N, has an identifier face of hull
    dimension k.
    """
    out = []
    for signs in itertools.product((-1.0, 1.0), repeat=w.size - 1):
        z = np.asarray(signs + (-signs[-1],))
        out.append(1.0 + w @ z - z)
    return np.asarray(out)


def _uniform_generators(measure, n_scen):
    """Independent numpy generator list of a uniform-space MAD or CVaR envelope."""
    if measure[0] == "mad":
        w = np.full(n_scen, 1.0 / n_scen)
        signs = [np.asarray(s) for s in itertools.product((-1.0, 1.0), repeat=n_scen)]
        return np.asarray([1.0 + w @ z - z for z in signs if 0 < np.sum(z > 0) < n_scen])
    k = int(round(measure[1] * n_scen))
    out = []
    for subset in itertools.combinations(range(n_scen), k):
        q = np.zeros(n_scen)
        q[list(subset)] = n_scen / k
        out.append(q)
    return np.asarray(out)


class SelectorAllocation(Workload):
    name = "selector_allocation"
    SELECT_N = 7
    # (label, kind, size): selector queries by identifier-face hull
    # dimension, cooperative problems by scenario count. The hull-dimension
    # 4 queries come three times, so that the median of a run falls in the
    # middle of them and its tail among the slower dimension-5 ones.
    classes = [
        ("select-dim3", "select", 3),
        ("select-dim4", "select", 4),
        ("select-dim4", "select", 4),
        ("select-dim4", "select", 4),
        ("select-dim5", "select", 5),
    ]

    def shared(self, dv, rng):
        # The measure is part of the workload, like the sizes: fixed unequal
        # weights, so that runs differ only in their payoffs and returns.
        shared = {}
        if any(kind == "select" for _label, kind, _size in self.classes):
            weights = np.linspace(1.0, 2.0, self.SELECT_N)
            space = dv.probspace.FiniteProbSpace(weights / weights.sum())
            env = dv.envelope.build_custom(space, _symmetric_sign_generators(space.weights))
            shared = {"env": env, "risk": dv.allocation.deviation_function(env)}
        coop = {}
        for n_scen in {size for _label, kind, size in self.classes if kind == "coop"}:
            uniform = dv.probspace.FiniteProbSpace.uniform(n_scen)
            measures = [("mad",), ("cvar", 2.0 / n_scen)]
            coop[n_scen] = {
                "space": uniform,
                "envs": [_build_envelope(dv, uniform, m) for m in measures],
                "generators": [_uniform_generators(m, n_scen) for m in measures],
            }
        return {**shared, "coop": coop}

    def make(self, dv, rng, spec, shared):
        label, kind, size = spec
        if kind == "coop":
            return Problem(label, {"kind": kind, **shared["coop"][size],
                                   "returns": self._coop_returns(rng, size)})
        env = shared["env"]
        w = env.space.weights
        n = self.SELECT_N
        x = rng.normal(size=n)
        x[n - 2] = abs(x[n - 2]) + 1.0
        x[n - 1] = -abs(x[n - 1]) - 1.0
        tied = rng.choice(n - 2, size=size, replace=False)
        free = np.setdiff1d(np.arange(n), tied)
        # Tied scenarios sit exactly at the mean of the payoff.
        x[tied] = (w[free] @ x[free]) / w[free].sum()
        part = rng.normal(size=n)
        return Problem(label, {"kind": kind, "env": env, "risk": shared["risk"],
                               "payoff": x, "parts": [part, x - part]})

    @staticmethod
    def _coop_returns(rng, n_scen):
        """Asset returns with one common price under a strictly positive Q0.

        Q0 = 1 + d with |d| <= 0.25 lies in both agents' envelopes, and every
        asset has E[Q0 r] = 0.05, so no zero-cost portfolio has positive
        utility and the joint LP is bounded.
        """
        n_assets = int(rng.integers(2, 4))
        returns = rng.normal(0.05, 0.3, size=(n_assets, n_scen))
        d = rng.uniform(-0.25, 0.25, size=n_scen)
        q0 = 1.0 + d - d.mean()
        return returns + (0.05 - returns @ q0 / n_scen)[:, None]

    def solve(self, dv, problem):
        d = problem.data
        if d["kind"] == "coop":
            sol = dv.allocation.solve_cooperative(d["returns"], d["space"], d["envs"])
            return {"utility": sol.total_utility, "shares": sol.shares,
                    "side": sol.side_payments, "final": sol.final_shares}
        q = dv.inverse.robust_selector(d["env"], d["payoff"]).values
        alloc = dv.allocation.capital_allocation(d["risk"], d["parts"])
        price = dv.allocation.equilibrium_price_selection(d["risk"], d["payoff"])
        return {"q": q, "contributions": alloc.contributions, "gradient": alloc.gradient,
                "price": price}

    def check(self, problem, out):
        d = problem.data
        if d["kind"] == "coop":
            w = d["space"].weights
            side = out["side"]
            if abs(float(side.sum())) > 1e-9 * (1.0 + float(np.abs(side).max())):
                return "side payments do not sum to zero"
            if not oracle.close(out["final"], out["shares"] + side[:, None], 1e-9):
                return "final shares are not shares plus side payments"
            capital = float(len(d["envs"]))
            ref = oracle.cooperative_utility(d["returns"], w, d["generators"], capital)
            if not oracle.close(out["utility"], ref):
                return f"total utility {out['utility']!r} differs from HiGHS {ref!r}"
            return None
        env, risk, x = d["env"], d["risk"], d["payoff"]
        w = env.space.weights
        measure = ("custom", _symmetric_sign_generators(w))
        dev = oracle.deviation(measure, x, w)
        gradients = w[None, :] * (1.0 - measure[1])
        reasons = [oracle.check_identifier(measure, x, w, out["q"])]
        if not oracle.close(out["contributions"].sum(), dev):
            reasons.append("Euler identity fails: contributions do not sum to the risk")
        for name in ("gradient", "price"):
            g = out[name]
            if not (oracle.close(g @ x, dev) and oracle.in_hull(gradients, g)):
                reasons.append(f"{name} is not a subgradient of the risk at the payoff")
        return _first_failure(*reasons)


class Cooperative(SelectorAllocation):
    """solve_cooperative of two agents, MAD and CVaR, at N=4."""

    name = "cooperative"
    classes = [("coop-N4", "coop", 4)]


class CooperativeN5(Cooperative):
    """solve_cooperative at N=5, which exceeds the basic-solution guard of
    geometry.intersect: every problem raises GuardExceeded today."""

    name = "cooperative_n5"
    diagnostic = True
    classes = [("coop-N5", "coop", 5)]


class LpCompact(Workload):
    """Tall compact LPs, on which lp.solve fails on about 4 in 10 problems
    today: failed certifications and wrong Unbounded verdicts."""

    name = "lp_compact"
    diagnostic = True
    CVAR_ALPHA = 0.1
    # (label, kind, N, assets). MAD stops at N=40: one MAD LP at N=60 takes
    # 1-4 s, so a run would hold too few of them for a steady tail. CVaR
    # covers N=40-60; its costliest class comes twice, so that the tail of
    # a run falls inside one class rather than between two.
    classes = [
        (f"{kind}-N{n_scen}-n{n_assets}", kind, n_scen, n_assets)
        for kind, n_scen, n_assets in [
            ("mad", 20, 3), ("mad", 20, 4), ("mad", 30, 3), ("mad", 30, 4),
            ("mad", 40, 3), ("mad", 40, 4), ("cvar", 40, 3), ("cvar", 40, 4),
            ("cvar", 50, 3), ("cvar", 50, 4), ("cvar", 60, 4), ("cvar", 60, 4),
        ]
    ]

    def make(self, dv, rng, spec, shared):
        label, kind, n_scen, n_assets = spec
        returns = rng.normal(0.0, 0.2, size=(n_assets, n_scen))
        returns -= returns.mean(axis=1, keepdims=True)
        w = np.full(n_scen, 1.0 / n_scen)
        mu = rng.uniform(0.01, 0.1, size=n_assets)
        measure = ("mad",) if kind == "mad" else ("cvar", self.CVAR_ALPHA)
        c, a_ub, b_ub, bounds = oracle.compact_forward_lp(measure, returns, w, mu, DELTA)
        # devport's LP has free variables only: write z >= 0 as rows. The MAD
        # u >= |R'x| rows already keep u non-negative.
        if kind == "cvar":
            lower = [j for j, (lo, _hi) in enumerate(bounds) if lo == 0.0]
            rows = np.zeros((len(lower), c.size))
            rows[np.arange(len(lower)), lower] = -1.0
            a_ub = np.vstack([a_ub, rows])
            b_ub = np.concatenate([b_ub, np.zeros(len(lower))])
        problem = dv.lp.LinearProgram.build(c, a_ub, b_ub)
        return Problem(label, {"lp": problem, "c": c, "a_ub": a_ub, "b_ub": b_ub})

    def solve(self, dv, problem):
        sol = dv.lp.solve(problem.data["lp"])
        return {"status": sol.status, "value": sol.value}

    def check(self, problem, out):
        d = problem.data
        status, value = oracle.lp_optimum(d["c"], d["a_ub"], d["b_ub"])
        if out["status"] != status:
            return f"status {out['status']} but HiGHS says {status}"
        if status == "Optimal" and not oracle.close(out["value"], value):
            return f"objective {out['value']!r} differs from HiGHS {value!r}"
        return None


WORKLOADS = {w.name: w for w in (SelectorAllocation(), Cooperative(), ForwardInverse(),
                                 BlackLitterman(), CooperativeN5(), LpCompact())}
