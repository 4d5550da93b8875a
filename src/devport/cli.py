"""Command-line front end.

Subcommands: forward, inverse, selector, steiner, alloc, coop, bl and
paper-examples (the golden regression table). Configs are JSON; output is
JSON on stdout with floats at 12 significant digits. Exit codes: 0 ok,
1 bad input, 2 numerical failure (guards, solver caps).
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import allocation, blacklitterman, envelope, forward, geometry, inverse
from .errors import (
    DevportError,
    RankDeficient,
    Unsupported,
    ValidationError,
    ZeroRiskPortfolio,
)
from .probspace import FiniteProbSpace, MarketModel, as_floats, center_market, ingest_csv

VALIDATION_EXIT = 1
NUMERICAL_EXIT = 2


def _fmt(obj):
    """Round floats to 12 significant digits for byte-stable output."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _fmt(obj.tolist())
    if isinstance(obj, dict):
        return {k: _fmt(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_fmt(v) for v in obj]
    return obj


def _emit(payload) -> None:
    json.dump(_fmt(payload), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _load_config(path) -> dict:
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    if cfg.get("schema", 1) != 1:
        raise ValidationError("unsupported config schema version")
    return cfg


def _number(value, what: str) -> float:
    value = as_floats(value, what)
    if value.ndim != 0:
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return float(value)


def _integer(value, what: str) -> int:
    number = _number(value, what)
    if not number.is_integer():
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(number)


def _space_from_config(cfg) -> FiniteProbSpace:
    spec = cfg.get("space")
    if not isinstance(spec, dict):
        raise ValidationError('config needs a "space" object')
    if "uniform" in spec:
        return FiniteProbSpace.uniform(_integer(spec["uniform"], "uniform"))
    if "weights" in spec:
        return FiniteProbSpace(as_floats(spec["weights"], "weights"))
    raise ValidationError('space needs "uniform" or "weights"')


def _market_from_config(cfg):
    space = None if cfg.get("space") is None else _space_from_config(cfg)
    returns = cfg.get("returns")
    if returns is None:
        raise ValidationError("config needs a returns source")
    if isinstance(returns, dict) and "csv" in returns:
        raw, csv_space = ingest_csv(returns["csv"])
        if space is None:
            space = csv_space
        elif space.n_scenarios != csv_space.n_scenarios:
            raise ValidationError("space and CSV scenario counts disagree")
    else:
        raw = as_floats(returns, "returns")
        if space is None:
            raise ValidationError("inline returns need an explicit space")
    r0 = _number(cfg.get("r0", 0.0), "r0")
    delta = _number(cfg.get("delta", cfg.get("delta_m", 0.0)), "delta")
    if cfg.get("centered", False):
        if "mu" not in cfg:
            raise ValidationError("centered returns need an explicit mu")
        market = MarketModel(raw, as_floats(cfg["mu"], "mu"), r0, delta, space)
    else:
        market = center_market(raw, space, r0, delta)
        if "mu" in cfg:
            market = MarketModel(
                market.centered_returns, as_floats(cfg["mu"], "mu"), r0, delta, space
            )
    return market


def _nonempty_list(spec, key) -> list:
    value = spec[key]
    if not isinstance(value, list) or not value:
        raise ValidationError(f'"{key}" must be a non-empty list')
    return value


def _measure_from_spec(spec) -> envelope.Measure:
    """Parse a JSON measure spec; `mixed_cvar` and `scale` spell mix recipes."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError('measure spec needs a "kind"')
    kind = spec["kind"]
    envelope.reject_non_finitely_generated(kind)
    if kind == "cvar":
        return envelope.Measure("cvar", alpha=spec["alpha"])
    if kind == "custom":
        return envelope.Measure("custom", generators=spec["generators"])
    if kind == "mixed_cvar":
        terms = _nonempty_list(spec, "terms")
        if not all(isinstance(t, dict) for t in terms):
            raise ValidationError('"terms" must hold {"alpha", "lambda"} objects')
        return envelope.mixed_cvar(
            [t["alpha"] for t in terms], [t["lambda"] for t in terms]
        )
    if kind == "scale":
        inner = _measure_from_spec(spec["inner"])
        return envelope.Measure("mix", parts=(inner,), lambdas=(spec["lambda"],))
    if kind in ("mix", "max"):
        parts = tuple(_measure_from_spec(p) for p in _nonempty_list(spec, "parts"))
        if kind == "max":
            return envelope.Measure("max", parts=parts)
        lambdas = spec.get("lambdas", [1.0 / len(parts)] * len(parts))
        return envelope.Measure("mix", parts=parts, lambdas=lambdas)
    return envelope.Measure(kind)


def _steiner_config(cfg) -> geometry.SteinerConfig:
    return geometry.SteinerConfig(
        samples=_integer(cfg.get("samples", geometry.DEFAULT_SAMPLES), "samples"),
        seed=_integer(cfg.get("seed", 0), "seed"),
    )


def _cmd_forward(cfg) -> dict:
    market = _market_from_config(cfg)
    env = envelope.build(_measure_from_spec(cfg["measure"]), market.space)
    sol = forward.solve_forward(market, env, _number(cfg["delta"], "delta"))
    report = forward.diagnose_uniqueness(sol, market.mu)
    return {
        "value": sol.value,
        "x": sol.x.tolist(),
        "unique": sol.unique,
        "optimal_vertices": sol.optimal_set.vertices.tolist(),
        "active_generators": list(sol.active_generators),
        "diagnosis": report,
    }


def _cmd_inverse(cfg) -> dict:
    market = _market_from_config(cfg)
    env = envelope.build(_measure_from_spec(cfg["measure"]), market.space)
    x_m = as_floats(cfg["x_m"], "x_m")
    delta_m = _number(cfg["delta_m"], "delta_m")
    inv = inverse.inverse_solution_set(market, env, x_m, delta_m)
    mu = inverse.robust_mu(market, env, x_m, delta_m, _steiner_config(cfg))
    return {
        "vertices": inv.polytope.vertices.tolist(),
        "delta_scale": inv.delta_scale,
        "active_generators": list(inv.active_indices),
        "robust_mu": mu.tolist(),
    }


def _cmd_selector(cfg) -> dict:
    space = _space_from_config(cfg)
    env = envelope.build(_measure_from_spec(cfg["measure"]), space)
    x = as_floats(cfg["x"], "x")
    kind = cfg.get("selector", "robust")
    if kind == "robust":
        q = inverse.robust_selector(env, x, _steiner_config(cfg)).values
    elif kind == "law_invariant":
        q = inverse.law_invariant_selector(env, x).values
    else:
        raise ValidationError(f"unknown selector kind {kind!r}")
    return {"selector": kind, "identifier": q.tolist()}


def _cmd_steiner(cfg) -> dict:
    verts = as_floats(cfg["vertices"], "vertices")
    point, err = geometry.steiner_point(
        geometry.VPolytope(verts), _steiner_config(cfg)
    )
    return {"point": point.tolist(), "standard_error": err.tolist()}


def _cmd_alloc(cfg) -> dict:
    space = _space_from_config(cfg)
    env = envelope.build(_measure_from_spec(cfg["measure"]), space)
    risk = allocation.deviation_function(env)
    parts = as_floats(cfg["subportfolios"], "subportfolios")
    if parts.ndim != 2:
        raise ValidationError('"subportfolios" must be a list of payoff vectors')
    res = allocation.capital_allocation(risk, list(parts), _steiner_config(cfg))
    return {
        "contributions": res.contributions.tolist(),
        "total_risk": res.total_risk,
        "gradient": res.gradient.tolist(),
    }


def _cmd_coop(cfg) -> dict:
    space = _space_from_config(cfg)
    returns = as_floats(cfg["returns"], "returns")
    specs = _nonempty_list(cfg, "measures")
    envs = [envelope.build(_measure_from_spec(s), space) for s in specs]
    capital = cfg.get("capital")
    capital = None if capital is None else _number(capital, "capital")
    sol = allocation.solve_cooperative(
        returns, space, envs, capital, _steiner_config(cfg)
    )
    return {
        "weights": sol.weights.tolist(),
        "joint_payoff": sol.joint_payoff.tolist(),
        "shares": sol.shares.tolist(),
        "utilities": sol.utilities.tolist(),
        "total_utility": sol.total_utility,
        "critical_identifier": sol.critical_identifier.tolist(),
        "side_payments": sol.side_payments.tolist(),
        "final_shares": sol.final_shares.tolist(),
        "coalition_vertices": sol.coalition_envelope.generators.tolist(),
    }


def _cmd_bl(cfg) -> dict:
    market = _market_from_config(cfg)
    env = envelope.build(_measure_from_spec(cfg["measure"]), market.space)
    views = None
    override = None
    if "views" in cfg:
        v = cfg["views"]
        if not isinstance(v, dict):
            raise ValidationError('"views" must be an object')
        if "posterior_weights" in v:
            override = as_floats(v["posterior_weights"], "posterior_weights")
        else:
            views = blacklitterman.Views(
                as_floats(v["pick"], "pick"),
                as_floats(v["values"], "values"),
                as_floats(v["noise_cov"], "noise_cov"),
            )
    res = blacklitterman.bl_pipeline(
        market,
        env,
        as_floats(cfg["x_m"], "x_m"),
        _number(cfg["delta_m"], "delta_m"),
        views=views,
        posterior_weights=override,
        config=_steiner_config(cfg),
    )
    return {
        "mu_eq": res.mu_eq.tolist(),
        "posterior_weights": res.posterior_space.weights.tolist(),
        "mu_post": res.mu_post.tolist(),
        "x": res.solution.x.tolist(),
        "value": res.solution.value,
        "unique": res.solution.unique,
        "optimal_vertices": res.solution.optimal_set.vertices.tolist(),
        "active_generators": list(res.solution.active_generators),
    }


# --- golden regression cases -------------------------------------------------


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
    import itertools as it

    return np.unique(np.asarray(list(it.permutations(vals))), axis=0)


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


def _golden_cases():
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
        from . import lp as lp_mod

        problem = lp_mod.LinearProgram.build(
            [0.0, 0.0, 1.0],
            a_ub=[
                [1.0, 0.0, -1.0],
                [0.0, 1.0, -1.0],
                [-1.0, -1.0, -1.0],
                [0.0, -1.0, 0.0],
            ],
            b_ub=[0.0, 0.0, 0.0, -0.8],
        )
        sol = lp_mod.solve(problem)
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


def _cmd_paper_examples(_cfg=None) -> dict:
    rows = []
    failures = 0
    for name, fn in _golden_cases():
        try:
            ok, detail = fn()
        except DevportError as exc:
            ok, detail = False, f"error: {exc}"
        rows.append({"case": name, "pass": bool(ok), "detail": str(detail)})
        if not ok:
            failures += 1
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}: {detail}", file=sys.stderr)
    return {"cases": rows, "failures": failures}


_COMMANDS = {
    "forward": _cmd_forward,
    "inverse": _cmd_inverse,
    "selector": _cmd_selector,
    "steiner": _cmd_steiner,
    "alloc": _cmd_alloc,
    "coop": _cmd_coop,
    "bl": _cmd_bl,
}


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="devport",
        description="Mean-deviation portfolio optimization on finite scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_COMMANDS) + ["paper-examples"]:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON config")
        p.add_argument("--vertices", help="inline JSON vertex list (steiner)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        if args.command == "paper-examples":
            result = _cmd_paper_examples()
            _emit(result)
            return 0 if result["failures"] == 0 else NUMERICAL_EXIT
        cfg = _load_config(args.config) if args.config else {}
        if args.vertices is not None:
            try:
                cfg["vertices"] = json.loads(args.vertices)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"bad --vertices JSON: {exc}") from exc
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.samples is not None:
            cfg["samples"] = args.samples
        cfg.setdefault("seed", 0)
        try:
            result = _COMMANDS[args.command](cfg)
        except KeyError as exc:
            raise ValidationError(f"config is missing key {exc}") from exc
        _emit(result)
        return 0
    except (ValidationError, RankDeficient, Unsupported, ZeroRiskPortfolio) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except DevportError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        print(f"error: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
