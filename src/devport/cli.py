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
from .golden import golden_cases
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


def _cmd_paper_examples(_cfg=None) -> dict:
    rows = []
    failures = 0
    for name, fn in golden_cases():
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
