"""Independent correctness checks for the benchmark's problems.

Nothing here calls devport. Deviations are evaluated in numpy from their
closed forms, and optima come from scipy's HiGHS on the compact LPs:
Konno-Yamazaki for MAD and Rockafellar-Uryasev for CVaR and its mixtures.
Each check returns None when the answer holds, or a short reason.

A measure is given as a tuple: ("mad",), ("cvar", alpha),
("mixed", ((alpha, lambda), ...)) or ("custom", generators).
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

REL_TOL = 1e-6


def close(a, b, tol: float = REL_TOL) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    return a.shape == b.shape and float(np.max(np.abs(a - b), initial=0.0)) <= tol * scale


def _lower_tail_mean(x: np.ndarray, w: np.ndarray, alpha: float) -> float:
    """Mean of the lowest alpha of probability mass of x."""
    order = np.argsort(x)
    mass = np.minimum(np.cumsum(w[order]), alpha)
    taken = np.diff(np.concatenate([[0.0], mass]))
    return float(taken @ x[order]) / alpha


def deviation(measure, x, w) -> float:
    """D(X) = E[X] + max over the envelope of E[-XQ], from closed forms."""
    x = np.asarray(x, dtype=float)
    mean = float(w @ x)
    kind = measure[0]
    if kind == "mad":
        return float(w @ np.abs(x - mean))
    if kind == "cvar":
        return mean - _lower_tail_mean(x, w, measure[1])
    if kind == "mixed":
        return sum(lam * (mean - _lower_tail_mean(x, w, a)) for a, lam in measure[1])
    if kind == "custom":
        return mean + float(np.max(-(measure[1] @ (w * x))))
    raise ValueError(f"unknown measure {kind!r}")


def in_hull(points: np.ndarray, q: np.ndarray) -> bool:
    m = points.shape[0]
    a_eq = np.vstack([points.T, np.ones(m)])
    b_eq = np.concatenate([q, [1.0]])
    res = linprog(np.zeros(m), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return res.status == 0


def in_envelope(measure, q, w, tol: float = 1e-8) -> bool:
    """Whether q lies in the measure's risk envelope."""
    q = np.asarray(q, dtype=float)
    if abs(float(w @ q) - 1.0) > tol:
        return False
    kind = measure[0]
    if kind == "mad":
        # Q = 1 + E[Z] - Z over Z in [-1, 1]^N: exactly a range of at most 2.
        return float(q.max() - q.min()) <= 2.0 + tol
    if kind == "cvar":
        return q.min() >= -tol and q.max() <= 1.0 / measure[1] + tol
    if kind == "mixed":
        terms = measure[1]
        n, k = q.size, len(terms)
        # q = sum_i lambda_i q_i with each q_i in its CVaR envelope.
        a_eq = np.zeros((n + k, n * k))
        for i, (_alpha, lam) in enumerate(terms):
            a_eq[:n, i * n : (i + 1) * n] = lam * np.eye(n)
            a_eq[n + i, i * n : (i + 1) * n] = w
        b_eq = np.concatenate([q, np.ones(k)])
        bounds = [(0.0, 1.0 / alpha) for alpha, _lam in terms for _ in range(n)]
        res = linprog(np.zeros(n * k), A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
        return res.status == 0
    if kind == "custom":
        return in_hull(measure[1], q)
    raise ValueError(f"unknown measure {kind!r}")


def compact_forward_lp(measure, returns, w, mu, delta):
    """min D(R'x) s.t. mu.x >= delta, x free, as (c, A_ub, b_ub, bounds).

    returns is centered under w, one row per asset. Free variables come
    first: x, then one t per CVaR term; the rest are non-negative.
    """
    n, n_scen = returns.shape
    kind = measure[0]
    if kind == "mad":
        # u_j >= |(R'x)_j|; objective sum_j w_j u_j.
        c = np.concatenate([np.zeros(n), w])
        top = np.hstack([returns.T, -np.eye(n_scen)])
        bottom = np.hstack([-returns.T, -np.eye(n_scen)])
        a_ub = np.vstack([top, bottom])
        n_free = n
    else:
        terms = [(measure[1], 1.0)] if kind == "cvar" else list(measure[1])
        k = len(terms)
        # Per term i: t_i + (1/alpha_i) E[z_i], z_ij >= -(R'x)_j - t_i.
        c = np.concatenate(
            [np.zeros(n), [lam for _a, lam in terms]]
            + [lam / alpha * w for alpha, lam in terms]
        )
        blocks = []
        for i in range(k):
            block = np.zeros((n_scen, n + k + k * n_scen))
            block[:, :n] = -returns.T
            block[:, n + i] = -1.0
            block[:, n + k + i * n_scen : n + k + (i + 1) * n_scen] = -np.eye(n_scen)
            blocks.append(block)
        a_ub = np.vstack(blocks)
        n_free = n + k
    target = np.zeros(a_ub.shape[1])
    target[:n] = -np.asarray(mu, dtype=float)
    a_ub = np.vstack([a_ub, target])
    b_ub = np.concatenate([np.zeros(a_ub.shape[0] - 1), [-delta]])
    bounds = [(None, None)] * n_free + [(0.0, None)] * (a_ub.shape[1] - n_free)
    return c, a_ub, b_ub, bounds


def forward_optimum(measure, returns, w, mu, delta) -> float:
    c, a_ub, b_ub, bounds = compact_forward_lp(measure, returns, w, mu, delta)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS could not solve the forward LP: {res.message}")
    return float(res.fun)


def check_forward(measure, returns, w, mu, delta, value, x) -> str | None:
    """A* against HiGHS, and x feasible and attaining it."""
    ref = forward_optimum(measure, returns, w, mu, delta)
    if not close(value, ref):
        return f"A* {value!r} differs from HiGHS {ref!r}"
    if float(np.asarray(mu) @ x) < delta - REL_TOL * (1.0 + delta):
        return "optimal portfolio misses the target return"
    if not close(deviation(measure, returns.T @ x, w), ref):
        return "optimal portfolio does not attain A*"
    return None


def check_robust_mu(measure, returns, w, x_m, delta_m, mu) -> str | None:
    """x_M must be optimal under mu: re-solve with HiGHS, compare D(R'x_M)."""
    mu = np.asarray(mu, dtype=float)
    if not close(mu @ x_m, delta_m):
        return f"mu.x_M = {float(mu @ x_m)!r}, not Delta_M = {delta_m!r}"
    ref = forward_optimum(measure, returns, w, mu, delta_m)
    dev = deviation(measure, returns.T @ x_m, w)
    if not close(ref, dev):
        return f"x_M is not optimal under the returned mu ({dev!r} > {ref!r})"
    return None


def check_identifier(measure, x, w, q) -> str | None:
    """q is in the envelope and attains D(X) = E[X] + E[-Xq]."""
    if not in_envelope(measure, q, w):
        return "selector output is outside the risk envelope"
    x = np.asarray(x, dtype=float)
    got = float(w @ x) - float(w @ (x * q))
    if not close(got, deviation(measure, x, w)):
        return f"identifier identity fails: {got!r} vs D(X) {deviation(measure, x, w)!r}"
    return None


def posterior_weights(prior_w, returns, mu_eq, pick, values, noise_cov) -> np.ndarray:
    """Black-Litterman scenario reweighting by the Gaussian view likelihood."""
    resid = values[:, None] - (pick @ mu_eq)[:, None] - pick @ returns
    sol = np.linalg.solve(noise_cov, resid)
    log_w = np.log(prior_w) - 0.5 * np.sum(resid * sol, axis=0)
    weights = np.exp(log_w - log_w.max())
    return weights / weights.sum()


def lp_optimum(c, a_ub, b_ub):
    """HiGHS verdict on min c.x s.t. A_ub x <= b_ub, x free: (status, value)."""
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
    status = {0: "Optimal", 2: "Infeasible", 3: "Unbounded"}.get(res.status)
    if status is None:
        raise RuntimeError(f"HiGHS gave no verdict: {res.message}")
    return status, (float(res.fun) if status == "Optimal" else None)


def cooperative_utility(returns, w, generator_sets, capital) -> float:
    """max sum_i min_{Q in env_i} E[Q Y_i] over splits of capital * R'x, sum x = 1."""
    returns = np.asarray(returns, dtype=float)
    n, n_scen = returns.shape
    m = len(generator_sets)
    n_vars = m + m * n_scen + n
    rows = []
    for i, gens in enumerate(generator_sets):
        block = np.zeros((gens.shape[0], n_vars))
        block[:, i] = 1.0
        block[:, m + i * n_scen : m + (i + 1) * n_scen] = -(gens * w)
        rows.append(block)
    a_eq = np.zeros((n_scen + 1, n_vars))
    for i in range(m):
        a_eq[:n_scen, m + i * n_scen : m + (i + 1) * n_scen] = np.eye(n_scen)
    a_eq[:n_scen, m + m * n_scen :] = -capital * returns.T
    a_eq[n_scen, m + m * n_scen :] = 1.0
    b_eq = np.concatenate([np.zeros(n_scen), [1.0]])
    c = np.zeros(n_vars)
    c[:m] = -1.0
    a_ub = np.vstack(rows)
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]), A_eq=a_eq, b_eq=b_eq,
                  bounds=(None, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS could not solve the cooperative LP: {res.message}")
    return -float(res.fun)
