"""Finitely generated deviation measures via risk-envelope vertex sets.

A deviation measure is represented by the extreme generators Q of its risk
envelope: D(X) = E[X] + max_Q E[-XQ], with E[Q] = 1 for every generator.
Builders cover MAD, CVaR and the mixture/max/scaling combinators. Every
envelope carries the `Measure` recipe it was built from, so closed-form
selectors and Black-Litterman transport read the recipe, not the vertices.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import geometry
from .errors import (
    DimensionMismatch,
    GuardExceeded,
    InternalCheckError,
    SpaceMismatch,
    TooManyScenarios,
    Unsupported,
    ValidationError,
)
from .probspace import FiniteProbSpace, RandomVariable, as_floats

MEAN_TOL = 1e-10
GEN_DEDUP_TOL = 1e-10
ACTIVITY_TOL = 1e-9
MAD_SCENARIO_GUARD = 20
CVAR_CANDIDATE_GUARD = 10**6
MEASURE_KINDS = ("mad", "cvar", "mix", "max", "custom")


@dataclass(frozen=True)
class Measure:
    """Recipe of a finitely generated deviation measure, free of any space.

    Kinds: "mad"; "cvar" with alpha in (0,1); "mix", the sum of
    lambda_i * D_i over its parts with positive lambdas; "max" of its parts;
    "custom" with its generators as given. `build` makes the envelope of a
    recipe on a space.
    """

    kind: str
    alpha: float | None = None
    parts: tuple["Measure", ...] = ()
    lambdas: tuple[float, ...] = ()
    generators: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self):
        if self.kind not in MEASURE_KINDS:
            raise ValidationError(f"unknown measure kind {self.kind!r}")
        if self.kind == "cvar":
            alpha = as_floats(self.alpha, "alpha")
            if alpha.ndim != 0 or not 0.0 < alpha < 1.0:
                raise ValidationError(f"alpha must lie in (0,1), got {self.alpha!r}")
            object.__setattr__(self, "alpha", float(alpha))
        if self.kind in ("mix", "max"):
            if not self.parts:
                raise ValidationError(f"a {self.kind} measure needs at least one part")
            object.__setattr__(self, "parts", tuple(self.parts))
        if self.kind == "mix":
            lambdas = as_floats(self.lambdas, "mixture weights")
            if lambdas.shape != (len(self.parts),):
                raise ValidationError("one weight per part required")
            if not np.all(lambdas > 0):
                raise ValidationError("mixture weights must be positive")
            object.__setattr__(self, "lambdas", tuple(lambdas.tolist()))
        if self.kind == "custom":
            g = np.atleast_2d(as_floats(self.generators, "generators"))
            if g.ndim != 2 or g.size == 0:
                raise ValidationError("custom generators must be a non-empty matrix")
            object.__setattr__(self, "generators", tuple(map(tuple, g.tolist())))

    @property
    def portable(self) -> bool:
        """Whether the recipe is free of custom generators, which are tied
        to the probabilities of the space they were written for."""
        return self.kind != "custom" and all(p.portable for p in self.parts)


@dataclass(frozen=True)
class RiskEnvelope:
    """Extreme risk generators of a finitely generated deviation measure,
    made extreme by their builder and never filtered again. MAD needs no
    filter: for Z's positive set S, c with c.1 = 0, c < 0 on S and c > 0
    off S maximises c.Q at Z alone, on any weights."""

    generators: np.ndarray  # one generator per row
    space: FiniteProbSpace
    measure: Measure

    def __post_init__(self):
        g = np.asarray(self.generators, dtype=float)
        if g.ndim == 1:
            g = g[None, :]
        if g.shape[0] == 0:
            raise ValidationError("envelope needs at least one generator")
        if g.shape[1] != self.space.n_scenarios:
            raise DimensionMismatch("generator length must match the scenario count")
        means = g @ self.space.weights
        if np.max(np.abs(means - 1.0)) > MEAN_TOL * 10:
            raise ValidationError("every generator must have expectation 1")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "generators", g)

    @property
    def n_generators(self) -> int:
        return self.generators.shape[0]

    def polytope(self) -> geometry.VPolytope:
        return geometry.VPolytope(self.generators)


@dataclass(frozen=True)
class RiskIdentifierSet:
    """Argmax face of the envelope for a particular X."""

    polytope: geometry.VPolytope
    x: np.ndarray
    value: float
    active_indices: tuple[int, ...]


def _require_same_space(space: FiniteProbSpace, x) -> np.ndarray:
    values = x.values if isinstance(x, RandomVariable) else np.asarray(x, dtype=float)
    if values.shape != (space.n_scenarios,):
        raise DimensionMismatch("variable does not match the scenario count")
    return values


def build_mad(space: FiniteProbSpace) -> RiskEnvelope:
    """Mean-absolute-deviation envelope: Q = 1 + E[Z] - Z over sign vectors.

    Z ranges over {-1,+1}^N with a non-empty proper positive set, giving
    2^N - 2 generators, all extreme for any weights (see `RiskEnvelope`).
    """
    n = space.n_scenarios
    if n > MAD_SCENARIO_GUARD:
        raise TooManyScenarios(
            f"MAD envelope needs 2^{n}-2 generators; guard is N <= {MAD_SCENARIO_GUARD}"
        )
    gens = []
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        z = np.asarray(signs)
        if np.all(z > 0) or np.all(z < 0):
            continue  # improper positive set collapses to the constant 1
        gens.append(1.0 + float(space.expectation(z)) - z)
    return RiskEnvelope(np.asarray(gens), space, Measure("mad"))


def _cvar_vertices(space: FiniteProbSpace, alpha: float) -> np.ndarray:
    """Vertices of {0 <= Q <= 1/alpha, E[Q] = 1}.

    Each vertex has at most one coordinate strictly between the bounds, so
    candidates are: a subset at the upper bound, one optional fractional
    coordinate, zeros elsewhere.
    """
    w = space.weights
    n = space.n_scenarios
    ub = 1.0 / alpha
    if space.is_uniform:
        # alpha = k/N puts exactly k coordinates at N/k.
        k = alpha * n
        if abs(k - round(k)) <= 1e-9 and round(k) >= 1:
            k = int(round(k))
            if comb(n, k) > CVAR_CANDIDATE_GUARD:
                raise GuardExceeded(
                    f"CVaR vertex count C({n},{k}) exceeds {CVAR_CANDIDATE_GUARD}"
                )
            out = []
            for subset in itertools.combinations(range(n), k):
                q = np.zeros(n)
                q[list(subset)] = n / k
                out.append(q)
            return np.asarray(out)
    if (2**n) * (n + 1) > CVAR_CANDIDATE_GUARD:
        raise GuardExceeded(
            f"CVaR candidate enumeration for N={n} exceeds {CVAR_CANDIDATE_GUARD}"
        )
    out = []
    for subset in itertools.product((0, 1), repeat=n):
        mask = np.asarray(subset, dtype=bool)
        mass = float(w[mask].sum()) * ub
        rem = 1.0 - mass
        if rem < -1e-12:
            continue
        if rem <= 1e-12:
            q = np.zeros(n)
            q[mask] = ub
            out.append(q)
            continue
        for f in np.flatnonzero(~mask):
            qf = rem / w[f]
            if qf <= ub + 1e-12:
                q = np.zeros(n)
                q[mask] = ub
                q[f] = min(qf, ub)
                out.append(q)
    if not out:
        raise InternalCheckError("CVaR envelope produced no vertices")
    return geometry._dedup(np.asarray(out), GEN_DEDUP_TOL)


def build_cvar(space: FiniteProbSpace, alpha: float) -> RiskEnvelope:
    """CVaR deviation envelope {Q : E[Q]=1, 0 <= Q <= 1/alpha}."""
    measure = Measure("cvar", alpha=alpha)
    return RiskEnvelope(_cvar_vertices(space, measure.alpha), space, measure)


def mixed_cvar(alphas, lambdas) -> Measure:
    """Recipe of sum(lambda_i * CVaR(alpha_i)) with weights summing to 1."""
    alphas = as_floats(alphas, "alphas")
    lambdas = as_floats(lambdas, "mixture weights")
    if alphas.ndim != 1 or alphas.shape != lambdas.shape:
        raise ValidationError("need matching alpha and lambda lists")
    if abs(float(lambdas.sum()) - 1.0) > 1e-10:
        raise ValidationError("mixture weights must sum to 1")
    parts = tuple(Measure("cvar", alpha=a) for a in alphas.tolist())
    return Measure("mix", parts=parts, lambdas=lambdas)


def build_mixed_cvar(space: FiniteProbSpace, alphas, lambdas) -> RiskEnvelope:
    """Mixture sum(lambda_i * CVaR(alpha_i)) as a Minkowski combination."""
    return build(mixed_cvar(alphas, lambdas), space)


def _shared_space(envelopes) -> FiniteProbSpace:
    if not envelopes:
        raise ValidationError("need at least one envelope")
    space = envelopes[0].space
    for e in envelopes[1:]:
        if not e.space.same_as(space):
            raise SpaceMismatch("envelopes live on different probability spaces")
    return space


def mix(envelopes, lambdas) -> RiskEnvelope:
    """Envelope of sum(lambda_i * D_i) for positive weights.

    When the weights do not sum to 1 the generators pick up the constant
    shift (1 - sum lambda) so that E[Q] = 1 still holds. The pairwise
    Minkowski sums keep only extreme points, and the shift keeps them so.
    """
    space = _shared_space(envelopes)
    measure = Measure("mix", parts=tuple(e.measure for e in envelopes), lambdas=lambdas)
    lams = measure.lambdas
    acc = geometry.VPolytope(lams[0] * envelopes[0].generators)
    for lam, e in zip(lams[1:], envelopes[1:]):
        acc = geometry.minkowski_sum(acc, geometry.VPolytope(lam * e.generators))
    return RiskEnvelope(acc.vertices + (1.0 - sum(lams)), space, measure)


def max_combine(envelopes) -> RiskEnvelope:
    """Envelope of max_i D_i: hull of the union of the envelopes."""
    space = _shared_space(envelopes)
    stacked = np.vstack([e.generators for e in envelopes])
    gens = geometry.extreme_filter(stacked, GEN_DEDUP_TOL).vertices
    return RiskEnvelope(
        gens, space, Measure("max", parts=tuple(e.measure for e in envelopes))
    )


def scale(env: RiskEnvelope, lam: float) -> RiskEnvelope:
    """Envelope of lambda * D: generators (1 - lambda) + lambda * Q."""
    return mix([env], [lam])


def build_custom(space: FiniteProbSpace, generators) -> RiskEnvelope:
    """User-supplied generator list; filtered to its extreme points.

    The recipe keeps the generators as given, so the points the filter
    dropped stay visible in diagnostics.
    """
    measure = Measure("custom", generators=generators)
    poly = geometry.extreme_filter(np.asarray(measure.generators), GEN_DEDUP_TOL)
    return RiskEnvelope(poly.vertices, space, measure)


def build(measure: Measure, space: FiniteProbSpace) -> RiskEnvelope:
    """The envelope of `measure` on `space`, made by the builder of its kind."""
    if measure.kind == "mad":
        return build_mad(space)
    if measure.kind == "cvar":
        return build_cvar(space, measure.alpha)
    if measure.kind == "custom":
        return build_custom(space, measure.generators)
    parts = [build(p, space) for p in measure.parts]
    if measure.kind == "mix":
        return mix(parts, measure.lambdas)
    return max_combine(parts)


def reject_non_finitely_generated(kind: str) -> None:
    """Standard deviation has no finite generator set: refuse it outright."""
    if kind in ("stddev", "std", "standard_deviation", "sigma"):
        raise Unsupported(
            "standard deviation is not finitely generated; its risk envelope "
            "is a ball, not a polytope, so this library cannot represent it"
        )


def evaluate(env: RiskEnvelope, x) -> float:
    """D(X) = E[X] + max over generators of E[-XQ]."""
    values = _require_same_space(env.space, x)
    weighted = env.space.weights * values
    mean = float(weighted.sum())
    return mean + float(np.max(-(env.generators @ weighted)))


def risk_identifiers(
    env: RiskEnvelope, x, tol: float = ACTIVITY_TOL
) -> RiskIdentifierSet:
    """Generators attaining the max in D(X), as the argmax face."""
    values = _require_same_space(env.space, x)
    weighted = env.space.weights * values
    scores = -(env.generators @ weighted)
    best = float(scores.max())
    active = scores >= best - tol * (1.0 + abs(best))
    idx = tuple(int(i) for i in np.flatnonzero(active))
    return RiskIdentifierSet(
        polytope=geometry.VPolytope(env.generators[active]),
        x=values,
        value=float(weighted.sum()) + best,
        active_indices=idx,
    )
