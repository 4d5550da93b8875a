"""Finite probability spaces, random variables and market models.

A scenario space with N outcomes is identified with R^N: a random variable
is a payoff vector, expectations are weighted sums. Market models carry
centered excess returns (one row per asset, one column per scenario).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AssumptionViolation,
    DimensionMismatch,
    EmptyIntersection,
    ParseError,
    RankDeficient,
    ValidationError,
)

WEIGHT_TOL = 1e-12
CENTER_TOL = 1e-10
PIVOT_TOL = 1e-10
CONSISTENCY_TOL = 1e-8


def as_floats(values, what: str) -> np.ndarray:
    """`values` as a finite float array, else a ValidationError naming `what`."""
    try:
        out = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be numeric, got {values!r}") from None
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"{what} must be finite, got {values!r}")
    return out


@dataclass(frozen=True)
class FiniteProbSpace:
    """Finite probability space given by strictly positive scenario weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("weights must be a non-empty vector")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite")
        if np.any(w <= 0):
            raise ValidationError("every scenario weight must be strictly positive")
        total = w.sum()
        if abs(total - 1.0) > WEIGHT_TOL * w.size:
            raise ValidationError(
                f"weights sum to {total!r}, not 1 (tolerance {WEIGHT_TOL})"
            )
        # Renormalize only within tolerance; larger errors were rejected above.
        w = w / total
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, n: int) -> "FiniteProbSpace":
        if n < 1:
            raise ValidationError("need at least one scenario")
        return cls(np.full(n, 1.0 / n))

    @property
    def n_scenarios(self) -> int:
        return self.weights.size

    @property
    def is_uniform(self) -> bool:
        return bool(np.all(np.abs(self.weights - self.weights[0]) <= WEIGHT_TOL))

    def expectation(self, values) -> float:
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != self.n_scenarios:
            raise DimensionMismatch(
                f"expected {self.n_scenarios} scenario values, got {values.shape[-1]}"
            )
        return values @ self.weights

    def __eq__(self, other):
        return isinstance(other, FiniteProbSpace) and np.array_equal(
            self.weights, other.weights
        )

    def __hash__(self):
        return hash(self.weights.tobytes())

    def same_as(self, other: "FiniteProbSpace", tol: float = WEIGHT_TOL) -> bool:
        return (
            self.n_scenarios == other.n_scenarios
            and float(np.max(np.abs(self.weights - other.weights))) <= tol
        )


@dataclass(frozen=True)
class RandomVariable:
    """Scenario-indexed payoff vector on a finite probability space."""

    values: np.ndarray
    space: FiniteProbSpace

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValidationError("values must be a vector")
        if v.size != self.space.n_scenarios:
            raise DimensionMismatch(
                f"variable has {v.size} values but space has "
                f"{self.space.n_scenarios} scenarios"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def expectation(self) -> float:
        return float(self.space.expectation(self.values))


def expectation(space: FiniteProbSpace, rv) -> float:
    """E[X] = sum_j w_j x_j for a RandomVariable or raw vector."""
    values = rv.values if isinstance(rv, RandomVariable) else rv
    return float(space.expectation(values))


def independent_rows(a, b=None, tol: float = PIVOT_TOL) -> list[int]:
    """Indices of a maximal independent row set of A, by Gaussian
    elimination with partial pivoting.

    Pivots count as zero at or below `tol` relative to the largest row norm
    of [A|b], so the result is scale invariant. With a right-hand side b
    the system A z = b must be consistent: the rows that do not enter the
    basis must vanish, b column included, else EmptyIntersection.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    work = a.copy() if b is None else np.hstack([a, np.reshape(b, (-1, 1))])
    if work.size == 0:
        return []
    scale = float(np.max(np.linalg.norm(work, axis=1)))
    m, n = a.shape
    perm = list(range(m))
    rank = 0
    for col in range(n):
        if rank == m:
            break
        pivot_row = rank + int(np.argmax(np.abs(work[rank:, col])))
        if abs(work[pivot_row, col]) <= tol * scale:
            continue
        work[[rank, pivot_row]] = work[[pivot_row, rank]]
        perm[rank], perm[pivot_row] = perm[pivot_row], perm[rank]
        factors = work[rank + 1 :, col] / work[rank, col]
        work[rank + 1 :] -= np.outer(factors, work[rank])
        rank += 1
    residual = np.max(np.abs(work[rank:]), initial=0.0)
    if b is not None and residual > CONSISTENCY_TOL * scale:
        raise EmptyIntersection("inconsistent equality system")
    return sorted(perm[:rank])


def matrix_rank(a: np.ndarray, tol: float = PIVOT_TOL) -> int:
    """Row rank of A; see `independent_rows`."""
    return len(independent_rows(a, tol=tol))


@dataclass(frozen=True)
class MarketModel:
    """Centered excess returns plus expected excess returns and a target.

    centered_returns has one row per asset and one column per scenario;
    every row has zero expectation under the space. Assumption of
    non-degeneracy: no non-zero portfolio has a constant return, which is
    equivalent to the centered matrix having full row rank.
    """

    centered_returns: np.ndarray
    mu: np.ndarray
    riskless_rate: float
    target: float
    space: FiniteProbSpace

    def __post_init__(self):
        r = np.asarray(self.centered_returns, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        if r.ndim != 2:
            raise ValidationError("centered_returns must be a 2-d matrix")
        if r.shape[1] != self.space.n_scenarios:
            raise DimensionMismatch(
                f"returns have {r.shape[1]} scenario columns but space has "
                f"{self.space.n_scenarios}"
            )
        if mu.shape != (r.shape[0],):
            raise DimensionMismatch("mu must have one entry per asset")
        means = r @ self.space.weights
        if np.max(np.abs(means), initial=0.0) > CENTER_TOL:
            raise ValidationError("centered_returns rows must have zero expectation")
        if matrix_rank(r) < r.shape[0]:
            raise RankDeficient(
                "centered return matrix is rank deficient: some non-zero "
                "portfolio has a constant return"
            )
        r = r.copy()
        r.setflags(write=False)
        mu = mu.copy()
        mu.setflags(write=False)
        object.__setattr__(self, "centered_returns", r)
        object.__setattr__(self, "mu", mu)

    @property
    def n_assets(self) -> int:
        return self.centered_returns.shape[0]

    def portfolio_return(self, x) -> RandomVariable:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_assets,):
            raise DimensionMismatch("portfolio must have one weight per asset")
        return RandomVariable(self.centered_returns.T @ x, self.space)

    def require_optimizable(self, delta: float | None = None) -> float:
        """Check the positive-target / non-zero-mean assumption."""
        delta = self.target if delta is None else float(delta)
        if not delta > 0:
            raise AssumptionViolation(f"target excess return must be positive, got {delta}")
        if float(np.max(np.abs(self.mu), initial=0.0)) == 0.0:
            raise AssumptionViolation("mean excess return vector must be non-zero")
        return delta


def center_market(
    raw_returns,
    space: FiniteProbSpace,
    r0: float = 0.0,
    delta: float = 0.0,
) -> MarketModel:
    """Center raw asset returns and derive expected excess returns.

    raw_returns is (n_assets, n_scenarios). Each row is shifted by its
    expectation; mu_i = E[r_i] - r0.
    """
    raw = np.asarray(raw_returns, dtype=float)
    if raw.ndim != 2:
        raise ValidationError("raw_returns must be a 2-d matrix")
    if not np.all(np.isfinite(raw)):
        raise ValidationError("raw_returns must be finite")
    if raw.shape[1] != space.n_scenarios:
        raise DimensionMismatch(
            f"raw_returns has {raw.shape[1]} scenario columns but space has "
            f"{space.n_scenarios}"
        )
    means = raw @ space.weights
    centered = raw - means[:, None]
    # Exact re-centering so downstream zero-mean checks are tight.
    centered -= (centered @ space.weights)[:, None]
    mu = means - r0
    return MarketModel(centered, mu, float(r0), float(delta), space)


def ingest_csv(path) -> tuple[np.ndarray, FiniteProbSpace]:
    """Read a scenario CSV: one row per scenario, one column per asset.

    An optional single header row is detected by a non-numeric first row.
    Returns the raw return matrix in (n_assets, n_scenarios) layout plus an
    equiprobable space with one scenario per data row.
    """
    with open(path, newline="") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        raise ParseError(f"{path}: file is empty")

    def parse_row(line, row_index):
        cells = [c.strip() for c in line.split(",")]
        out = []
        for j, cell in enumerate(cells):
            try:
                out.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric value {cell!r} at row {row_index + 1}, "
                    f"column {j + 1}",
                    row=row_index + 1,
                    column=j + 1,
                ) from None
        return out

    start = 0
    try:
        first = parse_row(lines[0], 0)
    except ParseError:
        start = 1  # header row
        first = None
    rows = [] if first is None else [first]
    for i in range(start + len(rows), len(lines)):
        rows.append(parse_row(lines[i], i))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(
                f"{path}: ragged row {start + i + 1}: expected {width} columns, "
                f"got {len(row)}",
                row=start + i + 1,
            )
    data = np.asarray(rows, dtype=float)
    return data.T.copy(), FiniteProbSpace.uniform(data.shape[0])
