"""Vertex-represented polytopes and Steiner-point machinery.

Everything here works on finite vertex lists in R^d. Degenerate
(lower-dimensional) polytopes are ordinary citizens: the Steiner point is
computed inside the affine hull, where it is exact for hull dimension
0, 1 and 2 and Monte-Carlo estimated above that.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import lp
from .errors import (
    DimensionGuard,
    DimensionMismatch,
    EmptyIntersection,
    GuardExceeded,
    UnboundedFace,
    ValidationError,
)
from .probspace import independent_rows

DEDUP_TOL = 1e-10
FACE_DEDUP_TOL = 1e-8
ACTIVITY_TOL = 1e-9
TIE_TOL = 1e-12
HULL_RANK_TOL = 1e-9
INTERSECT_DIM_GUARD = 8
SUBSET_GUARD = 500_000
DEFAULT_SAMPLES = 65_536
MC_CHUNK = 8192  # Monte-Carlo directions scored at once


@dataclass(frozen=True)
class SteinerConfig:
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    method: str = "auto"  # "auto" (exact for hull dim <= 2) or "montecarlo"

    def __post_init__(self):
        for name in ("samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.samples < 2:
            raise ValidationError("samples must be at least 2 for a standard error")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if self.method not in ("auto", "montecarlo"):
            raise ValidationError(f"unknown Steiner method {self.method!r}")


@dataclass(frozen=True)
class VPolytope:
    """Convex polytope, the hull of its rows. Only `extreme_filter`,
    `minkowski_sum`, `intersect` and `enumerate_face_vertices` promise
    that every row is extreme."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim == 1:
            v = v[None, :]
        if v.size == 0:
            raise ValidationError("polytope needs at least one vertex")
        if not np.all(np.isfinite(v)):
            raise ValidationError("vertices must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def translate(self, q) -> "VPolytope":
        return VPolytope(self.vertices + np.asarray(q, dtype=float))


def _dedup(points: np.ndarray, tol: float = DEDUP_TOL) -> np.ndarray:
    """Drop near-duplicate rows (sup-norm tolerance), keeping first seen.

    A row equal to an earlier row shares its fate, so only first
    occurrences are compared, each with every row kept so far at once.
    """
    _, first = np.unique(points, axis=0, return_index=True)
    kept = np.empty_like(points)
    n_kept = 0
    for p in points[np.sort(first)]:
        if not np.any(np.max(np.abs(kept[:n_kept] - p), axis=1) <= tol):
            kept[n_kept] = p
            n_kept += 1
    return kept[:n_kept].copy()


def contains(poly: VPolytope, point, tol: float = 1e-9) -> bool:
    """Membership via an LP over convex-combination weights."""
    v = poly.vertices
    point = np.asarray(point, dtype=float)
    if point.shape != (poly.dim,):
        raise DimensionMismatch("point dimension mismatch")
    m = v.shape[0]
    a_eq = np.vstack([v.T, np.ones(m)])
    b_eq = np.concatenate([point, [1.0]])
    # Slack the equalities by tol so borderline points count as inside.
    a_ub = np.vstack([-np.eye(m), a_eq, -a_eq])
    b_ub = np.concatenate([np.zeros(m), b_eq + tol, -(b_eq - tol)])
    return lp.feasible(a_ub=a_ub, b_ub=b_ub, n_vars=m)


def _sure_extreme(points: np.ndarray) -> np.ndarray:
    """Mask of distinct points that `extreme_filter` is certain to keep.

    The directions h are ±e_k and each point minus the centroid, taken in
    coordinates where the points have unit covariance. A point that beats
    every other point along some h by more than 1e-7·s²·(1 + ‖h‖₁), with s
    the largest |coordinate| or 1, is sure. `contains` accepts p against
    columns q_j when some λ >= 0 has |Σλ_j q_j - p|∞ and |Σλ_j - 1| within
    1e-9, and the solver certifies each row to a further 1e-9·(2 + s):
    together at most ε <= 4e-9·s. With M = max_j h·q_j, so |M| <= s·‖h‖₁,
    that gives h·p - M <= ε(|M| + ‖h‖₁) <= 8e-9·s²·‖h‖₁, below the margin,
    so no subset of the other points absorbs a sure point.
    """
    m, d = points.shape
    scale = max(float(np.abs(points).max()), 1.0)
    u, sv, vt = np.linalg.svd(points - points.mean(axis=0), full_matrices=False)
    r = sv > HULL_RANK_TOL * sv[0]
    eye = np.eye(d)
    dirs = np.vstack([(u[:, r] / sv[r]) @ vt[r], eye, -eye])
    values = points @ dirs.T
    top = np.argmax(values, axis=0)
    cols = np.arange(dirs.shape[0])
    best = values[top, cols]
    values[top, cols] = -np.inf
    lead = best - values.max(axis=0)
    margin = 1e-7 * scale**2 * (1.0 + np.abs(dirs).sum(axis=1))
    sure = np.zeros(m, dtype=bool)
    sure[top[lead > margin]] = True
    return sure


def extreme_filter(points, tol: float = DEDUP_TOL) -> VPolytope:
    """Keep exactly the points that are extreme in the hull of the list.

    After deduplication at `tol`, a point is dropped when `contains` finds
    it within 1e-9 of the hull of the points still kept. The rows that stay
    come back in their input order. The LPs scale with the output:

    1. Prescreen. One matrix product finds points sure to be kept
       (`_sure_extreme`).
    2. Drop test. Every other point is tested against the sure points
       alone. Their hull lies inside the hull of whatever is kept, so a
       point dropped here is dropped by the full test too.
    3. Fallback. The points still open take the full test, in order,
       against every other point not yet dropped. The points that step 2
       dropped lie within 1e-9 of the hull of the sure points, so leaving
       them out moves the hull by no more than the test's own slack.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[None, :]
    if points.size == 0:
        raise ValidationError("empty point list")
    if not np.all(np.isfinite(points)):
        raise ValidationError("points must be finite")
    points = _dedup(points, tol)
    m = points.shape[0]
    if m == 1:
        return VPolytope(points)
    sure = _sure_extreme(points)
    keep = np.ones(m, dtype=bool)
    if sure.any():
        frame = VPolytope(points[sure])
        for i in np.flatnonzero(~sure):
            if contains(frame, points[i], tol=1e-9):
                keep[i] = False
    for i in np.flatnonzero(keep & ~sure):
        others = points[keep & (np.arange(m) != i)]
        if others.shape[0] == 0:
            continue
        if contains(VPolytope(others), points[i], tol=1e-9):
            keep[i] = False
    return VPolytope(points[keep])


def minkowski_sum(p1: VPolytope, p2: VPolytope) -> VPolytope:
    if p1.dim != p2.dim:
        raise DimensionMismatch("summands have different dimensions")
    sums = (p1.vertices[:, None, :] + p2.vertices[None, :, :]).reshape(-1, p1.dim)
    return extreme_filter(sums)


def _basic_feasible_solutions(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vertices of {z >= 0 : A z = b} by basic-solution enumeration."""
    m, n = a.shape
    norm = max(np.abs(a).max(), np.abs(b).max(initial=0.0), 1.0)
    rows = independent_rows(a, b)
    a_red = a[rows]
    b_red = b[rows]
    r = a_red.shape[0]
    if comb(n, r) > SUBSET_GUARD:
        raise GuardExceeded(
            f"basic-solution enumeration needs {comb(n, r)} bases (cap {SUBSET_GUARD})"
        )
    combos = np.array(list(itertools.combinations(range(n), r)))
    mats = a_red[:, combos].transpose(1, 0, 2)  # (n_combo, r, r)
    dets = np.abs(np.linalg.det(mats))
    ok = dets > 1e-12 * max(np.abs(a_red).max(), 1.0) ** r
    rhs = np.broadcast_to(b_red[:, None], (int(ok.sum()), r, 1)).copy()
    zb = np.linalg.solve(mats[ok], rhs)[:, :, 0]
    signed = zb.min(axis=1, initial=0.0) >= -1e-9
    zb = zb[signed]
    full = np.zeros((zb.shape[0], n))
    full[np.arange(zb.shape[0])[:, None], combos[ok][signed]] = np.maximum(zb, 0.0)
    sols = full[np.max(np.abs(full @ a.T - b), axis=1) <= 1e-8 * norm]
    if sols.shape[0] == 0:
        raise EmptyIntersection("no basic feasible solution")
    return _dedup(sols, FACE_DEDUP_TOL)


def intersect(p1: VPolytope, p2: VPolytope) -> VPolytope:
    """Vertices of conv(P1) ∩ conv(P2).

    Works in the product of the two weight simplices: the intersection is
    the image of {(λ,ν) >= 0 : V1'λ = V2'ν, Σλ = Σν = 1} under λ ↦ V1'λ,
    whose vertices are among the images of the basic feasible solutions.
    """
    if p1.dim != p2.dim:
        raise DimensionMismatch("operands have different dimensions")
    if p1.dim > INTERSECT_DIM_GUARD:
        raise DimensionGuard(
            f"intersection supported up to dimension {INTERSECT_DIM_GUARD}"
        )
    m1, m2 = p1.n_vertices, p2.n_vertices
    a = np.zeros((p1.dim + 2, m1 + m2))
    a[: p1.dim, :m1] = p1.vertices.T
    a[: p1.dim, m1:] = -p2.vertices.T
    a[p1.dim, :m1] = 1.0
    a[p1.dim + 1, m1:] = 1.0
    b = np.concatenate([np.zeros(p1.dim), [1.0, 1.0]])
    try:
        basics = _basic_feasible_solutions(a, b)
    except EmptyIntersection:
        raise EmptyIntersection("the polytopes do not intersect") from None
    points = basics[:, :m1] @ p1.vertices
    return extreme_filter(points, FACE_DEDUP_TOL)


def support(poly: VPolytope, direction) -> tuple[float, VPolytope]:
    """Support value max_v d.v and the face of vertices attaining it."""
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (poly.dim,):
        raise DimensionMismatch("direction dimension mismatch")
    if np.max(np.abs(direction)) == 0.0:
        raise ValidationError("direction must be non-zero")
    values = poly.vertices @ direction
    best = float(values.max())
    face = poly.vertices[values >= best - ACTIVITY_TOL * (1.0 + abs(best))]
    return best, VPolytope(face)


def _affine_hull(vertices: np.ndarray):
    """Orthonormal basis of the affine hull; returns (origin, basis (d,k))."""
    origin = vertices[0]
    diff = vertices - origin
    if diff.shape[0] == 1:
        return origin, np.zeros((vertices.shape[1], 0))
    u, s, vt = np.linalg.svd(diff, full_matrices=False)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    k = int(np.sum(s > HULL_RANK_TOL * scale))
    return origin, vt[:k].T


def _polygon_steiner(points2: np.ndarray) -> np.ndarray:
    """Exact Steiner point of the hull of distinct planar points.

    Each point is weighted by its normal-cone angle over 2π: the largest
    gap g between the directions to the other points, less π. A point that
    is not extreme sees no gap above π and gets weight 0.
    """
    m = points2.shape[0]
    diff = points2[None, :, :] - points2[:, None, :]
    angles = np.arctan2(diff[..., 1], diff[..., 0])[~np.eye(m, dtype=bool)]
    angles = np.sort(angles.reshape(m, m - 1), axis=1)
    gaps = np.diff(angles, axis=1, append=angles[:, :1] + 2.0 * np.pi)
    weights = np.maximum(gaps.max(axis=1) - np.pi, 0.0) / (2.0 * np.pi)
    return weights @ points2


def _chunk_sizes(total: int):
    """Sizes of consecutive MC_CHUNK-bounded slices of `total` draws."""
    return [min(MC_CHUNK, total - start) for start in range(0, total, MC_CHUNK)]


def _mc_pick_counts(coords: np.ndarray, config: SteinerConfig) -> np.ndarray:
    """How often each row of `coords` is the argmax of a random direction.

    Directions are uniform on the sphere, `config.samples` of them; a tie
    is resolved by drawing that sample's direction again. Picks are counted
    per vertex, not stored: directions are drawn and scored MC_CHUNK at a
    time, so memory does not grow with `samples`. Consecutive chunks read
    the same normal stream as one draw of every sample, so the counts do
    not depend on MC_CHUNK.
    """
    m, k = coords.shape
    rng = np.random.default_rng(config.seed)
    counts = np.zeros(m, dtype=np.int64)
    pending = config.samples
    for _round in range(200):
        tied = 0
        for size in _chunk_sizes(pending):
            dirs = rng.standard_normal((size, k))
            scores = coords @ dirs.T
            best = scores.max(axis=0)
            # TIE_TOL·(1 + |best|) on the unit direction dirs/‖dirs‖.
            norms = np.sqrt(np.einsum("ij,ij->i", dirs, dirs))
            hit = scores >= best - TIE_TOL * (norms + np.abs(best))
            # Summing the bytes of a boolean array is the fast column count.
            clean = np.add.reduce(hit.view(np.uint8), axis=0, dtype=np.int32) == 1
            counts += np.count_nonzero(hit & clean, axis=1)
            tied += size - int(np.count_nonzero(clean))
        pending = tied
        if pending == 0:
            return counts
    # Ties persisting after many rounds sit on a measure-zero set; any
    # attaining vertex is acceptable for the remaining samples.
    for size in _chunk_sizes(pending):
        dirs = rng.standard_normal((size, k))
        counts += np.bincount(np.argmax(coords @ dirs.T, axis=0), minlength=m)
    return counts


def _mc_steiner(coords: np.ndarray, config: SteinerConfig):
    """Monte-Carlo Eq.-(5) estimate in hull coordinates, with its standard
    error: the mean and spread of the argmax vertices that
    `_mc_pick_counts` counts. Vertices never picked drop out of the sums,
    so the estimate is bit for bit the one over the picked vertices alone.
    """
    n_samples = config.samples
    counts = _mc_pick_counts(coords, config)
    used = counts > 0
    weights = counts[used].astype(float)
    picked = coords[used]
    mean = weights @ picked / n_samples
    var = weights @ (picked - mean) ** 2 / (n_samples - 1)
    return mean, np.sqrt(var) / np.sqrt(n_samples)


def steiner_point(
    poly: VPolytope, config: SteinerConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Steiner point with a per-coordinate standard-error estimate.

    Exact (zero error) for hull dimension <= 2: singleton, segment
    midpoint, polygon normal-cone-angle average. Higher dimensions use a
    seeded Monte-Carlo average of support argmax points, counted per vertex
    rather than stored, so memory does not grow with `config.samples`.
    Everything runs in affine-hull coordinates, with no LP: a row that is
    not extreme gets weight 0 in a polygon and is almost surely never the
    unique argmax.
    """
    config = config or SteinerConfig()
    verts = poly.vertices
    d = verts.shape[1]
    origin, basis = _affine_hull(verts)
    k = basis.shape[1]
    if k == 0:
        return verts[0].copy(), np.zeros(d)
    coords = _dedup((verts - origin) @ basis, DEDUP_TOL)
    exact = config.method != "montecarlo"
    if k == 1 and exact:
        t = coords[:, 0]
        mid = 0.5 * (t.min() + t.max())
        return origin + mid * basis[:, 0], np.zeros(d)
    if k == 2 and exact:
        return origin + basis @ _polygon_steiner(coords), np.zeros(d)
    mean_k, err_k = _mc_steiner(coords, config)
    point = origin + basis @ mean_k
    err = np.abs(basis) @ err_k
    return point, err


@dataclass(frozen=True)
class PwlConvexFunction:
    """Max-affine convex function f(Y) = max_i (g_i . Y + b_i)."""

    gradients: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gradients, dtype=float)
        if g.ndim == 1:
            g = g[None, :]
        b = np.atleast_1d(np.asarray(self.intercepts, dtype=float))
        if g.shape[0] != b.size:
            raise DimensionMismatch("one intercept per gradient required")
        if g.shape[0] == 0:
            raise ValidationError("need at least one affine piece")
        g = g.copy()
        g.setflags(write=False)
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "gradients", g)
        object.__setattr__(self, "intercepts", b)

    @property
    def dim(self) -> int:
        return self.gradients.shape[1]

    def value(self, y) -> float:
        y = np.asarray(y, dtype=float)
        return float(np.max(self.gradients @ y + self.intercepts))

    def subdifferential(self, y) -> VPolytope:
        """Subdifferential at y: the hull of the active pieces' gradients."""
        y = np.asarray(y, dtype=float)
        vals = self.gradients @ y + self.intercepts
        best = vals.max()
        active = vals >= best - ACTIVITY_TOL * (1.0 + abs(best))
        return VPolytope(self.gradients[active])


def extended_gradient(
    f: PwlConvexFunction, y, config: SteinerConfig | None = None
) -> np.ndarray:
    """Steiner point of the subdifferential at y."""
    point, _err = steiner_point(f.subdifferential(y), config)
    return point


def _project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, w.size + 1)
    cond = u - css / idx > 0
    rho = int(idx[cond][-1])
    theta = css[rho - 1] / rho
    return np.maximum(w - theta, 0.0)


def _dist_to_hull(point: np.ndarray, vertices: np.ndarray) -> float:
    """min_{λ in simplex} ||V'λ - p|| by projected gradient."""
    m = vertices.shape[0]
    if m == 1:
        return float(np.linalg.norm(vertices[0] - point))
    w = np.zeros(m)
    w[int(np.argmin(np.linalg.norm(vertices - point, axis=1)))] = 1.0
    gram = vertices @ vertices.T
    lin = vertices @ point
    lipschitz = 2.0 * float(np.linalg.eigvalsh(gram)[-1])
    step = 1.0 / max(lipschitz, 1e-300)
    prev = np.inf
    for _ in range(10_000):
        grad = 2.0 * (gram @ w - lin)
        w = _project_simplex(w - step * grad)
        val = float(w @ gram @ w - 2.0 * lin @ w + point @ point)
        if prev - val <= 1e-10 * (1.0 + abs(val)):
            break
        prev = val
    return float(np.sqrt(max(val, 0.0)))


def hausdorff(p1: VPolytope, p2: VPolytope) -> float:
    """Hausdorff distance between the two hulls."""
    if p1.dim != p2.dim:
        raise DimensionMismatch("operands have different dimensions")
    d12 = max(_dist_to_hull(v, p2.vertices) for v in p1.vertices)
    d21 = max(_dist_to_hull(v, p1.vertices) for v in p2.vertices)
    return max(d12, d21)


def enumerate_face_vertices(
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    dim_guard: int = 8,
) -> VPolytope:
    """Vertices of the H-polytope {x : A_ub x <= b_ub, A_eq x = b_eq}.

    Intended for small optimal faces. Unboundedness is detected per
    coordinate and reported with a ray certificate.
    """
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
    a_eq = np.asarray(a_eq, dtype=float)
    b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
    n = a_ub.shape[1] if a_ub.size else a_eq.shape[1]
    if n > dim_guard:
        raise DimensionGuard(f"face enumeration supported up to dimension {dim_guard}")
    for sign in (1.0, -1.0):
        for j in range(n):
            c = np.zeros(n)
            c[j] = sign
            probe = lp.solve(lp.LinearProgram.build(c, a_ub, b_ub, a_eq, b_eq))
            if probe.status == "Infeasible":
                raise EmptyIntersection("face system is infeasible")
            if probe.status == "Unbounded":
                raise UnboundedFace(
                    "optimal face is unbounded", ray=probe.ray
                )
    # Keep an independent equality subsystem; vertices add enough active
    # inequality rows to reach a square nonsingular system.
    if a_eq.size:
        eq_rows = independent_rows(a_eq, b_eq)
        a_eq_red = a_eq[eq_rows]
        b_eq_red = b_eq[eq_rows]
    else:
        a_eq_red = np.zeros((0, n))
        b_eq_red = np.zeros(0)
    r0 = a_eq_red.shape[0]
    need = max(n - r0, 0)
    m = b_ub.size
    if comb(m, need) > SUBSET_GUARD:
        raise GuardExceeded(
            f"face enumeration needs {comb(m, need)} subsets (cap {SUBSET_GUARD})"
        )
    bscale = 1.0 + max(np.abs(b_ub).max(initial=0.0), np.abs(b_eq).max(initial=0.0))
    if need == 0:
        combos = np.zeros((1, 0), dtype=int)
    else:
        combos = np.asarray(list(itertools.combinations(range(m), need)), dtype=int)
        if combos.size == 0:
            raise EmptyIntersection("not enough inequality rows for a vertex")
    mats = np.broadcast_to(a_eq_red, (combos.shape[0], r0, n)).copy()
    mats = np.concatenate([mats, a_ub[combos]], axis=1)  # (batch, n, n)
    rhs = np.concatenate(
        [np.broadcast_to(b_eq_red, (combos.shape[0], r0)), b_ub[combos]], axis=1
    )
    ascale = max(np.abs(mats).max(initial=0.0), 1.0)
    dets = np.abs(np.linalg.det(mats / ascale))
    ok = dets > 1e-12
    candidates = np.zeros((0, n))
    if np.any(ok):
        sols = np.linalg.solve(mats[ok], rhs[ok][:, :, None])[:, :, 0]
        feas = np.ones(sols.shape[0], dtype=bool)
        if m:
            feas &= np.max(sols @ a_ub.T - b_ub, axis=1) <= 1e-8 * bscale
        if r0:
            feas &= (
                np.max(np.abs(sols @ a_eq_red.T - b_eq_red), axis=1) <= 1e-8 * bscale
            )
        candidates = sols[feas]
    if candidates.shape[0] == 0:
        raise EmptyIntersection("no vertex satisfies the face system")
    # Feasible basic solutions are exactly the vertices; dedup handles
    # degenerate bases hitting the same point.
    return VPolytope(_dedup(candidates, FACE_DEDUP_TOL))
