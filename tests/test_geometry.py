import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from devport import geometry, lp
from devport.envelope import build_cvar, build_mad
from devport.errors import DimensionMismatch, EmptyIntersection, ValidationError
from devport.geometry import (
    PwlConvexFunction,
    SteinerConfig,
    VPolytope,
    contains,
    extended_gradient,
    extreme_filter,
    hausdorff,
    intersect,
    minkowski_sum,
    steiner_point,
    support,
)
from devport.probspace import FiniteProbSpace


def _match(got, expected, tol=1e-8):
    got = np.asarray(got, float)
    expected = np.asarray(expected, float)
    if got.shape[0] != expected.shape[0]:
        return False
    used = set()
    for e in expected:
        hit = next(
            (i for i, g in enumerate(got) if i not in used and np.max(np.abs(g - e)) <= tol),
            None,
        )
        if hit is None:
            return False
        used.add(hit)
    return True


def test_extreme_filter_collinear():
    pts = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]
    poly = extreme_filter(pts)
    assert _match(poly.vertices, [[0.0, 0.0], [2.0, 2.0]])


def test_extreme_filter_square_plus_center():
    pts = [[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]]
    poly = extreme_filter(pts)
    assert poly.n_vertices == 4
    assert not any(np.allclose(v, [0.5, 0.5]) for v in poly.vertices)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_extreme_filter_rejects_points_that_are_not_finite(bad):
    with pytest.raises(ValidationError):
        extreme_filter([[0.0, 0.0], [1.0, bad], [2.0, 0.0]])


def _in_hull_of_others(points, i):
    """HiGHS membership of row i in the hull of the other rows."""
    others = np.delete(points, i, axis=0)
    m = others.shape[0]
    res = linprog(
        np.zeros(m),
        A_eq=np.vstack([others.T, np.ones(m)]),
        b_eq=np.append(points[i], 1.0),
        bounds=(0, None),
        method="highs",
    )
    assert res.status in (0, 2)
    return res.status == 0


def _cube_with_clutter(rng, k, d):
    """Corners of a k-cube mapped affinely into R^d, with interior points,
    points on its edges and near-duplicates within the dedup tolerance."""
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * k)).reshape(k, -1).T
    starts = corners[rng.integers(len(corners), size=6)]
    axes = np.eye(k)[rng.integers(k, size=6)]
    # Move each start corner part of the way along one cube axis.
    steps = (1.0 - 2.0 * starts) * axes * rng.uniform(0.2, 0.8, size=(6, 1))
    edges = starts + steps
    interior = rng.dirichlet(np.ones(len(corners)), size=4) @ corners
    points = np.vstack([corners, edges, interior])
    stretch = rng.uniform(0.5, 2.0, size=(k, 1)) * _random_rotation(rng, d)[:k]
    points = points @ stretch
    points += rng.normal(size=d)
    twins = points[rng.integers(len(points), size=4)]
    twins += rng.uniform(-0.4, 0.4, size=twins.shape) * geometry.DEDUP_TOL
    return rng.permutation(np.vstack([points, twins]))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_extreme_filter_against_highs(d):
    rng = np.random.default_rng(40 + d)
    clouds = [
        _cube_with_clutter(rng, d, d),
        _cube_with_clutter(rng, d - 1, d),
        rng.normal(size=(25, d)),
        rng.normal(size=(25, 2)) @ rng.normal(size=(2, d)),
    ]
    for points in clouds:
        distinct = geometry._dedup(points, geometry.DEDUP_TOL)
        extreme = [not _in_hull_of_others(distinct, i) for i in range(len(distinct))]
        got = extreme_filter(points).vertices
        assert np.array_equal(got, distinct[extreme])


def _dedup_pairwise(points, tol):
    kept = []
    for p in points:
        if not any(np.max(np.abs(p - q)) <= tol for q in kept):
            kept.append(p)
    return np.asarray(kept)


def test_dedup_matches_the_pairwise_loop():
    tol = geometry.DEDUP_TOL
    a = np.array([1.0, -2.0, 0.5])
    # b is within tol of a and of c, but a and c are further apart.
    chain = np.array([a, a + 0.6 * tol, a + 1.2 * tol])
    at_tol = np.array([[0.0, 0.0], [tol, 0.0], [-0.0, -tol], [tol, 2.0 * tol]])
    rng = np.random.default_rng(8)
    cases = [(chain, chain[[0, 2]]), (at_tol, at_tol[[0, 3]])]
    for _ in range(50):
        grid = rng.integers(-2, 3, size=(rng.integers(1, 30), 3)) * (0.5 * tol)
        cases.append((grid[rng.integers(len(grid), size=40)], None))
    for points, expected in cases:
        got = geometry._dedup(points, tol)
        assert np.array_equal(got, _dedup_pairwise(points, tol))
        if expected is not None:
            assert np.array_equal(got, expected)


def test_intersect_mad_and_cvar_half_is_the_cvar_envelope():
    space = FiniteProbSpace.uniform(4)
    cvar = build_cvar(space, 0.5)
    got = intersect(build_mad(space).polytope(), cvar.polytope())
    assert cvar.n_generators == 6
    assert _match(got.vertices, cvar.generators, tol=1e-12)


def test_intersect_lps_scale_with_the_output(monkeypatch):
    sizes = []
    solve = lp.solve

    def recording(problem):
        sizes.append(problem.n_vars)
        return solve(problem)

    monkeypatch.setattr(lp, "solve", recording)
    space = FiniteProbSpace.uniform(4)
    got = intersect(build_mad(space).polytope(), build_cvar(space, 0.5).polytope())
    assert sizes
    assert max(sizes) <= 2 * (got.n_vertices + got.dim + 1)


def test_minkowski_translation():
    square = VPolytope([[0, 0], [1, 0], [0, 1], [1, 1]])
    shifted = minkowski_sum(square, VPolytope([[2.0, 3.0]]))
    assert _match(shifted.vertices, [[2, 3], [3, 3], [2, 4], [3, 4]])


def test_minkowski_segments_to_square():
    s1 = VPolytope([[0.0, 0.0], [1.0, 0.0]])
    s2 = VPolytope([[0.0, 0.0], [0.0, 1.0]])
    square = minkowski_sum(s1, s2)
    assert _match(square.vertices, [[0, 0], [1, 0], [0, 1], [1, 1]])


def test_minkowski_contains_origin():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = VPolytope(rng.normal(size=(5, 2)))
        diff = minkowski_sum(p, VPolytope(-p.vertices))
        assert contains(diff, np.zeros(2))


def test_intersect_idempotent():
    p = extreme_filter([[0, 0], [1, 0], [0, 1]])
    q = intersect(p, p)
    assert _match(q.vertices, p.vertices)


def test_intersect_disjoint_segments():
    s1 = VPolytope([[0.0], [1.0]])
    s2 = VPolytope([[2.0], [3.0]])
    with pytest.raises(EmptyIntersection):
        intersect(s1, s2)


def test_intersect_squares():
    a = VPolytope([[0, 0], [2, 0], [0, 2], [2, 2]])
    b = VPolytope([[1, 1], [3, 1], [1, 3], [3, 3]])
    c = intersect(a, b)
    assert _match(c.vertices, [[1, 1], [2, 1], [1, 2], [2, 2]])


def test_support_square():
    square = VPolytope([[0, 0], [1, 0], [0, 1], [1, 1]])
    value, face = support(square, [1.0, 0.0])
    assert value == pytest.approx(1.0)
    assert _match(face.vertices, [[1, 0], [1, 1]])


def test_support_singleton_and_zero_direction():
    point = VPolytope([[2.0, -1.0]])
    value, face = support(point, [3.0, 4.0])
    assert value == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        support(point, [0.0, 0.0])


def test_steiner_singleton():
    p, err = steiner_point(VPolytope([[1.0, 2.0, 3.0]]))
    assert np.allclose(p, [1, 2, 3])
    assert np.all(err == 0)


def test_steiner_segment_midpoint_3d():
    poly = VPolytope([[1.5, 1.0, 0.5], [4 / 3, 4 / 3, 1 / 3]])
    p, err = steiner_point(poly)
    assert np.allclose(p, [17 / 12, 7 / 6, 5 / 12], atol=1e-12)
    assert np.all(err == 0)


def test_steiner_square_center():
    square = VPolytope([[0, 0], [1, 0], [0, 1], [1, 1]])
    p, _ = steiner_point(square)
    assert np.allclose(p, [0.5, 0.5], atol=1e-12)


def _random_rotation(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q *= np.sign(np.diag(r))
    return q


def test_steiner_membership_and_rigid_embedding_2d():
    rng = np.random.default_rng(2)
    for _ in range(10):
        pts = rng.normal(size=(6, 2))
        poly = extreme_filter(pts)
        exact, _ = steiner_point(poly)
        assert contains(poly, exact, tol=1e-7)
        # Rigid embedding into 3-d: the Steiner point moves with the polygon.
        rot = _random_rotation(rng, 3)
        shift = rng.normal(size=3)
        lifted = np.column_stack([poly.vertices, np.zeros(poly.n_vertices)]) @ rot.T + shift
        moved, err = steiner_point(VPolytope(lifted))
        assert np.all(err == 0)
        expected = rot @ np.append(exact, 0.0) + shift
        assert np.max(np.abs(moved - expected)) <= 1e-9


def test_steiner_mc_on_rotated_boxes():
    # A box is symmetric about its center, so the Steiner point is the center.
    rng = np.random.default_rng(6)
    corners = np.array(
        [[i, j, k] for i in (0.0, 1.0) for j in (0.0, 1.0) for k in (0.0, 1.0)]
    )
    for _ in range(5):
        rot = _random_rotation(rng, 3)
        scale = rng.uniform(0.5, 2.0, size=3)
        shift = rng.normal(size=3)
        verts = (corners * scale) @ rot.T + shift
        mc, err = steiner_point(VPolytope(verts), SteinerConfig(samples=20000, seed=1))
        center = (np.full(3, 0.5) * scale) @ rot.T + shift
        tol = 3 * np.max(err) + 1e-9
        assert np.max(np.abs(mc - center)) <= tol


def test_steiner_additivity_2d_exact():
    rng = np.random.default_rng(9)
    for _ in range(10):
        p1 = extreme_filter(rng.normal(size=(5, 2)))
        p2 = extreme_filter(rng.normal(size=(5, 2)))
        s1, _ = steiner_point(p1)
        s2, _ = steiner_point(p2)
        s12, _ = steiner_point(minkowski_sum(p1, p2))
        assert np.allclose(s12, s1 + s2, atol=1e-9)


def test_steiner_motion_equivariance_2d():
    rng = np.random.default_rng(13)
    for _ in range(10):
        poly = extreme_filter(rng.normal(size=(6, 2)))
        theta = rng.uniform(0, 2 * np.pi)
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        q = rng.normal(size=2)
        moved = VPolytope(poly.vertices @ rot.T + q)
        s_moved, _ = steiner_point(moved)
        s, _ = steiner_point(poly)
        assert np.allclose(s_moved, rot @ s + q, atol=1e-9)


def test_steiner_continuity_smoke():
    rng = np.random.default_rng(21)
    poly = extreme_filter(rng.normal(size=(6, 2)))
    s, _ = steiner_point(poly)
    eps = 1e-6
    wiggled = VPolytope(poly.vertices + rng.uniform(-eps, eps, poly.vertices.shape))
    s2, _ = steiner_point(wiggled)
    assert np.max(np.abs(s2 - s)) <= 100 * eps


def _with_points_that_are_not_extreme(rng, extreme):
    """The rows of `extreme` plus interior and edge points, shuffled."""
    m = extreme.shape[0]
    interior = rng.dirichlet(np.ones(m), size=3) @ extreme
    edges = 0.3 * extreme + 0.7 * np.roll(extreme, 1, axis=0)
    return rng.permutation(np.vstack([extreme, interior, edges]))


def test_steiner_ignores_points_that_are_not_extreme_2d():
    rng = np.random.default_rng(23)
    for _ in range(20):
        # A convex polygon in cyclic order, so rolled pairs are its edges,
        # lifted into R^3.
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=6))
        polygon = np.column_stack([2.0 * np.cos(theta), np.sin(theta), np.zeros(6)])
        points = _with_points_that_are_not_extreme(rng, polygon)
        points = points @ _random_rotation(rng, 3).T + rng.normal(size=3)
        got, err = steiner_point(VPolytope(points))
        expected, _ = steiner_point(extreme_filter(points))
        assert np.all(err == 0)
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_steiner_ignores_points_that_are_not_extreme_montecarlo():
    # Above hull dimension 2 a point that is not extreme is almost surely
    # never the unique argmax, so the draws equal those over only the
    # extreme points in the same hull coordinates, bit for bit.
    rng = np.random.default_rng(29)
    config = SteinerConfig(samples=4096, seed=3)
    for d, k in ((3, 3), (5, 4)):
        sphere = rng.normal(size=(8, k))
        sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
        embed = _random_rotation(rng, d)[:, :k]
        points = _with_points_that_are_not_extreme(rng, sphere) @ embed.T
        got, got_err = steiner_point(VPolytope(points), config)
        origin, basis = geometry._affine_hull(points)
        hull = extreme_filter((points - origin) @ basis).vertices
        assert hull.shape[0] == 8
        mean, err = geometry._mc_steiner(hull, config)
        assert np.array_equal(got, origin + basis @ mean)
        assert np.array_equal(got_err, np.abs(basis) @ err)


def _per_sample_mc_steiner(coords, config):
    """The per-sample estimator `_mc_pick_counts` replaced, kept as the
    reference: it stores every pick, then averages the picked rows.
    Returns (per-vertex pick counts, mean, standard error)."""
    n_samples = config.samples
    m, k = coords.shape
    rng = np.random.default_rng(config.seed)
    picks = np.empty(n_samples, dtype=np.intp)
    pending = np.arange(n_samples)
    for _round in range(200):
        dirs = rng.standard_normal((pending.size, k))
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        dirs /= norms
        scores = dirs @ coords.T
        best = scores.max(axis=1)
        tie_counts = np.sum(
            scores >= best[:, None] - geometry.TIE_TOL * (1.0 + np.abs(best))[:, None],
            axis=1,
        )
        clean = tie_counts == 1
        picks[pending[clean]] = np.argmax(scores[clean], axis=1)
        pending = pending[~clean]
        if pending.size == 0:
            break
    else:
        dirs = rng.standard_normal((pending.size, k))
        picks[pending] = np.argmax(dirs @ coords.T, axis=1)
    chosen = coords[picks]
    mean = chosen.mean(axis=0)
    stderr = chosen.std(axis=0, ddof=1) / np.sqrt(n_samples)
    return np.bincount(picks, minlength=m), mean, stderr


def _cube(k):
    return np.array(list(itertools.product((0.0, 1.0), repeat=k)))


def _steiner_reference_inputs():
    rng = np.random.default_rng(31)
    clouds = [rng.normal(size=(3 * k, k)) * rng.uniform(0.2, 5.0) for k in (3, 4, 5, 6)]
    cube = _cube(4)
    # Axis directions tie on the cube's facets, and the edge midpoint is
    # never the unique argmax.
    clouds.append(np.vstack([cube, 0.5 * (cube[0] + cube[1])]))
    # Half the vertices have a copy 1e-12 away: a direction that picks one
    # of them ties, and its sample is drawn again, round after round.
    near = _cube(3) * 2.0 - 1.0
    clouds.append(np.vstack([near, near[::2] + 1e-12 * rng.normal(size=(4, 3))]))
    return clouds


@pytest.mark.parametrize(
    "samples", [2, geometry.MC_CHUNK - 1, geometry.MC_CHUNK + 1, 30_000]
)
def test_mc_steiner_matches_per_sample_reference(samples):
    # Counting picks in chunks draws the same directions and picks the same
    # vertices; only the summation order of the mean and error changes.
    for seed, coords in enumerate(_steiner_reference_inputs()):
        config = SteinerConfig(samples=samples, seed=seed)
        counts, mean_ref, err_ref = _per_sample_mc_steiner(coords, config)
        assert np.array_equal(geometry._mc_pick_counts(coords, config), counts)
        mean, err = geometry._mc_steiner(coords, config)
        tol = 1e-12 * max(1.0, float(np.abs(coords).max()))
        assert np.max(np.abs(mean - mean_ref)) <= tol
        assert np.max(np.abs(err - err_ref)) <= tol


def test_mc_steiner_ties_that_never_resolve_match_per_sample_reference():
    # Every direction ties a vertex with its copy, so after the last round
    # of redraws each sample takes the first vertex attaining the maximum.
    coords = np.repeat(np.eye(3), 2, axis=0)
    config = SteinerConfig(samples=50, seed=4)
    counts, mean_ref, err_ref = _per_sample_mc_steiner(coords, config)
    assert np.array_equal(geometry._mc_pick_counts(coords, config), counts)
    assert counts[1::2].sum() == 0
    mean, err = geometry._mc_steiner(coords, config)
    assert np.max(np.abs(mean - mean_ref)) <= 1e-12
    assert np.max(np.abs(err - err_ref)) <= 1e-12


def test_mc_steiner_memory_does_not_grow_with_samples():
    # Storing 262,144 picks and their scores took about 150 MB.
    coords = _cube(5)
    config = SteinerConfig(samples=262_144, seed=0)
    tracemalloc.start()
    try:
        geometry._mc_steiner(coords, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_mc_steiner_error_shrinks_like_inverse_sqrt_samples():
    # The Steiner point of a cube is its centre.
    coords = _cube(3)
    center = np.full(3, 0.5)
    mean_small, err_small = geometry._mc_steiner(coords, SteinerConfig(samples=4096))
    mean_large, err_large = geometry._mc_steiner(coords, SteinerConfig(samples=65_536))
    assert np.all(np.abs(err_small / err_large - 4.0) <= 0.15 * 4.0)
    for mean, err in ((mean_small, err_small), (mean_large, err_large)):
        assert np.all(np.abs(mean - center) <= 4.0 * err)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"samples": 1000.0},
        {"samples": True},
        {"samples": "1000"},
        {"seed": 1.5},
        {"seed": 2.0},
        {"seed": False},
    ],
)
def test_steiner_config_rejects_values_that_are_not_integers(kwargs):
    with pytest.raises(ValidationError):
        SteinerConfig(**kwargs)


def test_steiner_config_accepts_numpy_integers():
    config = SteinerConfig(samples=np.int64(4096), seed=np.uint32(3))
    mc, err = steiner_point(VPolytope(_cube(3)), config)
    expected, expected_err = steiner_point(VPolytope(_cube(3)), SteinerConfig(4096, 3))
    assert np.array_equal(mc, expected)
    assert np.array_equal(err, expected_err)


def test_extended_gradient_single_piece():
    f = PwlConvexFunction([[1.0, 2.0]], [0.0])
    assert np.allclose(extended_gradient(f, [3.0, 4.0]), [1.0, 2.0])


def test_extended_gradient_abs_at_zero():
    f = PwlConvexFunction([[1.0], [-1.0]], [0.0, 0.0])
    assert extended_gradient(f, [0.0]) == pytest.approx(0.0, abs=1e-12)


def test_extended_gradient_three_pieces():
    f = PwlConvexFunction([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], np.zeros(3))
    g = extended_gradient(f, [0.8, 0.8])
    assert np.allclose(g, [0.5, 0.5], atol=1e-12)


def test_extended_gradient_matches_classical():
    rng = np.random.default_rng(17)
    f = PwlConvexFunction(rng.normal(size=(4, 3)), rng.normal(size=4))
    for _ in range(20):
        y = rng.normal(size=3)
        vals = f.gradients @ y + f.intercepts
        order = np.sort(vals)
        if order[-1] - order[-2] < 1e-6:
            continue  # only check smooth points
        g = extended_gradient(f, y)
        assert np.allclose(g, f.gradients[np.argmax(vals)])


def test_hausdorff_basics():
    square = VPolytope([[0, 0], [1, 0], [0, 1], [1, 1]])
    assert hausdorff(square, square) == pytest.approx(0.0, abs=1e-8)
    v = VPolytope([[3.0, 4.0]])
    origin = VPolytope([[0.0, 0.0]])
    assert hausdorff(origin, v) == pytest.approx(5.0, abs=1e-8)
    shifted = VPolytope(square.vertices + np.array([1.0, 0.0]))
    assert hausdorff(square, shifted) == pytest.approx(1.0, abs=1e-7)
    with pytest.raises(DimensionMismatch):
        hausdorff(square, VPolytope([[1.0]]))


def test_face_enumeration_square():
    face = geometry.enumerate_face_vertices(
        a_ub=np.vstack([np.eye(2), -np.eye(2)]),
        b_ub=np.array([1.0, 1.0, 0.0, 0.0]),
        a_eq=np.zeros((0, 2)),
        b_eq=np.zeros(0),
    )
    assert _match(face.vertices, [[0, 0], [1, 0], [0, 1], [1, 1]])


def test_face_enumeration_with_equality():
    face = geometry.enumerate_face_vertices(
        a_ub=np.vstack([np.eye(2), -np.eye(2)]),
        b_ub=np.array([1.0, 1.0, 0.0, 0.0]),
        a_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([1.0]),
    )
    assert _match(face.vertices, [[1, 0], [0, 1]])
