import itertools
from math import comb

import numpy as np
import pytest

from devport import (
    FiniteProbSpace,
    build_cvar,
    build_custom,
    build_mad,
    build_mixed_cvar,
    evaluate,
    max_combine,
    mix,
    reject_non_finitely_generated,
    risk_identifiers,
    scale,
)
from devport.envelope import build_mad as _build_mad
from devport.geometry import extreme_filter
from devport.errors import TooManyScenarios, Unsupported, ValidationError


def _perms(*vals):
    return np.unique(np.asarray(list(itertools.permutations(vals))), axis=0)


def _match(got, expected, tol=1e-9):
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


def test_mad_counts():
    for n in (2, 3, 4, 5):
        env = build_mad(FiniteProbSpace.uniform(n))
        assert env.n_generators == 2**n - 2


def test_mad_uniform_formula_vertex():
    env = build_mad(FiniteProbSpace.uniform(3))
    target = np.array([-1 / 3, 5 / 3, 5 / 3])
    assert any(np.max(np.abs(g - target)) <= 1e-12 for g in env.generators)


def test_mad_n2():
    env = build_mad(FiniteProbSpace.uniform(2))
    assert _match(env.generators, [[0.0, 2.0], [2.0, 0.0]])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_mad_generators_extreme_for_any_weights(n):
    # build_mad does not filter: every proper sign vector must already give
    # an extreme generator on unequal weights.
    w = np.random.default_rng(n).uniform(0.2, 1.0, n)
    env = build_mad(FiniteProbSpace(w / w.sum()))
    assert env.n_generators == 2**n - 2
    assert extreme_filter(env.generators).n_vertices == 2**n - 2


def test_mad_guard():
    with pytest.raises(TooManyScenarios):
        build_mad(FiniteProbSpace.uniform(21))


def test_cvar_uniform_counts():
    # k = n means alpha = 1, outside the CVaR parameter range.
    for n in (3, 4, 5):
        for k in range(1, n):
            env = build_cvar(FiniteProbSpace.uniform(n), k / n)
            assert env.n_generators == comb(n, k)


def test_cvar_small_alpha_perm():
    env = build_cvar(FiniteProbSpace.uniform(3), 0.05)
    assert _match(env.generators, _perms(3.0, 0.0, 0.0))


def test_cvar_general_weights():
    env = build_cvar(FiniteProbSpace(np.array([0.5, 0.5])), 0.75)
    assert _match(env.generators, [[4 / 3, 2 / 3], [2 / 3, 4 / 3]])


def test_cvar_alpha_range():
    space = FiniteProbSpace.uniform(3)
    for alpha in (1.5, 0.0):
        with pytest.raises(ValidationError):
            build_cvar(space, alpha)
        with pytest.raises(ValidationError):
            build_mixed_cvar(space, [alpha], [1.0])


def test_mixed_cvar_single_term():
    space = FiniteProbSpace.uniform(3)
    a = build_mixed_cvar(space, [1 / 3], [1.0])
    b = build_cvar(space, 1 / 3)
    assert _match(a.generators, b.generators)


def test_mixed_cvar_means():
    space = FiniteProbSpace.uniform(3)
    env = build_mixed_cvar(space, [1 / 3, 2 / 3], [0.5, 0.5])
    means = env.generators @ space.weights
    assert np.max(np.abs(means - 1.0)) <= 1e-10


def test_mixed_cvar_self_mix():
    space = FiniteProbSpace.uniform(2)
    env = build_mixed_cvar(space, [0.5, 0.5], [0.5, 0.5])
    assert _match(env.generators, [[2.0, 0.0], [0.0, 2.0]])


def test_scale_identity():
    env = build_cvar(FiniteProbSpace.uniform(3), 1 / 3)
    scaled = scale(env, 1.0)
    assert _match(scaled.generators, env.generators)


def test_scale_half_mad_envelope():
    env = scale(build_mad(FiniteProbSpace.uniform(3)), 0.5)
    expected = np.vstack([_perms(5 / 3, 2 / 3, 2 / 3), _perms(4 / 3, 4 / 3, 1 / 3)])
    assert _match(env.generators, expected)


def test_max_combine_absorbs_interior_vertices():
    # Combining Perm(3/2,3/2,0) with the half-MAD envelope: the Perm(4/3,4/3,1/3)
    # points are absorbed, e.g. (4/3,4/3,1/3) = 1/2*(3/2,3/2,0)
    # + 1/4*(5/3,2/3,2/3) + 1/4*(2/3,5/3,2/3); only 6 generators survive.
    space = FiniteProbSpace.uniform(3)
    env1 = build_cvar(space, 2 / 3)
    env2 = scale(build_mad(space), 0.5)
    combined = max_combine([env1, env2])
    expected = np.vstack([_perms(1.5, 1.5, 0.0), _perms(5 / 3, 2 / 3, 2 / 3)])
    assert _match(combined.generators, expected)


def test_mix_trivial():
    env = build_cvar(FiniteProbSpace.uniform(3), 0.5)
    mixed = mix([env], [1.0])
    assert _match(mixed.generators, env.generators)


@pytest.mark.parametrize("n", [3, 4])
def test_mix_generators_are_extreme(n):
    # The shifted Minkowski sum is not filtered again; it needs no filter.
    space = FiniteProbSpace.uniform(n)
    env = mix([build_mad(space), build_cvar(space, 0.4)], [0.3, 0.5])
    assert np.array_equal(extreme_filter(env.generators).vertices, env.generators)


def test_evaluate_mad_golden():
    env = build_mad(FiniteProbSpace.uniform(3))
    assert evaluate(env, np.array([-1.5, 0.0, 1.5])) == pytest.approx(1.0, abs=1e-12)


def test_evaluate_constant_is_zero():
    env = build_cvar(FiniteProbSpace.uniform(4), 0.25)
    assert evaluate(env, np.full(4, 3.7)) == pytest.approx(0.0, abs=1e-12)


def test_evaluate_cvar_63():
    # E[X] + max E[-XQ] for X = (-0.5,-0.5,1) over Perm(3,0,0) is 0.5.
    env = build_cvar(FiniteProbSpace.uniform(3), 0.05)
    assert evaluate(env, np.array([-0.5, -0.5, 1.0])) == pytest.approx(0.5, abs=1e-12)


def test_positive_homogeneity():
    rng = np.random.default_rng(4)
    env = build_mad(FiniteProbSpace.uniform(4))
    for _ in range(30):
        x = rng.normal(size=4)
        lam = rng.uniform(0, 3)
        assert evaluate(env, lam * x) == pytest.approx(
            lam * evaluate(env, x), rel=1e-12, abs=1e-12
        )


def test_subadditivity_and_nonnegativity():
    rng = np.random.default_rng(8)
    space = FiniteProbSpace.uniform(5)
    envs = [build_mad(space), build_cvar(space, 0.4)]
    for env in envs:
        for _ in range(30):
            x = rng.normal(size=5)
            y = rng.normal(size=5)
            assert evaluate(env, x + y) <= evaluate(env, x) + evaluate(env, y) + 1e-10
            if np.max(x) - np.min(x) > 1e-8:
                assert evaluate(env, x) > 0


def test_mad_brute_force_oracle():
    rng = np.random.default_rng(12)
    for weights in (None, np.array([0.2, 0.3, 0.1, 0.4])):
        space = FiniteProbSpace.uniform(4) if weights is None else FiniteProbSpace(weights)
        env = build_mad(space)
        for _ in range(25):
            x = rng.normal(size=4)
            direct = float(space.expectation(np.abs(x - space.expectation(x))))
            assert evaluate(env, x) == pytest.approx(direct, abs=1e-10)


def test_cvar_sorting_oracle():
    rng = np.random.default_rng(15)
    n = 6
    space = FiniteProbSpace.uniform(n)
    for k in (1, 2, 3):
        env = build_cvar(space, k / n)
        for _ in range(25):
            x = rng.normal(size=n)
            tail = np.mean(np.sort(x)[:k])
            assert evaluate(env, x) == pytest.approx(np.mean(x) - tail, abs=1e-10)


def test_risk_identifiers_members_and_attainment():
    rng = np.random.default_rng(19)
    env = build_cvar(FiniteProbSpace.uniform(4), 0.5)
    for _ in range(20):
        x = rng.normal(size=4)
        ident = risk_identifiers(env, x)
        for q in ident.polytope.vertices:
            assert any(np.max(np.abs(q - g)) <= 1e-12 for g in env.generators)
            val = float(np.mean(x)) + float(np.mean(-x * q))
            assert val == pytest.approx(ident.value, abs=1e-9)


def test_risk_identifiers_unique_maximizer():
    env = build_cvar(FiniteProbSpace.uniform(3), 1 / 3)
    ident = risk_identifiers(env, np.array([-2.0, 0.5, 1.5]))
    assert ident.polytope.n_vertices == 1
    assert np.allclose(ident.polytope.vertices[0], [3.0, 0.0, 0.0])


def test_reject_stddev():
    with pytest.raises(Unsupported):
        reject_non_finitely_generated("stddev")
    with pytest.raises(Unsupported):
        reject_non_finitely_generated("std")
    reject_non_finitely_generated("mad")  # no error


def test_custom_filtering_reported():
    space = FiniteProbSpace.uniform(2)
    env = build_custom(space, [[0.0, 2.0], [2.0, 0.0], [1.0, 1.0]])
    assert env.n_generators == 2
    # The recipe keeps every given generator, the interior one included.
    assert len(env.measure.generators) - env.n_generators == 1
