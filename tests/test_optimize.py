"""Nonsmooth optimization stack: BFGS, hull subproblem, bundle, sampling."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import oracles
from fixedhinf import (
    AllStartsInfeasible,
    InfeasibleStart,
    OptOptions,
    OptResult,
    Phase,
    bfgs_nonsmooth,
    bundle_phase,
    gradient_sampling,
    hanso,
    min_norm_convex_hull,
)


def quadratic(a):
    a = np.asarray(a, dtype=float)

    def oracle(x):
        r = x - a
        return float(r @ r), 2.0 * r

    return oracle


def absval(x):
    return float(abs(x[0])), np.array([math.copysign(1.0, x[0])])


def rosenbrock(x):
    f = (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    g = np.array(
        [
            -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
            200.0 * (x[1] - x[0] ** 2),
        ]
    )
    return float(f), g


def linf(x):
    i = int(np.argmax(np.abs(x)))
    g = np.zeros_like(x)
    g[i] = math.copysign(1.0, x[i])
    return float(np.max(np.abs(x))), g


def max_plus_quad(x):
    # max(x1, x2) + ||x||^2 / 2, minimized at (-1/2, -1/2)
    i = 0 if x[0] >= x[1] else 1
    g = x.copy()
    g[i] += 1.0
    return float(max(x[0], x[1]) + 0.5 * (x @ x)), g


def test_options_validation():
    with pytest.raises(ValueError):
        OptOptions(max_iters=0)
    with pytest.raises(ValueError):
        OptOptions(cpu_budget_seconds=0.0)


def test_bfgs_smooth_quadratic():
    res = bfgs_nonsmooth(quadratic([1.0, 2.0]), np.zeros(2), OptOptions(max_iters=50))
    assert res.f_best <= 1e-12
    assert np.allclose(res.x_best, [1.0, 2.0], atol=1e-6)


def test_bfgs_absolute_value():
    res = bfgs_nonsmooth(absval, np.array([1.0]), OptOptions(max_iters=100))
    assert res.f_best <= 1e-6


def test_bfgs_rosenbrock():
    res = bfgs_nonsmooth(
        rosenbrock,
        np.array([-1.2, 1.0]),
        OptOptions(max_iters=500, grad_norm_tol=1e-10),
    )
    assert res.f_best <= 1e-8
    assert res.iterations <= 500
    assert np.allclose(res.x_best, [1.0, 1.0], atol=1e-3)


def test_bfgs_infeasible_start_raises():
    def oracle(x):
        return math.inf, None

    with pytest.raises(InfeasibleStart):
        bfgs_nonsmooth(oracle, np.zeros(2))


def test_bfgs_never_accepts_infeasible_iterates():
    # quadratic pulling toward a point outside the feasible unit ball
    def oracle(x):
        if np.linalg.norm(x) > 1.0:
            return math.inf, None
        r = x - np.array([2.0, 0.0])
        return float(r @ r), 2.0 * r

    res = bfgs_nonsmooth(oracle, np.array([0.1, 0.1]), OptOptions(max_iters=200))
    assert math.isfinite(res.f_best)
    assert np.linalg.norm(res.x_best) <= 1.0 + 1e-12
    assert res.f_best <= oracle(np.array([0.1, 0.1]))[0]


def test_min_norm_hull_singleton():
    d, w = min_norm_convex_hull([np.array([3.0, -4.0])])
    assert np.array_equal(d, [3.0, -4.0])
    assert np.array_equal(w, [1.0])


def test_min_norm_hull_opposed_pair_cancels():
    g = np.array([2.0, 1.0])
    d, w = min_norm_convex_hull([g, -g])
    assert np.linalg.norm(d) <= 1e-12
    assert np.allclose(w, [0.5, 0.5], atol=1e-10)


def test_min_norm_hull_weights_on_simplex(rng):
    for _ in range(20):
        k = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 6))
        G = rng.standard_normal((k, dim))
        d, w = min_norm_convex_hull(list(G))
        assert abs(w.sum() - 1.0) <= 1e-10
        assert np.all(w >= -1e-10)
        assert np.allclose(d, w @ G, atol=1e-10)
        assert np.linalg.norm(d) <= min(np.linalg.norm(g) for g in G) + 1e-10


def test_min_norm_hull_matches_simplex_grid_oracle(rng):
    for _ in range(12):
        G = rng.standard_normal((5, 3))
        d, _ = min_norm_convex_hull(list(G))
        d_ref, _ = oracles.min_norm_hull_grid(G)
        assert abs(np.linalg.norm(d) - np.linalg.norm(d_ref)) <= 1e-3


def test_bundle_verifies_linf_minimizer():
    res = bundle_phase(linf, np.zeros(2), OptOptions(rng_seed=3))
    assert res.optimality_measure <= 1e-6
    assert res.status == "verified"
    assert res.f_best <= 1e-9


def test_bundle_improves_from_nonstationary_point():
    res = bundle_phase(quadratic([1.0, 2.0]), np.array([4.0, -1.0]), OptOptions())
    assert res.f_best < quadratic([1.0, 2.0])(np.array([4.0, -1.0]))[0]


def test_bundle_and_sampling_measures_agree_on_piecewise_linear(rng):
    """Both phases estimate distance from the origin to the active-gradient
    hull; on a random max-of-affine function they agree within a factor 10."""
    A = rng.standard_normal((6, 4))

    def pl(x):
        vals = A @ x
        i = int(np.argmax(vals))
        return float(vals[i]), A[i].copy()

    opts = OptOptions(max_iters=1, rng_seed=11, cpu_budget_seconds=10.0)
    x0 = np.zeros(4)
    mb = bundle_phase(pl, x0, opts).optimality_measure
    ms = gradient_sampling(pl, x0, opts).optimality_measure
    lo, hi = sorted([mb, ms])
    assert hi <= 10.0 * lo + 1e-12


def test_sampling_smooth_quadratic_descends():
    res = gradient_sampling(
        quadratic([0.0, 0.0]), np.array([0.3, -0.4]), OptOptions(rng_seed=5)
    )
    assert res.f_best <= 1e-8


def test_sampling_nonsmooth_valley_reaches_stationarity():
    res = gradient_sampling(
        max_plus_quad, np.array([1.0, 1.0 + 1e-4]), OptOptions(rng_seed=0)
    )
    assert res.optimality_measure <= 1e-4
    assert res.f_best == pytest.approx(-0.25, abs=1e-4)
    assert np.allclose(res.x_best, [-0.5, -0.5], atol=1e-3)
    # independent subgradient check at the returned point: the hull of the
    # two active-piece gradients must (nearly) contain the origin
    g1 = res.x_best + np.array([1.0, 0.0])
    g2 = res.x_best + np.array([0.0, 1.0])
    d_ref, _ = oracles.min_norm_hull_grid(np.vstack([g1, g2]))
    assert np.linalg.norm(d_ref) <= 2e-4


def test_sampling_is_bitwise_deterministic():
    a = gradient_sampling(max_plus_quad, np.array([1.0, 1.1]), OptOptions(rng_seed=42))
    b = gradient_sampling(max_plus_quad, np.array([1.0, 1.1]), OptOptions(rng_seed=42))
    assert np.array_equal(a.x_best, b.x_best)
    assert a.f_best == b.f_best
    assert a.optimality_measure == b.optimality_measure
    c = gradient_sampling(max_plus_quad, np.array([1.0, 1.1]), OptOptions(rng_seed=43))
    assert not np.array_equal(a.x_best, c.x_best)


def test_hanso_single_smooth_start_matches_bfgs():
    opts = OptOptions(max_iters=200)
    alone = bfgs_nonsmooth(quadratic([1.0, 2.0]), np.zeros(2), opts)
    staged = hanso(quadratic([1.0, 2.0]), [np.zeros(2)], opts)
    assert staged.f_best <= alone.f_best + 1e-15
    assert isinstance(staged.phase_reached, Phase)


def test_hanso_skips_infeasible_starts():
    def two_well(x):
        f = (x[0] ** 2 - 1.0) ** 2
        return float(f), np.array([4.0 * x[0] * (x[0] ** 2 - 1.0)])

    def guarded(x):
        if abs(x[0]) > 10.0:
            return math.inf, None
        return two_well(x)

    res = hanso(guarded, [np.array([50.0]), np.array([2.0])], OptOptions())
    assert res.f_best <= 1e-10
    assert abs(abs(res.x_best[0]) - 1.0) <= 1e-4


def test_hanso_two_well_finds_a_minimum_from_both_sides():
    def two_well(x):
        f = (x[0] ** 2 - 1.0) ** 2
        return float(f), np.array([4.0 * x[0] * (x[0] ** 2 - 1.0)])

    res = hanso(two_well, [np.array([-2.0]), np.array([2.0])], OptOptions())
    assert res.f_best <= 1e-10
    assert abs(abs(res.x_best[0]) - 1.0) <= 1e-4


def test_hanso_all_starts_infeasible_raises():
    def oracle(x):
        return math.inf, None

    with pytest.raises(AllStartsInfeasible):
        hanso(oracle, [np.zeros(1), np.ones(1)], OptOptions())


def test_monotone_incumbents_and_feasibility():
    seen = []

    def recording(x):
        f, g = max_plus_quad(x)
        seen.append(f)
        return f, g

    res = hanso(recording, [np.array([2.0, -1.0])], OptOptions(rng_seed=1))
    assert math.isfinite(res.f_best)
    assert res.f_best <= min(seen) + 1e-15
    assert res.n_evals == len(seen)


def test_budget_is_respected():
    calls = {"n": 0}

    def slow(x):
        calls["n"] += 1
        time.sleep(0.01)
        r = x - np.ones(3)
        return float(r @ r), 2.0 * r

    t0 = time.perf_counter()
    res = gradient_sampling(
        slow, np.zeros(3), OptOptions(cpu_budget_seconds=0.15, rng_seed=2)
    )
    wall = time.perf_counter() - t0
    assert wall <= 2.0
    assert res.elapsed_seconds <= 0.15 + 0.2


def test_result_fields_are_consistent():
    res = bfgs_nonsmooth(quadratic([1.0]), np.zeros(1), OptOptions(max_iters=30))
    assert isinstance(res, OptResult)
    assert res.optimality_measure >= 0.0
    assert res.n_evals >= res.iterations
    assert res.status in {
        "gradient-tolerance",
        "line-search",
        "iteration-limit",
        "budget",
    }
