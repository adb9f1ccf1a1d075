"""Nonsmooth optimization stack: BFGS, hull subproblem, bundle, sampling."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import fixedhinf.optimize as optimize
import oracles
from fixedhinf import (
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

    def oracle(x, bound):
        r = x - a
        return float(r @ r), 2.0 * r

    return oracle


def absval(x, bound):
    return float(abs(x[0])), np.array([math.copysign(1.0, x[0])])


def rosenbrock(x, bound):
    f = (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
    g = np.array(
        [
            -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
            200.0 * (x[1] - x[0] ** 2),
        ]
    )
    return float(f), g


def linf(x, bound):
    i = int(np.argmax(np.abs(x)))
    g = np.zeros_like(x)
    g[i] = math.copysign(1.0, x[i])
    return float(np.max(np.abs(x))), g


def max_plus_quad(x, bound):
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
    with pytest.raises(ValueError):
        OptOptions(cpu_budget_seconds=math.nan)
    with pytest.raises(ValueError):
        OptOptions(max_iters=math.nan)


def test_bfgs_smooth_quadratic():
    res = bfgs_nonsmooth(quadratic([1.0, 2.0]), np.zeros(2), OptOptions(max_iters=50))
    assert res.f_best <= 1e-12
    assert np.allclose(res.x_best, [1.0, 2.0], atol=1e-6)


def test_bfgs_absolute_value():
    res = bfgs_nonsmooth(absval, np.array([1.0]), OptOptions(max_iters=100))
    assert res.f_best <= 1e-6


def test_bfgs_rosenbrock(monkeypatch):
    # a tighter gradient tolerance than the package's, for Rosenbrock's valley
    monkeypatch.setattr(optimize, "_GRAD_NORM_TOL", 1e-10)
    res = bfgs_nonsmooth(rosenbrock, np.array([-1.2, 1.0]), OptOptions(max_iters=500))
    assert res.f_best <= 1e-8
    assert res.iterations <= 500
    assert np.allclose(res.x_best, [1.0, 1.0], atol=1e-3)


@pytest.mark.parametrize("phase", [bfgs_nonsmooth, bundle_phase, gradient_sampling])
def test_phases_return_at_an_infeasible_start(phase):
    def oracle(x, bound):
        return math.inf, None

    res = phase(oracle, np.zeros(2))
    assert res.f_best == math.inf
    assert res.status == "infeasible-start"
    assert res.n_evals == 1 and res.iterations == 0


def test_bfgs_never_accepts_infeasible_iterates():
    # quadratic pulling toward a point outside the feasible unit ball
    def oracle(x, bound):
        if np.linalg.norm(x) > 1.0:
            return math.inf, None
        r = x - np.array([2.0, 0.0])
        return float(r @ r), 2.0 * r

    res = bfgs_nonsmooth(oracle, np.array([0.1, 0.1]), OptOptions(max_iters=200))
    assert math.isfinite(res.f_best)
    assert np.linalg.norm(res.x_best) <= 1.0 + 1e-12
    assert res.f_best <= oracle(np.array([0.1, 0.1]), math.inf)[0]


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


def test_min_norm_hull_is_optimal_on_two_clusters():
    # gradients at a kink: two tight clusters around two random directions,
    # where a solve on the Gram matrix loses half the digits
    rng = np.random.default_rng(5)
    for _ in range(200):
        dim = int(rng.integers(2, 15))
        count = int(rng.integers(2, 30))
        a, b = rng.standard_normal((2, dim))
        split = int(rng.integers(1, count))
        G = np.vstack([np.tile(a, (split, 1)), np.tile(b, (count - split, 1))])
        G += 1e-9 * rng.standard_normal((count, dim))
        d, w = min_norm_convex_hull(list(G))
        scale = float(np.max(np.sum(G * G, axis=1)))
        # optimality: no vector of the hull lies beyond the plane through d
        assert np.min(G @ d) >= d @ d - 1e-12 * scale
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= 0.0)
        assert np.allclose(d, w @ G, rtol=0.0, atol=1e-14 * math.sqrt(scale))


def test_bundle_verifies_linf_minimizer():
    res = bundle_phase(linf, np.zeros(2), OptOptions(rng_seed=3))
    assert res.optimality_measure <= 1e-6
    assert res.status == "verified"
    assert res.f_best <= 1e-9


def test_bundle_improves_from_nonstationary_point():
    res = bundle_phase(quadratic([1.0, 2.0]), np.array([4.0, -1.0]), OptOptions())
    assert res.f_best < quadratic([1.0, 2.0])(np.array([4.0, -1.0]), math.inf)[0]


def test_bundle_and_sampling_measures_agree_on_piecewise_linear(rng):
    """Both phases estimate distance from the origin to the active-gradient
    hull; on a random max-of-affine function they agree within a factor 10."""
    A = rng.standard_normal((6, 4))

    def pl(x, bound):
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
    def two_well(x, bound):
        f = (x[0] ** 2 - 1.0) ** 2
        return float(f), np.array([4.0 * x[0] * (x[0] ** 2 - 1.0)])

    def guarded(x, bound):
        if abs(x[0]) > 10.0:
            return math.inf, None
        return two_well(x, bound)

    res = hanso(guarded, [np.array([50.0]), np.array([2.0])], OptOptions())
    assert res.f_best <= 1e-10
    assert abs(abs(res.x_best[0]) - 1.0) <= 1e-4


def test_hanso_two_well_finds_a_minimum_from_both_sides():
    def two_well(x, bound):
        f = (x[0] ** 2 - 1.0) ** 2
        return float(f), np.array([4.0 * x[0] * (x[0] ** 2 - 1.0)])

    res = hanso(two_well, [np.array([-2.0]), np.array([2.0])], OptOptions())
    assert res.f_best <= 1e-10
    assert abs(abs(res.x_best[0]) - 1.0) <= 1e-4


def test_hanso_all_starts_infeasible_returns_infinite_f():
    def oracle(x, bound):
        return math.inf, None

    res = hanso(oracle, [np.zeros(1), np.ones(1)], OptOptions())
    assert res.f_best == math.inf
    assert res.status == "infeasible"
    assert res.n_evals == 2


def test_hanso_rejects_an_empty_start_list():
    with pytest.raises(ValueError, match="start"):
        hanso(quadratic([1.0]), [], OptOptions())


def test_hanso_past_the_deadline_still_tries_starts_until_one_is_feasible():
    def guarded(x, bound):
        if x[0] < 0.0:
            return math.inf, None
        return float(x @ x), 2.0 * x

    res = hanso(guarded, [np.array([-1.0]), np.array([3.0])], OptOptions(cpu_budget_seconds=1e-9))
    assert res.f_best == 9.0
    assert np.array_equal(res.x_best, [3.0])
    assert res.status.startswith("infeasible-start;bfgs:budget")
    assert res.n_evals == 2


def test_monotone_incumbents_and_feasibility():
    seen = []

    def recording(x, bound):
        f, g = max_plus_quad(x, bound)
        seen.append(f)
        return f, g

    res = hanso(recording, [np.array([2.0, -1.0])], OptOptions(rng_seed=1))
    assert math.isfinite(res.f_best)
    assert res.f_best <= min(seen) + 1e-15
    assert res.n_evals == len(seen)


def test_budget_is_respected():
    calls = {"n": 0}

    def slow(x, bound):
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


@pytest.mark.parametrize(
    "target, rejected",
    [
        # the first BFGS trial, x = -0.9999, lies below 0.9998 but fails the
        # Armijo test, so no phase ever holds it as an incumbent
        (0.9998, True),
        # the bisected trial x = 5e-5 is accepted
        (0.5, False),
    ],
)
def test_hanso_returns_the_first_point_below_the_target(target, rejected):
    calls = []

    def recording(x, bound):
        f = 0.99995 * float(x @ x)
        calls.append((x.copy(), f))
        return f, 2.0 * 0.99995 * x

    res = hanso(recording, [np.array([1.0]), np.array([5.0])], OptOptions(), target=target)
    x_hit, f_hit = calls[-1]
    assert all(f >= target for _, f in calls[:-1])
    assert f_hit < target
    assert np.array_equal(res.x_best, x_hit) and res.f_best == f_hit
    assert res.n_evals == len(calls)
    assert res.status.endswith(";target")
    # the second start is never evaluated once the target is met
    assert all(x[0] != 5.0 for x, _ in calls)
    f0 = calls[0][1]
    slope = -((2.0 * 0.99995) ** 2)
    assert (f_hit > f0 + 1e-4 * slope) == rejected


def test_hanso_shares_one_deadline_over_all_starts():
    delay, budget = 0.02, 0.1
    calls = []

    def slow(x, bound):
        calls.append(x.copy())
        time.sleep(delay)
        return linf(x, bound)

    starts = [np.full(3, float(s)) for s in (1, 2, 3, 4)]
    res = hanso(slow, starts, OptOptions(cpu_budget_seconds=budget))
    # no call starts past the deadline, and each call takes at least delay
    assert len(calls) <= budget / delay + 1
    assert res.n_evals == len(calls)
    assert res.status.endswith(";budget")
    assert res.elapsed_seconds >= budget
    assert not any(np.array_equal(x, starts[-1]) for x in calls)


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


def test_sampling_reports_the_iteration_limit():
    # one iteration stops the schedule at its first of three radii
    res = gradient_sampling(max_plus_quad, np.array([1.0, 1.1]), OptOptions(max_iters=1, rng_seed=42))
    assert res.iterations == 1
    assert res.status == "iteration-limit"


def _recording(fn, loose_seed=None):
    """fn as an oracle that records every (x, bound) it is asked; with a
    seed, above its bound it returns a value drawn from (bound, f] instead
    of f, and at a finite bound no gradient, the loosest answer the oracle
    contract allows."""
    rng = np.random.default_rng(loose_seed)
    calls = []

    def oracle(x, bound):
        calls.append((x.copy(), bound))
        f, g = fn(x, bound)
        if loose_seed is not None and f > bound:
            lo = max(bound, f - 1.0)
            drawn = f - rng.uniform() * (f - lo)
            # rounding may land on the bound itself, outside the interval
            f = drawn if drawn > bound else f
            g = None if math.isfinite(bound) else g
        return f, g

    return oracle, calls


@pytest.mark.parametrize(
    "fn, run",
    [
        (rosenbrock, lambda orc: bfgs_nonsmooth(orc, np.array([-1.2, 1.0]), OptOptions())),
        (max_plus_quad, lambda orc: bfgs_nonsmooth(orc, np.array([2.0, -1.0]), OptOptions())),
        (
            max_plus_quad,
            lambda orc: bundle_phase(orc, np.array([2.0, -1.0]), OptOptions(rng_seed=3)),
        ),
        (
            max_plus_quad,
            lambda orc: gradient_sampling(orc, np.array([1.0, 1.1]), OptOptions(rng_seed=4)),
        ),
        (max_plus_quad, lambda orc: hanso(orc, [np.array([2.0, -1.0]), np.array([0.5, 3.0])])),
        (max_plus_quad, lambda orc: hanso(orc, [np.array([2.0, -1.0])], target=-0.2)),
    ],
    ids=["bfgs-smooth", "bfgs-kink", "bundle", "sampling", "hanso", "hanso-target"],
)
def test_values_above_the_bound_change_no_decision(fn, run):
    exact, exact_calls = _recording(fn)
    loose, loose_calls = _recording(fn, loose_seed=8)
    a, b = run(exact), run(loose)
    assert len(exact_calls) == len(loose_calls) == a.n_evals == b.n_evals
    assert all(np.array_equal(x, y) for (x, _), (y, _) in zip(exact_calls, loose_calls))
    assert np.array_equal(a.x_best, b.x_best)
    assert a.f_best == b.f_best and a.status == b.status
    # the exact values below the target come from raising every bound to it
    target = -0.2 if a.status.endswith("target") else -math.inf
    assert all(bound >= target for _, bound in exact_calls)


def test_hanso_hands_its_point_to_each_refinement_phase():
    start = np.array([2.0, -1.0])
    handed = bfgs_nonsmooth(max_plus_quad, start, OptOptions(rng_seed=1)).x_best
    oracle, calls = _recording(max_plus_quad)
    res = hanso(oracle, [start], OptOptions(rng_seed=1))
    assert "bundle:" in res.status
    # BFGS evaluated its best point once; the refinement phases start there
    # from hanso's f and gradient instead of calling the oracle again
    assert sum(np.array_equal(x, handed) for x, _ in calls) == 1
    assert res.n_evals == len(calls)
    assert np.array_equal(res.g_best, max_plus_quad(res.x_best, math.inf)[1])


def test_hanso_refines_from_and_returns_the_least_exact_value(monkeypatch):
    """On f = -x up to its kink at x = 1 and -1 + 0.3 (x - 1) past it, the
    first BFGS search from x = 0 meets sufficient decrease at x = 1 with
    f = -1 but not the curvature condition, so it extrapolates to the
    Wolfe point x = 2, f = -0.7.  The run's incumbent stays at x = 1: BFGS
    returns it, the bundle phase starts there, and hanso returns it."""

    def v(x, bound):
        if x[0] <= 1.0:
            return -float(x[0]), np.array([-1.0])
        return 0.3 * (float(x[0]) - 1.0) - 1.0, np.array([0.3])

    oracle, calls = _recording(v)
    handed = []
    bundle = optimize.bundle_phase

    def recording_bundle(oracle, x0, opts, *, _track, _first):
        handed.append((x0.copy(), _first[0]))
        return bundle(oracle, x0, opts, _track=_track, _first=_first)

    monkeypatch.setattr(optimize, "bundle_phase", recording_bundle)
    res = hanso(oracle, [np.zeros(1)], OptOptions(max_iters=1))
    # the first search: x = 1 below its level, then x = 2 at its Wolfe point
    assert [x[0] for x, _ in calls[1:3]] == [1.0, 2.0]
    assert calls[1][1] == -optimize._WOLFE_C1
    assert len(handed) == 1 and handed[0][0][0] == 1.0 and handed[0][1] == -1.0
    assert res.status.startswith("bfgs:iteration-limit;bundle:")
    assert np.array_equal(res.x_best, [1.0]) and res.f_best == -1.0
    assert np.array_equal(res.g_best, [-1.0])


def _batched(fn):
    """fn as an oracle with a batch form.  Both forms record each point
    they evaluate, and calls records ("batch", rows, bound) for each batch
    and ("call", bound) for each plain call.  The batch form evaluates
    every row; a value above a finite bound comes with no gradient."""
    points, calls = [], []

    def evaluate(x, bound):
        points.append(x.copy())
        f, g = fn(x, bound)
        return f, (None if -math.inf < bound < f else g)

    def oracle(x, bound):
        calls.append(("call", bound))
        return evaluate(x, bound)

    def batch(xs, bound):
        calls.append(("batch", len(xs), bound))
        return [evaluate(x, bound) for x in xs]

    oracle.batch = batch
    return oracle, points, calls


@pytest.mark.parametrize(
    "fn, run",
    [
        (max_plus_quad, lambda orc: bfgs_nonsmooth(orc, np.array([2.0, -1.0]), OptOptions())),
        (rosenbrock, lambda orc: bfgs_nonsmooth(orc, np.array([-1.2, 1.0]), OptOptions())),
        (
            max_plus_quad,
            lambda orc: bundle_phase(orc, np.array([2.0, -1.0]), OptOptions(rng_seed=3)),
        ),
        (
            max_plus_quad,
            lambda orc: gradient_sampling(orc, np.array([1.0, 1.1]), OptOptions(rng_seed=4)),
        ),
        # three iterations a phase leave the bundle unverified, so sampling runs
        (
            max_plus_quad,
            lambda orc: hanso(
                orc,
                [np.array([2.0, -1.0]), np.array([0.5, 3.0])],
                OptOptions(max_iters=3, rng_seed=5),
            ),
        ),
        (max_plus_quad, lambda orc: hanso(orc, [np.array([2.0, -1.0])], target=-0.2)),
    ],
    ids=["bfgs-kink", "bfgs-rosenbrock", "bundle", "sampling", "hanso", "hanso-target"],
)
def test_the_batch_form_changes_no_run(fn, run):
    """Sample points go to the oracle's batch form in one call per
    iteration, everything else in plain calls, and the run is the one that
    single calls give: the same points evaluated in the same order."""
    plain, plain_calls = _recording(fn)
    a = run(plain)
    batched, points, calls = _batched(fn)
    b = run(batched)
    assert len(points) == len(plain_calls) == a.n_evals == b.n_evals
    assert all(np.array_equal(x, y) for (x, _), y in zip(plain_calls, points))
    assert np.array_equal(a.x_best, b.x_best)
    assert a.f_best == b.f_best and a.status == b.status
    assert all(call[1] == 4 for call in calls if call[0] == "batch")


@pytest.mark.parametrize("with_batch", [False, True])
def test_a_target_hit_inside_a_batch_counts_up_to_the_hit(with_batch):
    oracle, points, calls = _batched(quadratic([0.0]))
    if not with_batch:
        del oracle.batch
    track = optimize._Tracker(oracle, 60.0, target=0.5)
    xs = np.array([[2.0], [1.5], [0.5], [0.1], [3.0]])
    got = track.call_many(xs)
    # the third point is the first below the target; nothing after it counts
    assert [f for f, _ in got] == [4.0, 2.25, 0.25]
    assert track.n_evals == 3 and track.stop == "target"
    assert np.array_equal(track.best[0], [0.5]) and track.best[1] == 0.25
    # the batch form evaluates every row; single calls stop at the hit.
    # In a run with a target sample points are exact
    assert len(points) == (5 if with_batch else 3)
    assert calls == ([("batch", 5, math.inf)] if with_batch else [("call", math.inf)] * 3)


def _halving_table(values, slow_at=None):
    """An oracle whose f at x = (2^-k,) is values[k], with gradient 1: the
    trials of `_search`, all rejected up to the first at or below its
    level, which then meets the curvature condition too.  The trial at
    k = slow_at takes 0.2 s."""

    def fn(x, bound):
        k = round(-math.log2(x[0]))
        if k == slow_at:
            time.sleep(0.2)
        return values[k], np.array([1.0])

    return fn


def _search(track, f0=1.0):
    """`_weak_wolfe` from x = 0 along d = 1 with slope -1 at f0: its trials
    are x = 1, 1/2, 1/4, ... while they are rejected, at the levels
    f0 - 1e-4 x (see _levels)."""
    return optimize._weak_wolfe(track, np.zeros(1), f0, np.array([-1.0]), np.ones(1), -1.0)


def _levels(f0, count):
    """The plain calls of `_search`'s first count trials, each at its level."""
    return [("call", f0 + optimize._WOLFE_C1 * 2.0**-k * -1.0) for k in range(count)]


@pytest.mark.parametrize("with_batch", [False, True])
def test_a_line_search_evaluates_no_trial_past_the_accepted_one(with_batch):
    # the sixth trial is the first at or below its level
    values = [5.0, 4.0, 3.0, 2.0, 1.5, 0.5, 0.25, 0.1, 0.05]
    oracle, points, calls = _batched(_halving_table(values))
    if not with_batch:
        del oracle.batch
    track = optimize._Tracker(oracle, 60.0)
    t, xt, ft, gt, outcome = _search(track)
    assert (t, ft, outcome) == (2.0**-5, 0.5, "wolfe") and np.array_equal(xt, [2.0**-5])
    assert track.n_evals == len(points) == 6
    assert [x[0] for x in points] == [2.0**-k for k in range(6)]
    # each trial is a plain call at its level, with a batch form or without
    assert calls == _levels(1.0, 6)


@pytest.mark.parametrize("with_batch", [False, True])
def test_a_rejected_trial_equal_to_the_target_continues_the_chain(with_batch):
    # f == target does not meet the target, but it is at its bound,
    # max(level, target): the search rejects it and goes on to its next trial
    values = [5.0, 2.0, 0.5]
    oracle, points, calls = _batched(_halving_table(values))
    if not with_batch:
        del oracle.batch
    track = optimize._Tracker(oracle, 60.0, target=2.0)
    _search(track, 0.0)
    assert track.n_evals == len(points) == 3
    assert track.stop == "target" and track.best[1] == 0.5
    assert calls == [("call", 2.0)] * 3


def test_a_target_hit_ends_a_line_search_at_that_trial():
    values = [5.0, 4.0, 3.0, 0.5, 0.25, 2.0, 2.0]
    oracle, points, calls = _batched(_halving_table(values))
    track = optimize._Tracker(oracle, 60.0, target=1.0)
    # the fourth trial is below the target but above its level: the search
    # rejects it, and the incumbent below the target ends the search there
    assert _search(track, 0.0)[4] == "fail"
    assert track.stop == "target" and track.best[1] == 0.5 and track.n_evals == 4
    assert np.array_equal(track.best[0], [0.125])
    assert len(points) == 4 and calls == [("call", 1.0)] * 4


def test_a_deadline_ends_a_line_search_after_the_trial_that_passes_it():
    values = [5.0, 4.0, 3.0, 2.0, 1.5, 1.2]
    oracle, points, calls = _batched(_halving_table(values, slow_at=3))
    track = optimize._Tracker(oracle, 0.1)
    # the fourth trial passes the deadline; it counts, and none follows it
    assert _search(track)[4] == "fail"
    assert track.n_evals == len(points) == 4 and track.stop == "budget"
    assert calls == _levels(1.0, 4)


def _reference_weak_wolfe(track, x, f0, g0, d, slope0):
    """The weak-Wolfe search one call at a time, written apart from
    `_weak_wolfe` as its reference."""
    alpha = 0.0
    xa, fa, ga = x, f0, g0
    beta = math.inf
    t = 1.0
    for _ in range(optimize._LINE_SEARCH_STEPS):
        xt = x + t * d
        level = f0 + optimize._WOLFE_C1 * t * slope0
        ft, gt = track.call(xt, level)
        if not math.isfinite(ft) or ft > level:
            beta = t
        elif gt @ d < optimize._WOLFE_C2 * slope0:
            alpha, xa, fa, ga = t, xt, ft, gt
        else:
            return t, xt, ft, gt, "wolfe"
        if track.stop:
            break
        if math.isfinite(beta):
            if beta - alpha <= 1e-16 * max(1.0, alpha):
                break
            t = 0.5 * (alpha + beta)
        else:
            t = 2.0 * t
    if alpha > 0.0:
        return alpha, xa, fa, ga, "decrease"
    return 0.0, x, f0, g0, "fail"


def _walled(fn, wall):
    """fn with f = +inf where x[0] > wall."""

    def oracle(x, bound):
        return (math.inf, None) if x[0] > wall else fn(x, bound)

    return oracle


@pytest.mark.parametrize(
    "fn, x, scale",
    [
        (max_plus_quad, [2.0, -1.0], 1.0),
        (max_plus_quad, [2.0, -1.0], 40.0),
        (rosenbrock, [-1.2, 1.0], 1.0),
        (linf, [0.3, -0.2, 0.1], 1.0),
        (_walled(quadratic([3.0, 0.0]), 1.5), [1.0, 1.0], 1.0),
        # far too short a step: the curvature test fails and the step doubles
        (quadratic([100.0, -50.0]), [0.0, 0.0], 1e-3),
        # a direction that is not one of descent at the kink
        (absval, [0.0], -1.0),
    ],
    ids=["kink", "kink-long", "rosenbrock", "linf", "wall", "short", "no-descent"],
)
def test_weak_wolfe_with_trial_chains_equals_the_serial_search(fn, x, scale):
    """On an oracle with a batch form, which returns no gradient above a
    finite bound, each trial goes alone as a plain call at the reference's
    bound, and the search is the reference's."""
    x = np.array(x)
    f0, g0 = fn(x, math.inf)
    d = -scale * g0
    slope0 = float(g0 @ d)
    plain, plain_calls = _recording(fn)
    want = _reference_weak_wolfe(optimize._Tracker(plain, 60.0), x, f0, g0, d, slope0)
    batched, points, calls = _batched(fn)
    got = optimize._weak_wolfe(optimize._Tracker(batched, 60.0), x, f0, g0, d, slope0)
    assert len(points) == len(plain_calls)
    assert calls == [("call", bound) for _, bound in plain_calls]
    assert all(np.array_equal(p, q) for (p, _), q in zip(plain_calls, points))
    assert got[0] == want[0] and got[2] == want[2] and got[4] == want[4]
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[3], want[3])


def test_armijo_trials_halve_the_step_thirty_times():
    """One gradient-sampling iteration whose every trial is infeasible:
    30 trials x - t d at the Armijo levels f - c1 t |d|^2, t = 1, 1/2, ...,
    2^-29, each a plain call at its level, after the iteration's batch of
    samples."""
    x0 = np.array([1.0, 1.1])
    f0, g0 = max_plus_quad(x0, math.inf)
    batched, points, calls = _batched(max_plus_quad)
    trials, samples = [], []

    def oracle(x, bound):
        if math.isfinite(bound):
            trials.append((x.copy(), bound))
            return math.inf, None
        return batched(x, bound)

    def batch(xs, bound):
        found = batched.batch(xs, bound)
        samples.extend(g for _, g in found)
        return found

    oracle.batch = batch
    res = gradient_sampling(oracle, x0, OptOptions(max_iters=1, rng_seed=4))
    assert res.status == "iteration-limit" and res.n_evals == 1 + 4 + 30
    assert calls == [("call", math.inf), ("batch", 4, -math.inf)]
    d, _ = min_norm_convex_hull([g0] + samples)
    measure = float(np.linalg.norm(d))
    assert len(trials) == 30
    t = 1.0
    for xt, level in trials:
        assert np.array_equal(xt, x0 - t * d)
        assert level == f0 - optimize._WOLFE_C1 * t * measure * measure
        t *= 0.5


@pytest.mark.parametrize(
    "accepted_up_to, steps, outcome",
    [
        (0.0, [2.0**-k for k in range(50)], "fail"),
        (1.0, [1.0, 2.0] + [1.0 + 2.0**-k for k in range(1, 49)], "decrease"),
        (0.5, [1.0, 0.5] + [0.5 + 2.0**-k for k in range(2, 50)], "decrease"),
    ],
    ids=["all-rejected", "doubled-then-rejected", "rejected-then-accepted"],
)
def test_weak_wolfe_bisects_toward_the_last_accepted_step(accepted_up_to, steps, outcome):
    """Steps up to accepted_up_to give sufficient decrease but fail the
    curvature test: an accepted step doubles while no step was rejected,
    and otherwise each trial bisects [last accepted, last rejected], for
    50 trials at the levels f0 + c1 t slope0."""

    def fn(x, bound):
        return (-1.0 if x[0] <= accepted_up_to else 1.0), np.array([-1.0])

    oracle, calls = _recording(fn)
    track = optimize._Tracker(oracle, 60.0)
    got = optimize._weak_wolfe(track, np.zeros(1), 0.0, np.array([-1.0]), np.ones(1), -1.0)
    assert [x[0] for x, _ in calls] == steps
    assert [bound for _, bound in calls] == [optimize._WOLFE_C1 * t * -1.0 for t in steps]
    assert got[4] == outcome and got[0] == accepted_up_to
