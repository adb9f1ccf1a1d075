"""Two-stage synthesis driver: stabilization, performance, multi-start."""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

import fixedhinf.analysis as analysis
import fixedhinf.gradients as gradients_module
import fixedhinf.optimize as optimize_module
import fixedhinf.synthesis as synthesis_module
import oracles
from conftest import INTERIOR_OPTIMUM, random_plant
from fixedhinf import (
    Controller,
    DimensionMismatch,
    EigenFailure,
    IllPosed,
    NoStabilizingController,
    NotStabilizing,
    OptOptions,
    Plant,
    SynthesisOptions,
    SynthesisStatus,
    abscissa_gradient,
    certify_controller,
    hinf_gradient,
    hinf_norm,
    lft_closed_loop,
    optimize_performance,
    pack_controller,
    random_controller,
    spectral_abscissa,
    stabilize,
    synthesize,
    unpack_controller,
)

QUICK = dict(cpumax_seconds=30.0)


@pytest.fixture
def one_cpu(monkeypatch):
    """One usable CPU: synthesize runs every run in this process, where a
    monkeypatch sees each call."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def _scalar_unstable_plant():
    return Plant.from_blocks([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])


def test_random_controller_scale_zero_is_zero_controller():
    rng = np.random.default_rng(0)
    k = random_controller(2, ny=2, nu=1, scale=0.0, rng=rng)
    assert not pack_controller(k).any()


def test_random_controller_is_seed_deterministic():
    a = random_controller(2, 2, 2, 1.0, np.random.default_rng(7))
    b = random_controller(2, 2, 2, 1.0, np.random.default_rng(7))
    assert np.array_equal(pack_controller(a), pack_controller(b))


def test_random_controller_entry_variance_tracks_scale():
    rng = np.random.default_rng(1)
    scale = 2.5
    draws = np.concatenate(
        [pack_controller(random_controller(2, 2, 2, scale, rng)) for _ in range(8000)]
    )
    assert draws.size >= 1e5
    assert np.var(draws) == pytest.approx(scale * scale, rel=0.05)


def test_stabilize_returns_immediately_for_stable_plant(make_plant):
    plant = make_plant(n=3, m1=2, m2=1, p1=2, p2=1, stable=True)
    k, absc = stabilize(plant, SynthesisOptions(order=0, **QUICK))
    assert absc.alpha < 0.0
    assert spectral_abscissa(lft_closed_loop(plant, k).A).alpha == pytest.approx(
        absc.alpha
    )


def test_stabilize_scalar_unstable_plant_finds_dk_below_minus_one():
    k, absc = stabilize(_scalar_unstable_plant(), SynthesisOptions(order=0, **QUICK))
    assert k.DK[0, 0] < -1.0
    assert absc.alpha < 0.0


def test_stabilize_respects_margin():
    margin = 0.35
    k, absc = stabilize(
        _scalar_unstable_plant(),
        SynthesisOptions(order=0, stabilization_margin=margin, **QUICK),
    )
    assert absc.alpha < -margin


def test_stabilize_raises_when_control_has_no_authority():
    # B2 = 0: the unstable mode is uncontrollable at any order
    plant = Plant.from_blocks([[1.0]], [[1.0]], [[0.0]], [[1.0]], [[1.0]])
    with pytest.raises(NoStabilizingController, match="stalled") as info:
        stabilize(plant, SynthesisOptions(order=0, cpumax_seconds=2.0, max_iters=40))
    assert getattr(info.value, "best_abscissa", 1.0) >= 1.0 - 1e-9


def test_stabilize_says_when_the_deadline_stopped_it(monkeypatch):
    real = synthesis_module._abscissa_branch
    calls = []

    def slow(*args):
        calls.append(args)
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(synthesis_module, "_abscissa_branch", slow)
    # the zero controller leaves the unstable pole at +1
    with pytest.raises(NoStabilizingController, match="ran out of time") as info:
        stabilize(_scalar_unstable_plant(), SynthesisOptions(order=0, cpumax_seconds=0.01))
    assert len(calls) == 1
    assert info.value.best_abscissa == pytest.approx(1.0)


def test_stabilize_says_when_every_start_was_infeasible(monkeypatch):
    def failed(ports, cl, L, R, errors):
        return EigenFailure("eigenvalue iteration failed on the closed loop")

    monkeypatch.setattr(synthesis_module, "_abscissa_branch", failed)
    with pytest.raises(NoStabilizingController, match="every stage-1 start was infeasible"):
        stabilize(_scalar_unstable_plant(), SynthesisOptions(order=0, **QUICK))


def test_stabilize_succeeds_on_synthetic_plants_across_seeds(rng):
    # scalar and two-state unstable plants; the two-state loop is statically
    # stabilizable (dk < -0.7 works: trace 0.7 + dk, det 0.12 - 0.6 dk)
    two_state = Plant.from_blocks(
        [[0.4, 1.0], [0.0, 0.3]], np.eye(2), [[0.0], [1.0]], np.eye(2), [[1.0, 1.0]]
    )
    ok = 0
    for seed in range(10):
        plant = _scalar_unstable_plant() if seed % 2 else two_state
        try:
            _, absc = stabilize(
                plant, SynthesisOptions(order=0, rng_seed=seed, **QUICK)
            )
            ok += absc.alpha < 0.0
        except NoStabilizingController:
            pass
    assert ok >= 9


@pytest.mark.parametrize("rel_tol", [0.0, 1e-13, 0.5])
def test_synthesis_options_reject_an_out_of_range_norm_tolerance(rel_tol):
    # checked at construction, not after stage 1 has run
    with pytest.raises(ValueError, match="rel_tol"):
        SynthesisOptions(norm_rel_tol=rel_tol)
    assert SynthesisOptions(norm_rel_tol=1e-12).norm_rel_tol == 1e-12


@pytest.mark.parametrize(
    "field, value",
    [
        ("order", -1),
        ("runs", 0),
        ("cpumax_seconds", 0.0),
        ("cpumax_seconds", math.nan),
        ("init_scale", 0.0),
        ("init_scale", math.nan),
        ("init_scale", math.inf),
        ("stabilization_margin", -0.1),
        ("stabilization_margin", math.nan),
        ("stabilization_margin", math.inf),
        ("norm_rel_tol", math.nan),
        ("stage1_starts", 0),
        ("max_iters", 0),
    ],
)
def test_synthesis_options_reject_out_of_range_values(field, value):
    # checked at construction, before any run starts; NaN fails every check
    with pytest.raises(ValueError, match=field.removeprefix("norm_")):
        SynthesisOptions(**{field: value})


def test_optimize_performance_no_authority_returns_start_norm():
    # B2 = 0 and C2 only measured: controller cannot move the closed loop
    plant = Plant.from_blocks(
        [[-1.0]], [[1.0]], [[0.0]], [[1.0]], [[1.0]]
    )
    k0 = Controller.static([[0.7]])
    base = hinf_norm(lft_closed_loop(plant, k0)).gamma
    k, absc, cert = optimize_performance(plant, k0, SynthesisOptions(order=0, **QUICK))
    assert absc.alpha == pytest.approx(-1.0)
    assert cert.gamma == pytest.approx(base, rel=1e-9)


def test_optimize_performance_scalar_closed_form():
    # norm is |2 + dk|, stability never binds; optimum dk = -2, norm 0
    plant = Plant.from_blocks(
        [[-1.0]], [[0.0]], [[0.0]], [[0.0]], [[0.0]],
        D11=[[2.0]], D12=[[1.0]], D21=[[1.0]],
    )
    k, _, cert = optimize_performance(
        plant, Controller.static([[0.0]]), SynthesisOptions(order=0, **QUICK)
    )
    assert k.DK[0, 0] == pytest.approx(-2.0, abs=1e-6)
    assert cert.gamma <= 1e-6


def test_optimize_performance_rejects_destabilizing_start():
    plant = _scalar_unstable_plant()
    with pytest.raises(NotStabilizing):
        optimize_performance(plant, Controller.static([[0.0]]))


def test_optimize_performance_rejects_an_ill_posed_start():
    # D22 = DK = 1: I - D22 DK is singular, so the loop does not exist
    plant = Plant.from_blocks([[-1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], D22=[[1.0]])
    with pytest.raises(NotStabilizing):
        optimize_performance(plant, Controller.static([[1.0]]), SynthesisOptions(**QUICK))


def test_certify_controller_rejects_a_destabilizing_controller():
    with pytest.raises(NotStabilizing):
        certify_controller(_scalar_unstable_plant(), Controller.static([[0.0]]))


def test_certify_controller_takes_the_abscissa_from_the_norms_eigenvalues(
    interior_plant, rng, monkeypatch
):
    cases = [(interior_plant, Controller.static([[-2.0]]))]
    for _ in range(6):
        plant = random_plant(rng, 5, 2, 2, 2, 2, stable=True)
        cases.append((plant, random_controller(0, 2, 2, 0.1, rng)))
    want = [spectral_abscissa(lft_closed_loop(plant, k).A).alpha for plant, k in cases]

    def no_second_eigensolve(A):
        raise AssertionError("certify_controller eigendecomposed the loop again")

    monkeypatch.setattr(synthesis_module, "spectral_abscissa", no_second_eigensolve)
    for (plant, k), alpha in zip(cases, want):
        absc, cert = certify_controller(plant, k)
        assert abs(absc.alpha - alpha) <= 1e-12 * abs(alpha)
        assert absc.is_stable and cert.converged


def test_synthesize_static_reaches_known_interior_optimum(interior_plant):
    res = synthesize(
        interior_plant, SynthesisOptions(order=0, runs=3, rng_seed=0, **QUICK)
    )
    assert res.status is SynthesisStatus.SUCCESS
    assert res.norm == pytest.approx(INTERIOR_OPTIMUM, rel=1e-6)
    assert res.controller.DK[0, 0] == pytest.approx(-INTERIOR_OPTIMUM, rel=1e-4)
    assert res.abscissa < 0.0


def test_synthesize_order_one_matches_static_optimum(interior_plant):
    # the optimum is interior, so extra controller states cannot help
    res = synthesize(
        interior_plant, SynthesisOptions(order=1, runs=3, rng_seed=0, **QUICK)
    )
    assert res.status is SynthesisStatus.SUCCESS
    assert res.norm == pytest.approx(INTERIOR_OPTIMUM, rel=1e-5)


def test_synthesize_per_run_records(interior_plant):
    res = synthesize(
        interior_plant, SynthesisOptions(order=0, runs=4, rng_seed=5, **QUICK)
    )
    assert len(res.per_run) == 4
    finite = [r.stage2_norm for r in res.per_run if np.isfinite(r.stage2_norm)]
    assert finite
    assert res.norm == pytest.approx(min(finite), rel=1e-9)
    assert len({r.seed for r in res.per_run}) == 4
    assert all(r.elapsed_seconds >= 0.0 for r in res.per_run)


def test_synthesize_certificate_matches_fresh_recomputation(interior_plant):
    res = synthesize(
        interior_plant, SynthesisOptions(order=0, runs=2, rng_seed=1, **QUICK)
    )
    absc, cert = certify_controller(interior_plant, res.controller)
    assert absc.alpha < 0.0
    assert abs(cert.gamma - res.norm) <= 1e-6 * (1.0 + res.norm)
    assert res.certificate is not None
    assert res.certificate.gamma == pytest.approx(cert.gamma, rel=1e-9)


def test_synthesize_single_run_consistent_with_stage_calls(interior_plant):
    opts = SynthesisOptions(order=0, runs=1, rng_seed=9, **QUICK)
    res = synthesize(interior_plant, opts)
    assert res.status is SynthesisStatus.SUCCESS
    assert len(res.per_run) == 1
    assert res.per_run[0].stage2_norm == pytest.approx(res.norm, rel=1e-12)


@pytest.mark.parametrize("runs", [1, 3])
def test_synthesize_builds_two_loops_per_run(interior_plant, monkeypatch, one_cpu, runs):
    # per run: stage 1's abscissa and stage 2's certificate, whose abscissa
    # the winner keeps
    real = synthesis_module.lft_closed_loop
    calls = []

    def counting(plant, k):
        calls.append(k)
        return real(plant, k)

    monkeypatch.setattr(synthesis_module, "lft_closed_loop", counting)
    res = synthesize(interior_plant, SynthesisOptions(order=0, runs=runs, rng_seed=0, **QUICK))
    assert all(np.isfinite(r.stage2_norm) for r in res.per_run)
    assert len(calls) == 2 * runs


def _run_fields(res):
    runs = [(r.seed, r.stage1_abscissa, r.stage2_norm, r.converged) for r in res.per_run]
    cert = res.certificate
    return runs, pack_controller(res.controller).tolist(), cert.gamma, cert.omega_peak


@pytest.fixture
def forks(monkeypatch) -> list:
    """The pids of the children that os.fork starts from now on."""
    children = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return children


def _assert_reaped(children):
    for pid in children:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert multiprocessing.active_children() == []


def test_synthesize_in_a_pool_equals_the_serial_loop(interior_plant, monkeypatch, forks):
    opts = SynthesisOptions(order=1, runs=3, rng_seed=4, max_iters=60, **QUICK)
    cpus = len(os.sched_getaffinity(0))
    pooled = synthesize(interior_plant, opts)
    _assert_reaped(forks)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = synthesize(interior_plant, opts)
    # only the first call, and only with a second CPU, starts children: one
    # per usable CPU but this process's
    assert len(forks) == min(opts.runs, cpus) - 1
    assert _run_fields(pooled) == _run_fields(serial)


def test_a_run_that_raises_in_a_child_raises_in_the_caller(interior_plant, monkeypatch, forks):
    real = synthesis_module._run

    def fails_at_run_one(plant, opts, r):
        if r == 1:
            raise EigenFailure("run 1 failed")
        return real(plant, opts, r)

    monkeypatch.setattr(synthesis_module, "_run", fails_at_run_one)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(EigenFailure, match="run 1 failed"):
        synthesize(interior_plant, SynthesisOptions(order=0, runs=2, max_iters=20, **QUICK))
    assert len(forks) == 1
    _assert_reaped(forks)


def test_a_child_that_ends_without_a_result_raises_in_the_caller(
    interior_plant, monkeypatch, forks
):
    real = synthesis_module._run

    def exits_at_run_one(plant, opts, r):
        if r == 1:
            os._exit(3)
        return real(plant, opts, r)

    monkeypatch.setattr(synthesis_module, "_run", exits_at_run_one)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(RuntimeError, match="a synthesis child ended with status"):
        synthesize(interior_plant, SynthesisOptions(order=0, runs=2, max_iters=20, **QUICK))
    assert len(forks) == 1
    _assert_reaped(forks)


def test_a_child_error_that_cannot_be_pickled_raises_in_the_caller(
    interior_plant, monkeypatch, forks
):
    real = synthesis_module._run

    def fails_at_run_one(plant, opts, r):
        if r == 1:
            # a lambda cannot be pickled, and neither can an error that holds one
            raise EigenFailure("run 1 failed", lambda: None)
        return real(plant, opts, r)

    monkeypatch.setattr(synthesis_module, "_run", fails_at_run_one)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(RuntimeError, match="a synthesis child could not send EigenFailure"):
        synthesize(interior_plant, SynthesisOptions(order=0, runs=2, max_iters=20, **QUICK))
    assert len(forks) == 1
    _assert_reaped(forks)


def test_a_run_that_raises_in_the_caller_ends_the_children(interior_plant, monkeypatch, forks):
    def run(plant, opts, r):
        if r == 0:
            raise EigenFailure("run 0 failed")
        time.sleep(60.0)

    monkeypatch.setattr(synthesis_module, "_run", run)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    t0 = time.perf_counter()
    with pytest.raises(EigenFailure, match="run 0 failed"):
        synthesize(interior_plant, SynthesisOptions(order=0, runs=3, **QUICK))
    # the children, still asleep, were killed rather than waited for
    assert time.perf_counter() - t0 < 30.0
    assert len(forks) == 2
    _assert_reaped(forks)


def _synthesize_fields(plant, opts):
    return _run_fields(synthesize(plant, opts))


def test_synthesize_in_a_daemonic_process_runs_serially(interior_plant, one_cpu):
    opts = SynthesisOptions(order=0, runs=3, rng_seed=2, max_iters=60, **QUICK)
    # a pool worker may not start processes of its own
    with multiprocessing.get_context("fork").Pool(1) as pool:
        in_worker = pool.apply(_synthesize_fields, (interior_plant, opts))
    assert in_worker == _synthesize_fields(interior_plant, opts)


def test_synthesize_rejects_a_wrong_warm_start_before_any_run(interior_plant, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started for a warm start of the wrong order")

    monkeypatch.setattr(os, "fork", no_pool)
    monkeypatch.setattr(synthesis_module, "_run", no_pool)
    warm = Controller.zero(1, interior_plant.p2, interior_plant.m2)
    with pytest.raises(DimensionMismatch, match="warm start"):
        synthesize(interior_plant, SynthesisOptions(order=0, runs=3, warm_start=warm))


def test_synthesize_is_deterministic_per_seed(interior_plant):
    opts = SynthesisOptions(order=0, runs=2, rng_seed=123, **QUICK)
    a = synthesize(interior_plant, opts)
    b = synthesize(interior_plant, opts)
    assert np.array_equal(pack_controller(a.controller), pack_controller(b.controller))
    assert a.norm == b.norm
    assert [r.stage2_norm for r in a.per_run] == [r.stage2_norm for r in b.per_run]


def _two_state_family() -> list[Plant]:
    """Eight two-state plants that meet DGKF's normalizing assumptions,
    drawn in turn from one generator: r0 to r7."""
    rng = np.random.default_rng(7)
    plants = []
    for _ in range(8):
        A = rng.standard_normal((2, 2)) + 0.3 * np.eye(2)
        B1 = np.hstack([rng.standard_normal((2, 1)), np.zeros((2, 1))])
        B2 = rng.standard_normal((2, 1))
        C1 = np.vstack([rng.standard_normal((1, 2)), np.zeros((1, 2))])
        C2 = rng.standard_normal((1, 2))
        plants.append(Plant.from_blocks(A, B1, B2, C1, C2, D12=[[0.0], [1.0]], D21=[[0.0, 1.0]]))
    return plants


# (plant, order) where one run stops more than 1e-6 above gamma_opt: r5 at
# order 2 ends 2.55e-6 above it from a random stage-1 start, a local stop
# of stage 2 (ROADMAP item 7).  Pinned, so that a change either way shows.
_SHORT_OF_THE_OPTIMUM = {(5, 2)}


@pytest.mark.parametrize("r", range(8), ids=[f"r{r}" for r in range(8)])
def test_no_controller_beats_the_full_order_optimum(r):
    """DGKF's full-order optimum bounds the norm of every stabilizing
    controller of any order from below, and one run reaches it at orders 1
    and 2 (the plants' full order), also where stage 1 returns the zero
    controller's saddle (r0 and r2 to r4)."""
    plant = _two_state_family()[r]
    gamma_opt = oracles.dgkf_gamma_opt(plant)
    if r == 2:
        assert abs(gamma_opt - 1.4538145319299958) <= 1e-12
    for order in (0, 1, 2):
        res = synthesize(plant, SynthesisOptions(order=order, runs=1, stabilization_margin=0.01))
        assert res.norm >= gamma_opt * (1.0 - 1e-9), (order, res.norm, gamma_opt)
        if order:
            short = res.norm > gamma_opt * (1.0 + 1e-6)
            assert short == ((r, order) in _SHORT_OF_THE_OPTIMUM), (order, res.norm, gamma_opt)


@pytest.mark.parametrize("order", [1, 2])
def test_the_stage2_start_is_off_the_saddle(rng, order):
    """At the zero controller every AK, BK and CK gradient entry of both
    stage objectives vanishes.  Stage 2 starts from it with CK drawn, which
    keeps the closed-loop poles and gives BK a stage-2 gradient."""
    plant = random_plant(rng, 3, 2, 2, 2, 2, stable=True)
    k = synthesis_module._default_start(plant, order)
    stage1 = synthesis_module._stage1_oracle(plant, order)
    stage2 = synthesis_module._stage2_oracle(plant, order, 1e-7)
    for oracle in (stage1, stage2):
        f, g = oracle(pack_controller(k), math.inf)
        assert math.isfinite(f)
        gk = unpack_controller(g, order, plant.p2, plant.m2)
        assert not (gk.AK.any() or gk.BK.any() or gk.CK.any())
    k2 = synthesis_module._stage2_start(k, 1.0, np.random.default_rng(0))
    assert np.array_equal(k2.AK, k.AK) and not k2.BK.any() and not k2.DK.any() and k2.CK.all()
    alpha = stage1(pack_controller(k), math.inf)[0]
    assert stage1(pack_controller(k2), math.inf)[0] == pytest.approx(alpha, abs=1e-12)
    f, g = stage2(pack_controller(k2), math.inf)
    assert math.isfinite(f)
    assert np.abs(unpack_controller(g, order, plant.p2, plant.m2).BK).max() > 1e-6
    # off the saddle already: kept as it is
    assert synthesis_module._stage2_start(k2, 1.0, np.random.default_rng(0)) is k2


def test_synthesize_more_runs_never_worse(rng):
    plant = random_plant(rng, 3, 2, 1, 2, 1, stable=True, margin=0.2)
    base = SynthesisOptions(order=0, runs=3, rng_seed=77, max_iters=120, **QUICK)
    more = SynthesisOptions(order=0, runs=6, rng_seed=77, max_iters=120, **QUICK)
    a = synthesize(plant, base)
    b = synthesize(plant, more)
    # nested per-run seeds: the first three runs coincide
    assert [r.seed for r in b.per_run[:3]] == [r.seed for r in a.per_run]
    assert b.norm <= a.norm + 1e-12


def test_synthesize_warm_start_is_used_and_improved(interior_plant):
    warm = Controller.static([[-2.0]])
    res = synthesize(
        interior_plant,
        SynthesisOptions(order=0, runs=1, rng_seed=0, warm_start=warm, **QUICK),
    )
    warm_norm = hinf_norm(lft_closed_loop(interior_plant, warm)).gamma
    assert res.norm <= warm_norm + 1e-12
    assert res.norm == pytest.approx(INTERIOR_OPTIMUM, rel=1e-6)


def _plant2():
    """The two-state unstable plant of the CI's plant2.json."""
    return Plant.from_blocks(
        [[0.0, 0.4], [0.5, 0.9]],
        [[0.3], [-0.1]],
        [[-0.3], [1.1]],
        [[-2.3, -0.1], [0.0, 0.0]],
        [[0.0, -1.4]],
        D12=[[0.0], [1.0]],
        D21=[[1.0]],
    )


# every entry finite, but the closed loop on _plant2 overflows
_OVERFLOW = Controller([[-1.0]], [[1.7e308]], [[1.7e308]], [[1.7e308]])


def test_a_warm_start_whose_loop_overflows_is_an_infeasible_start():
    """Every controller entry is finite, but the closed loop overflows: the
    stage-1 oracle gives it f = +inf, as stage 2 would, and synthesis goes
    on from the other starts exactly as without the warm start, with no
    floating-point warning."""
    plant = _plant2()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        f = synthesis_module._stage1_oracle(plant, 1)(pack_controller(_OVERFLOW), math.inf)
        assert f == (math.inf, None)
        opts = SynthesisOptions(order=1, runs=1, rng_seed=0, **QUICK)
        got = synthesize(plant, replace(opts, warm_start=_OVERFLOW))
    want = synthesize(plant, opts)
    assert got.status is want.status is SynthesisStatus.SUCCESS
    assert got.norm == want.norm and got.abscissa == want.abscissa
    assert np.array_equal(pack_controller(got.controller), pack_controller(want.controller))
    assert [(r.seed, r.stage1_abscissa, r.stage2_norm) for r in got.per_run] == [
        (r.seed, r.stage1_abscissa, r.stage2_norm) for r in want.per_run
    ]


@pytest.mark.parametrize(
    "call", [lft_closed_loop, abscissa_gradient, hinf_gradient, certify_controller]
)
def test_a_loop_that_overflows_does_not_exist(call):
    """A controller of finite entries whose closed loop overflows is an
    IllPosed loop at the public boundary, with no floating-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IllPosed, match="not finite"):
            call(_plant2(), _OVERFLOW)


def test_synthesize_warm_start_order_mismatch_is_rejected(interior_plant):
    warm = Controller.static([[-2.0]])
    with pytest.raises(DimensionMismatch, match="order"):
        synthesize(
            interior_plant,
            SynthesisOptions(order=1, runs=1, warm_start=warm, **QUICK),
        )


def test_synthesize_failure_status_when_unstabilizable():
    plant = Plant.from_blocks([[1.0]], [[1.0]], [[0.0]], [[1.0]], [[1.0]])
    res = synthesize(
        plant, SynthesisOptions(order=0, runs=2, cpumax_seconds=1.0, max_iters=30)
    )
    assert res.status is SynthesisStatus.NO_STABILIZING_CONTROLLER
    assert res.controller is None
    assert not np.isfinite(res.norm)
    assert len(res.per_run) == 2


def test_synthesize_ranks_unconverged_norms_below_converged_ones(
    interior_plant, monkeypatch, one_cpu
):
    real = synthesis_module.hinf_norm
    certs = []

    def first_unconverged(cl, **kwargs):
        res = real(cl, **kwargs)
        certs.append(res)
        if len(certs) == 1:
            # run 0's certificate: lower than any real one, but not converged
            return replace(res, gamma=0.5 * res.gamma, converged=False)
        return res

    monkeypatch.setattr(synthesis_module, "hinf_norm", first_unconverged)
    res = synthesize(interior_plant, SynthesisOptions(order=0, runs=2, rng_seed=0, **QUICK))
    assert len(certs) == 2
    assert [r.converged for r in res.per_run] == [False, True]
    assert res.per_run[0].stage2_norm < res.per_run[1].stage2_norm
    assert res.certificate.converged
    assert res.norm == res.per_run[1].stage2_norm


def test_synthesize_warns_above_plant_order(interior_plant):
    with pytest.warns(UserWarning, match="order"):
        synthesize(
            interior_plant,
            SynthesisOptions(order=3, runs=1, rng_seed=0, max_iters=40, **QUICK),
        )


def test_synthesize_budget_bounds_runtime(interior_plant):
    import time

    t0 = time.perf_counter()
    synthesize(
        interior_plant,
        SynthesisOptions(order=0, runs=2, cpumax_seconds=0.3, rng_seed=0),
    )
    assert time.perf_counter() - t0 <= 5.0


def _packed_static(plant, scale, rng):
    return pack_controller(random_controller(0, plant.p2, plant.m2, scale, rng))


def test_stage2_oracle_without_a_bound_matches_hinf_gradient(interior_plant, rng):
    cases = [(interior_plant, Controller.static([[-2.0]]))]
    for _ in range(6):
        plant = random_plant(rng, 5, 2, 2, 2, 2, stable=True)
        cases.append((plant, random_controller(0, 2, 2, 0.1, rng)))
    # second-order controllers, D22 != 0: the oracle unpacks every block itself
    plant = random_plant(rng, 5, 2, 2, 2, 2, stable=True, d22=True)
    for _ in range(3):
        k = random_controller(2, 2, 2, 0.1, rng)
        cases.append((plant, Controller(k.AK - np.eye(2), k.BK, k.CK, k.DK)))
    for plant, k in cases:
        oracle = synthesis_module._stage2_oracle(plant, k.order, 1e-7)
        f, g = oracle(pack_controller(k), math.inf)
        rep = hinf_gradient(plant, k, rel_tol=1e-7)
        assert f == rep.value
        assert np.array_equal(g, rep.grad)


@pytest.mark.parametrize("d22", [False, True])
def test_stage1_oracle_matches_abscissa_gradient(rng, d22):
    """The oracle closes its loop from theta on padding built once, and
    gives the bits of the public gradient at every point."""
    for order in range(3):
        plant = random_plant(rng, 4, 2, 2, 2, 2, d22=d22)
        oracle = synthesis_module._stage1_oracle(plant, order)
        for _ in range(20):
            k = random_controller(order, 2, 2, 1.0, rng)
            f, g = oracle(pack_controller(k), math.inf)
            rep = abscissa_gradient(plant, k)
            assert f == rep.value
            assert np.array_equal(g, rep.grad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_oracles_give_a_non_finite_controller_f_inf(interior_plant, bad):
    theta = np.array([bad])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for oracle in (
            synthesis_module._stage1_oracle(interior_plant, 0),
            synthesis_module._stage2_oracle(interior_plant, 0, 1e-7),
        ):
            assert oracle(theta, math.inf) == (math.inf, None)


def test_stage2_oracle_below_the_norm_skips_the_level_set(rng, monkeypatch):
    solves = []
    real = analysis._hamiltonian
    monkeypatch.setattr(analysis, "_hamiltonian", lambda *a: solves.append(1) or real(*a))
    plant = random_plant(rng, 5, 2, 2, 2, 2, stable=True)
    theta = _packed_static(plant, 0.1, rng)
    norm = hinf_norm(lft_closed_loop(plant, unpack_controller(theta, 0, 2, 2))).gamma
    solves.clear()
    for bound in (-math.inf, 0.0, 0.5 * norm):
        f, g = synthesis_module._stage2_oracle(plant, 0, 1e-7)(theta, bound)
        assert bound < f <= norm
        # a value above a finite bound is a verdict, with no gradient; -inf
        # asks for the gradient of the value returned
        if bound == -math.inf:
            assert g.shape == theta.shape and np.all(np.isfinite(g))
        else:
            assert g is None
    # sigma_max at the poles already exceeds half the norm on this loop
    assert solves == []


def _record_stage2_calls(monkeypatch) -> list:
    """(theta, bound, f) of every stage-2 oracle call made from now on."""
    calls = []
    real_oracle = synthesis_module._stage2_oracle

    def recording_oracle(*args):
        oracle = real_oracle(*args)

        def recorded(theta, bound):
            f, g = oracle(theta, bound)
            calls.append((theta.copy(), bound, f))
            return f, g

        return recorded

    monkeypatch.setattr(synthesis_module, "_stage2_oracle", recording_oracle)
    return calls


def test_stage2_solves_a_hamiltonian_at_under_a_third_of_its_evaluations(rng, monkeypatch):
    plant = random_plant(rng, 5, 2, 2, 2, 2, stable=True)
    solves = []
    real = analysis._hamiltonian
    monkeypatch.setattr(analysis, "_hamiltonian", lambda *a: solves.append(1) or real(*a))
    calls = _record_stage2_calls(monkeypatch)
    # at default options, so that BFGS runs to its end before the bundle
    # phase: cut at 40 iterations, BFGS alone solves more Hamiltonians than
    # it makes evaluations, and the share then rests on how many samples the
    # bundle phase spends before it verifies
    optimize_performance(plant, Controller.static(np.zeros((2, 2))), SynthesisOptions(order=0))
    # the count includes the final certificate's solves
    assert 0 < len(solves) < sum(math.isfinite(f) for _, _, f in calls) / 3


def _two_resonance_plant():
    """Two velocity-measured modes, each damped by its own input: the mode at
    w = 3 peaks highest at the zero controller, the mode at w = 1 once the
    second input has damped the other one."""
    A = np.zeros((4, 4))
    A[0, 1] = A[2, 3] = 1.0
    A[1] = [-1.0, -0.1, 0.0, 0.0]
    A[3] = [0.0, 0.0, -9.0, -0.03]
    B = np.zeros((4, 2))
    B[1, 0] = B[3, 1] = 1.0
    C1 = np.zeros((4, 4))
    C1[0, 1] = C1[1, 3] = 1.0
    D12 = np.zeros((4, 2))
    D12[2, 0], D12[3, 1] = 0.5, 0.1
    zeros = np.zeros((2, 2))
    return Plant(A, B, B, C1, C1[:2], np.zeros((4, 2)), D12, zeros, zeros)


def test_every_accepted_point_carries_its_certified_norm(monkeypatch):
    plant = _two_resonance_plant()
    calls = _record_stage2_calls(monkeypatch)
    optimize_performance(plant, Controller.static(np.zeros((2, 2))), SynthesisOptions(order=0))
    # every point the optimizer accepts has f <= its bound; points above
    # their bound may have got a lower bound, which is only compared with it
    accepted = [(theta, f) for theta, bound, f in calls if f <= bound]
    assert len(accepted) < len(calls)
    peaks = set()
    for theta, f in accepted:
        k = unpack_controller(theta, 0, 2, 2)
        ref = hinf_gradient(plant, k, rel_tol=1e-7)
        assert f == pytest.approx(ref.value, rel=1e-12, abs=0.0)
        peaks.add(round(hinf_norm(lft_closed_loop(plant, k)).omega_peak))
    # the two resonances trade places along the path
    assert peaks == {1, 3}


def _jordan_plant():
    """A third-order Jordan block under static feedback through D22 = 1: the
    zero gain leaves the block, whose eigenvector basis is singular to
    working precision, DK = 1 makes the loop ill posed and DK = 0.9
    unstable."""
    A = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]])
    return Plant.from_blocks(
        A, [[1.0], [0.5], [0.2]], [[0.0], [0.0], [1.0]], [[1.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]],
        D22=[[1.0]],
    )


def _same_bits(got, want):
    (f, g), (f0, g0) = got, want
    assert f == f0
    assert (g is None) == (g0 is None)
    if g is not None:
        assert g.dtype == g0.dtype and g.tobytes() == g0.tobytes()


def test_stage2_batch_members_equal_single_calls():
    plant = _jordan_plant()
    # stable, unstable, ill posed, not finite, ill-conditioned eigenvectors
    thetas = np.array([[0.3], [0.9], [1.0], [math.nan], [0.0], [-3.0]])
    block = lft_closed_loop(plant, Controller.static([[0.0]]))
    assert analysis._residues(np.linalg.eig(block.A)[1], block.B, block.C) is None
    # (1 + k)^2 / (s + 1 - k) + k: the peak is at infinity for k = -2 and -3
    # and at dc for k = 0.5 and 0.3, so the gradients take two stacks
    first_order = Plant.from_blocks([[-1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]], D12=[[1.0]], D21=[[1.0]])
    cases = [
        (plant, thetas, -0.5, [False, True, True, True, False, False]),
        (first_order, np.array([[0.5], [-2.0], [0.3], [-3.0]]), 0.2, [False] * 4),
    ]
    for plant, thetas, hinted, infeasible in cases:
        serial = synthesis_module._stage2_oracle(plant, 0, 1e-7)
        batched = synthesis_module._stage2_oracle(plant, 0, 1e-7)
        # a certified call sets the peak hint of both
        for oracle in (serial, batched):
            oracle(np.array([hinted]), math.inf)
        got = batched.batch(thetas, -math.inf)
        for theta, member in zip(thetas, got):
            _same_bits(member, serial(theta, -math.inf))
        assert [math.isinf(f) for f, _ in got] == infeasible
    peaks = [hinf_norm(lft_closed_loop(first_order, Controller.static([[k]]))) for k in (0.5, -2.0)]
    assert [norm.attained_at_infinity for norm in peaks] == [False, True]


def test_stage2_batch_of_dynamic_controllers_equals_single_calls(rng):
    plant = random_plant(rng, 5, 2, 2, 2, 2, stable=True, d22=True)
    # more members than one stack takes, so the batch goes in two chunks
    size = synthesis_module._batch_size(plant.n + 2)
    base = pack_controller(random_controller(2, 2, 2, 0.3, rng))
    base[:4] -= np.eye(2).ravel()
    thetas = base + 0.05 * rng.standard_normal((size + 5, base.size))
    serial = synthesis_module._stage2_oracle(plant, 2, 1e-7)
    batched = synthesis_module._stage2_oracle(plant, 2, 1e-7)
    for oracle in (serial, batched):
        oracle(base, math.inf)
    for theta, member in zip(thetas, batched.batch(thetas, -math.inf)):
        _same_bits(member, serial(theta, -math.inf))


def test_a_certifying_batch_returns_every_row_and_moves_no_hint(monkeypatch):
    """At bound +inf every row of a batch is certified.  Each row still has
    the bits of a single call at the oracle's state before the batch, and
    the batch leaves the peak hint where it was."""
    plant = _jordan_plant()
    # stable, unstable, ill posed, not finite, ill-conditioned eigenvectors
    thetas = np.array([[0.3], [0.9], [1.0], [math.nan], [0.0], [-3.0], [-0.2]])
    hinted = np.array([-0.5])
    serial, batched = _hinted_pair(plant, 0, hinted)
    got = batched.batch(thetas, math.inf)
    assert len(got) == len(thetas)
    for theta, row in zip(thetas, got):
        _same_bits(row, _hinted_pair(plant, 0, hinted)[0](theta, math.inf))
    assert [math.isinf(f) for f, _ in got] == [False, True, True, True, False, False, False]
    hints = []
    real = synthesis_module._hinf_branch
    monkeypatch.setattr(
        synthesis_module, "_hinf_branch", lambda *a, **kw: hints.append(kw["hints"]) or real(*a, **kw)
    )
    probe = np.array([-2.0])
    _same_bits(batched(probe, -math.inf), serial(probe, -math.inf))
    assert hints[0] == hints[1]


def test_batch_size_caps_a_stacks_memory():
    assert synthesis_module._batch_size(11) == 25
    assert synthesis_module._batch_size(100) == 3
    assert synthesis_module._batch_size(1000) == 1


def test_optimize_performance_is_the_same_without_the_batch_form(monkeypatch):
    plant = _two_resonance_plant()
    # three iterations a phase leave the bundle unverified, so sampling runs
    opts = SynthesisOptions(order=0, max_iters=3)
    k0 = Controller.static(np.zeros((2, 2)))
    real = synthesis_module._stage2_oracle
    sizes = []

    def counted(*args):
        oracle = real(*args)
        batch = oracle.batch

        def counting(thetas, bound):
            sizes.append((len(thetas), bound))
            return batch(thetas, bound)

        oracle.batch = counting
        return oracle

    monkeypatch.setattr(synthesis_module, "_stage2_oracle", counted)
    k, absc, cert = optimize_performance(plant, k0, opts)
    # sample points in batches of 2 dim
    assert sizes and all(size == (8, -math.inf) for size in sizes)
    # the same oracle called point by point
    monkeypatch.setattr(
        synthesis_module, "_stage2_oracle", lambda *args: real(*args).__call__
    )
    k1, absc1, cert1 = optimize_performance(plant, k0, opts)
    assert pack_controller(k).tobytes() == pack_controller(k1).tobytes()
    assert cert.gamma == cert1.gamma and absc.alpha == absc1.alpha


def _stage2_call_counts(monkeypatch) -> dict:
    """Counts of the polish starts and peak gradients made from now on."""
    counts = {"polish": 0, "gradient": 0}
    polish, peak_gradient = analysis._polish_many, gradients_module._peak_gradient

    def counted_polish(ev, starts):
        counts["polish"] += len(starts)
        return polish(ev, starts)

    def counted_gradient(ports, cl, L, R, norms):
        counts["gradient"] += len(norms)
        return peak_gradient(ports, cl, L, R, norms)

    monkeypatch.setattr(analysis, "_polish_many", counted_polish)
    monkeypatch.setattr(gradients_module, "_peak_gradient", counted_gradient)
    return counts


def _hinted_pair(plant, order, theta):
    """Two stage-2 oracles whose peak hint a certified call at theta set."""
    pair = [synthesis_module._stage2_oracle(plant, order, 1e-7) for _ in range(2)]
    for oracle in pair:
        oracle(theta, math.inf)
    return pair


def test_stage2_trial_rows_pay_only_for_their_verdict(monkeypatch):
    plant = _jordan_plant()
    # unstable, ill posed, not finite, ill-conditioned eigenvectors, stable,
    # then the accepted trial
    thetas = np.array([[0.9], [1.0], [math.nan], [0.0], [0.3], [-3.0]])
    exact = [synthesis_module._stage2_oracle(plant, 0, 1e-7)(t, math.inf)[0] for t in thetas]
    # the rejected trials' bounds lie far below their norms, and so below
    # sigma_max at their pole frequencies; the accepted trial's lies above
    bounds = [0.0, 0.0, 0.0, 1e-3, 1e-3, 2.0 * exact[5]]
    serial, trials = _hinted_pair(plant, 0, np.array([-0.5]))
    counts = _stage2_call_counts(monkeypatch)
    got = [trials(theta, bound) for theta, bound in zip(thetas[:5], bounds)]
    # no rejected trial is polished or gets a gradient
    assert counts == {"polish": 0, "gradient": 0}
    for (f, g), bound, f_exact in zip(got, bounds, exact):
        assert g is None
        assert f == math.inf or bound < f <= f_exact
    assert [math.isinf(f) for f, _ in got] == [True, True, True, False, False]
    # the accepted trial gets the bits of a call at +inf, polish and gradient
    _same_bits(trials(thetas[5], bounds[5]), serial(thetas[5], math.inf))
    assert counts["gradient"] == 2 and counts["polish"] >= 2
    # and moves the hint as the plain call does
    hints = []
    real = synthesis_module._hinf_branch
    monkeypatch.setattr(
        synthesis_module, "_hinf_branch", lambda *a, **kw: hints.append(kw["hints"]) or real(*a, **kw)
    )
    probe = np.array([-2.0])
    _same_bits(trials(probe, -math.inf), serial(probe, -math.inf))
    assert hints[0] == hints[1]


def _replayed(plant, order, history):
    """A stage-2 oracle at the state of one whose calls that ran the level
    set were the (theta, bound) of history, in order, each replayed at its
    own bound."""
    oracle = synthesis_module._stage2_oracle(plant, order, 1e-7)
    for theta, bound in history:
        oracle(theta, bound)
    return oracle


def test_stage2_trial_chains_equal_single_calls(rng, monkeypatch):
    """Random trial chains along a line, at the weak-Wolfe levels, one call
    per trial: every trial has the verdict of a call at +inf from the same
    oracle state, and its bits where it is accepted; a rejected trial's
    value lies in (bound, the +inf call's value], with no gradient.  The
    reference reaches the chain's state by replaying, each at its own
    bound, the calls of the chain whose level set ran: a level set that
    stops once its lower bound passes the bound leaves the hint at the peak
    that passed it.  So the hint after the chain is checked too."""
    leveled = []
    real = synthesis_module._hinf_branch

    def recording(*args, **kwargs):
        (found,) = real(*args, **kwargs)
        leveled.append(not isinstance(found, Exception) and found[0].iterations > 0)
        return [found]

    monkeypatch.setattr(synthesis_module, "_hinf_branch", recording)
    chains = 0
    for case in range(12):
        order = case % 3
        plant = random_plant(rng, 4, 2, 2, 2, 2, stable=True, d22=case % 2 == 1)
        k = random_controller(order, 2, 2, 0.2, rng)
        if order:
            k = Controller(k.AK - np.eye(order), k.BK, k.CK, k.DK)
        x = pack_controller(k)
        d = rng.standard_normal(x.size)
        f0 = synthesis_module._stage2_oracle(plant, order, 1e-7)(x, math.inf)[0]
        if math.isinf(f0):
            continue
        chains += 1
        ts = 2.0 ** -np.arange(8.0) * 4.0
        thetas = x + ts[:, None] * d
        bounds = (f0 - 1e-4 * ts * f0).tolist()
        history = [(x, math.inf)]
        trials = _replayed(plant, order, history)
        for theta, bound in zip(thetas, bounds):
            leveled.clear()
            f, g = trials(theta, bound)
            (moved,) = leveled
            want = _replayed(plant, order, history)(theta, math.inf)
            if want[0] <= bound:
                _same_bits((f, g), want)
            else:
                assert g is None
                assert bound < f <= want[0]
            if moved:
                history.append((theta, bound))
        probe = x + 0.01 * d
        _same_bits(trials(probe, -math.inf), _replayed(plant, order, history)(probe, -math.inf))
    assert chains >= 6


@pytest.mark.parametrize("target", [-math.inf, 0.0], ids=["no-target", "target"])
def test_a_finite_bound_reaches_the_stage2_oracle_only_at_a_line_search_trial(
    monkeypatch, target
):
    """hanso on a stage-2 oracle calls it at a finite bound only at a
    weak-Wolfe or Armijo trial, each a plain call.  The other plain calls,
    the start and the bundle phase's ball samples, ask at +inf for the
    exact value and its gradient.  The batch form gets only gradient
    sampling's sample points: under bound -inf in a run without a target,
    and +inf in a run with one, so that a sample value below the target is
    exact.  On this plant every phase makes trials, both the BFGS and the
    bundle phase reject some of them, and the bundle phase draws ball
    samples."""
    plant = random_plant(np.random.default_rng(4), 4, 2, 2, 2, 2, stable=True)
    oracle = synthesis_module._stage2_oracle(plant, 0, 1e-7)
    phase, searching, drawn = [None], [False], [False]
    batches, plain = [], []

    def batch(thetas, bound, **kwargs):
        batches.append((phase[0], len(thetas), bound, kwargs))
        return oracle.batch(thetas, bound, **kwargs)

    def wrapped(theta, bound, **kwargs):
        assert not kwargs
        f, g = oracle(theta, bound)
        if searching[0]:
            kind = "wolfe"
        elif phase[0] == "gradient_sampling":
            kind = "armijo"
        else:
            kind = "ball" if drawn[0] else "start"
        drawn[0] = False
        plain.append((phase[0], kind, bound, f > bound and g is None))
        return f, g

    # the oracle's attributes, with the batch form wrapped
    vars(wrapped).update(vars(oracle), batch=batch)

    def entering(name, run):
        def phase_run(*args, **kwargs):
            phase[0] = name
            return run(*args, **kwargs)

        return phase_run

    for name in ("bfgs_nonsmooth", "bundle_phase", "gradient_sampling"):
        monkeypatch.setattr(optimize_module, name, entering(name, getattr(optimize_module, name)))
    weak_wolfe = optimize_module._weak_wolfe

    def search(*args):
        searching[0] = True
        try:
            return weak_wolfe(*args)
        finally:
            searching[0] = False

    monkeypatch.setattr(optimize_module, "_weak_wolfe", search)
    ball_sample = optimize_module._ball_sample

    def draw(*args):
        drawn[0] = phase[0] == "bundle_phase"
        return ball_sample(*args)

    monkeypatch.setattr(optimize_module, "_ball_sample", draw)
    res = optimize_module.hanso(
        wrapped, [np.zeros(4)], OptOptions(max_iters=20, rng_seed=5), target=target
    )
    assert "sampling:" in res.status and not res.status.endswith("target")
    sample_bound = -math.inf if target == -math.inf else math.inf
    assert batches and all(b == ("gradient_sampling", 8, sample_bound, {}) for b in batches)
    assert res.n_evals == len(plain) + 8 * len(batches)
    trials = [(p, bound, rejected) for p, kind, bound, rejected in plain if kind in ("wolfe", "armijo")]
    others = [(p, kind, bound) for p, kind, bound, _ in plain if kind not in ("wolfe", "armijo")]
    # every trial is at a finite bound, raised to the target, and nothing else is
    assert all(math.isfinite(bound) and bound >= target for _, bound, _ in trials)
    assert others[0] == ("bfgs_nonsmooth", "start", math.inf)
    assert others[1:] and all(o == ("bundle_phase", "ball", math.inf) for o in others[1:])
    for name in ("bfgs_nonsmooth", "bundle_phase"):
        assert any(p == name and rejected for p, _, rejected in trials)
    assert any(p == "gradient_sampling" for p, _, _ in trials)
