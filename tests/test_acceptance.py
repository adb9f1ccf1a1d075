"""End-to-end acceptance checks.

Every test prints one verdict line of the form

    <check>  PASS|FAIL|SKIP  <detail>

and the lines are replayed in an "acceptance" section after the run.  The
benchmark reproductions need plant data files that are not redistributable
with the package; a check whose file is missing from the suite directory
reports SKIP and never fails the run.  Point FIXEDHINF_SUITE_DIR at a
directory of exported plant files to activate those checks.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import fixedhinf
import oracles
from conftest import INTERIOR_OPTIMUM, random_plant, record_verdict, stable_system
from fixedhinf import (
    NoStabilizingController,
    OptOptions,
    Plant,
    Smoothness,
    StateSpace,
    SynthesisOptions,
    SynthesisStatus,
    abscissa_gradient,
    bfgs_nonsmooth,
    certify_controller,
    gradient_sampling,
    hinf_gradient,
    hinf_norm,
    lft_closed_loop,
    load_plant,
    min_norm_convex_hull,
    pack_controller,
    param_count,
    save_plant,
    spectral_abscissa,
    stabilize,
    synthesize,
    unpack_controller,
)
from fixedhinf.bench import BenchmarkCase, BenchOptions, Reference, run_benchmark
from fixedhinf.bench import _case_seed

BENCH_RUNS = 10
BENCH_BUDGET = 300.0


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    record_verdict(f"{name:<24s} {'PASS' if ok else 'FAIL':<4s}  {detail}")
    assert ok, f"{name}: {detail}"


def _skip(name: str, reason: str) -> None:
    record_verdict(f"{name:<24s} SKIP  {reason}")
    pytest.skip(reason)


def _suite_dir() -> Path:
    env = os.environ.get("FIXEDHINF_SUITE_DIR")
    if env:
        return Path(env)
    return Path(fixedhinf.__file__).resolve().parent / "data" / "plants"


def _plant_or_skip(name: str, filename: str) -> Plant:
    path = _suite_dir() / filename
    if not path.exists():
        _skip(name, f"{filename} not present in {path.parent}")
    return load_plant(path)


def _bench_synth(plant: Plant, order: int, seed: int = 0):
    opts = SynthesisOptions(
        order=order, runs=BENCH_RUNS, cpumax_seconds=BENCH_BUDGET, rng_seed=seed
    )
    return synthesize(plant, opts)


def test_hinf_norm_matches_dense_grid_oracle():
    rng = np.random.default_rng(101)
    worst = 0.0
    solver_time = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        sys = stable_system(rng, n, m, p, margin=0.3)
        t0 = time.perf_counter()
        got = hinf_norm(sys).gamma
        solver_time += time.perf_counter() - t0
        ref = oracles.hinf_grid(sys)
        worst = max(worst, abs(got - ref) / max(ref, 1e-12))
    ok = worst <= 1e-6 and solver_time <= 30.0
    _verdict(
        "hinf-norm-oracle",
        ok,
        f"100 random systems, worst rel err {worst:.2e} (tol 1e-06), "
        f"solver time {solver_time:.1f}s (limit 30s)",
    )


def test_gradients_match_finite_differences():
    """1000 random (plant, controller, direction) trials per gradient.

    At points the gradients flag as smooth the analytic directional
    derivative must match a central difference with step 1e-6*(1+|theta|)
    to 1e-5 relative; at least 95% of all trials must do so, and every
    mismatch must carry the near-tie flag.  The finite differences for the
    norm are taken over a frequency window fixed at the center point so the
    difference quotient is built from machine-precision evaluations.
    """
    rng = np.random.default_rng(20260816)
    ab = dict(ok=0, tie=0, bad=0)
    hi = dict(ok=0, tie=0, bad=0)
    trials = 0
    total = 1000
    while trials < total:
        order = int(rng.integers(0, 3))
        plant = random_plant(
            rng, 3, 2, 2, 2, 2, stable=True, margin=1.0, d22=bool(rng.integers(0, 2))
        )
        theta = 0.1 * rng.standard_normal(param_count(order, plant.p2, plant.m2))
        k = unpack_controller(theta, order, plant.p2, plant.m2)
        cl0 = lft_closed_loop(plant, k)
        if spectral_abscissa(cl0.A).alpha >= -1e-3:
            continue
        trials += 1
        d = rng.standard_normal(theta.size)
        d /= np.linalg.norm(d)
        h = 1e-6 * (1.0 + float(np.max(np.abs(theta), initial=0.0)))

        def absc_of(t):
            kk = unpack_controller(t, order, plant.p2, plant.m2)
            return spectral_abscissa(lft_closed_loop(plant, kk).A).alpha

        rep = abscissa_gradient(plant, k)
        if rep.smoothness_hint is Smoothness.SMOOTH:
            fd = oracles.fd_directional(absc_of, theta, d, h)
            key = "ok" if abs(fd - rep.grad @ d) <= 1e-5 * (1 + abs(fd)) else "bad"
            ab[key] += 1
        else:
            ab["tie"] += 1

        rep = hinf_gradient(plant, k)
        if rep.smoothness_hint is Smoothness.SMOOTH:
            center = hinf_norm(cl0)
            if center.attained_at_infinity:

                def norm_of(t):
                    kk = unpack_controller(t, order, plant.p2, plant.m2)
                    return float(np.linalg.norm(lft_closed_loop(plant, kk).D, 2))

            else:
                w0 = center.omega_peak
                if w0 > 0.0:
                    lo, hiw = w0 / 4.0, w0 * 4.0
                else:
                    poles = np.abs(np.linalg.eigvals(cl0.A))
                    lo, hiw = 0.0, max(0.2 * float(poles.min()), 1e-6)

                def norm_of(t):
                    kk = unpack_controller(t, order, plant.p2, plant.m2)
                    return oracles.hinf_window(lft_closed_loop(plant, kk), lo, hiw)

            fd = oracles.fd_directional(norm_of, theta, d, h)
            key = "ok" if abs(fd - rep.grad @ d) <= 1e-5 * (1 + abs(fd)) else "bad"
            hi[key] += 1
        else:
            hi["tie"] += 1

    need = math.ceil(0.95 * total)
    ok = (
        ab["ok"] >= need
        and hi["ok"] >= need
        and ab["bad"] == 0
        and hi["bad"] == 0
    )
    _verdict(
        "gradient-vs-fd",
        ok,
        f"abscissa {ab['ok']}/{total} agree, {ab['tie']} near-tie, "
        f"{ab['bad']} unflagged; hinf {hi['ok']}/{total} agree, "
        f"{hi['tie']} near-tie, {hi['bad']} unflagged (need {need} agree)",
    )


def test_optimizer_sanity(monkeypatch):
    def rosenbrock(x, bound):
        f = (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
        g = np.array(
            [
                -2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
                200.0 * (x[1] - x[0] ** 2),
            ]
        )
        return float(f), g

    def absval(x, bound):
        return float(abs(x[0])), np.array([math.copysign(1.0, x[0])])

    def linf(x, bound):
        i = int(np.argmax(np.abs(x)))
        g = np.zeros_like(x)
        g[i] = math.copysign(1.0, x[i])
        return float(np.max(np.abs(x))), g

    # a tighter gradient tolerance than the package's, for Rosenbrock's valley
    monkeypatch.setattr(fixedhinf.optimize, "_GRAD_NORM_TOL", 1e-10)
    rb = bfgs_nonsmooth(rosenbrock, np.array([-1.2, 1.0]), OptOptions(max_iters=500))
    monkeypatch.undo()
    av = gradient_sampling(absval, np.array([0.9]), OptOptions(rng_seed=7))
    li = gradient_sampling(
        linf, np.array([0.8, -0.5, 0.3, 0.1]), OptOptions(rng_seed=7)
    )
    rng = np.random.default_rng(303)
    hull_worst = 0.0
    for _ in range(50):
        kvec = int(rng.integers(2, 7))
        dim = int(rng.integers(2, 6))
        G = rng.standard_normal((kvec, dim))
        d, _ = min_norm_convex_hull(list(G))
        d_ref, _ = oracles.min_norm_hull_grid(G)
        hull_worst = max(hull_worst, abs(np.linalg.norm(d) - np.linalg.norm(d_ref)))
    ok = (
        rb.f_best <= 1e-8
        and av.optimality_measure <= 1e-4
        and li.optimality_measure <= 1e-4
        and hull_worst <= 1e-3
    )
    _verdict(
        "optimizer-sanity",
        ok,
        f"rosenbrock {rb.f_best:.1e} (tol 1e-08); measures |x| "
        f"{av.optimality_measure:.1e}, linf {li.optimality_measure:.1e} "
        f"(tol 1e-04); hull vs oracle worst {hull_worst:.1e} on 50 (tol 1e-03)",
    )


@pytest.mark.slow
def test_he1_static():
    plant = _plant_or_skip("HE1-static", "HE1.json")
    res = _bench_synth(plant, 0)
    ok = res.status is SynthesisStatus.SUCCESS and res.norm <= 0.160
    _verdict(
        "HE1-static",
        ok,
        f"best norm {res.norm:.6g} (bound 0.160), {BENCH_RUNS} runs",
    )


@pytest.mark.slow
def test_rea2_static():
    plant = _plant_or_skip("REA2-static", "REA2.json")
    res = _bench_synth(plant, 0)
    ok = res.status is SynthesisStatus.SUCCESS and res.norm <= 1.17
    _verdict(
        "REA2-static",
        ok,
        f"best norm {res.norm:.6g} (bound 1.17), {BENCH_RUNS} runs",
    )


@pytest.mark.slow
def test_vtol_cr_pa_static():
    name = "VTOL-CR-PA-static"
    targets = [("VTOL", "VTOL.json", 0.154), ("CR", "CR.json", 1.168),
               ("PA", "PA.json", 1.18e-4)]
    present = [t for t in targets if (_suite_dir() / t[1]).exists()]
    if not present:
        _skip(name, f"no data files present in {_suite_dir()}")
    ok = True
    bits = []
    for case, filename, ref in targets:
        if (case, filename, ref) not in present:
            bits.append(f"{case} skipped (no data)")
            continue
        res = _bench_synth(load_plant(_suite_dir() / filename), 0)
        good = res.status is SynthesisStatus.SUCCESS and res.norm <= 1.05 * ref
        ok = ok and good
        bits.append(f"{case} {res.norm:.6g} vs {ref:.6g} +5%")
    _verdict(name, ok, "; ".join(bits))


@pytest.mark.slow
@pytest.mark.large
def test_large_tier_hf1_cm4():
    name = "large-tier-HF1-CM4"
    targets = [("HF1", "HF1.json", 0.447), ("CM4", "CM4.json", 0.816)]
    present = [t for t in targets if (_suite_dir() / t[1]).exists()]
    if not present:
        _skip(name, f"no data files present in {_suite_dir()}")
    ok = True
    bits = []
    for case, filename, ref in targets:
        if (case, filename, ref) not in present:
            bits.append(f"{case} skipped (no data)")
            continue
        res = _bench_synth(load_plant(_suite_dir() / filename), 0)
        good = res.status is SynthesisStatus.SUCCESS and res.norm <= 1.05 * ref
        ok = ok and good
        bits.append(f"{case} {res.norm:.6g} vs {ref:.6g} +5%")
    _verdict(name, ok, "; ".join(bits))


def test_invariants_determinism_stabilization(interior_plant):
    checks: list[tuple[str, bool]] = []
    rng = np.random.default_rng(808)

    # parameter packing is a bijection with the documented layout
    theta = rng.standard_normal(param_count(2, 2, 2))
    k2 = unpack_controller(theta, 2, 2, 2)
    checks.append(("pack", bool(np.array_equal(pack_controller(k2), theta))))

    # the interconnection matches the blockwise transfer oracle
    plant = random_plant(rng, 3, 2, 2, 2, 2, d22=True)
    cl = lft_closed_loop(plant, k2)
    s = 0.31 + 1.7j
    T_impl = cl.C @ np.linalg.solve(s * np.eye(cl.n) - cl.A, cl.B) + cl.D
    T_ref = oracles.closed_loop_tf(plant, k2, s)
    checks.append(("lft", bool(np.allclose(T_impl, T_ref, rtol=1e-9, atol=1e-12))))

    # output scaling multiplies the norm
    sys = stable_system(rng, 4, 2, 2)
    g1 = hinf_norm(sys).gamma
    g3 = hinf_norm(StateSpace(sys.A, sys.B, 3.0 * sys.C, 3.0 * sys.D)).gamma
    checks.append(("scaling", abs(g3 - 3.0 * g1) <= 1e-6 * (1.0 + g3)))

    # shifting the plant A block shifts the abscissa, not its gradient
    splant = random_plant(rng, 3, 2, 2, 2, 2, stable=True, margin=1.0)
    ks = unpack_controller(
        0.1 * rng.standard_normal(param_count(0, 2, 2)), 0, 2, 2
    )
    r1 = abscissa_gradient(splant, ks)
    shifted = Plant(
        splant.A - 0.7 * np.eye(3), splant.B1, splant.B2, splant.C1, splant.C2,
        splant.D11, splant.D12, splant.D21, splant.D22,
    )
    r2 = abscissa_gradient(shifted, ks)
    checks.append(
        (
            "shift",
            abs((r2.value + 0.7) - r1.value) <= 1e-9
            and bool(np.allclose(r1.grad, r2.grad, atol=1e-9)),
        )
    )

    # hull weights live on the simplex and reproduce the point
    G = rng.standard_normal((5, 3))
    dpt, w = min_norm_convex_hull(list(G))
    checks.append(
        (
            "hull",
            abs(float(w.sum()) - 1.0) <= 1e-10
            and bool(np.all(w >= -1e-10))
            and bool(np.allclose(dpt, w @ G, atol=1e-10)),
        )
    )

    # bitwise determinism under a fixed seed
    opts = SynthesisOptions(order=0, runs=2, cpumax_seconds=30.0, rng_seed=11)
    a = synthesize(interior_plant, opts)
    b = synthesize(interior_plant, opts)
    checks.append(
        (
            "determinism",
            a.norm == b.norm
            and bool(np.array_equal(a.controller.DK, b.controller.DK))
            and all(
                x.seed == y.seed and x.stage2_norm == y.stage2_norm
                for x, y in zip(a.per_run, b.per_run)
            ),
        )
    )

    # stabilization succeeds in at least 9 of 10 seeds on each synthetic plant
    scalar = Plant.from_blocks([[1.0]], [[1.0]], [[1.0]], [[1.0]], [[1.0]])
    two_state = Plant.from_blocks(
        [[0.4, 1.0], [0.0, 0.3]], np.eye(2), [[0.0], [1.0]], np.eye(2), [[1.0, 1.0]]
    )
    for label, target in (("scalar", scalar), ("two-state", two_state)):
        wins = 0
        for seed in range(10):
            try:
                _, absc = stabilize(
                    target,
                    SynthesisOptions(order=0, cpumax_seconds=30.0, rng_seed=seed),
                )
                wins += absc.alpha < 0.0
            except NoStabilizingController:
                pass
        checks.append((f"stabilize-{label}", wins >= 9))

    failed = [label for label, good in checks if not good]
    _verdict(
        "invariants-determinism",
        not failed,
        f"{len(checks)} checks"
        + (f", failed: {', '.join(failed)}" if failed else " all hold"),
    )


def test_benchmark_certificates(tmp_path, interior_plant):
    """Every benchmark pass must survive an independent re-check: fresh
    interconnection, fresh eigenvalues, fresh norm at 1e-9 tolerance."""
    name = "bench-certificates"
    save_plant(interior_plant, tmp_path / "toy.json", name="toy")
    case = BenchmarkCase(
        "toy",
        "toy.json",
        (0, 1),
        tuple(Reference("audit", o, INTERIOR_OPTIMUM) for o in (0, 1)),
    )
    opts = BenchOptions(suite_dir=str(tmp_path), runs=2, cpumax_seconds=30.0, seed=0)
    report = run_benchmark(case, opts)
    ok = report.status == "ok"
    bits = []
    for entry in report.entries:
        ok = ok and entry.passed is True and entry.certified
        # reproduce the winning controller from the recorded seed, then
        # re-check it from scratch
        res = synthesize(
            interior_plant,
            SynthesisOptions(
                order=entry.order,
                runs=2,
                cpumax_seconds=30.0,
                rng_seed=_case_seed(0, "toy", entry.order),
            ),
        )
        cl = lft_closed_loop(interior_plant, res.controller)
        alpha = float(np.max(np.linalg.eigvals(cl.A).real))
        gamma = hinf_norm(cl, rel_tol=1e-9).gamma
        ref = oracles.hinf_grid(cl)
        ok = ok and alpha < 0.0
        ok = ok and entry.achieved is not None
        ok = ok and abs(gamma - entry.achieved) <= 1e-9 * (1.0 + gamma)
        ok = ok and abs(gamma - ref) <= 1e-6 * (1.0 + ref)
        bits.append(f"order {entry.order}: norm {gamma:.9f}, abscissa {alpha:.3f}")
    _verdict(name, ok, "; ".join(bits))


@pytest.mark.slow
def test_enns_reduced_order():
    plant = _plant_or_skip("Enns-order1", "Enns.json")
    res = synthesize(
        plant,
        SynthesisOptions(order=1, runs=BENCH_RUNS, cpumax_seconds=BENCH_BUDGET,
                         rng_seed=0),
    )
    ok = res.status is SynthesisStatus.SUCCESS and res.norm <= 1.50
    _verdict("Enns-order1", ok, f"order 1 norm {res.norm:.6g} (bound 1.50)")


@pytest.mark.slow
def test_himat_orders():
    name = "HIMAT-orders-7-6"
    plant = _plant_or_skip(name, "HIMAT.json")
    ok = True
    bits = []
    for order, ref in ((7, 1.06), (6, 1.07)):
        res = synthesize(
            plant,
            SynthesisOptions(order=order, runs=BENCH_RUNS,
                             cpumax_seconds=BENCH_BUDGET, rng_seed=0),
        )
        good = res.status is SynthesisStatus.SUCCESS and res.norm <= 1.05 * ref
        ok = ok and good
        bits.append(f"nK={order}: {res.norm:.6g} vs {ref:.6g} +5%")
    _verdict(name, ok, "; ".join(bits))


@pytest.mark.slow
def test_vsc_static():
    plant = _plant_or_skip("VSC-static", "VSC.json")
    res = _bench_synth(plant, 0)
    ok = res.status is SynthesisStatus.SUCCESS and res.norm <= 1.05 * 3.975
    _verdict("VSC-static", ok, f"static norm {res.norm:.6g} vs 3.975 +5%")


@pytest.mark.slow
def test_wang_static():
    plant = _plant_or_skip("Wang-static", "Wang.json")
    res = _bench_synth(plant, 0)
    ok = res.status is SynthesisStatus.SUCCESS and res.norm <= 53.4
    _verdict("Wang-static", ok, f"static norm {res.norm:.6g} (bound 53.4)")


@pytest.mark.slow
def test_auv_orders():
    name = "AUV-orders"
    plant = _plant_or_skip(name, "AUV.json")
    ok = True
    bits = []
    for order in (0, 1, 2):
        res = synthesize(
            plant,
            SynthesisOptions(order=order, runs=BENCH_RUNS,
                             cpumax_seconds=BENCH_BUDGET, rng_seed=0),
        )
        if res.status is SynthesisStatus.SUCCESS:
            absc, cert = certify_controller(plant, res.controller)
            good = absc.alpha < 0.0 and abs(cert.gamma - res.norm) <= 1e-6 * (
                1.0 + cert.gamma
            )
            bits.append(f"nK={order}: {cert.gamma:.6g}")
        else:
            good = False
            bits.append(f"nK={order}: failed")
        ok = ok and good
    _verdict(name, ok, "; ".join(bits))
