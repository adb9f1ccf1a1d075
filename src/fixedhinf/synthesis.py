"""Two-stage fixed-order controller synthesis.

Stage 1 minimizes the closed-loop spectral abscissa until it is strictly
below -stabilization_margin; stage 2 locally minimizes the closed-loop
H-infinity norm over stabilizing controllers of the same order, treating the
unstable region as f = +inf.  The best controller over several randomized
runs is returned together with its norm recomputed at a tight tolerance.
"""

from __future__ import annotations

import enum
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import AbscissaResult, NormResult, hinf_norm, spectral_abscissa
from .errors import (
    AllStartsInfeasible,
    DimensionMismatch,
    EigenFailure,
    IllPosed,
    NoStabilizingController,
    NotStabilizing,
    UnstableSystem,
)
from .gradients import abscissa_gradient, hinf_gradient
from .optimize import OptOptions, hanso
from .statespace import (
    Controller,
    Plant,
    lft_closed_loop,
    pack_controller,
    param_count,
    unpack_controller,
)

__all__ = [
    "SynthesisOptions",
    "SynthesisStatus",
    "RunRecord",
    "SynthesisResult",
    "random_controller",
    "stabilize",
    "optimize_performance",
    "certify_controller",
    "synthesize",
]

# relative tolerance for the final certification recompute
CERT_REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SynthesisOptions:
    """Synthesis protocol knobs.

    runs independent randomized runs are performed, each with a wall-clock
    deadline (not CPU time) of cpumax_seconds covering both stages.
    warm_start, when given, is added to the stage-1 start list of every run.
    stabilization_margin > 0 asks stage 1 for abscissa < -margin instead of
    merely < 0.
    """

    order: int = 0
    runs: int = 10
    cpumax_seconds: float = 300.0
    init_scale: float = 1.0
    stabilization_margin: float = 0.0
    norm_rel_tol: float = 1e-7
    rng_seed: int = 0
    warm_start: Controller | None = None
    stage1_starts: int = 5
    max_iters: int = 1000

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.cpumax_seconds <= 0:
            raise ValueError("cpumax_seconds must be positive")
        if self.init_scale <= 0:
            raise ValueError("init_scale must be positive")
        if self.stabilization_margin < 0:
            raise ValueError("stabilization_margin must be >= 0")
        if self.stage1_starts < 1:
            raise ValueError("stage1_starts must be >= 1")


class SynthesisStatus(enum.Enum):
    SUCCESS = "success"
    NO_STABILIZING_CONTROLLER = "no-stabilizing-controller"


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one randomized run; stage2_norm is +inf when stage 1 failed."""

    seed: int
    stage1_abscissa: float
    stage2_norm: float
    elapsed_seconds: float


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    controller: Controller | None
    norm: float
    abscissa: float
    per_run: tuple[RunRecord, ...]
    status: SynthesisStatus
    certificate: NormResult | None


class _TargetReached(Exception):
    """Internal stage-1 stop signal carrying the satisfying point."""

    def __init__(self, theta: np.ndarray, value: float):
        super().__init__(value)
        self.theta = np.array(theta, dtype=float)
        self.value = value


def _run_seed(root_seed: int, run_index: int) -> int:
    """Derived per-run seed; independent of the total number of runs."""
    ss = np.random.SeedSequence((root_seed, run_index))
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, tag))))


def random_controller(
    order: int, ny: int, nu: int, scale: float, rng: np.random.Generator
) -> Controller:
    """Controller with i.i.d. N(0, scale^2) entries in all blocks."""
    theta = scale * rng.standard_normal(param_count(order, ny, nu))
    return unpack_controller(theta, order, ny, nu)


def _check_dims(plant: Plant, k: Controller, what: str) -> None:
    if k.ny != plant.p2 or k.nu != plant.m2:
        raise DimensionMismatch(
            f"{what} is {k.nu}x{k.ny} but plant ports need {plant.m2}x{plant.p2}"
        )


def _stage1_oracle(plant: Plant, order: int, margin: float):
    ny, nu = plant.p2, plant.m2

    def oracle(theta: np.ndarray):
        k = unpack_controller(theta, order, ny, nu)
        try:
            rep = abscissa_gradient(plant, k)
        except (IllPosed, EigenFailure):
            return math.inf, None
        if rep.value < -margin:
            raise _TargetReached(theta, rep.value)
        return rep.value, rep.grad

    return oracle


def _stage2_oracle(plant: Plant, order: int, rel_tol: float):
    ny, nu = plant.p2, plant.m2

    def oracle(theta: np.ndarray):
        k = unpack_controller(theta, order, ny, nu)
        try:
            rep = hinf_gradient(plant, k, rel_tol=rel_tol, scan_secondary_peaks=False)
        except (IllPosed, UnstableSystem, EigenFailure):
            return math.inf, None
        return rep.value, rep.grad

    return oracle


def _default_start(plant: Plant, order: int) -> Controller:
    """Zero gain; internal controller dynamics (if any) placed at -1."""
    k = Controller.zero(order, plant.p2, plant.m2)
    if order == 0:
        return k
    return Controller(-np.eye(order), k.BK, k.CK, k.DK)


def stabilize(
    plant: Plant,
    opts: SynthesisOptions | None = None,
    *,
    run_seed: int | None = None,
    budget_seconds: float | None = None,
) -> tuple[Controller, AbscissaResult]:
    """Find a controller with closed-loop abscissa < -stabilization_margin.

    Starts from the warm start (if any), the zero controller, and
    stage1_starts random controllers; the abscissa minimization stops the
    moment any evaluation satisfies the target.  Raises
    NoStabilizingController when the budget is exhausted without success;
    the best abscissa reached is attached to the exception.
    """
    opts = opts if opts is not None else SynthesisOptions()
    seed = run_seed if run_seed is not None else _run_seed(opts.rng_seed, 0)
    budget = budget_seconds if budget_seconds is not None else opts.cpumax_seconds
    rng = _rng(seed, 3)

    starts = []
    if opts.warm_start is not None:
        _check_dims(plant, opts.warm_start, "warm start")
        if opts.warm_start.order != opts.order:
            raise DimensionMismatch(
                f"warm start has order {opts.warm_start.order}, requested {opts.order}"
            )
        starts.append(pack_controller(opts.warm_start))
    starts.append(pack_controller(_default_start(plant, opts.order)))
    for _ in range(opts.stage1_starts):
        starts.append(
            pack_controller(
                random_controller(
                    opts.order, plant.p2, plant.m2, opts.init_scale, rng
                )
            )
        )

    oracle = _stage1_oracle(plant, opts.order, opts.stabilization_margin)
    hopts = OptOptions(
        max_iters=opts.max_iters,
        cpu_budget_seconds=budget,
        rng_seed=seed,
    )
    try:
        res = hanso(oracle, starts, hopts)
    except _TargetReached as hit:
        k = unpack_controller(hit.theta, opts.order, plant.p2, plant.m2)
        return k, spectral_abscissa(lft_closed_loop(plant, k).A)
    except AllStartsInfeasible as exc:
        raise NoStabilizingController(
            "every stage-1 start was infeasible (ill-posed interconnection)"
        ) from exc
    raise NoStabilizingController(
        f"stage 1 stalled at abscissa {res.f_best:.6g} "
        f"(target < {-opts.stabilization_margin:g})",
        best_abscissa=res.f_best,
    )


def optimize_performance(
    plant: Plant,
    k0: Controller,
    opts: SynthesisOptions | None = None,
    *,
    run_seed: int | None = None,
    budget_seconds: float | None = None,
) -> tuple[Controller, NormResult]:
    """Locally minimize the closed-loop H-infinity norm from a stabilizing k0.

    Unstable or ill-posed parameter points act as an infinite barrier.  The
    returned NormResult is recomputed at the tight certification tolerance
    on the final controller.  Raises NotStabilizing when k0 itself is not
    stabilizing.
    """
    opts = opts if opts is not None else SynthesisOptions(order=k0.order)
    a0 = spectral_abscissa(lft_closed_loop(plant, k0).A)
    if a0.alpha >= 0.0:
        raise NotStabilizing(f"initial controller has closed-loop abscissa {a0.alpha:.6g}")
    seed = run_seed if run_seed is not None else _run_seed(opts.rng_seed, 0)
    budget = budget_seconds if budget_seconds is not None else opts.cpumax_seconds

    oracle = _stage2_oracle(plant, k0.order, opts.norm_rel_tol)
    hopts = OptOptions(
        max_iters=opts.max_iters,
        cpu_budget_seconds=budget,
        rng_seed=seed,
    )
    res = hanso(oracle, [pack_controller(k0)], hopts)
    k = unpack_controller(res.x_best, k0.order, plant.p2, plant.m2)
    cert = hinf_norm(lft_closed_loop(plant, k), rel_tol=CERT_REL_TOL)
    return k, cert


def certify_controller(plant: Plant, k: Controller) -> tuple[AbscissaResult, NormResult]:
    """Closed-loop stability and norm recomputed from a fresh interconnection
    at the tight certification tolerance."""
    cl = lft_closed_loop(plant, k)
    absc = spectral_abscissa(cl.A)
    if absc.alpha >= 0.0:
        raise NotStabilizing(f"closed-loop abscissa is {absc.alpha:.6g}")
    return absc, hinf_norm(cl, rel_tol=CERT_REL_TOL)


def synthesize(plant: Plant, opts: SynthesisOptions | None = None) -> SynthesisResult:
    """Randomized multi-run fixed-order synthesis; returns the best run.

    Each run derives its own seed from (rng_seed, run index), so run r is
    reproducible independently of how many runs are requested.  Runs that
    fail to stabilize are recorded with stage2_norm = +inf; the overall
    status is NO_STABILIZING_CONTROLLER only when every run fails.
    """
    opts = opts if opts is not None else SynthesisOptions()
    if opts.order > plant.n:
        warnings.warn(
            f"controller order {opts.order} exceeds plant order {plant.n}",
            stacklevel=2,
        )
    records: list[RunRecord] = []
    best: tuple[float, Controller, NormResult] | None = None
    for r in range(opts.runs):
        seed_r = _run_seed(opts.rng_seed, r)
        t_run = time.perf_counter()
        try:
            k1, absc = stabilize(
                plant, opts, run_seed=seed_r, budget_seconds=opts.cpumax_seconds
            )
        except NoStabilizingController as exc:
            records.append(
                RunRecord(
                    seed_r, exc.best_abscissa, math.inf, time.perf_counter() - t_run
                )
            )
            continue
        used = time.perf_counter() - t_run
        remaining = max(opts.cpumax_seconds - used, 1e-3)
        k2, cert = optimize_performance(
            plant, k1, opts, run_seed=seed_r, budget_seconds=remaining
        )
        records.append(
            RunRecord(seed_r, absc.alpha, cert.gamma, time.perf_counter() - t_run)
        )
        if best is None or cert.gamma < best[0]:
            best = (cert.gamma, k2, cert)
    if best is None:
        return SynthesisResult(
            None,
            math.inf,
            math.inf,
            tuple(records),
            SynthesisStatus.NO_STABILIZING_CONTROLLER,
            None,
        )
    gamma, k, cert = best
    final_absc = spectral_abscissa(lft_closed_loop(plant, k).A)
    return SynthesisResult(
        k, gamma, final_absc.alpha, tuple(records), SynthesisStatus.SUCCESS, cert
    )
