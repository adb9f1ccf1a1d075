"""Two-stage fixed-order controller synthesis.

Stage 1 minimizes the closed-loop spectral abscissa until it is strictly
below -stabilization_margin; stage 2 locally minimizes the closed-loop
H-infinity norm over stabilizing controllers of the same order, treating the
unstable or ill-posed region as f = +inf, the optimizer's only feasibility
signal.  Every run's controller is certified by `certify_controller`, and the
best controller over several randomized runs is returned with that
certificate.
"""

from __future__ import annotations

import enum
import math
import os
import pickle
import signal
import sys
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (
    AbscissaResult,
    NormResult,
    _abscissa,
    _check_rel_tol,
    hinf_norm,
    spectral_abscissa,
)
from .errors import (
    DimensionMismatch,
    NoStabilizingController,
    NotStabilizing,
    UnstableSystem,
)
from .gradients import _abscissa_branch, _hinf_branch
from .optimize import OptOptions, _phase_rng, hanso
from .statespace import (
    Controller,
    Plant,
    _Interconnection,
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

    runs independent randomized runs are performed, each with its own
    wall-clock deadline (not CPU time) of cpumax_seconds covering both
    stages; within a stage, every start and phase shares the one deadline.
    The budget is per run: runs that go side by side on several CPUs each
    still get all of it.
    warm_start, when given, is added to the stage-1 start list of every run;
    a dynamic one with BK = CK = 0 is a saddle (see `synthesize`).
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
        # each check is written so that NaN fails it
        if not self.order >= 0:
            raise ValueError("order must be >= 0")
        if not self.runs >= 1:
            raise ValueError("runs must be >= 1")
        if not self.cpumax_seconds > 0:
            raise ValueError("cpumax_seconds must be positive")
        if not 0 < self.init_scale < math.inf:
            raise ValueError("init_scale must be positive and finite")
        if not 0 <= self.stabilization_margin < math.inf:
            raise ValueError("stabilization_margin must be >= 0 and finite")
        if not self.stage1_starts >= 1:
            raise ValueError("stage1_starts must be >= 1")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be >= 1")
        _check_rel_tol(self.norm_rel_tol)


class SynthesisStatus(enum.Enum):
    SUCCESS = "success"
    NO_STABILIZING_CONTROLLER = "no-stabilizing-controller"


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one randomized run; stage2_norm is +inf and converged is
    False when stage 1 failed."""

    seed: int
    stage1_abscissa: float
    stage2_norm: float
    elapsed_seconds: float
    converged: bool = False


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    controller: Controller | None
    norm: float
    abscissa: float
    per_run: tuple[RunRecord, ...]
    status: SynthesisStatus
    certificate: NormResult | None


def _run_seed(root_seed: int, run_index: int) -> int:
    """Derived per-run seed; independent of the total number of runs."""
    ss = np.random.SeedSequence((root_seed, run_index))
    return int(ss.generate_state(1, np.uint64)[0])


def random_controller(
    order: int, ny: int, nu: int, scale: float, rng: np.random.Generator
) -> Controller:
    """Controller with i.i.d. N(0, scale^2) entries in all blocks."""
    theta = scale * rng.standard_normal(param_count(order, ny, nu))
    return unpack_controller(theta, order, ny, nu)


def _stage1_oracle(plant: Plant, order: int):
    """The closed-loop abscissa, exact at every bound, with the gradient
    `abscissa_gradient` gives; a loop that does not exist (see
    `_Interconnection.close`) or whose eigenvalue iteration fails is
    f = +inf.  The loop is closed straight from theta, on padding built once
    for the oracle, as in stage 2."""
    loop = _Interconnection(plant, order)
    ports = (plant.m2, plant.p2)

    def oracle(theta: np.ndarray, bound: float):
        found = _abscissa_branch(ports, *loop.close(loop.gain(theta[None])))
        if isinstance(found, Exception):
            return math.inf, None
        return found[0].alpha, found[1]

    return oracle


def _stage2_oracle(plant: Plant, order: int, rel_tol: float):
    """The closed-loop H-infinity norm, certified only where the optimizer
    can accept the point (see the optimize module).  At a finite bound a
    lower bound above it is a verdict, returned with no gradient, and
    unpolished where it exceeds the bound before polishing; at -inf every
    point gets its polished lower bound and that branch's gradient; at +inf
    the value and gradient are those of `hinf_gradient`.  The peak
    frequency of the last call whose level set ran joins the next lower
    bound's candidates, so that the bound usually finds the peak the
    optimizer is following.  A loop that does not exist (see
    `_Interconnection.close`), an unstable one or a failed eigenvalue
    iteration is f = +inf.  The loop is closed straight from theta, on
    padding built once for the oracle.

    The batch form, oracle.batch(thetas, bound), returns one (f, grad) per
    row of thetas, each what a call at the oracle's state before the batch
    would return, and moves no hint.  The rows go through the stacked
    computation in chunks of capped memory (see _batch_size).
    """
    loop = _Interconnection(plant, order)
    ports = (plant.m2, plant.p2)
    size = _batch_size(loop.N)
    hints = ()

    def evaluate(thetas: np.ndarray, bound: float) -> list:
        closed = loop.close(loop.gain(thetas))
        return _hinf_branch(ports, *closed, rel_tol=rel_tol, bound=bound, hints=hints)

    def oracle(theta: np.ndarray, bound: float):
        nonlocal hints
        (found,) = evaluate(theta[None], bound)
        if isinstance(found, Exception):
            return math.inf, None
        norm, grad, _ = found
        if norm.iterations:
            hints = (norm.omega_peak,)
        return norm.gamma, grad

    def batch(thetas: np.ndarray, bound: float) -> list:
        rows = []
        for lo in range(0, len(thetas), size):
            for found in evaluate(thetas[lo : lo + size], bound):
                failed = isinstance(found, Exception)
                rows.append((math.inf, None) if failed else (found[0].gamma, found[1]))
        return rows

    oracle.batch = batch
    return oracle


def _batch_size(N: int) -> int:
    """Members per stack at loop order N: as many as fit in (528 + 2N) N
    complex values, about 8.4 N kB at small N, and at least one.  A member
    holds about 2 N^2 of them (its eigenvector basis and its resolvent at
    the candidate frequencies).  25 members at N = 11, 3 at N = 100, 1 at
    N = 1000."""
    return max(1, (528 + 2 * N) // (2 * N))


def _hanso_options(opts: SynthesisOptions, run_seed: int | None) -> OptOptions:
    """A stage's optimizer options; without run_seed, run 0's seed."""
    seed = run_seed if run_seed is not None else _run_seed(opts.rng_seed, 0)
    return OptOptions(
        max_iters=opts.max_iters, cpu_budget_seconds=opts.cpumax_seconds, rng_seed=seed
    )


def _default_start(plant: Plant, order: int) -> Controller:
    """Zero gain; internal controller dynamics (if any) placed at -1."""
    k = Controller.zero(order, plant.p2, plant.m2)
    if order == 0:
        return k
    return Controller(-np.eye(order), k.BK, k.CK, k.DK)


def _stage2_start(k: Controller, scale: float, rng: np.random.Generator) -> Controller:
    """k, or with CK drawn from N(0, scale^2) if k is on the saddle (see
    `synthesize`); with BK = 0 the loop stays block triangular, keeping its
    poles, and the controller's transfer function stays DK."""
    if k.order == 0 or k.BK.any() or k.CK.any():
        return k
    return replace(k, CK=scale * rng.standard_normal(k.CK.shape))


def _check_warm_start(plant: Plant, opts: SynthesisOptions) -> None:
    ws = opts.warm_start
    if ws is not None and (ws.order, ws.nu, ws.ny) != (opts.order, plant.m2, plant.p2):
        raise DimensionMismatch(
            f"warm start has order {ws.order} and ports {ws.nu}x{ws.ny}, expected "
            f"order {opts.order} and ports {plant.m2}x{plant.p2}"
        )


def stabilize(
    plant: Plant,
    opts: SynthesisOptions | None = None,
    *,
    run_seed: int | None = None,
) -> tuple[Controller, AbscissaResult]:
    """Find a controller with closed-loop abscissa < -stabilization_margin.

    Starts from the warm start (if any), the zero controller, and
    stage1_starts random controllers, all under one deadline; the abscissa
    minimization returns the first evaluated controller that meets the
    margin.  Raises NoStabilizingController, saying whether every start was
    infeasible (hanso's status "infeasible"), the search stalled or it ran
    out of time; the best abscissa is attached to it.  That is the run's
    incumbent (see `hanso`), which with the margin as the run's target may
    be a gradient-sampling sample point.
    """
    opts = opts if opts is not None else SynthesisOptions()
    hopts = _hanso_options(opts, run_seed)
    rng = _phase_rng(hopts.rng_seed, 3)

    _check_warm_start(plant, opts)
    starts = []
    if opts.warm_start is not None:
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

    oracle = _stage1_oracle(plant, opts.order)
    res = hanso(oracle, starts, hopts, target=-opts.stabilization_margin)
    if res.status == "infeasible":
        raise NoStabilizingController(
            "every stage-1 start was infeasible (ill-posed interconnection)"
        )
    if res.status.endswith("target"):
        k = unpack_controller(res.x_best, opts.order, plant.p2, plant.m2)
        return k, spectral_abscissa(lft_closed_loop(plant, k).A)
    how = "ran out of time" if res.status.endswith("budget") else "stalled"
    raise NoStabilizingController(
        f"stage 1 {how} at abscissa {res.f_best:.6g} "
        f"(target < {-opts.stabilization_margin:g})",
        best_abscissa=res.f_best,
    )


def optimize_performance(
    plant: Plant,
    k0: Controller,
    opts: SynthesisOptions | None = None,
    *,
    run_seed: int | None = None,
) -> tuple[Controller, AbscissaResult, NormResult]:
    """Locally minimize the closed-loop H-infinity norm from a stabilizing k0.

    The search stops at opts.max_iters per phase or at the wall-clock
    deadline opts.cpumax_seconds.  Unstable or ill-posed parameter points act
    as an infinite barrier.  Returns the final controller with its
    certificate from `certify_controller`: the closed-loop abscissa and
    norm.  Raises NotStabilizing when the first oracle call finds k0
    unstable or ill-posed.
    """
    opts = opts if opts is not None else SynthesisOptions(order=k0.order)
    oracle = _stage2_oracle(plant, k0.order, opts.norm_rel_tol)
    res = hanso(oracle, [pack_controller(k0)], _hanso_options(opts, run_seed))
    if res.status == "infeasible":
        raise NotStabilizing("initial controller gives an unstable or ill-posed closed loop")
    k = unpack_controller(res.x_best, k0.order, plant.p2, plant.m2)
    return k, *certify_controller(plant, k)


def certify_controller(plant: Plant, k: Controller) -> tuple[AbscissaResult, NormResult]:
    """Closed-loop stability and norm recomputed from a fresh interconnection
    at the tight certification tolerance; one eigendecomposition of the
    loop gives both.  Raises NotStabilizing for an unstable loop."""
    try:
        norm = hinf_norm(lft_closed_loop(plant, k), rel_tol=CERT_REL_TOL)
    except UnstableSystem as exc:
        raise NotStabilizing(f"closed loop: {exc}") from exc
    return _abscissa(norm._ev.lam[0]), norm


def _run(
    plant: Plant, opts: SynthesisOptions, r: int
) -> tuple[RunRecord, tuple[Controller, AbscissaResult, NormResult] | None]:
    """Run r of `synthesize`: its record, and its controller with the
    certificate from `certify_controller` (None when stage 1 failed)."""
    seed_r = _run_seed(opts.rng_seed, r)
    t_run = time.perf_counter()
    try:
        k1, absc = stabilize(plant, opts, run_seed=seed_r)
    except NoStabilizingController as exc:
        return RunRecord(seed_r, exc.best_abscissa, math.inf, time.perf_counter() - t_run), None
    used = time.perf_counter() - t_run
    remaining = max(opts.cpumax_seconds - used, 1e-3)
    k1 = _stage2_start(k1, opts.init_scale, _phase_rng(seed_r, 4))
    k2, absc2, cert = optimize_performance(
        plant, k1, replace(opts, cpumax_seconds=remaining), run_seed=seed_r
    )
    elapsed = time.perf_counter() - t_run
    return RunRecord(seed_r, absc.alpha, cert.gamma, elapsed, cert.converged), (k2, absc2, cert)


def _runs(plant: Plant, opts: SynthesisOptions) -> list:
    """Every run's `_run` result, in run order.  On Linux, with P > 1 usable
    CPUs and several runs, this process runs the runs r = 0 mod P and P - 1
    forked children the others, one residue each; runs share no state, so
    the bits are those of the loop in this process, which serves a single
    run, one usable CPU and a daemonic caller (it may not have children)."""
    workers = 1
    if sys.platform.startswith("linux"):
        workers = min(opts.runs, len(os.sched_getaffinity(0)))
    if workers > 1:
        # imported here, so that a process that never forks does not load it
        import multiprocessing

        if multiprocessing.current_process().daemon:
            workers = 1
    if workers == 1:
        return [_run(plant, opts, r) for r in range(opts.runs)]
    children = []
    try:
        for c in range(1, workers):
            children.append(_fork_runs(plant, opts, range(c, opts.runs, workers)))
        mine = [_run(plant, opts, r) for r in range(0, opts.runs, workers)]
    except BaseException:
        for pid, fd in children:
            os.kill(pid, signal.SIGKILL)
            os.close(fd)
            os.waitpid(pid, 0)
        raise
    results = [None] * opts.runs
    results[::workers] = mine
    errors = []
    for c, (pid, fd) in enumerate(children, start=1):
        with os.fdopen(fd, "rb") as pipe:
            data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        try:
            ok, payload = pickle.loads(data)
        except (EOFError, pickle.UnpicklingError):
            ok, payload = False, RuntimeError(f"a synthesis child ended with status {status}")
        if ok:
            results[c::workers] = payload
        else:
            errors.append(payload)
    if errors:
        raise errors[0]
    return results


def _fork_runs(plant: Plant, opts: SynthesisOptions, runs: range) -> tuple[int, int]:
    """A forked child that runs `runs` and writes their `_run` results, or
    the exception that stopped them, pickled to a pipe; returns its pid and
    the pipe's read end."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    # the child: it never returns into the caller's frames
    try:
        os.close(read)
        try:
            payload = (True, [_run(plant, opts, r) for r in runs])
        except BaseException as exc:
            payload = (False, exc)
        try:
            data = pickle.dumps(payload)
        except Exception as exc:
            error = RuntimeError(f"a synthesis child could not send {payload[1]!r} back: {exc!r}")
            data = pickle.dumps((False, error))
        with os.fdopen(write, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def synthesize(plant: Plant, opts: SynthesisOptions | None = None) -> SynthesisResult:
    """Randomized multi-run fixed-order synthesis; returns the best run.

    Each run derives its own seed from (rng_seed, run index), so run r is
    reproducible independently of how many runs are requested.  The runs
    are spread over this process and one forked child per further usable
    CPU (Linux only; a single run, or a call from a daemonic process, runs
    in this process), with the same result as one after another.
    cpumax_seconds is each run's own budget, counted from that run's
    start, and a run's stage 2 gets what its stage 1 left.  The best run
    has the lowest certified norm among the
    runs whose certificate converged, the earliest on a tie; an unconverged
    one wins only when no run's converged.  Runs that fail to stabilize are
    recorded with stage2_norm = +inf; the overall status is
    NO_STABILIZING_CONTROLLER only when every run fails.  A dynamic
    controller with BK = CK = 0, such as the zero start, is a saddle of both
    stage objectives, where no gradient moves AK, BK or CK; when stage 1
    returns one, stage 2 starts from it with CK drawn from N(0, init_scale^2).
    """
    opts = opts if opts is not None else SynthesisOptions()
    if opts.order > plant.n:
        warnings.warn(
            f"controller order {opts.order} exceeds plant order {plant.n}",
            stacklevel=2,
        )
    _check_warm_start(plant, opts)
    records: list[RunRecord] = []
    best: tuple[tuple[bool, float], Controller, AbscissaResult, NormResult] | None = None
    for record, candidate in _runs(plant, opts):
        records.append(record)
        if candidate is None:
            continue
        k2, absc2, cert = candidate
        # an unconverged norm is only a lower bound: it ranks below any converged one
        rank = (not cert.converged, cert.gamma)
        if best is None or rank < best[0]:
            best = (rank, k2, absc2, cert)
    if best is None:
        return SynthesisResult(
            None,
            math.inf,
            math.inf,
            tuple(records),
            SynthesisStatus.NO_STABILIZING_CONTROLLER,
            None,
        )
    _, k, absc, cert = best
    return SynthesisResult(k, cert.gamma, absc.alpha, tuple(records), SynthesisStatus.SUCCESS, cert)
