"""Nonsmooth, nonconvex local optimization.

The driver chains three phases, each consuming part of a shared CPU budget:

1. BFGS with a weak-Wolfe line search.  On nonsmooth problems the quasi-Newton
   matrix absorbs the U/V structure of the objective; no curvature resets are
   performed except a full restart on numerical breakdown.
2. A bundle verifier: the norm of the smallest convex combination of bundle
   gradients near the candidate certifies (rough) local optimality, descending
   along the negated combination when it is not yet small.
3. Gradient sampling over a shrinking radius schedule, a randomized method
   with convergence guarantees that is much slower per iteration.

Oracles return (f, grad); infeasible points are signalled by f = +inf with
grad = None, and the line searches retreat rather than evaluate onward.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import AllStartsInfeasible, InfeasibleStart

__all__ = [
    "Phase",
    "OptOptions",
    "OptResult",
    "bfgs_nonsmooth",
    "min_norm_convex_hull",
    "bundle_phase",
    "gradient_sampling",
    "hanso",
]


class Phase(enum.Enum):
    BFGS_ONLY = "bfgs"
    BUNDLE = "bundle"
    GRADIENT_SAMPLING = "gradient-sampling"


# Wolfe sufficient-decrease and curvature constants (the Armijo test of
# gradient sampling uses the same c1)
_WOLFE_C1 = 1e-4
_WOLFE_C2 = 0.5
# gradient-sampling radius schedule, relative to 1 + ||x||; the bundle
# phase takes its search radii from the same schedule
_SAMPLING_RADII = (1e-3, 1e-4, 1e-5)


@dataclass(frozen=True)
class OptOptions:
    """Knobs shared by all optimization phases.

    cpu_budget_seconds is a wall-clock deadline, not CPU time, despite its
    name; loops check it between oracle calls, so overshoot is at most one
    call.
    """

    max_iters: int = 1000
    cpu_budget_seconds: float = 300.0
    grad_norm_tol: float = 1e-6
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.cpu_budget_seconds <= 0:
            raise ValueError("cpu_budget_seconds must be positive")
        if self.grad_norm_tol <= 0:
            raise ValueError("grad_norm_tol must be positive")


@dataclass(frozen=True, eq=False)
class OptResult:
    x_best: np.ndarray
    f_best: float
    optimality_measure: float
    phase_reached: Phase
    iterations: int
    elapsed_seconds: float
    status: str
    n_evals: int


class _Tracker:
    """Wraps an oracle with an eval counter and a shared deadline."""

    def __init__(self, oracle, budget_seconds: float):
        self.oracle = oracle
        self.t0 = time.perf_counter()
        self.deadline = self.t0 + budget_seconds
        self.n_evals = 0

    def call(self, x: np.ndarray) -> tuple[float, np.ndarray | None]:
        self.n_evals += 1
        f, g = self.oracle(x)
        f = float(f)
        if g is not None:
            g = np.asarray(g, dtype=float).ravel()
        return f, g

    @property
    def out_of_time(self) -> bool:
        return time.perf_counter() >= self.deadline

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.t0


def _ball_sample(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform draw from the unit ball."""
    u = rng.standard_normal(dim)
    nrm = np.linalg.norm(u)
    if nrm == 0:
        return u
    return u / nrm * rng.uniform() ** (1.0 / dim)


def _phase_rng(seed: int, tag: int) -> np.random.Generator:
    # Philox is counter based, so streams are reproducible across platforms
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, tag))))


def _weak_wolfe(
    track: _Tracker,
    x: np.ndarray,
    f0: float,
    g0: np.ndarray,
    d: np.ndarray,
    slope0: float,
    max_steps: int = 50,
):
    """Weak-Wolfe line search by bisection, robust to f = +inf regions.

    Returns (t, x_t, f_t, g_t, outcome) with outcome "wolfe" when both
    conditions hold, "decrease" when only sufficient decrease was secured
    before bracketing collapsed, "fail" otherwise.  Infinite f at a trial
    point shrinks the bracket toward the feasible endpoint, so the search
    never steps onward from an infeasible point.
    """
    alpha = 0.0
    xa, fa, ga = x, f0, g0
    beta = math.inf
    t = 1.0
    for _ in range(max_steps):
        xt = x + t * d
        ft, gt = track.call(xt)
        if not math.isfinite(ft) or ft > f0 + _WOLFE_C1 * t * slope0:
            beta = t
        elif gt @ d < _WOLFE_C2 * slope0:
            alpha, xa, fa, ga = t, xt, ft, gt
        else:
            return t, xt, ft, gt, "wolfe"
        if track.out_of_time:
            break
        if math.isfinite(beta):
            if beta - alpha <= 1e-16 * max(1.0, alpha):
                break
            t = 0.5 * (alpha + beta)
        else:
            t = 2.0 * t
    # bisection budget exhausted: certification failed; surface any decrease
    # point found so the caller can keep the gain before stopping
    if alpha > 0.0:
        return alpha, xa, fa, ga, "decrease"
    return 0.0, x, f0, g0, "fail"


def bfgs_nonsmooth(oracle, x0, opts: OptOptions | None = None) -> OptResult:
    """BFGS with a weak-Wolfe line search, tolerant of nonsmooth objectives.

    The inverse-Hessian update is skipped whenever the curvature s'y is not
    safely positive; the matrix is reset to (scaled) identity only on
    numerical breakdown.  Raises InfeasibleStart when f(x0) = +inf.
    """
    opts = opts if opts is not None else OptOptions()
    track = _Tracker(oracle, opts.cpu_budget_seconds)
    x = np.array(x0, dtype=float).ravel()
    f, g = track.call(x)
    if not math.isfinite(f):
        raise InfeasibleStart("f(x0) is not finite")
    dim = x.size
    H = np.eye(dim)
    x_best, f_best, g_best = x.copy(), f, g.copy()
    status = "iteration-limit"
    it = 0
    scaled = False
    while it < opts.max_iters:
        gnorm = float(np.linalg.norm(g))
        if gnorm <= opts.grad_norm_tol:
            status = "gradient-tolerance"
            break
        if track.out_of_time:
            status = "budget"
            break
        it += 1
        d = -(H @ g)
        slope = float(g @ d)
        if not np.all(np.isfinite(d)) or slope >= 0.0:
            # breakdown: full restart of the quasi-Newton matrix
            H = np.eye(dim)
            scaled = False
            d = -g
            slope = -(gnorm * gnorm)
        t, xn, fn, gn, outcome = _weak_wolfe(track, x, f, g, d, slope)
        if outcome == "fail":
            status = "line-search"
            break
        s = xn - x
        yv = gn - g
        x, f, g = xn, fn, gn
        if f < f_best:
            x_best, f_best, g_best = x.copy(), f, g.copy()
        if outcome == "decrease":
            # Wolfe certification failed within the bisection budget, which
            # on nonsmooth objectives means the iterate is wedged against a
            # kink; keep the decrease point and stop
            status = "line-search"
            break
        sy = float(s @ yv)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(yv):
            if not scaled:
                H *= sy / float(yv @ yv)
                scaled = True
            Hy = H @ yv
            rho = 1.0 / sy
            H += rho * (1.0 + rho * float(yv @ Hy)) * np.outer(s, s)
            H -= rho * (np.outer(s, Hy) + np.outer(Hy, s))
    return OptResult(
        x_best,
        f_best,
        float(np.linalg.norm(g_best)),
        Phase.BFGS_ONLY,
        it,
        track.elapsed,
        status,
        track.n_evals,
    )


def min_norm_convex_hull(gradients) -> tuple[np.ndarray, np.ndarray]:
    """Smallest-norm point of the convex hull of the given vectors.

    Implements the nearest-point-in-polytope active-set iteration working on
    the Gram matrix.  Returns (d, coeffs) with d = coeffs @ G, coeffs on the
    unit simplex.
    """
    G = np.atleast_2d(np.asarray(list(gradients), dtype=float))
    if G.size == 0 or G.ndim != 2:
        raise ValueError("need at least one vector")
    count = G.shape[0]
    if count == 1:
        return G[0].astype(float).copy(), np.ones(1)
    Q = G @ G.T
    scale = max(1.0, float(np.diag(Q).max()))
    tol = 1e-12 * scale
    support = [int(np.argmin(np.diag(Q)))]
    lam = np.ones(1)
    for _ in range(200 + 10 * count):
        xg = lam @ Q[np.ix_(support, range(count))]
        xx = float(lam @ Q[np.ix_(support, support)] @ lam)
        j = int(np.argmin(xg))
        if xg[j] >= xx - tol or j in support:
            break
        support.append(j)
        lam = np.append(lam, 0.0)
        while True:
            kk = len(support)
            KKT = np.zeros((kk + 1, kk + 1))
            KKT[:kk, :kk] = Q[np.ix_(support, support)]
            KKT[:kk, kk] = 1.0
            KKT[kk, :kk] = 1.0
            rhs = np.zeros(kk + 1)
            rhs[kk] = 1.0
            try:
                sol = np.linalg.solve(KKT, rhs)
                if not np.all(np.isfinite(sol)):
                    raise np.linalg.LinAlgError
            except np.linalg.LinAlgError:
                sol = np.linalg.lstsq(KKT, rhs, rcond=None)[0]
            alpha = sol[:kk]
            if np.all(alpha >= -1e-12):
                lam = np.clip(alpha, 0.0, None)
                break
            # step toward alpha until the first weight hits zero
            shrink = alpha < 0
            theta = float(np.min(lam[shrink] / (lam[shrink] - alpha[shrink])))
            lam = (1.0 - theta) * lam + theta * alpha
            lam[lam < 1e-14] = 0.0
            keep = lam > 0.0
            if keep.all():
                # numerical corner: drop the most negative direction anyway
                keep[int(np.argmin(alpha))] = False
            support = [s for s, k_ in zip(support, keep) if k_]
            lam = lam[keep]
            if len(support) == 1:
                lam = np.ones(1)
                break
    coeffs = np.zeros(count)
    coeffs[support] = lam
    coeffs = np.clip(coeffs, 0.0, None)
    total = coeffs.sum()
    if total > 0:
        coeffs = coeffs / total
    else:
        coeffs[int(np.argmin(np.diag(Q)))] = 1.0
    return coeffs @ G, coeffs


def bundle_phase(oracle, x0, opts: OptOptions | None = None) -> OptResult:
    """Lightweight local-optimality verifier around a candidate minimizer.

    Collects gradients at nearby points, measures the smallest convex
    combination within a shrinking radius, and tries descent along its
    negation.  Status is "verified" when the measure reaches grad_norm_tol,
    "improvement" when the candidate was strictly improved but not verified,
    "inconclusive" otherwise.
    """
    opts = opts if opts is not None else OptOptions()
    track = _Tracker(oracle, opts.cpu_budget_seconds)
    x = np.array(x0, dtype=float).ravel()
    f, g = track.call(x)
    if not math.isfinite(f):
        raise InfeasibleStart("f(x0) is not finite")
    dim = x.size
    rng = _phase_rng(opts.rng_seed, 1)
    maxlen = min(100, 2 * dim + 4)
    bundle: list[tuple[np.ndarray, np.ndarray]] = [(x.copy(), g.copy())]
    scale = 1.0 + float(np.linalg.norm(x))
    radius = _SAMPLING_RADII[0] * scale
    floor = _SAMPLING_RADII[-1] * scale * 0.1
    x_best, f_best = x.copy(), f
    measure = float(np.linalg.norm(g))
    improved = False
    stalls = 0
    it = 0
    while it < opts.max_iters:
        it += 1
        if track.out_of_time:
            break
        # the current gradient always participates; trimming may have evicted
        # the iterate's own bundle entry
        active = [g] + [gi for xi, gi in bundle if np.linalg.norm(xi - x) <= radius]
        d, _ = min_norm_convex_hull(active)
        measure = float(np.linalg.norm(d))
        if measure <= opts.grad_norm_tol:
            break
        slope = -measure * measure
        t, xn, fn, gn, outcome = _weak_wolfe(track, x, f, g, -d, slope)
        meaningful = fn < f - 1e-12 * (1.0 + abs(f))
        if outcome != "fail" and fn < f:
            x, f, g = xn, fn, gn
            bundle.append((x.copy(), g.copy()))
            improved = True
            if f < f_best:
                x_best, f_best = x.copy(), f
        if outcome != "fail" and meaningful:
            stalls = 0
        else:
            # no real progress along the hull direction: enrich the bundle
            # with a gradient sampled nearby, shrinking the radius when that
            # stops helping either
            xs = x + radius * _ball_sample(rng, dim)
            fs, gs = track.call(xs)
            if math.isfinite(fs):
                bundle.append((xs, gs))
                if fs < f:
                    x, f, g = xs, fs, gs
                    improved = True
                    if f < f_best:
                        x_best, f_best = x.copy(), f
            stalls += 1
            if stalls >= 10:
                radius *= 0.2
                stalls = 0
                if radius < floor:
                    break
        if len(bundle) > maxlen:
            bundle = bundle[-maxlen:]
    if measure <= opts.grad_norm_tol:
        status = "verified"
    elif improved:
        status = "improvement"
    else:
        status = "inconclusive"
    return OptResult(
        x_best, f_best, measure, Phase.BUNDLE, it, track.elapsed, status, track.n_evals
    )


def gradient_sampling(oracle, x0, opts: OptOptions | None = None) -> OptResult:
    """Gradient sampling over a fixed, shrinking radius schedule.

    Each iteration draws 2 * dim points uniformly in a ball around
    the iterate, discards infeasible ones, and descends along the negated
    smallest convex combination of the sampled gradients with a backtracking
    Armijo search.
    """
    opts = opts if opts is not None else OptOptions()
    track = _Tracker(oracle, opts.cpu_budget_seconds)
    x = np.array(x0, dtype=float).ravel()
    f, g = track.call(x)
    if not math.isfinite(f):
        raise InfeasibleStart("f(x0) is not finite")
    dim = x.size
    rng = _phase_rng(opts.rng_seed, 2)
    m = 2 * dim
    x_best, f_best = x.copy(), f
    measure = float(np.linalg.norm(g))
    status = "radius-schedule-complete"
    it = 0
    for rad_scale in _SAMPLING_RADII:
        radius = rad_scale * (1.0 + float(np.linalg.norm(x)))
        while it < opts.max_iters:
            if track.out_of_time:
                status = "budget"
                break
            it += 1
            grads = [g]
            for _ in range(m):
                if track.out_of_time:
                    break
                fs, gs = track.call(x + radius * _ball_sample(rng, dim))
                if math.isfinite(fs):
                    grads.append(gs)
            d, _ = min_norm_convex_hull(grads)
            measure = float(np.linalg.norm(d))
            if measure <= opts.grad_norm_tol:
                break
            # Armijo backtracking along -d
            t = 1.0
            accepted = False
            f_prev = f
            for _ in range(30):
                ft, gt = track.call(x - t * d)
                if math.isfinite(ft) and ft <= f - _WOLFE_C1 * t * measure * measure:
                    x, f, g = x - t * d, ft, gt
                    accepted = True
                    break
                t *= 0.5
                if track.out_of_time:
                    break
            if accepted:
                improvement = f_prev - f
                if f < f_best:
                    x_best, f_best = x.copy(), f
                # microscopic accepted steps mean this radius is exhausted
                if improvement < 1e-12 * (1.0 + abs(f)):
                    break
            else:
                break
        if status == "budget":
            break
    return OptResult(
        x_best,
        f_best,
        measure,
        Phase.GRADIENT_SAMPLING,
        it,
        track.elapsed,
        status,
        track.n_evals,
    )


def hanso(oracle, starts, opts: OptOptions | None = None) -> OptResult:
    """Multi-start BFGS, then bundle verification, then gradient sampling.

    Runs BFGS from each start (sequentially, under the shared budget), takes
    the best terminal point, verifies it with the bundle phase, and falls
    back to gradient sampling when verification is inconclusive and budget
    remains.  Raises AllStartsInfeasible when every start has f = +inf.
    """
    opts = opts if opts is not None else OptOptions()
    t0 = time.perf_counter()
    deadline = t0 + opts.cpu_budget_seconds

    best: OptResult | None = None
    iters = 0
    evals = 0
    statuses = []
    for x0 in starts:
        remaining = deadline - time.perf_counter()
        if remaining <= 0 and best is not None:
            break
        sub = replace(opts, cpu_budget_seconds=max(remaining, 1e-3))
        try:
            r = bfgs_nonsmooth(oracle, x0, sub)
        except InfeasibleStart:
            statuses.append("infeasible-start")
            continue
        iters += r.iterations
        evals += r.n_evals
        if best is None or r.f_best < best.f_best:
            best = r
    if best is None:
        raise AllStartsInfeasible("every start point had f = +inf")
    statuses.append(f"bfgs:{best.status}")

    x, f = best.x_best, best.f_best
    measure = best.optimality_measure
    phase = Phase.BFGS_ONLY
    verified = False

    remaining = deadline - time.perf_counter()
    if remaining > 0:
        sub = replace(opts, cpu_budget_seconds=remaining)
        rb = bundle_phase(oracle, x, sub)
        iters += rb.iterations
        evals += rb.n_evals
        phase = Phase.BUNDLE
        measure = rb.optimality_measure
        statuses.append(f"bundle:{rb.status}")
        if rb.f_best < f:
            x, f = rb.x_best, rb.f_best
        verified = rb.status == "verified"

    remaining = deadline - time.perf_counter()
    if not verified and remaining > 0:
        sub = replace(opts, cpu_budget_seconds=remaining)
        rg = gradient_sampling(oracle, x, sub)
        iters += rg.iterations
        evals += rg.n_evals
        phase = Phase.GRADIENT_SAMPLING
        measure = rg.optimality_measure
        statuses.append(f"sampling:{rg.status}")
        if rg.f_best < f:
            x, f = rg.x_best, rg.f_best

    return OptResult(
        x,
        f,
        measure,
        phase,
        iters,
        time.perf_counter() - t0,
        ";".join(statuses),
        evals,
    )
