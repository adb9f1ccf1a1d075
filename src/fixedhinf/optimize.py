"""Nonsmooth, nonconvex local optimization.

`hanso` chains three phases under one stop rule (a wall-clock deadline
shared by every start and phase, and an optional target value of f) and one
incumbent (below):

1. BFGS with a weak-Wolfe line search.  On nonsmooth problems the quasi-Newton
   matrix absorbs the U/V structure of the objective; no curvature resets are
   performed except a full restart on numerical breakdown.
2. A bundle verifier: the norm of the smallest convex combination of bundle
   gradients near the candidate certifies (rough) local optimality, descending
   along the negated combination when it is not yet small.
3. Gradient sampling over a shrinking radius schedule, a randomized method
   with convergence guarantees that is much slower per iteration.

An oracle is called as oracle(x, bound) and returns (f, grad).  The bound
alone says what the call needs, and it is one of three kinds:

- A finite bound is the threshold the phase compares f with: the
  weak-Wolfe sufficient-decrease level at a line-search trial, the Armijo
  level at a gradient-sampling trial.  When f(x) <= bound the oracle must
  return f(x) exactly, with its gradient.  Otherwise it may return any
  value in (bound, f(x)], and grad None: a value above the bound is a
  verdict whatever it is, and no phase reads a gradient there.
- +inf asks for f(x) and its gradient: at a phase's start and at a bundle
  ball sample, whose gradient joins the bundle.
- -inf asks for a value and its gradient, which may be those of a lower
  branch: at gradient-sampling sample points in a run without a target.
  Gradient sampling needs the gradient of f itself there, and +inf would
  be sound.  That is a known defect, still open.

The run's target raises every bound to at least the target, and sample
points in a run with a target go at +inf, so a value below the target is
always exact.  A cheap lower bound that already exceeds a finite bound thus
decides the same comparison as f(x) itself: which value in (bound, f(x)]
comes back changes no accept/reject decision and no count of evaluations.
An oracle that always returns f(x) and its gradient meets the contract.

A value is exact when it is at most its call's bound, raised to the
target.  The incumbent is the evaluated (x, f, grad) with the least exact
f, be it a start, an accepted step, a trial its line search passed over or
a bundle sample.  A phase returns the incumbent, under hanso the run's, and
hanso refines from it and returns it.  The run meets its target once the
incumbent is below it.

Line-search trials and bundle ball samples go to the oracle one at a time.
An oracle may also carry a batch form, oracle.batch(xs, bound), which
returns one (f, grad) per row of xs under one bound: each row is what one
call at the oracle's state before the batch would return, and the batch
changes no state that the oracle carries from call to call (the stage-2
oracle's state is the peak of its last call whose level set ran).
Gradient sampling hands it the sample points of an iteration, drawn first
in the order single draws would take, under the sample points' bound.
The tracker counts the rows in order, checks the stop rule before each as
around single calls, and drops the rest after a row below the target.
Counts and the incumbent are thus those of single calls, and a deadline
overshoots by at most one batch.  An oracle without a batch form is called
one point at a time.

Infeasible points are signalled by f = +inf with grad = None, and f = +inf
is the only feasibility signal.  The line searches retreat rather than
evaluate onward; a phase started at an infeasible point returns at once with
status "infeasible-start", and hanso skips such starts, returning f = +inf
with status "infeasible" when every start is infeasible.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass

import numpy as np

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
# bisection steps of one weak-Wolfe line search
_LINE_SEARCH_STEPS = 50
# a gradient, or a smallest convex combination of gradients, at most this
# long ends BFGS, verifies the bundle phase and ends a sampling radius
_GRAD_NORM_TOL = 1e-6
# gradient-sampling radius schedule, relative to 1 + ||x||; the bundle
# phase takes its search radii from the same schedule
_SAMPLING_RADII = (1e-3, 1e-4, 1e-5)


@dataclass(frozen=True)
class OptOptions:
    """Knobs shared by all optimization phases.

    cpu_budget_seconds is a wall-clock deadline, not CPU time, despite its
    name, for one phase call or one whole hanso call; loops check it before
    oracle calls, so overshoot is at most one call or one batch of sample
    points.
    """

    max_iters: int = 1000
    cpu_budget_seconds: float = 300.0
    rng_seed: int = 0

    def __post_init__(self):
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be >= 1")
        if not self.cpu_budget_seconds > 0:
            raise ValueError("cpu_budget_seconds must be positive")


@dataclass(frozen=True, eq=False)
class OptResult:
    """A phase's or a run's incumbent (see the module docstring); g_best is
    the oracle's gradient at x_best, None when no point was feasible."""

    x_best: np.ndarray
    f_best: float
    optimality_measure: float
    phase_reached: Phase
    iterations: int
    elapsed_seconds: float
    status: str
    n_evals: int
    g_best: np.ndarray | None = None


class _Tracker:
    """One run's stop rule and incumbent: an eval counter, a deadline, a
    target f, and best, the incumbent (x, f, g) or None before the first
    exact finite value (see the module docstring)."""

    def __init__(self, oracle, budget_seconds: float, target: float = -math.inf):
        self.oracle = oracle
        self.batch = getattr(oracle, "batch", None)
        self.t0 = time.perf_counter()
        self.deadline = self.t0 + budget_seconds
        self.target = target
        self.n_evals = 0
        self.best = None

    @property
    def f(self) -> float:
        return math.inf if self.best is None else self.best[1]

    def call(self, x: np.ndarray, bound: float) -> tuple[float, np.ndarray | None]:
        """The oracle at x; f is exact where it is at most bound or below
        the target (see the module docstring)."""
        bound = max(bound, self.target)
        return self._count(x, *self.oracle(x, bound), bound)

    def call_many(self, xs: np.ndarray) -> list[tuple[float, np.ndarray | None]]:
        """The oracle at the sample points xs, in order, up to the first
        stop, with the stop rule checked before each point as around single
        calls: in one batch when the oracle has a batch form, at bound -inf
        in a run without a target and +inf in one with a target (see the
        module docstring)."""
        bound = -math.inf if self.target == -math.inf else math.inf
        out: list = []
        if self.stop:
            return out
        rows = None if self.batch is None else self.batch(xs, bound)
        for i, x in enumerate(xs):
            if i and self.stop:
                break
            f, g = self.oracle(x, bound) if rows is None else rows[i]
            out.append(self._count(x, f, g, bound))
        return out

    def _count(self, x: np.ndarray, f, g, bound: float) -> tuple[float, np.ndarray | None]:
        self.n_evals += 1
        f = float(f)
        if g is not None:
            g = np.asarray(g, dtype=float).ravel()
        if f <= bound and f < self.f:
            self.best = (np.array(x, dtype=float), f, g)
        return f, g

    @property
    def stop(self) -> str | None:
        """"target" once the incumbent is below the target, "budget" past
        the deadline, None while the run may go on."""
        if self.f < self.target:
            return "target"
        if time.perf_counter() >= self.deadline:
            return "budget"
        return None

    def result(self, x, f, g, measure, phase, iterations, status) -> OptResult:
        """An OptResult with this tracker's clock and eval count."""
        elapsed = time.perf_counter() - self.t0
        return OptResult(x, f, measure, phase, iterations, elapsed, status, self.n_evals, g)


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


def _start(oracle, x0, opts: OptOptions | None, track: _Tracker | None, first):
    """A phase's options, tracker, start point and first evaluation.

    A phase called on its own builds its tracker from opts; under hanso it
    shares the run's, whose counts and clock span the run, and hanso hands a
    refinement phase the exact (f, g) it already holds at x0 as `first`
    instead of evaluating x0 again.  A phase returns at once, with
    f_best = +inf and status "infeasible-start", when f(x0) is not finite.
    """
    opts = opts if opts is not None else OptOptions()
    if track is None:
        track = _Tracker(oracle, opts.cpu_budget_seconds)
    x = np.array(x0, dtype=float).ravel()
    f, g = first if first is not None else track.call(x, math.inf)
    return opts, track, x, f, g


def _weak_wolfe(
    track: _Tracker,
    x: np.ndarray,
    f0: float,
    g0: np.ndarray,
    d: np.ndarray,
    slope0: float,
):
    """Weak-Wolfe line search by bisection, robust to f = +inf regions; at
    most _LINE_SEARCH_STEPS trial points.

    Returns (t, x_t, f_t, g_t, outcome) with outcome "wolfe" when both
    conditions hold; "decrease", with the last trial that secured only
    sufficient decrease, when the trials ran out or the tracker stopped the
    search after one; "fail" otherwise.  Infinite f at a trial point shrinks
    the bracket toward the feasible endpoint, so the search never steps
    onward from an infeasible point.
    """
    alpha = 0.0
    xa, fa, ga = x, f0, g0
    beta = math.inf
    t = 1.0
    for _ in range(_LINE_SEARCH_STEPS):
        xt = x + t * d
        level = f0 + _WOLFE_C1 * t * slope0
        ft, gt = track.call(xt, level)
        if not math.isfinite(ft) or ft > level:
            beta = t
        elif gt @ d < _WOLFE_C2 * slope0:
            alpha, xa, fa, ga = t, xt, ft, gt
        else:
            return t, xt, ft, gt, "wolfe"
        if track.stop:
            break
        if math.isfinite(beta):
            t = 0.5 * (alpha + beta)
        else:
            t = 2.0 * t
    # trials exhausted or stopped: certification failed; surface any decrease
    # point found so the caller can keep the gain before stopping
    if alpha > 0.0:
        return alpha, xa, fa, ga, "decrease"
    return 0.0, x, f0, g0, "fail"


def bfgs_nonsmooth(
    oracle, x0, opts: OptOptions | None = None, *, _track=None, _first=None
) -> OptResult:
    """BFGS with a weak-Wolfe line search, tolerant of nonsmooth objectives.

    The inverse-Hessian update is skipped whenever the curvature s'y is not
    safely positive; the matrix is reset to (scaled) identity only on
    numerical breakdown.  Status is "infeasible-start" when f(x0) = +inf.
    """
    opts, track, x, f, g = _start(oracle, x0, opts, _track, _first)
    if not math.isfinite(f):
        return track.result(x, math.inf, None, math.inf, Phase.BFGS_ONLY, 0, "infeasible-start")
    dim = x.size
    H = np.eye(dim)
    status = "iteration-limit"
    it = 0
    scaled = False
    while it < opts.max_iters:
        gnorm = float(np.linalg.norm(g))
        if gnorm <= _GRAD_NORM_TOL:
            status = "gradient-tolerance"
            break
        if track.stop:
            status = track.stop
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
    measure = float(np.linalg.norm(track.best[2]))
    return track.result(*track.best, measure, Phase.BFGS_ONLY, it, status)


def min_norm_convex_hull(gradients) -> tuple[np.ndarray, np.ndarray]:
    """Smallest-norm point of the convex hull of the given vectors.

    Wolfe's nearest-point iteration (Math. Prog. 1976): start at the shortest
    vector, add the vertex that most violates optimality, and replace the
    support by the affine minimizer over it, stepping back to the first
    vertex whose weight would turn negative.  Each affine minimizer is a
    least-squares solve on the vectors themselves rather than a linear
    system on their Gram matrix, which would square their condition number.
    Returns (d, coeffs) with d = coeffs @ G, coeffs on the unit simplex.
    """
    G = np.atleast_2d(np.asarray(list(gradients), dtype=float))
    if G.size == 0 or G.ndim != 2:
        raise ValueError("need at least one vector")
    count = G.shape[0]
    if count == 1:
        return G[0].copy(), np.ones(1)
    sq = np.einsum("ij,ij->i", G, G)
    tol = 1e-12 * max(1.0, float(sq.max()))
    support = [int(np.argmin(sq))]
    lam = np.ones(1)
    for _ in range(200 + 10 * count):
        d = lam @ G[support]
        xg = G @ d
        j = int(np.argmin(xg))
        if xg[j] >= d @ d - tol or j in support:
            break
        support.append(j)
        lam = np.append(lam, 0.0)
        while True:
            # affine minimizer: e0 + sum_i beta_i (e_i - e0) on the support
            GS = G[support]
            beta = np.linalg.lstsq((GS[1:] - GS[0]).T, -GS[0], rcond=None)[0]
            alpha = np.concatenate(([1.0 - beta.sum()], beta))
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
    coeffs[support] = lam / lam.sum()
    return coeffs @ G, coeffs


def bundle_phase(
    oracle, x0, opts: OptOptions | None = None, *, _track=None, _first=None
) -> OptResult:
    """Lightweight local-optimality verifier around a candidate minimizer.

    Collects gradients at nearby points, measures the smallest convex
    combination within a shrinking radius, and tries descent along its
    negation.  Status is "verified" when the measure reaches 1e-6,
    "improvement" when the candidate was strictly improved but not verified,
    "infeasible-start" when f(x0) = +inf, "inconclusive" otherwise.
    """
    opts, track, x, f, g = _start(oracle, x0, opts, _track, _first)
    if not math.isfinite(f):
        return track.result(x, math.inf, None, math.inf, Phase.BUNDLE, 0, "infeasible-start")
    dim = x.size
    rng = _phase_rng(opts.rng_seed, 1)
    maxlen = min(100, 2 * dim + 4)
    bundle: list[tuple[np.ndarray, np.ndarray]] = [(x.copy(), g.copy())]
    scale = 1.0 + float(np.linalg.norm(x))
    radius = _SAMPLING_RADII[0] * scale
    floor = _SAMPLING_RADII[-1] * scale * 0.1
    measure = float(np.linalg.norm(g))
    improved = False
    stalls = 0
    it = 0
    while it < opts.max_iters:
        it += 1
        if track.stop:
            break
        # the current gradient always participates; trimming may have evicted
        # the iterate's own bundle entry
        active = [g] + [gi for xi, gi in bundle if np.linalg.norm(xi - x) <= radius]
        d, _ = min_norm_convex_hull(active)
        measure = float(np.linalg.norm(d))
        if measure <= _GRAD_NORM_TOL:
            break
        slope = -measure * measure
        t, xn, fn, gn, outcome = _weak_wolfe(track, x, f, g, -d, slope)
        meaningful = fn < f - 1e-12 * (1.0 + abs(f))
        if outcome != "fail" and fn < f:
            x, f, g = xn, fn, gn
            bundle.append((x.copy(), g.copy()))
            improved = True
        if outcome != "fail" and meaningful:
            stalls = 0
        elif track.stop:
            break
        else:
            # no real progress along the hull direction: enrich the bundle
            # with a gradient sampled nearby, shrinking the radius when that
            # stops helping either
            xs = x + radius * _ball_sample(rng, dim)
            fs, gs = track.call(xs, math.inf)
            if math.isfinite(fs):
                bundle.append((xs, gs))
                if fs < f:
                    x, f, g = xs, fs, gs
                    improved = True
            stalls += 1
            if stalls >= 10:
                radius *= 0.2
                stalls = 0
                if radius < floor:
                    break
        if len(bundle) > maxlen:
            bundle = bundle[-maxlen:]
    if measure <= _GRAD_NORM_TOL:
        status = "verified"
    elif improved:
        status = "improvement"
    else:
        status = "inconclusive"
    return track.result(*track.best, measure, Phase.BUNDLE, it, status)


def gradient_sampling(
    oracle, x0, opts: OptOptions | None = None, *, _track=None, _first=None
) -> OptResult:
    """Gradient sampling over a fixed, shrinking radius schedule.

    Each iteration draws 2 * dim points uniformly in a ball around
    the iterate, discards infeasible ones, and descends along the negated
    smallest convex combination of the sampled gradients with a backtracking
    Armijo search.  Status is "radius-schedule-complete" when every radius
    ran to its end, "iteration-limit" when max_iters stopped the schedule
    first, "budget" or "target" when the stop rule ended it, and
    "infeasible-start" when f(x0) = +inf.
    """
    opts, track, x, f, g = _start(oracle, x0, opts, _track, _first)
    if not math.isfinite(f):
        return track.result(
            x, math.inf, None, math.inf, Phase.GRADIENT_SAMPLING, 0, "infeasible-start"
        )
    dim = x.size
    rng = _phase_rng(opts.rng_seed, 2)
    m = 2 * dim
    measure = float(np.linalg.norm(g))
    status = "radius-schedule-complete"
    it = 0
    for rad_scale in _SAMPLING_RADII:
        radius = rad_scale * (1.0 + float(np.linalg.norm(x)))
        while it < opts.max_iters:
            if track.stop:
                status = track.stop
                break
            it += 1
            xs = x + radius * np.array([_ball_sample(rng, dim) for _ in range(m)])
            samples = track.call_many(xs)
            grads = [g] + [gs for fs, gs in samples if math.isfinite(fs)]
            d, _ = min_norm_convex_hull(grads)
            measure = float(np.linalg.norm(d))
            if measure <= _GRAD_NORM_TOL:
                break
            # Armijo backtracking along -d: t = 1, 1/2, ..., 2^-29
            accepted = False
            f_prev = f
            t = 1.0
            for _ in range(30):
                if track.stop:
                    break
                xt = x - t * d
                level = f_prev - _WOLFE_C1 * t * measure * measure
                ft, gt = track.call(xt, level)
                if math.isfinite(ft) and ft <= level:
                    x, f, g = xt, ft, gt
                    accepted = True
                    break
                t *= 0.5
            if accepted:
                # microscopic accepted steps mean this radius is exhausted
                if f_prev - f < 1e-12 * (1.0 + abs(f)):
                    break
            else:
                break
        else:
            status = "iteration-limit"
        if status != "radius-schedule-complete":
            break
    return track.result(*track.best, measure, Phase.GRADIENT_SAMPLING, it, status)


def hanso(
    oracle, starts, opts: OptOptions | None = None, *, target: float = -math.inf
) -> OptResult:
    """Multi-start BFGS, then bundle verification, then gradient sampling.

    Runs BFGS from each start in turn, then the bundle phase from the run's
    incumbent, and gradient sampling from it when verification is
    inconclusive; a refinement phase takes the incumbent's f and gradient
    without evaluating it again.  Returns the incumbent, with the statuses
    of the BFGS start that last improved it and of each refinement phase.
    Every start and phase shares one deadline, and the run ends at the
    first evaluation with f < target; the status then ends with "budget" or
    "target".  Starts with f = +inf are skipped; when every start is, the
    result has f_best = +inf and status "infeasible".  Raises ValueError
    for no starts.

    The oracle is called as oracle(x, bound) (see the module docstring): it
    must return f(x) exactly when f(x) <= bound, and may return any value in
    (bound, f(x)] otherwise, at a finite bound with grad None.  Every point
    the run accepts, and the returned f_best, has an exact f.  In a run with
    a target, gradient-sampling sample points are exact too, so one of them
    can be the incumbent of a run that misses its target.
    """
    if len(starts) == 0:
        raise ValueError("hanso needs at least one start point")
    opts = opts if opts is not None else OptOptions()
    track = _Tracker(oracle, opts.cpu_budget_seconds, target)

    bfgs = None
    iters = 0
    statuses = []
    for x0 in starts:
        # past the deadline, starts are still tried until one is feasible
        if track.stop and track.best is not None:
            break
        before = track.f
        r = bfgs_nonsmooth(oracle, x0, opts, _track=track)
        iters += r.iterations
        if r.status == "infeasible-start":
            statuses.append(r.status)
        elif track.f < before:
            bfgs = r
    if bfgs is None:
        return track.result(
            r.x_best, math.inf, None, math.inf, Phase.BFGS_ONLY, iters, "infeasible"
        )
    statuses.append(f"bfgs:{bfgs.status}")

    measure = bfgs.optimality_measure
    phase = Phase.BFGS_ONLY
    # looked up at call time, so that wrappers installed on the module apply
    for refine, name in ((bundle_phase, "bundle"), (gradient_sampling, "sampling")):
        if track.stop:
            break
        x, f, g = track.best
        r = refine(oracle, x, opts, _track=track, _first=(f, g))
        iters += r.iterations
        phase = r.phase_reached
        measure = r.optimality_measure
        statuses.append(f"{name}:{r.status}")
        if r.status == "verified":
            break
    if track.stop:
        statuses.append(track.stop)

    return track.result(*track.best, measure, phase, iters, ";".join(statuses))
