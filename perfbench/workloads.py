"""The benchmark's inputs and its fixed work.

Each workload is a `Workload` with four steps: `prepare` builds every input
from the seed, `warmup` calls each timed entry point once on a small input,
`round` is one round of the timed fixed work, and `check` verifies every
output with the independent code in `checks.py`.  A run is a whole number of
rounds of the same operations on fresh inputs of the same kind; iteration
caps, never the wall clock, end each synthesis.  One operation is one call
into fixedhinf's public API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import checks

# Synthesis budget: far above any run.  The budget is a wall-clock deadline,
# so a synthesis that comes near it would depend on machine speed; a run
# whose RunRecord.elapsed_seconds exceeds BUDGET_GUARD of it fails its check.
CPUMAX_SECONDS = 3600.0
BUDGET_GUARD = 0.05

# The program's inputs are fixed, like the paper's benchmark plants, so that
# every run does the same work: the number of Hamiltonian eigen-solves per
# norm varies from one loop to the next (2 to 4 at n = 300), which would
# swamp a run-to-run comparison.  The run seed drives the randomized
# multi-start of the synthesis workloads and the finite-difference
# directions of the ladder's gradient checks.
SMALL_PLANT_SEED = 20030
LARGE_PLANT_SEED = 20031
LADDER_SEED = 20032

KNOWN_ANSWER = 1.0 + math.sqrt(3.0)
KNOWN_ANSWER_RTOL = 1e-6


def known_answer_plant(fh):
    """Two-state plant whose best static and first-order controllers give
    closed-loop norm 1 + sqrt(3) (the `interior_plant` of the test suite)."""
    return fh.Plant(
        np.diag([1.0, -2.0]),
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([[1.0], [0.0]]),
        np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        np.array([[1.0, 0.0]]),
        np.zeros((3, 3)),
        np.array([[0.0], [0.0], [1.0]]),
        np.array([[0.0, 0.0, 1.0]]),
        np.zeros((1, 1)),
    )


def _stable_matrix(rng, n: int, margin: float) -> np.ndarray:
    A = rng.standard_normal((n, n)) / math.sqrt(n)
    return A - (float(np.max(np.linalg.eigvals(A).real)) + margin) * np.eye(n)


def unstable_plant(fh, rng, n: int, m1: int, m2: int, p1: int, p2: int):
    """Open-loop-unstable plant with a planted stabilizing static gain.

    A = As - B2 K0 C2 with As stable, so DK = K0 places the closed loop at As.
    K0 is drawn, and scaled by at most 8, until at least two modes of A have
    real part above 0.2.
    """
    As = _stable_matrix(rng, n, 0.5)
    B2 = rng.standard_normal((n, m2))
    C2 = rng.standard_normal((p2, n))
    while True:
        K0 = rng.standard_normal((m2, p2))
        for scale in np.geomspace(0.5, 8.0, 13):
            A = As - scale * B2 @ K0 @ C2
            if np.sum(np.linalg.eigvals(A).real > 0.2) >= 2:
                break
        else:
            continue
        break
    return fh.Plant.from_blocks(
        A,
        rng.standard_normal((n, m1)),
        B2,
        rng.standard_normal((p1, n)),
        C2,
        D12=rng.standard_normal((p1, m2)),
        D21=rng.standard_normal((p2, m1)),
    )


def flexible_plant(fh, rng, modes: int, m: int):
    """Open-loop-stable, lightly damped plant of order 2 * modes.

    Modal frequencies log-spaced over two decades with jitter, damping
    ratios between 0.01 and 0.05, hidden by a random orthogonal change of
    state coordinates so that A is dense.
    """
    n = 2 * modes
    freqs = np.geomspace(0.3, 30.0, modes) * np.exp(0.05 * rng.standard_normal(modes))
    zetas = rng.uniform(0.01, 0.05, modes)
    A = np.zeros((n, n))
    for i, (w, z) in enumerate(zip(freqs, zetas)):
        wd = w * math.sqrt(1.0 - z * z)
        A[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[-z * w, wd], [-wd, -z * w]]
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    scale = 1.0 / math.sqrt(n)
    return fh.Plant.from_blocks(
        Q @ A @ Q.T,
        Q @ (scale * rng.standard_normal((n, m))),
        Q @ (scale * rng.standard_normal((n, m))),
        (scale * rng.standard_normal((m, n))) @ Q.T,
        (scale * rng.standard_normal((m, n))) @ Q.T,
        D12=0.1 * np.eye(m),
        D21=0.1 * np.eye(m),
    )


def stable_loop(fh, rng, n: int):
    """A fresh plant of even order n and a static controller whose closed
    loop is stable and lightly damped.

    The closed-loop state matrix is drawn from the `flexible_plant` family,
    and the plant is built around the drawn gain K as A = Acl - B2 K C2.
    """
    shape = flexible_plant(fh, rng, n // 2, 2)
    DK = 0.5 * rng.standard_normal((2, 2))
    plant = fh.Plant.from_blocks(
        shape.A - shape.B2 @ DK @ shape.C2,
        shape.B1,
        shape.B2,
        shape.C1,
        shape.C2,
        D11=0.1 * rng.standard_normal((2, 2)),
        D12=shape.D12,
        D21=shape.D21,
    )
    return plant, fh.Controller.static(DK)


@dataclass(eq=False)
class Op:
    """One operation: a label, its result (or the exception it raised), and
    the verdict of its check."""

    label: str
    result: object = None
    error: BaseException | None = None
    ok: bool = False
    detail: str = ""


def call(ops: list[Op], label: str, fn, *args, **kwargs):
    """Run one operation, recording its result or the exception it raised."""
    op = Op(label)
    ops.append(op)
    try:
        op.result = fn(*args, **kwargs)
    except Exception as exc:  # an operation that raises is a failed operation
        op.error = exc
    return op


@dataclass
class Workload:
    name: str
    rounds: int
    inputs: dict = field(default_factory=dict)

    def prepare(self, fh, seed: int) -> None:
        raise NotImplementedError

    def warmup(self, fh) -> None:
        raise NotImplementedError

    def round(self, fh, r: int) -> list[Op]:
        raise NotImplementedError

    def check(self, r: int, ops: list[Op]) -> None:
        raise NotImplementedError

    def norms(self, ops: list[Op]) -> list[str]:
        """Reported norms, which repeat exactly from run to run with one seed."""
        raise NotImplementedError


def _synth_options(fh, order, runs, max_iters, stage1_starts, margin, rng_seed):
    return fh.SynthesisOptions(
        order=order,
        runs=runs,
        max_iters=max_iters,
        stage1_starts=stage1_starts,
        stabilization_margin=margin,
        norm_rel_tol=1e-7,
        cpumax_seconds=CPUMAX_SECONDS,
        rng_seed=rng_seed,
    )


def _peak_hint(norm) -> tuple[float, ...]:
    return () if norm is None or norm.attained_at_infinity else (norm.omega_peak,)


def _check_synthesis(op: Op, plant, known: float | None = None) -> None:
    res = op.result
    if res.status.value != "success" or res.controller is None:
        op.detail = f"status {res.status.value}"
        return
    slow = [r.elapsed_seconds for r in res.per_run if r.elapsed_seconds > BUDGET_GUARD * CPUMAX_SECONDS]
    if slow:
        op.detail = f"a run took {max(slow):.1f} s, near the {CPUMAX_SECONDS:g} s budget"
        return
    if known is not None and abs(res.norm - known) > KNOWN_ANSWER_RTOL * known:
        op.detail = f"norm {res.norm!r} is not the known optimum {known!r}"
        return
    op.ok, op.detail = checks.check_controller(plant, res.controller, res.norm, _peak_hint(res.certificate))


def _check_certificate(op: Op, plant, controller) -> None:
    absc, norm = op.result
    alpha = checks.abscissa(checks.closed_loop(plant, controller)[0])
    if abs(absc.alpha - alpha) > 1e-8 * (1.0 + abs(alpha)):
        op.detail = f"abscissa {absc.alpha!r}, recomputed {alpha!r}"
        return
    op.ok, op.detail = checks.check_controller(plant, controller, norm.gamma, _peak_hint(norm))


class SynthWorkload(Workload):
    """`synthesize` plus `certify_controller` on fixed plants; each round
    draws its own multi-start seed from the run seed."""

    def __init__(self, name, rounds, *, make_plant, settings, known_answer: bool):
        super().__init__(name, rounds)
        self.make_plant = make_plant
        self.settings = settings
        self.known_answer = known_answer

    def prepare(self, fh, seed: int) -> None:
        cases = [("plant", self.make_plant(fh), self.settings, None)]
        if self.known_answer:
            cases.append(("known", known_answer_plant(fh), KNOWN_SETTINGS, KNOWN_ANSWER))
        self.inputs = {
            "cases": cases,
            "options": [
                [_synth_options(fh, *settings, rng_seed=seed * 1000 + r) for _, _, settings, _ in cases]
                for r in range(self.rounds)
            ],
        }

    def warmup(self, fh) -> None:
        plant = known_answer_plant(fh)
        res = fh.synthesize(plant, _synth_options(fh, 0, 1, 2, 1, 0.0, rng_seed=0))
        fh.certify_controller(plant, res.controller)

    def round(self, fh, r: int) -> list[Op]:
        ops: list[Op] = []
        for (label, plant, _, _), opts in zip(self.inputs["cases"], self.inputs["options"][r]):
            syn = call(ops, f"synthesize:{label}", fh.synthesize, plant, opts)
            controller = None if syn.error else syn.result.controller
            # without a controller this raises, and counts as failed
            call(ops, f"certify:{label}", lambda: fh.certify_controller(plant, controller))
        return ops

    def check(self, r: int, ops: list[Op]) -> None:
        for (label, plant, _, known), (syn, cert) in zip(self.inputs["cases"], zip(ops[::2], ops[1::2])):
            for op in (syn, cert):
                if op.error is not None:
                    op.detail = f"raised {op.error!r}"
            if syn.error is None:
                _check_synthesis(syn, plant, known)
            if cert.error is None:
                _check_certificate(cert, plant, syn.result.controller)

    def norms(self, ops: list[Op]) -> list[str]:
        return [repr(op.result.norm) for op in ops if op.label.startswith("synthesize") and op.error is None]


class LadderWorkload(Workload):
    """Unrelated closed loops, a different one for every round and size; each
    goes once through the interconnection, abscissa, norm, both gradients and
    certification."""

    def __init__(self, name, rounds, *, sizes):
        super().__init__(name, rounds)
        self.sizes = tuple(sizes)

    def prepare(self, fh, seed: int) -> None:
        rng = np.random.default_rng(LADDER_SEED)
        loops = [[stable_loop(fh, rng, n) for n in self.sizes] for _ in range(self.rounds)]
        rng = np.random.default_rng(seed)
        self.inputs = {
            "loops": loops,
            "directions": [[_unit(rng.standard_normal(k.DK.size)) for _, k in row] for row in loops],
        }

    def warmup(self, fh) -> None:
        plant, k = stable_loop(fh, np.random.default_rng(0), 10)
        self._steps(fh, [], plant, k)

    @staticmethod
    def _steps(fh, ops, plant, k):
        cl = call(ops, "lft", fh.lft_closed_loop, plant, k).result
        # without a closed loop these two raise, and count as failed
        call(ops, "abscissa", lambda: fh.spectral_abscissa(cl.A))
        call(ops, "hinf_norm", lambda: fh.hinf_norm(cl))
        call(ops, "abscissa_grad", fh.abscissa_gradient, plant, k)
        call(ops, "hinf_grad", fh.hinf_gradient, plant, k, rel_tol=1e-7, scan_secondary_peaks=False)
        call(ops, "certify", fh.certify_controller, plant, k)

    def round(self, fh, r: int) -> list[Op]:
        ops: list[Op] = []
        for plant, k in self.inputs["loops"][r]:
            self._steps(fh, ops, plant, k)
        return ops

    def check(self, r: int, ops: list[Op]) -> None:
        steps = len(ops) // len(self.sizes)
        for i, ((plant, k), d) in enumerate(zip(self.inputs["loops"][r], self.inputs["directions"][r])):
            _check_loop(plant, k, d, ops[i * steps : (i + 1) * steps])

    def norms(self, ops: list[Op]) -> list[str]:
        return [repr(op.result.gamma) for op in ops if op.label == "hinf_norm" and op.error is None]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _check_loop(plant, k, d, ops) -> None:
    """Check one ladder loop's six operations against a closed loop formed here."""
    lft, absc, norm, agrad, hgrad, cert = ops
    for op in ops:
        if op.error is not None:
            op.detail = f"raised {op.error!r}"
    A, B, C, D = checks.closed_loop(plant, k)
    alpha = checks.abscissa(A)
    reported = [norm.result, None if cert.error else cert.result[1]]
    hints = [r.omega_peak for r in reported if r is not None and not r.attained_at_infinity]
    lower, omega = checks.peak_gain(A, B, C, D, hints)

    if lft.error is None:
        cl = lft.result
        diff = max(float(np.max(np.abs(x - y))) for x, y in zip((cl.A, cl.B, cl.C, cl.D), (A, B, C, D)))
        lft.ok = diff <= 1e-10 * (1.0 + float(np.max(np.abs(A))))
        lft.detail = f"max difference {diff:.2e}"
    if absc.error is None:
        absc.ok = abs(absc.result.alpha - alpha) <= 1e-8 * (1.0 + abs(alpha))
        absc.detail = f"abscissa {absc.result.alpha!r}, recomputed {alpha!r}"

    gammas = {}
    if norm.error is None:
        gammas[norm] = norm.result.gamma
    if hgrad.error is None:
        gammas[hgrad] = hgrad.result.value
    if cert.error is None:
        if abs(cert.result[0].alpha - alpha) > 1e-8 * (1.0 + abs(alpha)):
            cert.detail = f"abscissa {cert.result[0].alpha!r}, recomputed {alpha!r}"
        else:
            gammas[cert] = cert.result[1].gamma
    for op, verdict in zip(gammas, checks.check_norms(A, B, C, D, list(gammas.values()), lower)):
        op.ok, op.detail = verdict

    theta = k.DK.ravel(order="F")
    h = 1e-6 * (1.0 + float(np.linalg.norm(theta)))

    def loop_at(t):
        return checks.closed_loop(plant, type(k).static(t.reshape(k.DK.shape, order="F")))

    if agrad.error is None:
        rep = agrad.result
        if abs(rep.value - alpha) > 1e-8 * (1.0 + abs(alpha)):
            agrad.detail = f"abscissa {rep.value!r}, recomputed {alpha!r}"
        elif rep.smoothness_hint.value == "near-tie":
            agrad.ok, agrad.detail = True, "near tie: finite difference skipped"
        else:
            fd = checks.fd_directional(lambda t: checks.abscissa(loop_at(t)[0]), theta, d, h)
            agrad.ok, agrad.detail = checks.check_directional(fd, rep.grad, d)
    if hgrad.ok and hgrad.result.smoothness_hint.value == "near-tie":
        hgrad.detail = "near tie: finite difference skipped"
    elif hgrad.ok:
        # the norm's derivative is that of sigma_max at the peak frequency
        def gain(t):
            Ap, Bp, Cp, Dp = loop_at(t)
            if math.isinf(omega):
                return float(np.linalg.norm(Dp, 2))
            X = np.linalg.solve(1j * omega * np.eye(Ap.shape[0]) - Ap, Bp)
            return float(np.linalg.norm(Cp @ X + Dp, 2))

        fd = checks.fd_directional(gain, theta, d, h)
        hgrad.ok, hgrad.detail = checks.check_directional(fd, hgrad.result.grad, d)


# (order, runs, max_iters, stage1_starts, stabilization_margin)
KNOWN_SETTINGS = (0, 2, 20, 2, 0.0)
SMALL_SETTINGS = (1, 3, 4, 3, 0.1)
LARGE_SETTINGS = (0, 1, 2, 1, 0.0)
REDUCED = {"synth-small": (1, 1, 2, 2, 0.1), "synth-large": (0, 1, 1, 1, 0.0)}


def make_workload(name: str, rounds: int, *, reduced: bool = False) -> Workload:
    """The named workload with `rounds` rounds; `reduced` shrinks every size
    for the benchmark's own fast test."""
    if name == "synth-small":
        n = 6 if reduced else 10
        return SynthWorkload(
            name, rounds,
            make_plant=lambda fh: unstable_plant(fh, np.random.default_rng(SMALL_PLANT_SEED), n, 2, 2, 2, 3),
            settings=REDUCED[name] if reduced else SMALL_SETTINGS, known_answer=True,
        )
    if name == "synth-large":
        modes = 10 if reduced else 50
        return SynthWorkload(
            name, rounds,
            make_plant=lambda fh: flexible_plant(fh, np.random.default_rng(LARGE_PLANT_SEED), modes, 2),
            settings=REDUCED[name] if reduced else LARGE_SETTINGS, known_answer=False,
        )
    if name == "analysis-ladder":
        return LadderWorkload(name, rounds, sizes=(6, 12) if reduced else (10, 30, 100, 300))
    raise KeyError(name)
