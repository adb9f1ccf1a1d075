"""Spans at the module boundaries of fixedhinf, recorded from outside.

`Tracer.install()` replaces module attributes of the package with timing
wrappers: every attribute, in the package and in each submodule, that is
bound to one of the traced functions.  Calls that cross a module boundary
(and the calls `hanso` makes to its phase functions) therefore go through a
wrapper, and nothing in the package itself changes.  Each span records its
name, start, end, parent span and the order of the system it worked on; the
end is recorded also when the call exits by an exception, which is how
stage 1 stops (`_TargetReached` raised through `hanso`).

Spans are kept in memory; `per_layer_metrics` reduces them to the metrics
listed in BENCHMARK.json and `write_jsonl` writes them out at the end.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field

# Traced callables: span name -> (module, attribute).  The two oracle
# factories of `synthesis` are wrapped so that the oracles they return are
# traced as well; those oracle spans are the objective evaluations.
TRACED = {
    "statespace.lft": ("statespace", "lft_closed_loop"),
    "analysis.hinf_norm": ("analysis", "hinf_norm"),
    "analysis.abscissa": ("analysis", "spectral_abscissa"),
    "gradients.hinf_grad": ("gradients", "hinf_gradient"),
    "gradients.abscissa_grad": ("gradients", "abscissa_gradient"),
    "optimize.hanso": ("optimize", "hanso"),
    "optimize.bfgs": ("optimize", "bfgs_nonsmooth"),
    "optimize.bundle": ("optimize", "bundle_phase"),
    "optimize.sampling": ("optimize", "gradient_sampling"),
    "optimize.hull": ("optimize", "min_norm_convex_hull"),
    "synthesis.synthesize": ("synthesis", "synthesize"),
    "synthesis.stage1": ("synthesis", "stabilize"),
    "synthesis.stage2": ("synthesis", "optimize_performance"),
    "synthesis.certify": ("synthesis", "certify_controller"),
}
ORACLE_FACTORIES = {
    "synthesis.stage1_oracle": ("synthesis", "_stage1_oracle"),
    "synthesis.stage2_oracle": ("synthesis", "_stage2_oracle"),
}
ORACLES = tuple(ORACLE_FACTORIES)
PHASES = {"optimize.bfgs": "bfgs", "optimize.bundle": "bundle", "optimize.sampling": "sampling"}

# Ladder sizes for the per-n metrics.  A call counts toward nN when the order
# of the system it works on lies in [N, 1.5 N): the plant order for the
# interconnection, the gradients and certification, the order of the matrix
# or closed loop for the abscissa and the norm.
LADDER_SIZES = (10, 30, 100, 300)
PER_N = {
    "statespace.lft_ms": "statespace.lft",
    "analysis.abscissa_ms": "analysis.abscissa",
    "analysis.hinf_norm_ms": "analysis.hinf_norm",
    "gradients.abscissa_grad_ms": "gradients.abscissa_grad",
    "gradients.hinf_grad_ms": "gradients.hinf_grad",
    "synthesis.certify_ms": "synthesis.certify",
}


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = math.nan
    order: int | None = None
    note: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _order(args) -> int | None:
    """Order of the system a traced call works on, from its first argument."""
    if not args:
        return None
    first = args[0]
    n = getattr(first, "n", None)
    if isinstance(n, int):
        return n
    shape = getattr(first, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0])
    return None


def _note(name: str, result) -> dict:
    """Counts read off a traced call's result."""
    if name == "analysis.hinf_norm":
        return {"iters": result.iterations, "unconverged": not result.converged}
    if name in ("gradients.hinf_grad", "gradients.abscissa_grad"):
        return {"near_tie": result.smoothness_hint.value == "near-tie"}
    if name in ORACLES:
        return {"infeasible": math.isinf(result[0])}
    return {}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, time.perf_counter(), order=_order(args))
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span.note = _note(name, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def _wrap_factory(self, name: str, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self._wrap(name, factory(*args, **kwargs))

        return make

    def _modules(self):
        prefix = self.package.__name__ + "."
        mods = [self.package]
        mods += [m for key, m in sorted(sys.modules.items()) if key.startswith(prefix)]
        return mods

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for table, wrap in ((TRACED, self._wrap), (ORACLE_FACTORIES, self._wrap_factory)):
            for name, (module, attr) in table.items():
                original = getattr(getattr(self.package, module), attr)
                replacements[id(original)] = (original, wrap(name, original))
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s.name, "parent": s.parent, "start": s.start,
                       "end": s.end, "order": s.order, **s.note}
                fh.write(json.dumps(row) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def _ancestor(spans: list[Span], i: int, names) -> str | None:
    """Name of the nearest ancestor of span i whose name is in `names`."""
    p = spans[i].parent
    while p >= 0:
        if spans[p].name in names:
            return spans[p].name
        p = spans[p].parent
    return None


def _bucket(order: int | None) -> int | None:
    if order is None:
        return None
    for size in LADDER_SIZES:
        if size <= order < 1.5 * size:
            return size
    return None


def per_layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Reduce spans to the per-layer metrics: name -> (value, unit)."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    for s, st in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_total[s.name] = self_total.get(s.name, 0.0) + st

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    oracle_idx = [i for i, s in enumerate(spans) if s.name in ORACLES]
    evals = len(oracle_idx)
    by_phase = {label: 0 for label in PHASES.values()}
    by_stage = {"synthesis.stage1": 0, "synthesis.stage2": 0}
    for i in oracle_idx:
        phase = _ancestor(spans, i, PHASES)
        if phase is not None:
            by_phase[PHASES[phase]] += 1
        stage = _ancestor(spans, i, by_stage)
        if stage is not None:
            by_stage[stage] += 1
    hanso_s = t("optimize.hanso")

    m: dict[str, tuple[float, str]] = {
        "statespace.lft_calls": (n("statespace.lft"), "count"),
        "statespace.lft_s": (t("statespace.lft"), "s"),
        "analysis.hinf_norm_calls": (n("analysis.hinf_norm"), "count"),
        "analysis.hinf_norm_s": (t("analysis.hinf_norm"), "s"),
        "analysis.hinf_norm_iters": (
            sum(s.note.get("iters", 0) for s in spans if s.name == "analysis.hinf_norm"), "count"),
        "analysis.hinf_norm_unconverged": (
            sum(bool(s.note.get("unconverged")) for s in spans), "count"),
        "analysis.abscissa_calls": (n("analysis.abscissa"), "count"),
        "analysis.abscissa_s": (t("analysis.abscissa"), "s"),
        "gradients.hinf_grad_calls": (n("gradients.hinf_grad"), "count"),
        "gradients.hinf_grad_self_s": (self_total.get("gradients.hinf_grad", 0.0), "s"),
        "gradients.abscissa_grad_calls": (n("gradients.abscissa_grad"), "count"),
        "gradients.abscissa_grad_self_s": (self_total.get("gradients.abscissa_grad", 0.0), "s"),
        "gradients.near_tie": (sum(bool(s.note.get("near_tie")) for s in spans), "count"),
        "optimize.evals": (evals, "count"),
        "optimize.infeasible_evals": (
            sum(bool(spans[i].note.get("infeasible")) for i in oracle_idx), "count"),
        "optimize.evals_per_s": (evals / hanso_s if hanso_s > 0 else 0.0, "1/s"),
        "optimize.bfgs_s": (t("optimize.bfgs"), "s"),
        "optimize.bundle_s": (t("optimize.bundle"), "s"),
        "optimize.sampling_s": (t("optimize.sampling"), "s"),
        "optimize.bfgs_evals": (by_phase["bfgs"], "count"),
        "optimize.bundle_evals": (by_phase["bundle"], "count"),
        "optimize.sampling_evals": (by_phase["sampling"], "count"),
        "optimize.hull_calls": (n("optimize.hull"), "count"),
        "optimize.hull_s": (t("optimize.hull"), "s"),
        "optimize.self_s": (
            sum(st for s, st in zip(spans, selfs) if s.name.startswith("optimize.")), "s"),
        "synthesis.stage1_s": (t("synthesis.stage1"), "s"),
        "synthesis.stage2_s": (t("synthesis.stage2"), "s"),
        "synthesis.certify_s": (t("synthesis.certify"), "s"),
        "synthesis.stage1_evals": (by_stage["synthesis.stage1"], "count"),
        "synthesis.stage2_evals": (by_stage["synthesis.stage2"], "count"),
    }
    for metric, span_name in PER_N.items():
        for size in LADDER_SIZES:
            durations = [s.duration for s in spans
                         if s.name == span_name and _bucket(s.order) == size]
            mean_ms = 1e3 * sum(durations) / len(durations) if durations else 0.0
            m[f"{metric}.n{size}"] = (mean_ms, "ms")
    return m
