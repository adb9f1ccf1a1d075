"""What the benchmark in perfbench/ relies on from the package.

The benchmark's own tests live in perfbench/ and are not collected here, so
a renamed function or a dropped keyword that it uses would pass this suite
and still break `perfbench/run.py`.  These tests pin that contract.
"""

from __future__ import annotations

import inspect
import math
import runpy
from pathlib import Path

import fixedhinf
from fixedhinf import (
    Controller,
    SynthesisOptions,
    abscissa_gradient,
    certify_controller,
    hinf_gradient,
    synthesize,
)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_attributes_resolve():
    # tracing.py imports only the standard library
    tracing = runpy.run_path(str(TRACING), run_name="perfbench_tracing")
    for table in (tracing["TRACED"], tracing["ORACLE_FACTORIES"]):
        for name, (module, attr) in table.items():
            assert callable(getattr(getattr(fixedhinf, module), attr, None)), name


def test_ladder_gradient_keywords_bind(interior_plant):
    inspect.signature(hinf_gradient).bind(
        interior_plant, Controller.static([[-2.0]]), rel_tol=1e-7, scan_secondary_peaks=False
    )


def test_synthesis_options_accept_the_workload_keywords():
    SynthesisOptions(
        order=1,
        runs=3,
        max_iters=4,
        stage1_starts=3,
        stabilization_margin=0.1,
        norm_rel_tol=1e-7,
        cpumax_seconds=3600.0,
        rng_seed=0,
    )


def test_results_carry_the_attributes_the_benchmark_reads(interior_plant):
    """Every result attribute that perfbench/workloads.py and tracing.py read,
    on a tiny synthesis, its certificate and a ladder-style gradient."""
    opts = SynthesisOptions(order=0, runs=1, max_iters=2, stage1_starts=1, rng_seed=0)
    res = synthesize(interior_plant, opts)
    assert res.status.value == "success"
    assert isinstance(res.controller, Controller)
    assert math.isfinite(res.norm)
    assert len(res.per_run) == 1 and res.per_run[0].elapsed_seconds >= 0.0
    absc, cert = certify_controller(interior_plant, res.controller)
    assert absc.alpha < 0.0
    for norm in (res.certificate, cert):
        assert norm.gamma > 0.0 and norm.omega_peak >= 0.0
        assert norm.attained_at_infinity in (True, False)
        assert norm.converged is True
        assert norm.iterations >= 1
    k = Controller.static([[-2.0]])
    for rep in (
        abscissa_gradient(interior_plant, k),
        hinf_gradient(interior_plant, k, rel_tol=1e-7, scan_secondary_peaks=False),
    ):
        assert math.isfinite(rep.value)
        assert rep.grad.shape == (1,)
        assert rep.smoothness_hint.value in ("smooth", "near-tie")
