"""What the benchmark in perfbench/ relies on from the package.

The benchmark's own tests live in perfbench/ and are not collected here, so
a renamed function or a dropped keyword that it uses would pass this suite
and still break `perfbench/run.py`.  These tests pin that contract.
"""

from __future__ import annotations

import inspect
import runpy
from pathlib import Path

import fixedhinf
from fixedhinf import Controller, SynthesisOptions, hinf_gradient

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
