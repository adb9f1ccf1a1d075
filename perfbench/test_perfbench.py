"""Fast test of the benchmark itself: python3 -m pytest perfbench -q

Every workload runs end to end at a reduced size, untraced and traced, with
all of its output checks; the norm bracket must refuse a norm 1% off.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

fh = run.import_package()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_runs_and_checks_at_reduced_size(workload):
    plain, record, _ = run.run(workload, 3, 1.0, False, reduced=True)
    assert record["problems"] == []
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 2
    assert set(plain["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced, traced_record, tracer = run.run(workload, 3, 1.0, True, reduced=True)
    assert traced["correct"], traced_record["problems"]
    assert set(traced["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert all(traced["metrics"][k]["unit"] == u for k, u in units.items())
    # same seed, same work: the outputs repeat exactly, traced or not
    assert traced_record["norms"] == record["norms"]
    assert all(s.end >= s.start for s in tracer.spans)


def test_tracer_restores_the_package():
    before = {name: getattr(getattr(fh, mod), attr) for name, (mod, attr) in tracing.TRACED.items()}
    tracer = tracing.Tracer(fh)
    with tracer:
        assert fh.synthesis.hanso is not before["optimize.hanso"]
        assert fh.hinf_norm is not before["analysis.hinf_norm"]
    after = {name: getattr(getattr(fh, mod), attr) for name, (mod, attr) in tracing.TRACED.items()}
    assert after == before
    assert fh.hinf_norm is before["analysis.hinf_norm"]


def test_stage1_spans_end_when_the_target_raises():
    plant = workloads.unstable_plant(fh, np.random.default_rng(1), 6, 2, 2, 2, 3)
    opts = workloads._synth_options(fh, 1, 1, 3, 2, 0.1, rng_seed=0)
    tracer = tracing.Tracer(fh)
    with tracer:
        fh.stabilize(plant, opts)
    names = {s.name for s in tracer.spans}
    assert {"synthesis.stage1_oracle", "optimize.bfgs", "optimize.hanso"} <= names
    assert all(not math.isnan(s.end) for s in tracer.spans)
    m = tracing.per_layer_metrics(tracer.spans)
    assert m["synthesis.stage1_evals"][0] == m["optimize.evals"][0] >= 1


def test_bracket_refuses_a_norm_one_percent_off():
    plant = workloads.known_answer_plant(fh)
    k = fh.Controller.static([[-workloads.KNOWN_ANSWER]])
    gamma = workloads.KNOWN_ANSWER
    assert checks.check_controller(plant, k, gamma)[0]
    assert not checks.check_controller(plant, k, 0.99 * gamma)[0]
    assert not checks.check_controller(plant, k, 1.01 * gamma)[0]

    plant, k = workloads.stable_loop(fh, np.random.default_rng(5), 12)
    A, B, C, D = checks.closed_loop(plant, k)
    gamma = fh.hinf_norm(fh.lft_closed_loop(plant, k), rel_tol=1e-9).gamma
    assert checks.check_norm(A, B, C, D, gamma)[0]
    assert not checks.check_norm(A, B, C, D, 0.99 * gamma)[0]
    assert not checks.check_norm(A, B, C, D, 1.01 * gamma)[0]


def test_finite_difference_check_refuses_a_wrong_gradient():
    plant, k = workloads.stable_loop(fh, np.random.default_rng(6), 8)
    rep = fh.abscissa_gradient(plant, k)
    theta = k.DK.ravel(order="F")
    d = np.ones_like(theta) / math.sqrt(theta.size)

    def alpha(t):
        return checks.abscissa(checks.closed_loop(plant, fh.Controller.static(t.reshape(k.DK.shape, order="F")))[0])

    fd = checks.fd_directional(alpha, theta, d, 1e-6)
    assert checks.check_directional(fd, rep.grad, d)[0]
    assert not checks.check_directional(fd, 1.01 * rep.grad, d)[0]
