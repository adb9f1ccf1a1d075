"""Benchmark registry, runner semantics, and report determinism."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from conftest import INTERIOR_OPTIMUM
from fixedhinf import (
    BUILTIN_CASES,
    BenchmarkCase,
    BenchOptions,
    Reference,
    run_benchmark,
    run_suite,
    save_plant,
    synthesis,
)
from fixedhinf.bench import case_names

TOY_OPTS = dict(runs=2, cpumax_seconds=20.0, seed=0)


def _toy_case(tmp_path, interior_plant, refs=None, orders=(0,)):
    save_plant(interior_plant, tmp_path / "toy.json", name="toy")
    return BenchmarkCase(
        "toy",
        "toy.json",
        tuple(orders),
        tuple(refs) if refs else (),
    )


def test_registry_is_internally_consistent():
    for name, case in BUILTIN_CASES.items():
        assert case.name == name
        assert case.plant_file.endswith(".json")
        assert case.tier in {"quick", "large"}
        assert len(case.orders) >= 1
        for ref in case.references:
            assert ref.order in case.orders
            assert ref.norm >= 0.0


def test_registry_reference_values_are_pinned():
    # transcription guard: table values must not drift
    def ref_map(name):
        return {r.order: r.norm for r in BUILTIN_CASES[name].references}

    assert ref_map("AC8") == {0: 2.005}
    assert ref_map("HE1") == {0: 0.154}
    assert ref_map("REA2") == {0: 1.149}
    assert ref_map("VTOL") == {0: 0.154}
    assert ref_map("CR") == {0: 1.168}
    assert ref_map("PA") == {0: 1.18e-4}
    assert ref_map("HF1") == {0: 0.447}
    assert ref_map("CM4") == {0: 0.816}
    assert ref_map("BDT2") == {0: 0.6515}
    assert ref_map("VSC") == {0: 3.975}
    assert ref_map("Enns") == {
        7: 1.1655, 6: 1.1447, 5: 1.1508, 4: 1.1923,
        3: 1.1921, 2: 1.2438, 1: 1.4256,
    }
    assert ref_map("HIMAT") == {7: 1.06, 6: 1.07}
    assert ref_map("Wang") == {2: 50.642, 1: 50.645, 0: 50.879}
    assert ref_map("AC10") == {}
    assert ref_map("AUV") == {}


def test_case_names_filters_by_tier():
    quick = case_names("quick")
    large = case_names("large")
    everything = case_names("all")
    assert set(quick) | set(large) == set(everything)
    assert not set(quick) & set(large)
    assert "HE1" in quick
    assert "CM4" in large


def test_case_validation_rejects_bad_definitions():
    with pytest.raises(ValueError):
        BenchmarkCase("x", "x.json", (0,), (Reference("t", 0, -1.0),))
    with pytest.raises(ValueError):
        BenchmarkCase("x", "x.json", (-1,))


@pytest.mark.parametrize(
    "bad, match",
    [
        (dict(runs=0), "runs"),
        (dict(cpumax_seconds=0.0), "cpumax_seconds"),
        (dict(norm_rel_tol=0.5), "rel_tol"),
    ],
)
def test_bench_options_reject_out_of_range_values(tmp_path, bad, match):
    with pytest.raises(ValueError, match=match):
        BenchOptions(suite_dir=str(tmp_path), **bad)


def test_missing_plant_file_reports_data_unavailable(tmp_path):
    case = BenchmarkCase("ghost", "ghost.json", (0,))
    report = run_benchmark(case, BenchOptions(suite_dir=str(tmp_path), **TOY_OPTS))
    assert report.status == "data-unavailable"
    assert "ghost.json" in report.detail
    assert report.entries == ()


def test_missing_warm_start_reports_data_unavailable(tmp_path, interior_plant):
    save_plant(interior_plant, tmp_path / "toy.json")
    case = BenchmarkCase("toy", "toy.json", (0,), warm_start_file="warm.json")
    report = run_benchmark(case, BenchOptions(suite_dir=str(tmp_path), **TOY_OPTS))
    assert report.status == "data-unavailable"
    assert "warm" in report.detail


def test_corrupt_plant_file_reports_load_error(tmp_path):
    (tmp_path / "toy.json").write_text('{"n": 1}')
    case = BenchmarkCase("toy", "toy.json", (0,))
    report = run_benchmark(case, BenchOptions(suite_dir=str(tmp_path), **TOY_OPTS))
    assert report.status == "load-error"
    assert "m1" in report.detail


def test_synthetic_case_passes_against_its_true_optimum(tmp_path, interior_plant):
    case = _toy_case(
        tmp_path, interior_plant, refs=[Reference("synthetic", 0, INTERIOR_OPTIMUM)]
    )
    report = run_benchmark(case, BenchOptions(suite_dir=str(tmp_path), **TOY_OPTS))
    assert report.status == "ok"
    entry = report.entries[0]
    assert entry.passed is True
    assert entry.certified
    assert entry.achieved == pytest.approx(INTERIOR_OPTIMUM, rel=1e-6)
    assert len(entry.seeds) == 2
    assert len(entry.stage2_norms) == 2


def test_inflated_norm_is_not_certified(tmp_path, interior_plant, monkeypatch):
    # a norm 5% above sigma_max at its own peak must fail the resolvent re-check
    exact = synthesis.hinf_norm

    def inflated(*args, **kwargs):
        res = exact(*args, **kwargs)
        return dataclasses.replace(res, gamma=1.05 * res.gamma)

    monkeypatch.setattr(synthesis, "hinf_norm", inflated)
    case = _toy_case(tmp_path, interior_plant)
    entry = run_benchmark(case, BenchOptions(suite_dir=str(tmp_path), **TOY_OPTS)).entries[0]
    assert entry.achieved == pytest.approx(1.05 * INTERIOR_OPTIMUM, rel=1e-6)
    assert entry.certified is False


def test_synthetic_case_fails_against_unreachable_reference(tmp_path, interior_plant):
    case = _toy_case(
        tmp_path, interior_plant,
        refs=[Reference("synthetic", 0, 0.5 * INTERIOR_OPTIMUM)],
    )
    report = run_benchmark(case, BenchOptions(suite_dir=str(tmp_path), **TOY_OPTS))
    assert report.entries[0].passed is False


def test_tolerance_override_can_rescue_a_tight_reference(tmp_path, interior_plant):
    refs = [Reference("synthetic", 0, INTERIOR_OPTIMUM / 1.2)]
    case = _toy_case(tmp_path, interior_plant, refs=refs)
    tight = run_benchmark(case, BenchOptions(suite_dir=str(tmp_path), **TOY_OPTS))
    assert tight.entries[0].passed is False
    loose = run_benchmark(
        case, BenchOptions(suite_dir=str(tmp_path), tolerance=0.25, **TOY_OPTS)
    )
    assert loose.entries[0].passed is True


def test_case_without_references_reports_no_verdict(tmp_path, interior_plant):
    case = _toy_case(tmp_path, interior_plant)
    report = run_benchmark(case, BenchOptions(suite_dir=str(tmp_path), **TOY_OPTS))
    assert report.entries[0].passed is None
    assert report.entries[0].achieved == pytest.approx(INTERIOR_OPTIMUM, rel=1e-6)


def test_declared_order_above_plant_order_fails_cleanly(tmp_path, interior_plant):
    case = _toy_case(tmp_path, interior_plant, orders=(5,))
    report = run_benchmark(case, BenchOptions(suite_dir=str(tmp_path), **TOY_OPTS))
    assert report.status == "ok"
    assert report.entries[0].achieved is None
    assert report.entries[0].passed is False


def test_suite_report_json_is_byte_deterministic(tmp_path, interior_plant):
    save_plant(interior_plant, tmp_path / "toy.json")
    case = BenchmarkCase(
        "toy", "toy.json", (0,), (Reference("synthetic", 0, INTERIOR_OPTIMUM),)
    )
    opts = BenchOptions(suite_dir=str(tmp_path), **TOY_OPTS)
    from fixedhinf.bench import BenchReport

    a = BenchReport(opts, (run_benchmark(case, opts),))
    b = BenchReport(opts, (run_benchmark(case, opts),))
    assert a.to_json() == b.to_json()
    parsed = json.loads(a.to_json())
    assert parsed["version"] == 1
    assert parsed["cases"][0]["name"] == "toy"
    # timing never leaks into the canonical report
    assert "elapsed" not in a.to_json()


def test_report_text_rendering(tmp_path, interior_plant):
    save_plant(interior_plant, tmp_path / "toy.json")
    case = BenchmarkCase(
        "toy", "toy.json", (0,), (Reference("synthetic", 0, INTERIOR_OPTIMUM),)
    )
    opts = BenchOptions(suite_dir=str(tmp_path), **TOY_OPTS)
    from fixedhinf.bench import BenchReport

    missing = BenchmarkCase("ghost", "ghost.json", (0,))
    report = BenchReport(
        opts, (run_benchmark(case, opts), run_benchmark(missing, opts))
    )
    text = report.to_text()
    lines = text.strip().splitlines()
    assert len(lines) == 3
    assert "pass" in lines[1]
    assert "data-unavailable" in lines[2]
    assert report.all_passed


def test_all_passed_ignores_skips_but_not_failures(tmp_path, interior_plant):
    opts = BenchOptions(suite_dir=str(tmp_path), **TOY_OPTS)
    from fixedhinf.bench import BenchReport

    missing = run_benchmark(BenchmarkCase("ghost", "ghost.json", (0,)), opts)
    assert BenchReport(opts, (missing,)).all_passed

    case = _toy_case(tmp_path, interior_plant, refs=[Reference("s", 0, 0.01)])
    failed = run_benchmark(case, opts)
    assert not BenchReport(opts, (missing, failed)).all_passed


def test_per_case_seeds_are_stable_across_suite_composition(tmp_path, interior_plant):
    case = _toy_case(tmp_path, interior_plant)
    opts = BenchOptions(suite_dir=str(tmp_path), **TOY_OPTS)
    solo = run_benchmark(case, opts)
    again = run_benchmark(case, opts)
    assert solo.entries[0].seeds == again.entries[0].seeds
    assert solo.entries[0].stage2_norms == again.entries[0].stage2_norms


def test_run_suite_rejects_unknown_case(tmp_path):
    with pytest.raises(KeyError, match="unknown case"):
        run_suite(["NOPE"], BenchOptions(suite_dir=str(tmp_path), **TOY_OPTS))


def test_run_suite_over_registry_names_with_empty_dir(tmp_path):
    report = run_suite(
        ["HE1", "AUV"], BenchOptions(suite_dir=str(tmp_path), **TOY_OPTS)
    )
    assert [c.status for c in report.cases] == ["data-unavailable"] * 2
    assert report.all_passed
