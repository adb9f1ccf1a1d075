"""Command-line interface: exit codes, output format, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import INTERIOR_OPTIMUM, stable_system
from fixedhinf import (
    Controller,
    hinf_norm,
    load_controller,
    save_controller,
    save_plant,
    spectral_abscissa,
)
from fixedhinf.cli import main


def _write_statespace(tmp_path, sys, name="sys.json"):
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {"A": sys.A.tolist(), "B": sys.B.tolist(),
             "C": sys.C.tolist(), "D": sys.D.tolist()}
        )
    )
    return path


@pytest.fixture
def toy_plant_file(tmp_path, interior_plant):
    path = tmp_path / "toy.json"
    save_plant(interior_plant, path, name="toy")
    return path


def test_norm_prints_seventeen_digit_value(tmp_path, rng, capsys):
    sys = stable_system(rng, 4, 2, 2)
    path = _write_statespace(tmp_path, sys)
    assert main(["norm", str(path)]) == 0
    out = capsys.readouterr().out.strip().split()
    got = float(out[0])
    want = hinf_norm(sys).gamma
    assert got == want
    # 17 significant digits round-trip doubles exactly
    assert float(f"{want:.17g}") == want


def test_norm_closed_loop_with_controller(tmp_path, interior_plant, toy_plant_file, capsys):
    kpath = tmp_path / "k.json"
    save_controller(Controller.static([[-2.0]]), kpath)
    assert main(["norm", str(toy_plant_file), "--controller", str(kpath)]) == 0
    printed = float(capsys.readouterr().out.split()[0])
    from fixedhinf import lft_closed_loop

    want = hinf_norm(lft_closed_loop(interior_plant, Controller.static([[-2.0]]))).gamma
    assert printed == pytest.approx(want, rel=1e-12)


def test_norm_unstable_system_exits_one(tmp_path, capsys):
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps({"A": [[0.5]], "B": [[1.0]], "C": [[1.0]]}))
    assert main(["norm", str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["norm", "abscissa"])
def test_eigenvalue_failure_exits_one(tmp_path, rng, monkeypatch, capsys, command):
    path = _write_statespace(tmp_path, stable_system(rng, 3, 1, 1))

    def fails(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fails)
    monkeypatch.setattr(np.linalg, "eigvals", fails)
    assert main([command, str(path)]) == 1
    assert "eigenvalue iteration failed" in capsys.readouterr().err


def test_norm_plant_without_controller_uses_zero_gain(toy_plant_file, capsys):
    # closes the loop with u = 0, which this plant tolerates (open loop is
    # unstable, so the norm command must fail cleanly instead of printing)
    assert main(["norm", str(toy_plant_file)]) == 1
    assert "abscissa" in capsys.readouterr().err


def test_abscissa_command(tmp_path, rng, capsys):
    sys = stable_system(rng, 3, 1, 1)
    path = _write_statespace(tmp_path, sys)
    assert main(["abscissa", str(path)]) == 0
    got = float(capsys.readouterr().out.strip())
    assert got == spectral_abscissa(sys.A).alpha


def test_abscissa_rejects_controller_file(tmp_path, capsys):
    kpath = tmp_path / "k.json"
    save_controller(Controller.static([[1.0]]), kpath)
    assert main(["abscissa", str(kpath)]) == 2
    assert "controller file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["norm", "abscissa"])
def test_a_loop_that_overflows_exits_one(tmp_path, capsys, command):
    # the CI's plant2.json, closed by a controller of finite entries whose
    # loop overflows: the loop does not exist, a failure, not an input error
    plant = tmp_path / "plant2.json"
    plant.write_text(json.dumps({
        "n": 2, "m1": 1, "m2": 1, "p1": 2, "p2": 1,
        "A": [[0, 0.4], [0.5, 0.9]], "B1": [[0.3], [-0.1]], "B2": [[-0.3], [1.1]],
        "C1": [[-2.3, -0.1], [0, 0]], "C2": [[0, -1.4]],
        "D12": [[0], [1]], "D21": [[1]],
    }))
    kpath = tmp_path / "overflow.json"
    save_controller(Controller([[-1.0]], [[1.7e308]], [[1.7e308]], [[1.7e308]]), kpath)
    assert main([command, str(plant), "--controller", str(kpath)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the closed loop is not finite\n"


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["norm", str(tmp_path / "absent.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_two(capsys):
    assert main(["norm"]) == 2
    assert main(["unknown-command"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--plant", "{plant}", "--order", "0", "--runs", "0"],
        ["synth", "--plant", "{plant}", "--order", "0", "--norm-rel-tol", "0.5"],
        ["norm", "{plant}", "--rel-tol", "0.5"],
        # checked before any case runs, also for a case whose data is absent
        ["bench", "--suite", "{suite}", "--cases", "HE1", "--norm-rel-tol", "0.5"],
        ["bench", "--suite", "{suite}", "--cases", "HE1", "--runs", "0"],
    ],
)
def test_out_of_range_option_exits_two(toy_plant_file, capsys, argv):
    args = [a.format(plant=toy_plant_file, suite=toy_plant_file.parent) for a in argv]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_synth_reports_norm_and_runs(toy_plant_file, capsys):
    rc = main(
        ["synth", "--plant", str(toy_plant_file), "--order", "0",
         "--runs", "2", "--cpumax", "20", "--seed", "0"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("norm ")
    assert lines[1].startswith("abscissa ")
    assert float(lines[0].split()[1]) == pytest.approx(INTERIOR_OPTIMUM, rel=1e-6)
    assert float(lines[1].split()[1]) < 0.0
    run_lines = [l for l in lines if l.startswith("run ")]
    assert len(run_lines) == 2
    assert all("seed=" in l and "norm=" in l for l in run_lines)


def test_synth_output_is_bitwise_reproducible(toy_plant_file, tmp_path, capsys):
    args = ["synth", "--plant", str(toy_plant_file), "--order", "0",
            "--runs", "2", "--cpumax", "20", "--seed", "7"]
    assert main(args + ["--out", str(tmp_path / "k1.json")]) == 0
    first = capsys.readouterr().out
    assert main(args + ["--out", str(tmp_path / "k2.json")]) == 0
    second = capsys.readouterr().out
    assert first.replace("k1.json", "X") == second.replace("k2.json", "X")
    assert (tmp_path / "k1.json").read_bytes() == (tmp_path / "k2.json").read_bytes()


def test_synth_writes_working_controller(toy_plant_file, tmp_path, interior_plant):
    out = tmp_path / "best.json"
    rc = main(
        ["synth", "--plant", str(toy_plant_file), "--order", "0",
         "--runs", "1", "--cpumax", "20", "--seed", "0", "--out", str(out)]
    )
    assert rc == 0
    k = load_controller(out)
    from fixedhinf import lft_closed_loop

    cl = lft_closed_loop(interior_plant, k)
    assert spectral_abscissa(cl.A).alpha < 0.0
    assert hinf_norm(cl).gamma == pytest.approx(INTERIOR_OPTIMUM, rel=1e-6)


def test_synth_failure_exits_one(tmp_path, capsys):
    hopeless = tmp_path / "hopeless.json"
    # B2 = 0 removes all control authority; the unstable mode is untouchable
    from fixedhinf import Plant

    save_plant(
        Plant.from_blocks([[1.0]], [[1.0]], [[0.0]], [[1.0]], [[1.0]]), hopeless
    )
    rc = main(
        ["synth", "--plant", str(hopeless), "--order", "0",
         "--runs", "1", "--cpumax", "2"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "no stabilizing controller" in err


def test_bench_empty_suite_skips_and_exits_zero(tmp_path, capsys):
    rc = main(
        ["bench", "--suite", str(tmp_path), "--cases", "HE1,REA2",
         "--runs", "1", "--cpumax", "2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("data-unavailable") == 2


def test_bench_unknown_case_exits_two(tmp_path, capsys):
    rc = main(["bench", "--suite", str(tmp_path), "--cases", "NOPE"])
    assert rc == 2
    assert "unknown case" in capsys.readouterr().err


def test_bench_report_file_and_exit_codes(tmp_path, interior_plant, capsys):
    # drop a synthetic plant under a registry name to exercise the full path
    suite = tmp_path / "suite"
    suite.mkdir()
    save_plant(interior_plant, suite / "AUV.json", name="AUV")
    report_path = tmp_path / "report.json"
    rc = main(
        ["bench", "--suite", str(suite), "--cases", "AUV", "--runs", "1",
         "--cpumax", "20", "--report", str(report_path)]
    )
    assert rc == 0
    parsed = json.loads(report_path.read_text())
    case = parsed["cases"][0]
    assert case["name"] == "AUV"
    assert case["status"] == "ok"
    achieved = [o["achieved"] for o in case["orders"]]
    assert achieved[0] == pytest.approx(INTERIOR_OPTIMUM, rel=1e-6)


def test_bench_suite_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FIXEDHINF_SUITE_DIR", str(tmp_path))
    from fixedhinf.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["bench"])
    assert args.suite == str(tmp_path)


def test_console_entry_point_runs():
    import subprocess
    import sys as _sys

    proc = subprocess.run(
        [_sys.executable, "-m", "fixedhinf.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "norm" in proc.stdout and "bench" in proc.stdout
