"""JSON round-trips and parse failure reporting."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import random_plant
from fixedhinf import (
    Controller,
    DimensionMismatch,
    ParseError,
    Plant,
    StateSpace,
    load_controller,
    load_plant,
    load_system,
    pack_controller,
    save_controller,
    save_plant,
)


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def test_plant_round_trip_is_bit_exact(rng, tmp_path):
    plant = random_plant(rng, 4, 2, 1, 3, 2, d22=True)
    path = tmp_path / "plant.json"
    save_plant(plant, path, name="roundtrip")
    loaded = load_plant(path)
    for blk in ("A", "B1", "B2", "C1", "C2", "D11", "D12", "D21", "D22"):
        assert np.array_equal(getattr(loaded, blk), getattr(plant, blk)), blk


def test_controller_round_trip_is_bit_exact(rng, tmp_path):
    k = Controller(
        rng.standard_normal((2, 2)),
        rng.standard_normal((2, 3)),
        rng.standard_normal((1, 2)),
        rng.standard_normal((1, 3)),
    )
    path = tmp_path / "k.json"
    save_controller(k, path)
    loaded = load_controller(path)
    assert np.array_equal(pack_controller(loaded), pack_controller(k))


def test_static_controller_round_trip(tmp_path):
    k = Controller.static([[1.5, -0.25]])
    path = tmp_path / "static.json"
    save_controller(k, path)
    loaded = load_controller(path)
    assert loaded.order == 0
    assert np.array_equal(loaded.DK, k.DK)


def test_save_plant_bytes_are_deterministic(rng, tmp_path):
    plant = random_plant(rng, 3, 1, 1, 2, 1)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_plant(plant, a)
    save_plant(plant, b)
    assert a.read_bytes() == b.read_bytes()


def test_load_plant_defaults_missing_d_blocks(tmp_path):
    path = _write(
        tmp_path,
        "min.json",
        {
            "n": 1, "m1": 1, "m2": 1, "p1": 1, "p2": 1,
            "A": [[-1.0]], "B1": [[1.0]], "B2": [[1.0]],
            "C1": [[1.0]], "C2": [[1.0]],
        },
    )
    plant = load_plant(path)
    assert not plant.D11.any() and not plant.D22.any()


def test_load_plant_ignores_unknown_keys(tmp_path):
    path = _write(
        tmp_path,
        "extra.json",
        {
            "name": "demo", "comment": "anything",
            "n": 1, "m1": 1, "m2": 1, "p1": 1, "p2": 1,
            "A": [[-1.0]], "B1": [[1.0]], "B2": [[1.0]],
            "C1": [[1.0]], "C2": [[1.0]],
        },
    )
    assert load_plant(path).n == 1


def test_missing_file_raises_parse_error(tmp_path):
    with pytest.raises(ParseError, match="nope.json"):
        load_plant(tmp_path / "nope.json")


def test_invalid_json_reports_line_and_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1,\n  "m1": }')
    with pytest.raises(ParseError, match=r"line 2"):
        load_plant(path)


def test_non_object_top_level_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ParseError, match="object"):
        load_plant(path)


def test_missing_required_key_is_named(tmp_path):
    path = _write(
        tmp_path, "nokey.json",
        {"n": 1, "m1": 1, "m2": 1, "p1": 1, "p2": 1, "A": [[-1.0]],
         "B1": [[1.0]], "B2": [[1.0]], "C1": [[1.0]]},
    )
    with pytest.raises(ParseError, match="'C2'"):
        load_plant(path)


def test_bad_dimension_field_rejected(tmp_path):
    path = _write(
        tmp_path, "badn.json",
        {"n": 0, "m1": 1, "m2": 1, "p1": 1, "p2": 1},
    )
    with pytest.raises(ParseError, match="'n'"):
        load_plant(path)
    path2 = _write(
        tmp_path, "booln.json",
        {"n": True, "m1": 1, "m2": 1, "p1": 1, "p2": 1},
    )
    with pytest.raises(ParseError, match="integer"):
        load_plant(path2)


def test_wrong_block_shape_names_the_block(tmp_path):
    path = _write(
        tmp_path, "shape.json",
        {"n": 2, "m1": 1, "m2": 1, "p1": 1, "p2": 1,
         "A": [[-1.0, 0.0], [0.0, -2.0]],
         "B1": [[1.0]], "B2": [[1.0], [0.0]],
         "C1": [[1.0, 0.0]], "C2": [[1.0, 0.0]]},
    )
    with pytest.raises(DimensionMismatch, match="'B1'"):
        load_plant(path)


def test_non_finite_entries_rejected(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text(
        '{"n": 1, "m1": 1, "m2": 1, "p1": 1, "p2": 1,'
        ' "A": [[Infinity]], "B1": [[1.0]], "B2": [[1.0]],'
        ' "C1": [[1.0]], "C2": [[1.0]]}'
    )
    with pytest.raises(ParseError, match="non-finite"):
        load_plant(path)


def test_load_controller_requires_dk(tmp_path):
    path = _write(tmp_path, "nodk.json", {"nK": 0})
    with pytest.raises(ParseError, match="'DK'"):
        load_controller(path)


def test_load_controller_dynamic_requires_state_blocks(tmp_path):
    path = _write(tmp_path, "noak.json", {"nK": 2, "DK": [[0.0]]})
    with pytest.raises(ParseError, match="'AK'"):
        load_controller(path)


def test_load_system_reads_a_statespace_with_default_d(tmp_path):
    path = _write(
        tmp_path, "ss.json",
        {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0], [1.0]], "C": [[1.0, 0.0]]},
    )
    sys = load_system(path)
    assert isinstance(sys, StateSpace)
    assert (sys.n, sys.m, sys.p) == (2, 1, 1)
    assert not sys.D.any()


def test_load_system_dispatches_by_keys(rng, tmp_path):
    plant = random_plant(rng, 2, 1, 1, 1, 1)
    pp = tmp_path / "p.json"
    save_plant(plant, pp)
    assert isinstance(load_system(pp), Plant)

    k = Controller.static([[2.0]])
    kp = tmp_path / "k.json"
    save_controller(k, kp)
    assert isinstance(load_system(kp), Controller)

    sp = _write(
        tmp_path, "s.json", {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]}
    )
    assert isinstance(load_system(sp), StateSpace)

    bad = _write(tmp_path, "what.json", {"foo": 1})
    with pytest.raises(ParseError, match="identify"):
        load_system(bad)


def test_round_trip_preserves_tiny_and_huge_magnitudes(tmp_path):
    plant = Plant.from_blocks(
        [[-1e-17]], [[1e300]], [[3.0000000000000004]], [[1.0]], [[1.0]]
    )
    path = tmp_path / "extreme.json"
    save_plant(plant, path)
    loaded = load_plant(path)
    assert loaded.A[0, 0] == -1e-17
    assert loaded.B1[0, 0] == 1e300
    assert loaded.B2[0, 0] == 3.0000000000000004


def test_load_system_rejects_a_statespace_with_a_transposed_b(tmp_path):
    path = _write(
        tmp_path, "bt.json",
        {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0, 1.0]], "C": [[1.0, 0.0]]},
    )
    with pytest.raises(DimensionMismatch, match="'B'"):
        load_system(path)


@pytest.mark.parametrize(
    "obj",
    [
        {"nK": 0, "DK": [[float("inf")]]},
        {"A": [[float("nan")]], "B": [[1.0]], "C": [[1.0]]},
        {"A": [[-1.0]], "B": [[1.0]], "C": [[float("-inf")]]},
    ],
)
def test_non_finite_entries_raise_parse_error_in_every_kind(tmp_path, obj):
    path = _write(tmp_path, "nonfinite.json", obj)
    with pytest.raises(ParseError, match="nonfinite.json.*non-finite"):
        load_system(path)


def test_load_system_parses_the_file_once(rng, tmp_path, monkeypatch):
    path = tmp_path / "p.json"
    save_plant(random_plant(rng, 2, 1, 1, 1, 1), path)
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(1) or loads(*a, **k))
    assert isinstance(load_system(path), Plant)
    assert len(calls) == 1
