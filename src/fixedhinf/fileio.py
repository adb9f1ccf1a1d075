"""JSON serialization for plants, controllers, and plain state-space systems.

All writers emit deterministic bytes (sorted keys, fixed separators, trailing
newline); floats use Python's shortest exact representation, so a written
file parses back to bit-identical matrices.

Loading checks only what belongs to the file: valid JSON, the required keys,
integer dimension fields, and numeric, finite entries (ParseError).  Block
shapes follow the constructors' rules and raise DimensionMismatch; every
message names the file.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ParseError
from .statespace import Controller, Plant, StateSpace, _as_matrix

__all__ = [
    "load_plant",
    "save_plant",
    "load_controller",
    "save_controller",
    "load_system",
]

_PLANT_DIMS = ("n", "m1", "m2", "p1", "p2")


def _read_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return raw


def _require(raw: dict, key: str, path):
    if key not in raw:
        raise ParseError(f"{path}: missing required key '{key}'")
    return raw[key]


def _require_int(raw: dict, key: str, path, minimum: int) -> int:
    value = _require(raw, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: key '{key}' must be an integer")
    if value < minimum:
        raise ParseError(f"{path}: key '{key}' must be >= {minimum}, got {value}")
    return value


def _numeric(raw: dict, key: str, path) -> np.ndarray:
    """The required entry `key` as a float array of finite numbers."""
    try:
        arr = np.asarray(_require(raw, key, path), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: key '{key}' is not a numeric matrix: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{path}: block '{key}' contains non-finite entries")
    return arr


def _blocks(raw: dict, path, shapes: dict, optional=()) -> dict:
    """Each block of `shapes` present in the file, checked against its shape;
    a block listed in `optional` may be absent."""
    return {
        key: _as_matrix(_numeric(raw, key, path), rows, cols, f"{path}: block '{key}'")
        for key, (rows, cols) in shapes.items()
        if key in raw or key not in optional
    }


def _dump(obj: dict, path) -> None:
    Path(path).write_text(
        json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
    )


def _block_lists(obj) -> dict:
    return {f.name: getattr(obj, f.name).tolist() for f in fields(obj)}


def _plant(raw: dict, path) -> Plant:
    n, m1, m2, p1, p2 = (_require_int(raw, key, path, 1) for key in _PLANT_DIMS)
    shapes = {
        "A": (n, n), "B1": (n, m1), "B2": (n, m2), "C1": (p1, n), "C2": (p2, n),
        "D11": (p1, m1), "D12": (p1, m2), "D21": (p2, m1), "D22": (p2, m2),
    }
    return Plant.from_blocks(**_blocks(raw, path, shapes, ("D11", "D12", "D21", "D22")))


def _controller(raw: dict, path) -> Controller:
    nK = _require_int(raw, "nK", path, 0)
    DK = np.atleast_2d(_numeric(raw, "DK", path))
    if DK.ndim != 2 or min(DK.shape) < 1:
        raise DimensionMismatch(f"{path}: block 'DK' must be a nonempty matrix")
    nu, ny = DK.shape
    shapes = {"AK": (nK, nK), "BK": (nK, ny), "CK": (nu, nK)}
    blocks = _blocks(raw, path, shapes, shapes if nK == 0 else ())
    return Controller(DK=DK, **{key: blocks.get(key, np.zeros(s)) for key, s in shapes.items()})


def _statespace(raw: dict, path) -> StateSpace:
    # n, m and p are read off A, B and C; every block must then agree with them
    A, B, C = (np.atleast_2d(_numeric(raw, key, path)) for key in ("A", "B", "C"))
    n, m, p = A.shape[0], B.shape[1], C.shape[0]
    shapes = {"A": (n, n), "B": (n, m), "C": (p, n), "D": (p, m)}
    return StateSpace(**{"D": np.zeros((p, m)), **_blocks(raw, path, shapes, ("D",))})


def load_plant(path) -> Plant:
    """Read a generalized plant from JSON.

    Required keys: n, m1, m2, p1, p2 and the blocks A, B1, B2, C1, C2.
    The D blocks default to zeros when absent.  Unknown keys (such as name
    or comment fields) are ignored.
    """
    return _plant(_read_json(path), path)


def save_plant(plant: Plant, path, *, name: str | None = None) -> None:
    obj = {key: getattr(plant, key) for key in _PLANT_DIMS} | _block_lists(plant)
    if name is not None:
        obj["name"] = name
    _dump(obj, path)


def load_controller(path) -> Controller:
    """Read a controller from JSON with keys nK, AK, BK, CK, DK.

    DK is always required and fixes the port widths; for nK = 0 the other
    blocks may be empty lists or omitted.
    """
    return _controller(_read_json(path), path)


def save_controller(k: Controller, path) -> None:
    _dump({"nK": k.order} | _block_lists(k), path)


def load_system(path):
    """Dispatch on file keys: plant (B1), controller (DK), or state space (B)."""
    raw = _read_json(path)
    if "B1" in raw:
        return _plant(raw, path)
    if "DK" in raw or "nK" in raw:
        return _controller(raw, path)
    if "B" in raw:
        return _statespace(raw, path)
    raise ParseError(
        f"{path}: cannot identify file kind (expected plant, controller, "
        f"or state-space keys)"
    )
