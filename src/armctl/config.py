"""Strict JSON configuration shared by all CLI commands.

One file carries the arm geometry, mass model, LQR cost diagonals, gain-table
grid, and simulation parameters.  `_SHAPE` states the document once: a dict
is an object with exactly those keys (unknown ones are rejected everywhere,
so a typo cannot silently fall back to a default), a list an array of
exactly that length, and "number" / "integer" a leaf.  A number is an int or
float, never a bool; an integer may be written 2.0, as JSON Schema allows.
A document of another shape raises ConfigError("config invalid at <path>:
..."), the path being the object path or <root>; the domain constructors
then check the values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .dynamics import MassModel
from .errors import ConfigError
from .gain_table import GridSpec
from .kinematics import ArmGeometry
from .riccati import CostWeights
from .simulator import SimConfig

_RANGE = {"min": "number", "max": "number", "count": "integer"}
_SHAPE = {
    "geometry": dict.fromkeys(("L1", "L2", "L3"), "number"),
    "masses": dict.fromkeys(("m2", "m3", "m4", "M1", "M2", "M3", "g"), "number"),
    "cost": {"q_diag": ["number"] * 8, "r_diag": ["number"] * 4},
    "grid": dict.fromkeys(("theta1", "theta2", "theta3", "theta4"), _RANGE),
    "sim": dict.fromkeys(("dt", "control_period", "duration"), "number"),
}


def _check_shape(value, shape, path: str = "") -> None:
    """Raise ConfigError unless value has the shape (see the module doc)."""
    def invalid(why):
        return ConfigError(f"config invalid at {path or '<root>'}: {why}")

    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise invalid(f"expected an object, got {type(value).__name__}")
        for key in value:
            if key not in shape:
                raise invalid(f"unknown key {key!r}")
        for key in shape:
            if key not in value:
                raise invalid(f"missing key {key!r}")
        items = shape.items()
    elif isinstance(shape, list):
        if not (isinstance(value, list) and len(value) == len(shape)):
            got = f"{len(value)} items" if isinstance(value, list) else type(value).__name__
            raise invalid(f"expected an array of {len(shape)} numbers, got {got}")
        items = enumerate(shape)
    else:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise invalid(f"expected {shape}, got {type(value).__name__}")
        if shape == "integer" and not (isinstance(value, int) or value.is_integer()):
            raise invalid(f"expected integer, got {value!r}")
        return
    for key, sub in items:
        _check_shape(value[key], sub, f"{path}/{key}" if path else str(key))


@dataclass(frozen=True)
class ArmConfig:
    geometry: ArmGeometry
    masses: MassModel
    weights: CostWeights
    grid: GridSpec
    sim: SimConfig


def parse_config(raw: dict) -> ArmConfig:
    """Check a parsed JSON document's shape and build the domain objects
    (which re-check their own invariants)."""
    _check_shape(raw, _SHAPE)
    try:
        geometry = ArmGeometry(**raw["geometry"])
        masses = MassModel(**raw["masses"])
        weights = CostWeights.from_diagonals(raw["cost"]["q_diag"], raw["cost"]["r_diag"])
        axes = [raw["grid"][f"theta{k}"] for k in range(1, 5)]
        grid = GridSpec(*([axis[key] for axis in axes] for key in ("min", "max", "count")))
        sim = SimConfig(**raw["sim"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ArmConfig(geometry, masses, weights, grid, sim)


def load_config(path) -> ArmConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, and also bad UTF-8, an int literal past Python's
        # digit limit, or nesting deeper than the stack
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)
