"""Exception types, and the one reading of the numbers public functions take:
every vector, scalar and count argument is read here and a bad one raises
ValueError naming it; a failure on a value the library computed is an
ArmError.  `vector` reads any array-like of exactly n values flattened as n
floats (a scalar is one); any other size raises ValueError("<name> must have
n components, got m") (m is the input if ragged or not numbers), and a nan,
inf or int beyond float range ValueError("<name> must be finite, got ...").
`scalar` is its one-value case, `count` a whole number >= least (2.0 reads
as 2), and `components` its shape step alone, where another check reports a
non-finite value: lookup, step_rk4, refine's tol and the GridSpec and refine
bounds.  An int beyond float range is an error there too.
"""

import math

import numpy as np


def components(values, n: int, name: str) -> list[float]:
    """values flattened to a list of exactly n floats, or ValueError."""
    try:
        v = np.asarray(values, dtype=float).ravel().tolist()
    except (TypeError, ValueError) as exc:  # ragged, or not numbers
        raise ValueError(f"{name} must have {n} components, got {values!r}") from exc
    except OverflowError as exc:  # an int beyond the float range
        raise ValueError(f"{name} must be finite, got an int beyond float range") from exc
    if len(v) != n:
        raise ValueError(f"{name} must have {n} components, got {len(v)}")
    return v


def vector(values, n: int, name: str) -> list[float]:
    """components(values, n, name), each one finite, or ValueError."""
    v = components(values, n, name)
    # a finite sum proves every term finite; a non-finite one may be overflow
    if not math.isfinite(sum(v)) and not all(map(math.isfinite, v)):
        raise ValueError(f"{name} must be finite, got {v!r}")
    return v


def scalar(value, name: str) -> float:
    """value as one finite float: vector's one-value case."""
    return vector(value, 1, name)[0]


def count(value, name: str, least: int) -> int:
    """value as a whole number >= least, or ValueError naming it."""
    v = scalar(value, name)
    if not (v.is_integer() and v >= least):
        raise ValueError(f"{name} must be a whole number >= {least}, got {value!r}")
    return int(v)


class ArmError(Exception):
    """Base class for all armctl errors."""


class Unreachable(ArmError):
    """IK target lies outside the arm's workspace."""


class SingularYaw(ArmError):
    """IK target sits on the vertical axis while the wrist offset is radial,
    so no yaw angle can place the joint plane through the target."""


class DegenerateInertia(ArmError):
    """A joint's effective rotational inertia is numerically zero, leaving
    that joint unactuatable (e.g. no distal mass)."""


class Diverged(ArmError):
    """A simulated state, or the linear model at one, became non-finite."""


class NotStabilizable(ArmError):
    """The Riccati solve could not produce a stabilizing solution."""


class IllConditioned(ArmError):
    """The Schur form or the Riccati solution failed an accuracy check."""


class NodeFailure(ArmError):
    """A grid node could not be solved while building a gain table."""

    def __init__(self, index, cause):
        super().__init__(f"node {index}: {cause}")
        self.index = index
        self.cause = cause

    def __reduce__(self):
        # keep (index, cause) across pickling, e.g. from worker processes
        return (NodeFailure, (self.index, self.cause))


class OutOfBounds(ArmError):
    """Query angles fall outside a gain table's grid (no extrapolation)."""


class TableFormatError(ArmError):
    """Base class for gain-table (de)serialization errors."""


class BadMagic(TableFormatError):
    """The byte stream does not start with the gain-table magic."""


class VersionMismatch(TableFormatError):
    """The file's format version (or layout signature) is not supported."""


class BadGrid(TableFormatError):
    """A dimension record holds a non-finite, empty or overflowing bound
    range, or a flat table's node count is below 2."""


class DigestMismatch(TableFormatError):
    """The table was built for different arm parameters or cost weights."""


class TruncatedData(TableFormatError):
    """The byte stream ended early or carries trailing garbage."""


class TreeTooDeep(TableFormatError):
    """A refined table's tree nests deeper than its stored max_depth."""


class EmptyBenchmark(ArmError):
    """A latency benchmark was requested with zero iterations."""


class ConfigError(ArmError):
    """A configuration file failed its shape or value checks."""
