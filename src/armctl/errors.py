"""Exception types shared across the library."""


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
    """A simulated state became non-finite (inf or nan)."""


class NotStabilizable(ArmError):
    """The Riccati solve could not produce a stabilizing solution."""


class IllConditioned(ArmError):
    """The Riccati solution failed its residual accuracy contract."""


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
    """A configuration file failed schema or invariant validation."""
