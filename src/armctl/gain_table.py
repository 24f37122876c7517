"""Precomputed LQR gain tables over a grid of joint angles.

Each grid node is an equilibrium operating point (zero rates, gravity-holding
torque); its 4x8 gain matrix is solved once offline so a constrained target
can replace online linearize-plus-Riccati work with a table lookup.  Queries
between nodes are answered by entrywise multilinear interpolation over the
2^4 surrounding corners.

The dynamics never read the yaw angle theta1, so a node's equilibrium,
linearization and gain are the same bit for bit at every theta1.  Builds
solve each distinct planar configuration (theta2, theta3, theta4) once and
copy that gain to every node that differs from it only in theta1.

Two table kinds exist: a flat regular grid (GainTable) and an error-driven
hierarchical box subdivision (RefinedTable) that stores more matrices only
where the gain varies quickly.  Both serialize to one binary format:

    magic "AGT1" | u32 version | u32 dims |
    per dim: f64 min, f64 max, u32 count | 32-byte parameter digest | payload

Flat payload: gain matrices in row-major node order (last dimension fastest),
each 32 little-endian f64 (4x8 row-major).  Refined tables mark themselves
with count = 0 in every dimension record (min/max then hold the root box),
followed by f64 tolerance, u32 max_depth, and the pre-order tree: one tag
byte per cell (0 = internal, 1 = leaf, 2 = leaf that still violated the
tolerance at max_depth), leaves followed by their 16 corner gains.  The
root is depth 1, and no cell may sit deeper than max_depth.

The parameter digest is two truncated SHA-256 halves - 16 bytes over the arm
geometry/masses, 16 over the cost weights - so a loader can tell which side
of a mismatch it is looking at.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import MassModel
from .errors import (
    ArmError,
    BadGrid,
    BadMagic,
    DigestMismatch,
    NodeFailure,
    OutOfBounds,
    TreeTooDeep,
    TruncatedData,
    VersionMismatch,
)
from .kinematics import ArmGeometry, wrap_angle
from .linearization import equilibrium_point, linearize
from .riccati import CostWeights, lqr_gain

MAGIC = b"AGT1"
FORMAT_VERSION = 1
NDIM = 4
GAIN_SHAPE = (4, 8)
_GAIN_BYTES = 4 * 8 * 8
_REFINED_COUNT = 0  # per-dimension count sentinel marking a tree payload
_MIN_CELL_BYTES = 1 + 16 * _GAIN_BYTES  # the smallest serialized cell: a leaf


# ---------------------------------------------------------------------------
# digests

def arm_digest(geom: ArmGeometry, masses: MassModel) -> bytes:
    """16-byte digest of the physical arm parameters."""
    payload = struct.pack(
        "<10d",
        geom.L1, geom.L2, geom.L3,
        masses.m2, masses.m3, masses.m4,
        masses.M1, masses.M2, masses.M3,
        masses.g,
    )
    return hashlib.sha256(payload).digest()[:16]


def weights_digest(weights: CostWeights) -> bytes:
    """16-byte digest of the LQR cost weights."""
    h = hashlib.sha256()
    h.update(struct.pack("<2I", *weights.Q.shape))
    h.update(np.ascontiguousarray(weights.Q, dtype="<f8").tobytes())
    h.update(struct.pack("<2I", *weights.R.shape))
    h.update(np.ascontiguousarray(weights.R, dtype="<f8").tobytes())
    return h.digest()[:16]


def table_digest(geom: ArmGeometry, masses: MassModel, weights: CostWeights) -> bytes:
    """32-byte digest stored in table files: arm half + weights half."""
    return arm_digest(geom, masses) + weights_digest(weights)


def check_digest(table, geom=None, masses=None, weights=None):
    """Raise DigestMismatch if the table was built for other parameters.

    The arm half is checked when geom and masses are given, the weights half
    when weights is given.
    """
    if (geom is None) != (masses is None):
        raise ValueError("geom and masses must be provided together")
    if geom is not None and table.digest[:16] != arm_digest(geom, masses):
        raise DigestMismatch("table was built for a different arm")
    if weights is not None and table.digest[16:] != weights_digest(weights):
        raise DigestMismatch("table was built for different cost weights")


# ---------------------------------------------------------------------------
# grid specification

def _check_span(k: int, lo: float, hi: float, error=ValueError):
    """Raise error unless lo < hi and hi - lo is finite, which rejects a nan
    or infinite bound and also a finite range whose span overflows."""
    if not (lo < hi and math.isfinite(hi - lo)):
        raise error(f"dimension {k}: need min < max, a finite span apart, "
                    f"got [{lo}, {hi}]")


@dataclass(frozen=True)
class GridSpec:
    """Per-dimension (min, max, count) over the four joint angles; rates are
    pinned to zero when the table is built."""

    lo: tuple[float, float, float, float]
    hi: tuple[float, float, float, float]
    counts: tuple[int, int, int, int]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        counts = tuple(int(c) for c in self.counts)
        if not (len(lo) == len(hi) == len(counts) == NDIM):
            raise ValueError(f"grid must have {NDIM} dimensions")
        for k in range(NDIM):
            _check_span(k, lo[k], hi[k])
            if counts[k] < 2:
                raise ValueError(f"dimension {k}: count must be >= 2, got {counts[k]}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "counts", counts)
        axes = []
        for k in range(NDIM):
            axis = np.linspace(lo[k], hi[k], counts[k])
            axis.flags.writeable = False
            axes.append(axis)
        object.__setattr__(self, "_axes", tuple(axes))

    @classmethod
    def from_ranges(cls, ranges) -> "GridSpec":
        """Build from four (min, max, count) triples."""
        lo, hi, counts = zip(*((r[0], r[1], r[2]) for r in ranges))
        return cls(lo, hi, counts)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.counts

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.counts))

    def axis(self, k: int) -> np.ndarray:
        return self._axes[k]

    def node_angles(self, index) -> np.ndarray:
        return np.array([self.axis(k)[index[k]] for k in range(NDIM)])


@dataclass(frozen=True)
class GainTable:
    """Flat grid of gain matrices, entries[i1, i2, i3, i4] a 4x8 matrix."""

    grid: GridSpec
    entries: np.ndarray
    digest: bytes
    version: int = FORMAT_VERSION

    def __post_init__(self):
        expected = self.grid.shape + GAIN_SHAPE
        if self.entries.shape != expected:
            raise ValueError(f"entries must have shape {expected}, got {self.entries.shape}")
        if len(self.digest) != 32:
            raise ValueError("digest must be 32 bytes")


# ---------------------------------------------------------------------------
# construction

def _solve_node_gain(geom, masses, weights, theta, index):
    try:
        op = equilibrium_point(geom, masses, theta)
        model = linearize(geom, masses, op)
        return lqr_gain(model.A, model.B, weights)
    except ArmError as exc:
        raise NodeFailure(index, exc) from exc


def _node_gain_job(args):
    return _solve_node_gain(*args)


def precompute(
    geom: ArmGeometry,
    masses: MassModel,
    weights: CostWeights,
    grid: GridSpec,
    workers: int = 1,
) -> GainTable:
    """Build a flat table holding the LQR gain of every grid node.

    Nodes that differ only in theta1 share one solve, made at the node with
    i1 = 0 and copied along axis 0 (see the module docstring), so a grid of
    n1 x n2 x n3 x n4 nodes costs n2 * n3 * n4 solves.  Each result depends
    only on its node's inputs and is merged by index, so the table is
    bit-identical for any worker count.  Raises NodeFailure (carrying the
    node index and cause) if any node cannot be solved; the first failing
    node in index order has i1 = 0, so that is the index reported.
    """
    planar = list(np.ndindex(grid.shape[1:]))
    jobs = [(geom, masses, weights, grid.node_angles((0,) + ix), (0,) + ix)
            for ix in planar]
    if workers <= 1:
        gains = [_node_gain_job(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            gains = list(pool.map(_node_gain_job, jobs, chunksize=8))

    entries = np.empty(grid.shape + GAIN_SHAPE)
    for (i2, i3, i4), gain in zip(planar, gains):
        entries[:, i2, i3, i4] = gain
    entries.flags.writeable = False
    return GainTable(grid, entries, table_digest(geom, masses, weights))


# ---------------------------------------------------------------------------
# lookup

def _wrap4(theta) -> list[float]:
    return [wrap_angle(v) for v in theta]


def _cell_coordinate(axis: np.ndarray, v: float):
    """(index, fraction) of the cell owning v, which lies within the axis.

    Cells are half-open [axis[i], axis[i+1]) with the last cell closed, so a
    node coordinate belongs to the cell with the larger index range.
    """
    count = axis.size
    lo, hi = axis[0], axis[-1]
    i = int(math.floor((v - lo) * (count - 1) / (hi - lo)))
    i = min(max(i, 0), count - 2)
    # repair floating floor against the true axis values
    if v < axis[i] and i > 0:
        i -= 1
    elif i + 1 < count - 1 and v >= axis[i + 1]:
        i += 1
    return i, (v - axis[i]) / (axis[i + 1] - axis[i])


def _combine_corners(corners: np.ndarray, fractions) -> np.ndarray:
    """Multilinear blend of corner gains shaped (2, 2, 2, 2, 4, 8)."""
    t1, t2, t3, t4 = fractions
    w1 = np.array([1.0 - t1, t1])
    w2 = np.array([1.0 - t2, t2])
    w3 = np.array([1.0 - t3, t3])
    w4 = np.array([1.0 - t4, t4])
    return np.einsum("i,j,k,l,ijklmn->mn", w1, w2, w3, w4, corners)


def lookup(table, theta) -> np.ndarray:
    """Interpolated gain matrix at theta (wrapped into (-pi, pi] first).

    Accepts a GainTable or a RefinedTable.  Raises OutOfBounds outside the
    grid or for a non-finite angle; no extrapolation is attempted.  At a
    stored node the result is the stored matrix, bit for bit.
    """
    th = _wrap4(theta)
    refined = isinstance(table, RefinedTable)
    lo, hi = (table.lo, table.hi) if refined else (table.grid.lo, table.grid.hi)
    for k in range(NDIM):
        # written so that NaN (and +-inf, which wraps to NaN) fails it too
        if not lo[k] <= th[k] <= hi[k]:
            raise OutOfBounds(
                f"angle {th[k]!r} outside table dimension {k} [{lo[k]}, {hi[k]}]"
            )
    if refined:
        return _lookup_refined(table, th)
    idx = []
    frac = []
    for k in range(NDIM):
        i, t = _cell_coordinate(table.grid.axis(k), th[k])
        idx.append(i)
        frac.append(t)
    i1, i2, i3, i4 = idx
    corners = table.entries[i1 : i1 + 2, i2 : i2 + 2, i3 : i3 + 2, i4 : i4 + 2]
    return _combine_corners(corners, frac)


# ---------------------------------------------------------------------------
# refined tables

_TAG_INTERNAL = 0
_TAG_LEAF = 1
_TAG_LEAF_FLAGGED = 2


@dataclass
class RefinedCell:
    """Axis-aligned box, either subdivided into 16 children (one binary
    split per axis) or a leaf holding its 16 corner gains."""

    lo: tuple[float, float, float, float]
    hi: tuple[float, float, float, float]
    children: list["RefinedCell"] | None = None
    corners: np.ndarray | None = None  # (2, 2, 2, 2, 4, 8), axis order = dims
    flagged: bool = False

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def center(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.lo) + np.asarray(self.hi))


@dataclass(frozen=True)
class RefinedTable:
    """Error-driven hierarchical gain table over a root box."""

    root: RefinedCell
    digest: bytes
    tol: float
    max_depth: int
    version: int = FORMAT_VERSION

    @property
    def lo(self):
        return self.root.lo

    @property
    def hi(self):
        return self.root.hi

    def leaves(self) -> list[RefinedCell]:
        out = []
        stack = [self.root]
        while stack:
            cell = stack.pop()
            if cell.is_leaf:
                out.append(cell)
            else:
                stack.extend(reversed(cell.children))
        return out

    def flagged_leaves(self) -> list[RefinedCell]:
        return [leaf for leaf in self.leaves() if leaf.flagged]


def _corner_coords(lo, hi):
    """The 16 corner points of a box, index bits ordered axis-1-first."""
    return list(itertools.product(*zip(lo, hi)))


def _split(lo, hi):
    """The 16 half-size children (lo, hi) of a box, in corner order: child
    i spans from corner i of the lower half-box to corner i of the upper."""
    mids = tuple(0.5 * (l + h) for l, h in zip(lo, hi))
    return list(zip(_corner_coords(lo, mids), _corner_coords(mids, hi)))


def refine(
    geom: ArmGeometry,
    masses: MassModel,
    weights: CostWeights,
    root_box,
    tol: float,
    max_depth: int,
) -> RefinedTable:
    """Build a RefinedTable over root_box = ((lo1..lo4), (hi1..hi4)).

    A cell whose center-point interpolation error (spectral norm of the
    interpolated minus the directly solved gain) exceeds tol is split in
    half along every axis, up to max_depth levels; cells still violating the
    tolerance at max_depth are kept as flagged leaves.  Corner and center
    solves are cached by planar coordinates theta2..theta4, so points that
    differ only in theta1 (see the module docstring), and corners shared
    between cells, are solved once.  The build is sequential and
    deterministic.
    """
    lo = tuple(float(v) for v in root_box[0])
    hi = tuple(float(v) for v in root_box[1])
    if len(lo) != NDIM or len(hi) != NDIM:
        raise ValueError(f"root box must have {NDIM} dimensions, got {root_box!r}")
    for k in range(NDIM):
        _check_span(k, lo[k], hi[k])
    tol = float(tol)
    if not tol > 0.0:
        raise ValueError(f"tolerance must be > 0, got {tol!r}")
    max_depth = int(max_depth)
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")

    cache: dict[tuple, np.ndarray] = {}

    def gain_at(coords):
        planar = coords[1:]
        gain = cache.get(planar)
        if gain is None:
            gain = _solve_node_gain(geom, masses, weights, np.array(coords), coords)
            cache[planar] = gain
        return gain

    def corner_block(clo, chi):
        gains = [gain_at(c) for c in _corner_coords(clo, chi)]
        block = np.array(gains).reshape((2, 2, 2, 2) + GAIN_SHAPE)
        block.flags.writeable = False
        return block

    def build(clo, chi, depth):
        corners = corner_block(clo, chi)
        cell = RefinedCell(clo, chi, corners=corners)
        if math.isinf(tol):
            return cell
        center = tuple(0.5 * (l + h) for l, h in zip(clo, chi))
        direct = gain_at(center)
        interpolated = _combine_corners(corners, (0.5, 0.5, 0.5, 0.5))
        err = float(np.linalg.norm(interpolated - direct, 2))
        if err <= tol:
            return cell
        if depth >= max_depth:
            cell.flagged = True
            return cell
        children = [build(slo, shi, depth + 1) for slo, shi in _split(clo, chi)]
        return RefinedCell(clo, chi, children=children)

    root = build(lo, hi, depth=1)
    return RefinedTable(root, table_digest(geom, masses, weights), tol, max_depth)


def _lookup_refined(table: RefinedTable, th) -> np.ndarray:
    cell = table.root
    while not cell.is_leaf:
        child_index = 0
        for k in range(NDIM):
            mid = 0.5 * (cell.lo[k] + cell.hi[k])
            if th[k] >= mid:  # boundary goes to the upper child
                child_index |= 1 << (NDIM - 1 - k)
        cell = cell.children[child_index]
    frac = tuple(
        (th[k] - cell.lo[k]) / (cell.hi[k] - cell.lo[k]) for k in range(NDIM)
    )
    return _combine_corners(cell.corners, frac)


# ---------------------------------------------------------------------------
# serialization

class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedData(
                f"needed {n} bytes at offset {self.pos}, have {len(self.data) - self.pos}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def done(self):
        if self.pos != len(self.data):
            raise TruncatedData(f"{len(self.data) - self.pos} trailing bytes")


def _gain_bytes(gain: np.ndarray) -> bytes:
    return np.ascontiguousarray(gain, dtype="<f8").tobytes()


def save(table) -> bytes:
    """Serialize a GainTable or RefinedTable to the binary format."""
    out = bytearray(MAGIC)
    out += struct.pack("<I", table.version)
    out += struct.pack("<I", NDIM)
    if isinstance(table, GainTable):
        for k in range(NDIM):
            out += struct.pack("<ddI", table.grid.lo[k], table.grid.hi[k],
                               table.grid.counts[k])
        out += table.digest
        out += _gain_bytes(table.entries)
        return bytes(out)
    if isinstance(table, RefinedTable):
        for k in range(NDIM):
            out += struct.pack("<ddI", table.lo[k], table.hi[k], _REFINED_COUNT)
        out += table.digest
        out += struct.pack("<d", table.tol)
        out += struct.pack("<I", table.max_depth)
        _write_cell(out, table.root)
        return bytes(out)
    raise TypeError(f"cannot serialize {type(table).__name__}")


def _write_cell(out: bytearray, cell: RefinedCell):
    if cell.is_leaf:
        out.append(_TAG_LEAF_FLAGGED if cell.flagged else _TAG_LEAF)
        out += _gain_bytes(cell.corners)
    else:
        out.append(_TAG_INTERNAL)
        for child in cell.children:
            _write_cell(out, child)


def load(data: bytes, expect_digest: bytes | None = None):
    """Parse a byte stream produced by save().

    Raises BadMagic, VersionMismatch, BadGrid, TruncatedData or TreeTooDeep
    on malformed input and DigestMismatch when expect_digest is given and
    differs from the stored one (arm half and weights half reported
    separately).
    """
    r = _Reader(bytes(data))
    if r.take(4) != MAGIC:
        raise BadMagic(f"expected magic {MAGIC!r}")
    (version,) = r.unpack("<I")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"unsupported format version {version}")
    (ndim,) = r.unpack("<I")
    if ndim != NDIM:
        raise VersionMismatch(f"unsupported dimension count {ndim}")

    lo, hi, counts = [], [], []
    for _ in range(NDIM):
        dlo, dhi, count = r.unpack("<ddI")
        lo.append(dlo)
        hi.append(dhi)
        counts.append(count)
    digest = r.take(32)
    if expect_digest is not None:
        if digest[:16] != expect_digest[:16]:
            raise DigestMismatch("table was built for a different arm")
        if digest[16:] != expect_digest[16:]:
            raise DigestMismatch("table was built for different cost weights")

    refined = all(c == _REFINED_COUNT for c in counts)
    for k in range(NDIM):
        _check_span(k, lo[k], hi[k], BadGrid)
        if not refined and counts[k] < 2:
            raise BadGrid(f"dimension {k}: count must be >= 2, got {counts[k]}")

    if refined:
        (tol,) = r.unpack("<d")
        (max_depth,) = r.unpack("<I")
        root = _read_tree(r, tuple(lo), tuple(hi), max_depth)
        r.done()
        return RefinedTable(root, digest, tol, max_depth, version=version)

    # length first: the grid's axes are only built for a payload that exists
    raw = r.take(math.prod(counts) * _GAIN_BYTES)
    r.done()
    grid = GridSpec(tuple(lo), tuple(hi), tuple(counts))
    entries = np.frombuffer(raw, dtype="<f8").reshape(grid.shape + GAIN_SHAPE)
    entries = np.ascontiguousarray(entries)
    entries.flags.writeable = False
    return GainTable(grid, entries, digest, version=version)


def _read_tree(r: _Reader, lo, hi, max_depth: int) -> RefinedCell:
    """Parse the pre-order tree iteratively, so its depth is bounded by
    max_depth (TreeTooDeep) and the pending cells by the bytes left
    (TruncatedData), never by the Python stack."""
    top: list[RefinedCell] = []
    # cells still to read, next one last: (lo, hi, depth, parent's children)
    pending = [(lo, hi, 1, top)]
    while pending:
        lo, hi, depth, siblings = pending.pop()
        if depth > max_depth:
            raise TreeTooDeep(f"cell at depth {depth} exceeds max_depth {max_depth}")
        tag = r.take(1)[0]
        if tag == _TAG_INTERNAL:
            children: list[RefinedCell] = []
            siblings.append(RefinedCell(lo, hi, children=children))
            pending.extend(
                (slo, shi, depth + 1, children) for slo, shi in reversed(_split(lo, hi))
            )
            left = len(r.data) - r.pos
            if left < len(pending) * _MIN_CELL_BYTES:
                raise TruncatedData(
                    f"{len(pending)} cells pending at offset {r.pos}, only {left} bytes left"
                )
        elif tag in (_TAG_LEAF, _TAG_LEAF_FLAGGED):
            # a view of immutable bytes: contiguous and read-only already
            raw = r.take(16 * _GAIN_BYTES)
            corners = np.frombuffer(raw, dtype="<f8").reshape((2, 2, 2, 2) + GAIN_SHAPE)
            siblings.append(
                RefinedCell(lo, hi, corners=corners, flagged=tag == _TAG_LEAF_FLAGGED)
            )
        else:
            raise TruncatedData(f"unknown cell tag {tag} at offset {r.pos - 1}")
    return top[0]


def save_file(table, path):
    """Atomically write a table next to `path` (temp file + rename)."""
    import os
    import tempfile

    data = save(table)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_file(path, expect_digest: bytes | None = None):
    with open(path, "rb") as f:
        return load(f.read(), expect_digest=expect_digest)
