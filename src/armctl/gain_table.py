"""Precomputed LQR gain tables over a box of joint angles.

Each table node is an equilibrium operating point (zero rates, gravity-holding
torque); its 4x8 gain matrix is solved once offline so a constrained target
can replace online linearize-plus-Riccati work with a table lookup.

The dynamics never read the yaw angle theta1, so a gain is the same bit for
bit at every theta1.  Tables are therefore planar: they store gains over
(theta2, theta3, theta4) and keep the theta1 range only as a bound, so a yaw
outside it is still OutOfBounds.  A flat regular grid (GainTable) and an
error-driven subdivision that splits a cell 8 ways where the gain varies
quickly (RefinedTable) share one lookup: locate the planar cell (arithmetic
on a grid, descent in a tree), weigh its 8 corner gains, one (8, 32) product.

Binary format, version 2 (little-endian):

    magic "AGT1" | u32 version | u32 dims |
    per dim: f64 min, f64 max, u32 count | 32-byte parameter digest | payload

Flat payload: the n2*n3*n4 planar gains in row-major (theta2, theta3,
theta4) order, each 32 f64 (4x8 row-major), shared by every theta1 node.
Refined tables mark themselves with count = 0 in every dimension record
(min/max then hold the root box), followed by f64 tolerance, u32 max_depth,
u32 pool size, the pool of distinct corner gains (32 f64 each, in order of
first use), and the pre-order tree: one tag byte per cell (0 = internal,
1 = leaf, 2 = leaf that still violated the tolerance at max_depth), each leaf
followed by the u32 pool indices of its 8 corners.  Children and corners are
numbered with theta2 as the most significant bit.  The root is depth 1, and
no cell may sit deeper than max_depth.  Version 1 files (a gain per theta1
node) are not read; rebuild them from their config.

The parameter digest is two truncated SHA-256 halves - 16 bytes over the arm
geometry/masses, 16 over the cost weights - so a loader can tell which side
of a mismatch it is looking at.
"""
from __future__ import annotations

import bisect
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
    TableFormatError,
    TreeTooDeep,
    TruncatedData,
    VersionMismatch,
    components,
    count,
)
from .kinematics import ArmGeometry, wrap_angle
from .linearization import equilibrium_point, linearize
from .riccati import CostWeights, lqr_gain

MAGIC = b"AGT1"
FORMAT_VERSION = 2
NDIM = 4
GAIN_SHAPE = (4, 8)
_GAIN_BYTES = 4 * 8 * 8
_REFINED_COUNT = 0  # per-dimension count sentinel marking a tree payload
_MIN_CELL_BYTES = 1 + 8 * 4  # the smallest serialized cell: a leaf
_CHUNK = 8  # planar nodes per precompute work item


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


def check_digest(table, geom, masses, weights=None):
    """Raise DigestMismatch if the table was built for another arm, or, when
    weights is given, for other cost weights."""
    if table.digest[:16] != arm_digest(geom, masses):
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
        lo = tuple(components(self.lo, NDIM, "lo"))
        hi = tuple(components(self.hi, NDIM, "hi"))
        counts = components(self.counts, NDIM, "counts")
        counts = tuple(count(c, f"counts[{k}]", 2) for k, c in enumerate(counts))
        for k in range(NDIM):
            _check_span(k, lo[k], hi[k])
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "counts", counts)

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
        """Node coordinates of dimension k, built on demand (n1 may be large)."""
        axis = np.linspace(self.lo[k], self.hi[k], self.counts[k])
        axis.flags.writeable = False
        return axis

    def node_angles(self, index) -> np.ndarray:
        return np.array([self.axis(k)[index[k]] for k in range(NDIM)])


# ---------------------------------------------------------------------------
# the lookup kernel

def _fraction(v: float, lo: float, hi: float) -> float:
    """Where v lies in [lo, hi], from 0 to 1.  A span of a few ulp can
    leave a cell of width 0 (repeated grid nodes, or the upper half of a
    split whose midpoint rounds up to hi); its fraction is 0."""
    width = hi - lo
    return (v - lo) / width if width else 0.0


def _cell_coordinate(axis, v: float):
    """(index, fraction) of the cell owning v, which lies within the axis
    (a sorted list of floats).  Cells are half-open [axis[i], axis[i+1]) with
    the last cell closed, so a node belongs to the cell above it."""
    i = min(bisect.bisect_right(axis, v), len(axis) - 1) - 1
    return i, _fraction(v, axis[i], axis[i + 1])


def _blend(rows: np.ndarray, fractions) -> np.ndarray:
    """Trilinear blend of a planar cell's corner gains, rows (8, 32): row
    4*b2 + 2*b3 + b4 holds the corner at the upper end of axis k where b_k
    is set.  At a corner (fractions 0 or 1) one weight is 1 and the others
    0, so that corner's gain comes back bit for bit."""
    t2, t3, t4 = fractions
    s2, s3, s4 = 1.0 - t2, 1.0 - t3, 1.0 - t4
    a, b, c, d = s2 * s3, s2 * t3, t2 * s3, t2 * t3
    w = [a * s4, a * t4, b * s4, b * t4, c * s4, c * t4, d * s4, d * t4]
    return np.dot(w, rows).reshape(GAIN_SHAPE)


def lookup(table, theta) -> np.ndarray:
    """Interpolated gain matrix at theta (wrapped into (-pi, pi] first).

    Accepts a GainTable or a RefinedTable.  Raises OutOfBounds outside the
    table's box (theta1 included) or for a non-finite angle; no
    extrapolation is attempted.  theta is any array-like of 4 values, read
    flattened (`errors.components`); any other size, a scalar being one
    component, raises ValueError("theta must have 4 components, got N").
    At a stored node the result is the stored matrix, bit for bit.
    """
    th = [wrap_angle(v) for v in components(theta, NDIM, "theta")]
    lo, hi = table.lo, table.hi
    for k in range(NDIM):
        # written so that NaN (and +-inf, which wraps to NaN) fails it too
        if not lo[k] <= th[k] <= hi[k]:
            raise OutOfBounds(f"angle {th[k]!r} outside table dimension {k} "
                              f"[{lo[k]}, {hi[k]}]")
    corners, fractions = table._locate(th[1], th[2], th[3])
    return _blend(table._rows.take(corners, axis=0), fractions)


# ---------------------------------------------------------------------------
# flat tables

@dataclass(frozen=True)
class GainTable:
    """Flat grid of gain matrices: gains[i2, i3, i4] is the 4x8 gain of
    every node (i1, i2, i3, i4)."""

    grid: GridSpec
    gains: np.ndarray
    digest: bytes

    def __post_init__(self):
        expected = self.grid.shape[1:] + GAIN_SHAPE
        if self.gains.shape != expected:
            raise ValueError(f"gains must have shape {expected}, got {self.gains.shape}")
        if len(self.digest) != 32:
            raise ValueError("digest must be 32 bytes")
        _, _, n3, n4 = self.grid.counts
        object.__setattr__(self, "_rows", self.gains.reshape(-1, 32))
        object.__setattr__(self, "_axes", tuple(self.grid.axis(k).tolist() for k in (1, 2, 3)))
        # row offsets of a cell's 8 corners from its lowest one
        object.__setattr__(self, "_offsets", tuple(
            (b2 * n3 + b3) * n4 + b4 for b2, b3, b4 in itertools.product((0, 1), repeat=3)
        ))

    lo = property(lambda self: self.grid.lo)
    hi = property(lambda self: self.grid.hi)
    counts = property(lambda self: self.grid.counts)

    @property
    def entries(self) -> np.ndarray:
        """Read-only 4-D view: entries[i1, i2, i3, i4] is gains[i2, i3, i4]."""
        return np.broadcast_to(self.gains, self.grid.shape + GAIN_SHAPE)

    def _locate(self, t2, t3, t4):
        (i2, f2), (i3, f3), (i4, f4) = map(_cell_coordinate, self._axes, (t2, t3, t4))
        _, _, n3, n4 = self.grid.counts
        base = (i2 * n3 + i3) * n4 + i4
        return [base + o for o in self._offsets], (f2, f3, f4)

    def _payload(self) -> bytes:
        return _gain_bytes(self.gains)


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

    Nodes that differ only in theta1 share one gain, solved at i1 = 0, so a
    grid of n1 x n2 x n3 x n4 nodes costs and stores n2 * n3 * n4 solves.
    Results are merged by index, so the table is bit-identical for any
    worker count, and the pool gets at most one process per chunk of
    _CHUNK nodes.  Raises NodeFailure (carrying the node index and cause)
    for the first node in index order that cannot be solved.
    """
    workers = count(workers, "workers", 1)
    planar = list(np.ndindex(grid.shape[1:]))
    axes = [grid.axis(k) for k in (1, 2, 3)]
    jobs = [
        (geom, masses, weights,
         np.array([grid.lo[0]] + [axis[i] for axis, i in zip(axes, ix)]), (0,) + ix)
        for ix in planar
    ]
    if workers == 1:
        gains = [_node_gain_job(job) for job in jobs]
    else:
        # the pool starts all its processes up front; any beyond one per
        # chunk would only sit idle
        chunks = -(-len(jobs) // _CHUNK)
        with ProcessPoolExecutor(max_workers=min(workers, chunks)) as pool:
            gains = list(pool.map(_node_gain_job, jobs, chunksize=_CHUNK))

    gains = np.array(gains).reshape(grid.shape[1:] + GAIN_SHAPE)
    gains.flags.writeable = False
    return GainTable(grid, gains, table_digest(geom, masses, weights))


# ---------------------------------------------------------------------------
# refined tables

_TAG_INTERNAL = 0
_TAG_LEAF = 1
_TAG_LEAF_FLAGGED = 2


@dataclass(frozen=True)
class RefinedCell:
    """A leaf of a RefinedTable: its box over all four angles (theta1 spans
    the table's range), its depth (the root is 1), and whether it still
    violated the tolerance at max_depth."""

    lo: tuple[float, float, float, float]
    hi: tuple[float, float, float, float]
    depth: int
    flagged: bool = False

    def center(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.lo) + np.asarray(self.hi))


@dataclass(frozen=True)
class RefinedTable:
    """Error-driven subdivision of a root box over theta2..theta4.

    The 8 children of a cell are consecutive cells: child[c] is the first
    child of cell c, or 0 for a leaf (the root is cell 0).  Leaf n, counted
    in pre-order, has the flag flagged[n] and the corner gains
    pool[corners[n][i]], corners ordered as in _blend."""

    lo: tuple[float, float, float, float]
    hi: tuple[float, float, float, float]
    digest: bytes
    tol: float
    max_depth: int
    child: tuple[int, ...]
    flagged: tuple[bool, ...]
    corners: tuple[tuple[int, ...], ...]
    pool: np.ndarray  # (n, 4, 8)

    counts = (_REFINED_COUNT,) * NDIM

    def __post_init__(self):
        # per cell, from one pre-order walk: planar box, depth, leaf number
        n = len(self.child)
        boxes, depth, leaf, order, leaves = [None] * n, [0] * n, [-1] * n, [], 0
        stack = [(0, self.lo[1:], self.hi[1:], 1)]
        while stack:
            cell, lo, hi, d = stack.pop()
            boxes[cell], depth[cell] = (lo, hi), d
            order.append(cell)
            first = self.child[cell]
            if first:
                stack.extend((first + octant, clo, chi, d + 1)
                             for octant, (clo, chi) in reversed(list(enumerate(_split(lo, hi)))))
            else:
                leaf[cell], leaves = leaves, leaves + 1
        for name, value in (("_rows", self.pool.reshape(-1, 32)), ("_boxes", boxes),
                            ("_depth", depth), ("_leaf", leaf), ("_order", order)):
            object.__setattr__(self, name, value)

    def _locate(self, t2, t3, t4):
        child, boxes, cell = self.child, self._boxes, 0
        while child[cell]:
            # the midpoints _split splits at; a boundary goes to the upper child
            (l2, l3, l4), (h2, h3, h4) = boxes[cell]
            cell = (child[cell] + 4 * (t2 >= 0.5 * (l2 + h2)) + 2 * (t3 >= 0.5 * (l3 + h3))
                    + (t4 >= 0.5 * (l4 + h4)))
        (l2, l3, l4), (h2, h3, h4) = boxes[cell]
        fractions = (_fraction(t2, l2, h2), _fraction(t3, l3, h3), _fraction(t4, l4, h4))
        return self.corners[self._leaf[cell]], fractions

    def leaves(self) -> list[RefinedCell]:
        """The leaf cells in pre-order, so leaves()[n] is leaf n."""
        return [
            RefinedCell((self.lo[0],) + self._boxes[c][0], (self.hi[0],) + self._boxes[c][1],
                        self._depth[c], self.flagged[self._leaf[c]])
            for c in self._order if not self.child[c]
        ]

    def flagged_leaves(self) -> list[RefinedCell]:
        return [leaf for leaf in self.leaves() if leaf.flagged]

    def _payload(self) -> bytes:
        out = bytearray(struct.pack("<dII", self.tol, self.max_depth, len(self.pool)))
        out += _gain_bytes(self.pool)
        for cell in self._order:
            n = self._leaf[cell]
            if n < 0:
                out.append(_TAG_INTERNAL)
            else:
                out.append(_TAG_LEAF_FLAGGED if self.flagged[n] else _TAG_LEAF)
                out += struct.pack("<8I", *self.corners[n])
        return bytes(out)


def _corner_coords(lo, hi):
    """The corner points of a box, index bits ordered first-axis-first."""
    return list(itertools.product(*zip(lo, hi)))


def _split(lo, hi):
    """The half-size children (lo, hi) of a box, in corner order: child i
    spans from corner i of the lower half-box to corner i of the upper."""
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
    """Build a RefinedTable over root_box = ((lo1..lo4), (hi1..hi4)), read
    flattened as 8 values (`errors.components`).

    A cell whose center-point interpolation error (spectral norm of the
    interpolated minus the directly solved gain) exceeds tol is split in
    half along theta2..theta4, up to max_depth levels; cells still violating
    the tolerance at max_depth are kept as flagged leaves.  Every cell spans
    the whole theta1 range.  Solves are cached by planar coordinates, so a
    corner shared between cells is solved and pooled once.  The build is
    sequential and deterministic.
    """
    box = components(root_box, 2 * NDIM, "root_box")
    lo, hi = tuple(box[:NDIM]), tuple(box[NDIM:])
    for k in range(NDIM):
        _check_span(k, lo[k], hi[k])
    (tol,) = components(tol, 1, "tol")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    max_depth = count(max_depth, "max_depth", 1)

    cache: dict[tuple, np.ndarray] = {}
    pool: dict[tuple, int] = {}  # planar corner -> pool index, in order of first use
    child, flagged, corners = [0], [], []

    def gain_at(planar):
        gain = cache.get(planar)
        if gain is None:
            coords = (lo[0],) + planar
            gain = _solve_node_gain(geom, masses, weights, np.array(coords), coords)
            cache[planar] = gain
        return gain

    def build(cell, clo, chi, depth):
        points = _corner_coords(clo, chi)
        rows = np.array([gain_at(p) for p in points]).reshape(8, 32)
        err = 0.0
        if not math.isinf(tol):
            center = tuple(0.5 * (l + h) for l, h in zip(clo, chi))
            err = float(np.linalg.norm(_blend(rows, (0.5, 0.5, 0.5)) - gain_at(center), 2))
        if not err <= tol and depth < max_depth:
            first = child[cell] = len(child)
            child.extend([0] * 8)
            for octant, (slo, shi) in enumerate(_split(clo, chi)):
                build(first + octant, slo, shi, depth + 1)
        else:
            corners.append(tuple(pool.setdefault(p, len(pool)) for p in points))
            flagged.append(not err <= tol)

    build(0, lo[1:], hi[1:], depth=1)
    gains = np.array([cache[p] for p in pool])
    gains.flags.writeable = False
    return RefinedTable(lo, hi, table_digest(geom, masses, weights), tol, max_depth,
                        tuple(child), tuple(flagged), tuple(corners), gains)


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

    def gains(self, n: int) -> np.ndarray:
        # a view of immutable bytes: contiguous and read-only already
        return np.frombuffer(self.take(n * _GAIN_BYTES), dtype="<f8").reshape((n,) + GAIN_SHAPE)

    def done(self):
        if self.pos != len(self.data):
            raise TruncatedData(f"{len(self.data) - self.pos} trailing bytes")


def _gain_bytes(gains: np.ndarray) -> bytes:
    return np.ascontiguousarray(gains, dtype="<f8").tobytes()


def save(table) -> bytes:
    """Serialize a GainTable or RefinedTable to the binary format."""
    out = bytearray(MAGIC)
    out += struct.pack("<II", FORMAT_VERSION, NDIM)
    for k in range(NDIM):
        out += struct.pack("<ddI", table.lo[k], table.hi[k], table.counts[k])
    out += table.digest
    out += table._payload()
    return bytes(out)


def load(data: bytes):
    """Parse a byte stream produced by save().

    Raises BadMagic, VersionMismatch (a version 1 file included), BadGrid,
    TruncatedData, TreeTooDeep or TableFormatError on malformed input.  The
    stored digest is not compared here: check_digest does that.
    """
    r = _Reader(bytes(data))
    if r.take(4) != MAGIC:
        raise BadMagic(f"expected magic {MAGIC!r}")
    (version,) = r.unpack("<I")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"unsupported format version {version}, expected "
                              f"{FORMAT_VERSION}; rebuild the table from its config")
    (ndim,) = r.unpack("<I")
    if ndim != NDIM:
        raise VersionMismatch(f"unsupported dimension count {ndim}")

    lo, hi, counts = zip(*(r.unpack("<ddI") for _ in range(NDIM)))
    digest = r.take(32)

    refined = all(c == _REFINED_COUNT for c in counts)
    for k in range(NDIM):
        _check_span(k, lo[k], hi[k], BadGrid)
        if not refined and counts[k] < 2:
            raise BadGrid(f"dimension {k}: count must be >= 2, got {counts[k]}")

    if refined:
        tol, max_depth, n_pool = r.unpack("<dII")
        pool = r.gains(n_pool)
        tree = _read_tree(r, max_depth, n_pool)
        r.done()
        return RefinedTable(lo, hi, digest, tol, max_depth, *tree, pool)

    # length first: only the planar axes are built, for a payload that exists
    gains = r.gains(math.prod(counts[1:]))
    r.done()
    grid = GridSpec(lo, hi, counts)
    return GainTable(grid, gains.reshape(grid.shape[1:] + GAIN_SHAPE), digest)


def _read_tree(r: _Reader, max_depth: int, n_pool: int):
    """Parse the pre-order tree into (child, flagged, corners), as
    RefinedTable holds them.  The parse is iterative, so the depth is
    bounded by max_depth (TreeTooDeep) and the pending cells by the bytes
    left (TruncatedData), never by the Python stack; a corner index must
    name a pool entry."""
    child, flagged, corners = [0], [], []
    pending = [(0, 1)]  # cells still to read, next one last: (cell, depth)
    while pending:
        cell, depth = pending.pop()
        if depth > max_depth:
            raise TreeTooDeep(f"cell at depth {depth} exceeds max_depth {max_depth}")
        tag = r.take(1)[0]
        if tag == _TAG_INTERNAL:
            first = child[cell] = len(child)
            child.extend([0] * 8)
            pending.extend((first + octant, depth + 1) for octant in range(7, -1, -1))
            left = len(r.data) - r.pos
            if left < len(pending) * _MIN_CELL_BYTES:
                raise TruncatedData(
                    f"{len(pending)} cells pending at offset {r.pos}, only {left} bytes left"
                )
        elif tag in (_TAG_LEAF, _TAG_LEAF_FLAGGED):
            indices = r.unpack("<8I")
            if max(indices) >= n_pool:
                raise TableFormatError(f"corner index {max(indices)} at offset "
                                       f"{r.pos - 32} outside a pool of {n_pool}")
            corners.append(indices)
            flagged.append(tag == _TAG_LEAF_FLAGGED)
        else:
            raise TruncatedData(f"unknown cell tag {tag} at offset {r.pos - 1}")
    return tuple(child), tuple(flagged), tuple(corners)


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


def load_file(path):
    with open(path, "rb") as f:
        return load(f.read())
