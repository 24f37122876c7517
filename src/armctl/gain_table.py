"""Precomputed LQR gain tables over a box of joint angles.

Each table node is an equilibrium operating point (zero rates, gravity-holding
torque); its 4x8 gain matrix is solved once offline so a constrained target
can replace online linearize-plus-Riccati work with a table lookup.

The dynamics never read the yaw angle theta1, so a gain is the same bit for
bit at every theta1.  Tables are therefore planar: they store gains over
(theta2, theta3, theta4) and keep the theta1 range only as a bound, so a yaw
outside it is still OutOfBounds.  A flat regular grid (GainTable) and an
error-driven subdivision that splits a cell 8 ways where the gain varies
quickly (RefinedTable) share one lookup: locate the planar cell (bisection
of each grid axis, descent in a tree), weigh its 8 corner gains, one (8, 32)
product.

Binary format, version 2 (little-endian): one 124-byte header record

    magic "AGT1" | u32 version | u32 dims |
    per dim: f64 min, f64 max, u32 count | 32-byte parameter digest

then the payload.  Flat payload: the n2*n3*n4 planar gains in row-major
(theta2, theta3, theta4) order, each 32 f64 (4x8 row-major), shared by every
theta1 node.  Refined tables mark themselves with count = 0 in every
dimension record (min/max then hold the root box), followed by f64 tolerance,
u32 max_depth, u32 pool size, the pool of distinct corner gains (32 f64 each,
in order of first use), and the pre-order tree: one tag byte per cell (0 = internal,
1 = leaf, 2 = leaf that still violated the tolerance at max_depth), each leaf
followed by the u32 pool indices of its 8 corners.  Children and corners are
numbered with theta2 as the most significant bit.  The root is depth 1, and
no cell may sit deeper than max_depth.  Version 1 files (a gain per theta1
node) are not read; rebuild them from their config.  A RefinedTable holds
the tree as these stored cells, and one walk reads them whether refine laid
them out or load read them.

The parameter digest is two truncated SHA-256 halves - 16 bytes over the arm
geometry/masses, 16 over the cost weights - so a loader can tell which side
of a mismatch it is looking at.  load reports the first fault in this order:
magic, header length, version, dimension count, box and counts (by GridSpec's
rules for a flat header, the refined constructor's box rule for a tree),
payload, tree.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import multiprocessing.connection
import os
import struct
import threading
from bisect import bisect_right
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import MassModel, equilibrium_torque
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
from .linearization import linearize_stack
from .riccati import CostWeights, solve_stack

MAGIC = b"AGT1"
FORMAT_VERSION = 2
NDIM = 4
GAIN_SHAPE = (4, 8)
_GAIN_BYTES = 4 * 8 * 8
_REFINED_COUNT = 0  # per-dimension count sentinel marking a tree payload
_MIN_CELL_BYTES = 1 + 8 * 4  # the smallest serialized cell: a leaf
_MAX_COUNT = 2**32 - 1  # a table file stores each count and max_depth as a u32
_HEADER = struct.Struct("<4sII" + "ddI" * NDIM + "32s")  # the header the docstring lays out
_TREE_PARAMS = struct.Struct("<dII")  # a refined payload's tol, max_depth and pool size
# planar nodes per Riccati stack: a precompute work item, or one solve of
# a refine level; larger stacks gain little and hold more memory
_CHUNK = 64


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

def _box(lo, hi):
    """lo and hi, each read as 4 components (`errors.components`), as tuples
    with -pi <= lo < hi <= pi in every dimension, as lookup answers no angle
    outside [-pi, pi]; a nan or infinite bound fails every comparison."""
    lo, hi = tuple(components(lo, NDIM, "lo")), tuple(components(hi, NDIM, "hi"))
    for k in range(NDIM):
        if not -math.pi <= lo[k] < hi[k] <= math.pi:
            raise ValueError(f"dimension {k}: need min < max, a finite span apart within "
                             f"[-pi, pi], got [{lo[k]}, {hi[k]}]")
    return lo, hi


def _u32(value, name: str, least: int) -> int:
    """value as a count (`errors.count`) that a table file can store."""
    v = count(value, name, least)
    if v > _MAX_COUNT:
        raise ValueError(f"{name} must be at most {_MAX_COUNT}, got {v}")
    return v


@dataclass(frozen=True)
class GridSpec:
    """Per-dimension (min, max, count) over the four joint angles, each range
    within [-pi, pi]; rates are pinned to zero when the table is built."""

    lo: tuple[float, float, float, float]
    hi: tuple[float, float, float, float]
    counts: tuple[int, int, int, int]

    def __post_init__(self):
        lo, hi = _box(self.lo, self.hi)
        counts = components(self.counts, NDIM, "counts")
        counts = tuple(_u32(c, f"counts[{k}]", 2) for k, c in enumerate(counts))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "counts", counts)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.counts

    @property
    def n_nodes(self) -> int:
        return math.prod(self.counts)

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
    """Interpolated gain matrix at theta, from a GainTable or a RefinedTable.

    An angle outside the table's box is wrapped into (-pi, pi] and tested
    again, so a box from -pi reads -pi as given and, unless it ends at pi,
    refuses exactly +pi.  Raises OutOfBounds outside the box (theta1
    included) or for a non-finite angle; no extrapolation is attempted.
    theta is any array-like of 4 values, read flattened (`errors.components`);
    any other size, a scalar being one component, raises ValueError("theta
    must have 4 components, got N").  A node gives its stored gain bit for bit.
    """
    return _blend(*_cell(table, theta))


def _cell(table, theta):
    """lookup before the blend: theta read, bounds-checked and located;
    returns its cell's corner rows (8, 32) and fractions for _blend."""
    th = components(theta, NDIM, "theta")
    lo, hi = table.lo, table.hi
    for k, v in enumerate(th):
        if not lo[k] <= v <= hi[k]:  # read as given in the box, so -pi can be a node
            v = th[k] = wrap_angle(v)  # +-inf wraps to NaN, which fails the test again
            if not lo[k] <= v <= hi[k]:
                raise OutOfBounds(f"angle {v!r} outside table dimension {k} [{lo[k]}, {hi[k]}]")
    corners, fractions = table._locate(th[1], th[2], th[3])
    return table._rows.take(corners, axis=0), fractions


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
        if not isinstance(self.gains, np.ndarray):
            raise ValueError(f"gains must be a numpy array, got {type(self.gains).__name__}")
        if self.gains.shape != expected:
            raise ValueError(f"gains must have shape {expected}, got {self.gains.shape}")
        if not isinstance(self.digest, bytes) or len(self.digest) != 32:
            raise ValueError("digest must be 32 bytes")
        _, n2, n3, n4 = self.grid.counts
        row = np.arange(n2 * n3 * n4, dtype=np.intp).reshape(n2, n3, n4)
        # _corners[i2, i3, i4]: the rows of cell (i2, i3, i4)'s 8 corners, ordered as in _blend
        corners = np.stack([row[b2:n2 - 1 + b2, b3:n3 - 1 + b3, b4:n4 - 1 + b4]
                            for b2, b3, b4 in itertools.product((0, 1), repeat=3)], axis=-1)
        corners.flags.writeable = False
        object.__setattr__(self, "_corners", corners)
        object.__setattr__(self, "_rows", self.gains.reshape(-1, 32))
        object.__setattr__(self, "_axes", tuple(self.grid.axis(k).tolist() for k in (1, 2, 3)))

    lo = property(lambda self: self.grid.lo)
    hi = property(lambda self: self.grid.hi)
    counts = property(lambda self: self.grid.counts)

    @property
    def entries(self) -> np.ndarray:
        """Read-only 4-D view: entries[i1, i2, i3, i4] is gains[i2, i3, i4]."""
        return np.broadcast_to(self.gains, self.grid.shape + GAIN_SHAPE)

    def _locate(self, t2, t3, t4):
        # cells are half-open [a[i], a[i+1]) with the last one closed, so a
        # node belongs to the cell above it
        a2, a3, a4 = self._axes
        i2 = min(bisect_right(a2, t2), len(a2) - 1) - 1
        i3 = min(bisect_right(a3, t3), len(a3) - 1) - 1
        i4 = min(bisect_right(a4, t4), len(a4) - 1) - 1
        fractions = (_fraction(t2, a2[i2], a2[i2 + 1]), _fraction(t3, a3[i3], a3[i3 + 1]),
                     _fraction(t4, a4[i4], a4[i4 + 1]))
        return self._corners[i2, i3, i4], fractions

    def _payload(self) -> bytes:
        return _gain_bytes(self.gains)


def _solve_nodes(geom, masses, weights, thetas, indices) -> np.ndarray:
    """The gains (k, 4, 8) of the equilibrium nodes thetas (k, 4), linearized
    as one stack at zero rates and equilibrium_torque, then solved as one
    Riccati stack.  The first node i that fails raises NodeFailure(indices[i],
    cause) for an ArmError, or the ValueError itself."""
    torque = np.array([equilibrium_torque(geom, masses, theta) for theta in thetas])
    A, B, failure = linearize_stack(geom, masses, thetas, np.zeros((len(thetas), 4)), torque)
    _, gains, stack_failure = solve_stack(A, B, weights)
    failure = stack_failure or failure  # a failing stack holds only earlier nodes
    if failure:
        i, exc = failure
        if isinstance(exc, ArmError):
            raise NodeFailure(indices[i], exc) from exc
        raise exc
    return gains


_pool: tuple[int, ProcessPoolExecutor] | None = None  # kept: (size, executor)
_pool_lock = threading.Lock()  # guards _pool


def _forget_pool() -> None:
    """After a fork: the child drops the parent's pool unjoined and takes a free lock."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # another thread may hold the lock at a fork
    os.register_at_fork(after_in_child=_forget_pool)


def _exit_with_parent() -> None:
    """Pool initializer: end this worker when the caller dies, which its task queue never shows."""
    parent, caller = os.getppid(), multiprocessing.parent_process().sentinel
    def watch():
        while os.getppid() == parent and not multiprocessing.connection.wait([caller], 0.2):
            pass
        os._exit(1)
    threading.Thread(target=watch, daemon=True).start()


def _pool_map(size: int, chunks: list) -> list:
    """_solve_nodes over chunks on the kept pool, holding `size` processes."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != size:
            if _pool is not None:
                _pool[1].shutdown()
            _pool = (size, ProcessPoolExecutor(size, initializer=_exit_with_parent))
        try:
            return list(_pool[1].map(_solve_nodes, *zip(*chunks)))
        except BrokenProcessPool:
            _pool = None  # a worker died: the next call starts a fresh pool
            raise


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
    The planar nodes go in index order, in chunks of _CHUNK (64), each one
    work item linearized as one stack and solved as one Riccati stack.  A
    node's gain never depends on its chunk, so the table is bit-identical
    for any worker count.  The caller runs them if min(workers, chunks,
    usable CPUs) is 1, else a pool of that size kept for the process
    (replaced for another size or a dead worker, joined at exit), whose
    workers run the solver as it was at the pool's start.  Raises NodeFailure
    (node index and cause) for the first node in index order that fails.
    """
    workers = count(workers, "workers", 1)
    planar = list(np.ndindex(grid.shape[1:]))
    axes = [grid.axis(k) for k in (1, 2, 3)]
    thetas = np.array([[grid.lo[0]] + [axis[i] for axis, i in zip(axes, ix)] for ix in planar])
    indices = [(0,) + ix for ix in planar]
    chunks = [(geom, masses, weights, thetas[s:s + _CHUNK], indices[s:s + _CHUNK])
              for s in range(0, len(planar), _CHUNK)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    size = min(workers, len(chunks), cpus or 1)
    gains = [_solve_nodes(*chunk) for chunk in chunks] if size == 1 else _pool_map(size, chunks)

    gains = np.concatenate(gains).reshape(grid.shape[1:] + GAIN_SHAPE)
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

    tree holds the cells as a file stores them, after the pool.  The
    constructor's one walk checks it as load does, for a built and a loaded
    tree alike (offsets count from the tree's first byte), and derives the
    rest: child[c] is the first of cell c's 8 consecutive children, or ~n
    when c is leaf n in pre-order (the root is cell 0); leaf n has the corner
    gains pool[corners[n, i]], ordered as in _blend, corners being a
    read-only (n_leaves, 8) np.intp array, and its flag in leaves()[n]."""

    lo: tuple[float, float, float, float]
    hi: tuple[float, float, float, float]
    digest: bytes
    tol: float
    max_depth: int
    pool: np.ndarray  # (n, 4, 8)
    tree: bytes

    counts = (_REFINED_COUNT,) * NDIM

    def __post_init__(self):
        # what save writes, load must read back: load checks these before the tree
        if not isinstance(self.digest, bytes) or len(self.digest) != 32:
            raise ValueError("digest must be 32 bytes")
        lo, hi = _box(self.lo, self.hi)
        object.__setattr__(self, "tol", components(self.tol, 1, "tol")[0])
        object.__setattr__(self, "max_depth", _u32(self.max_depth, "max_depth", 0))
        if not isinstance(self.pool, np.ndarray):
            raise ValueError(f"pool must be a numpy array, got {type(self.pool).__name__}")
        if self.pool.shape[1:] != GAIN_SHAPE:
            raise ValueError(f"pool must have shape (n, 4, 8), got {self.pool.shape}")
        tree, n_pool, max_depth = self.tree, len(self.pool), self.max_depth
        if max_depth < 1:  # the root is depth 1; the walk checks its bytes first
            raise TreeTooDeep(f"cell at depth 1 exceeds max_depth {max_depth}")
        # per cell: first child or ~leaf, planar box; per leaf: (cell, depth, flag), offset
        child, boxes, cells, offsets = [0], [(lo[1:], hi[1:])], [], []
        pos, pending = 0, [(0, 1)]  # cells still to read, next one last: (cell, depth)
        try:
            while pending:
                # each pending cell takes a leaf's bytes or more: no read runs short
                left = len(tree) - pos
                if left < len(pending) * _MIN_CELL_BYTES:
                    raise TruncatedData(f"{len(pending)} cells pending at tree offset {pos}, "
                                        f"only {left} bytes left")
                cell, depth = pending.pop()
                if depth > max_depth:
                    raise TreeTooDeep(f"cell at depth {depth} exceeds max_depth {max_depth}")
                tag = tree[pos]
                if tag == _TAG_INTERNAL:
                    first = child[cell] = len(child)
                    child += [0] * 8
                    boxes += _split(*boxes[cell])
                    pending.extend((first + octant, depth + 1) for octant in range(7, -1, -1))
                    pos += 1
                elif tag in (_TAG_LEAF, _TAG_LEAF_FLAGGED):
                    child[cell] = ~len(cells)
                    cells.append((cell, depth, tag == _TAG_LEAF_FLAGGED))
                    offsets.append(pos + 1)
                    pos += _MIN_CELL_BYTES
                else:
                    raise TruncatedData(f"unknown cell tag {tag} at tree offset {pos}")
            if pos != len(tree):
                raise TruncatedData(f"{len(tree) - pos} trailing bytes after the tree")
        finally:
            # every leaf's 8 u32 corner indices in one gather, also after a walk
            # error, since an index outside the pool read before it comes first
            at = np.array(offsets, np.intp)[:, None] + np.arange(32)
            corners = np.frombuffer(tree, np.uint8)[at].view("<u4").astype(np.intp)
            bad = np.flatnonzero(corners.max(axis=1) >= n_pool)
            if bad.size:
                raise TableFormatError(f"corner index {corners[bad[0]].max()} at tree offset "
                                       f"{offsets[bad[0]]} outside a pool of {n_pool}")
        corners.flags.writeable = False
        for name, value in (("lo", lo), ("hi", hi), ("child", tuple(child)), ("corners", corners),
                            ("_rows", self.pool.reshape(-1, 32)), ("_boxes", boxes),
                            ("_cells", cells)):
            object.__setattr__(self, name, value)

    def _locate(self, t2, t3, t4):
        child, boxes, cell = self.child, self._boxes, 0
        while (first := child[cell]) > 0:
            # _split's midpoints, the last child's lower corner; a boundary goes up
            m2, m3, m4 = boxes[first + 7][0]
            cell = first + 4 * (t2 >= m2) + 2 * (t3 >= m3) + (t4 >= m4)
        (l2, l3, l4), (h2, h3, h4) = boxes[cell]
        fractions = (_fraction(t2, l2, h2), _fraction(t3, l3, h3), _fraction(t4, l4, h4))
        return self.corners[~first], fractions

    def leaves(self) -> list[RefinedCell]:
        """The leaf cells in pre-order, so leaves()[n] is leaf n."""
        lo, hi, boxes = self.lo[0], self.hi[0], self._boxes
        return [RefinedCell((lo,) + boxes[c][0], (hi,) + boxes[c][1], depth, flagged)
                for c, depth, flagged in self._cells]

    def flagged_leaves(self) -> list[RefinedCell]:
        return [leaf for leaf in self.leaves() if leaf.flagged]

    def _payload(self) -> bytes:
        return (_TREE_PARAMS.pack(self.tol, self.max_depth, len(self.pool))
                + _gain_bytes(self.pool) + self.tree)


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
    the whole theta1 range.  The build goes level by level: the corners and
    centers a depth needs that no earlier depth solved are solved in stacks
    of at most _CHUNK (64), then that depth's cells are split or kept.  A
    NodeFailure names the first failing point of the first failing stack.
    Leaves are kept by (depth, planar box), which fixes a cell's split, and
    laid out in pre-order from the root box; the pool holds each distinct
    corner gain once, in order of first use, so the build is deterministic.
    """
    box = components(root_box, 2 * NDIM, "root_box")
    lo, hi = _box(box[:NDIM], box[NDIM:])
    (tol,) = components(tol, 1, "tol")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    max_depth = _u32(max_depth, "max_depth", 1)

    cache: dict[tuple, np.ndarray] = {}  # planar point -> its gain
    leaves: dict[tuple, bool] = {}  # (depth, planar box) of each leaf -> flagged
    boxes = [(lo[1:], hi[1:])]
    for depth in range(1, max_depth + 1):
        corners = [_corner_coords(clo, chi) for clo, chi in boxes]
        centers = [] if math.isinf(tol) else [
            tuple(0.5 * (l + h) for l, h in zip(clo, chi)) for clo, chi in boxes]
        new = [p for p in dict.fromkeys(itertools.chain(*corners, centers)) if p not in cache]
        for s in range(0, len(new), _CHUNK):
            batch = new[s:s + _CHUNK]
            coords = [(lo[0],) + p for p in batch]
            cache.update(zip(batch, _solve_nodes(geom, masses, weights, np.array(coords), coords)))
        errors = np.linalg.norm([
            _blend(np.array([cache[p] for p in points]).reshape(8, 32), (0.5, 0.5, 0.5))
            - cache[center] for points, center in zip(corners, centers)
        ], 2, axis=(1, 2)).tolist() if centers else [0.0] * len(boxes)
        children = []
        for box, err in zip(boxes, errors):
            if not err <= tol and depth < max_depth:
                children.extend(_split(*box))
            else:
                leaves[depth, box] = not err <= tol
        boxes = children
        if not boxes:
            break

    # lay the cells out in pre-order, numbering pool entries as they are reached
    tree = bytearray()
    pool: dict[tuple, int] = {}  # planar corner -> pool index, in order of first use
    pending = [(1, (lo[1:], hi[1:]))]  # (depth, planar box), next one last
    while pending:
        depth, box = pending.pop()
        if (depth, box) in leaves:
            tree.append(_TAG_LEAF_FLAGGED if leaves[depth, box] else _TAG_LEAF)
            tree += struct.pack("<8I", *(pool.setdefault(p, len(pool))
                                         for p in _corner_coords(*box)))
        else:
            tree.append(_TAG_INTERNAL)
            pending.extend((depth + 1, child) for child in reversed(_split(*box)))
    gains = np.array([cache[p] for p in pool])
    gains.flags.writeable = False
    return RefinedTable(lo, hi, table_digest(geom, masses, weights), tol, max_depth,
                        gains, bytes(tree))


# ---------------------------------------------------------------------------
# serialization

def _gain_bytes(gains: np.ndarray) -> bytes:
    return np.ascontiguousarray(gains, dtype="<f8").tobytes()


def _take(data: bytes, at: int, n: int) -> bytes:
    """The n bytes of data from offset at, or TruncatedData if it holds fewer.
    A copy: a new bytes object's buffer is aligned for f8, as a header's end is not."""
    if len(data) - at < n:
        raise TruncatedData(f"needed {n} bytes at offset {at}, have {len(data) - at}")
    return data[at:at + n]


def save(table) -> bytes:
    """Serialize a GainTable or RefinedTable to the binary format."""
    dims = itertools.chain.from_iterable(zip(table.lo, table.hi, table.counts))
    return _HEADER.pack(MAGIC, FORMAT_VERSION, NDIM, *dims, table.digest) + table._payload()


def load(data: bytes):
    """Parse a byte stream produced by save(), raising the first fault in
    the module docstring's order: BadMagic, TruncatedData, VersionMismatch (a
    version 1 file included), BadGrid (with the constructor's message), then
    TruncatedData, TreeTooDeep or TableFormatError.  The stored digest is not
    compared here: check_digest does that."""
    data = bytes(data)
    if data[:4] != MAGIC:
        raise BadMagic(f"expected magic {MAGIC!r}")
    _, version, ndim, *dims, digest = _HEADER.unpack(_take(data, 0, _HEADER.size))
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"unsupported format version {version}, expected "
                              f"{FORMAT_VERSION}; rebuild the table from its config")
    if ndim != NDIM:
        raise VersionMismatch(f"unsupported dimension count {ndim}")
    lo, hi, counts = dims[0::3], dims[1::3], dims[2::3]
    refined = all(c == _REFINED_COUNT for c in counts)
    try:  # by the constructors' rules, before any payload is read
        spec = _box(lo, hi) if refined else GridSpec(lo, hi, counts)
    except ValueError as exc:
        raise BadGrid(str(exc)) from exc

    at = _HEADER.size
    if refined:
        tol, max_depth, n_pool = _TREE_PARAMS.unpack(_take(data, at, _TREE_PARAMS.size))
        at += _TREE_PARAMS.size
        pool = np.frombuffer(_take(data, at, n_pool * _GAIN_BYTES), "<f8")
        return RefinedTable(*spec, digest, tol, max_depth,
                            pool.reshape((n_pool,) + GAIN_SHAPE), data[at + pool.nbytes:])
    # the length first, so GainTable builds its cell index only for a payload that exists
    shape = spec.shape[1:] + GAIN_SHAPE
    if len(data) - at != math.prod(shape) * 8:
        raise TruncatedData(f"flat payload of {len(data) - at} bytes, need {math.prod(shape) * 8}")
    return GainTable(spec, np.frombuffer(data[at:], "<f8").reshape(shape), digest)


def save_file(table, path):
    """Atomically write a table to `path`: the bytes go to a new file beside
    it, created under the umask as open() creates one, flushed and fsynced,
    then renamed over `path`.  On failure the new file is removed and an
    existing `path` is left as it was."""
    data = save(table)
    tmp = f"{os.path.abspath(path)}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_file(path):
    with open(path, "rb") as f:
        return load(f.read())
