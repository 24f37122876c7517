"""Independent numerical oracles for the dynamics, linearization and
simulator tests.

The dynamics oracles work by brute-force difference quotients of the scalar
energies; none of it touches the closed-form derivative bookkeeping inside
the library's forward dynamics or its closed-form linearization.  The
energies themselves are checked against a segment route that sums the
public rod and point-mass inertias link by link, independent of the
library's link-angle forms.  The RK4
reference is the array form of the integrator, built on `loop_kernel` and
`loop_solve`: the loop form of the dynamics kernel and acceleration solve,
kept here as the library had them before they became straight-line code,
so the library's float loop must reproduce their IEEE operations bit for
bit without the reference reading the code under test.
The gain-table references are the 4-D multilinear blend over every node of a
flat grid, theta1 included, that the planar lookup must match to rounding,
and `reference_lookup`, the lookup kernel as the library had it before it
read array-backed corner indices (an angle wrapped only outside the box,
each flat axis bisected by one call, corners as lists of ints read leaf by leaf from the
tree bytes), whose bytes and errors the library's lookup must reproduce, and
`reference_refine`, the refined build as the library had it before it kept
its cells by (depth, box): per-depth lists of corners, first children and
flags, laid out by (depth, position) cursors, each node's torque read from
the dynamics kernel, and each box split by `reference_split`, the product
form of a split.  The library's refine must save the same bytes, and its
straight-line `_split` give the same boxes bit for bit.  `reference_tree_walk`
is RefinedTable's tree walk as it was before its stack held cell numbers
(a stack of (cell, depth) tuples, the product split, corners unpacked leaf
by leaf); the constructor and load must raise its first fault, type and
message, or derive its child numbers, boxes, leaves and corners.
`reference_build_failure` solves a grid's nodes one at a time through the
online per-point bodies; a build, which solves its nodes only through the
stacked ones, must name its first failing node, cause type and message.
The CARE reference is the Schur solve written with scipy.linalg's
high-level schur, cho_factor/cho_solve and np.block, whose P and K the
library's direct LAPACK calls must reproduce byte for byte.
"""

import bisect
import functools
import itertools
import struct

import numpy as np
import scipy.linalg

from armctl import (
    ArmError,
    DegenerateInertia,
    Diverged,
    GainTable,
    IllConditioned,
    LinearModel,
    NotStabilizable,
    OperatingPoint,
    OutOfBounds,
    RefinedTable,
    TableFormatError,
    TreeTooDeep,
    TruncatedData,
    equilibrium_point,
    fk_planar,
    kinetic_energy,
    linearize,
    lqr_gain,
    point_inertia,
    potential_energy,
    segment_inertia,
    table_digest,
)
from armctl.dynamics import EPS_INERTIA, _cosine_terms, _kernel, _mass_forms
from armctl.errors import components
from armctl.gain_table import _MIN_CELL_BYTES, _corner_coords
from armctl.kinematics import planar_chain, wrap_angle
from armctl.riccati import RESIDUAL_RTOL, solve_stack


def loop_kernel(forms, t2: float, t3: float, t4: float):
    """Inertias, potential energy and their exact gradients at a planar
    configuration, from the mass forms `_mass_forms(geom, masses)`.

    Returns (inertia, pe, dpe, jac):
      - inertia = (I1, I2, I3, I4): I1 about the vertical axis, I2 about P1,
        I3 about P2, I4 about P3, each covering the mass distal to that pivot;
      - pe: gravitational PE, point masses at their heights plus each uniform
        segment at the mean of its endpoint heights (P1 is the zero reference);
      - dpe: the 4-tuple dPE/dtheta;
      - jac: the 4x4 nested tuple jac[k][j] = dI_{k+1}/dtheta_{j+1}.
    The theta1 entries of dpe and jac, and the row of I4, are structurally zero.
    """
    u0, v0, u1, v1, u2, v2 = planar_chain(t2, t3, t4)
    C, h, i4 = forms
    i1 = i2 = i3 = pe = 0.0
    d1 = d2 = d3 = dp = 0.0
    # a4 = theta2 + theta3 + theta4, a3 = theta2 + theta3, a2 = theta2: so
    # d/dtheta_j sums d/da_l over the links l >= j - 2, a suffix sum: s2 and
    # s1 keep it through links 2 and 1, and d1..dp end holding it through 0
    for l, u, v in ((2, u2, v2), (1, u1, v1), (0, u0, v0)):
        c0, c1, c2 = C[l]
        # (C u)_l and (C v)_l, first over the elbow links 1 and 2 alone
        eu, ev = c1 * u1 + c2 * u2, c1 * v1 + c2 * v2
        cu, cv = eu + c0 * u0, ev + c0 * v0
        i1 += u * cu
        i2 += u * cu + v * cv
        pe += h[l] * v
        d1 += 2.0 * v * cu
        d2 += 2.0 * (v * cu - u * cv)
        dp -= h[l] * u
        if l:
            i3 += u * eu + v * ev
            d3 += 2.0 * (v * eu - u * ev)
        if l == 2:
            s2 = d1, d2, d3, dp
        elif l == 1:
            s1 = d1, d2, d3, dp
    jac = ((0.0, d1, s1[0], s2[0]), (0.0, d2, s1[1], s2[1]), (0.0, d3, s1[2], s2[2]),
           (0.0, 0.0, 0.0, 0.0))
    return (i1, i2, i3, i4), pe, (0.0, dp, s1[3], s2[3]), jac


def loop_solve(kernel, planar, w, tau) -> list[float]:
    """The four accelerations (a list) from a `loop_kernel` evaluation at the
    planar angles `planar`, the rates w and the torque tau (4-sequences of
    floats).  Raises DegenerateInertia when any I_k <= EPS_INERTIA."""
    inertia, _, dpe, jac = kernel
    for k in range(4):
        if inertia[k] <= EPS_INERTIA:
            raise DegenerateInertia(
                f"joint {k + 1} inertia {inertia[k]!r} <= {EPS_INERTIA} at "
                f"theta={planar!r}"
            )

    w0, w1, w2, w3 = w
    j0, j1, j2, j3 = jac
    acc = []
    for i in range(4):
        quad = 0.5 * (
            j0[i] * w0 * w0 + j1[i] * w1 * w1 + j2[i] * w2 * w2 + j3[i] * w3 * w3
        )
        ji = jac[i]
        convective = w[i] * (ji[0] * w0 + ji[1] * w1 + ji[2] * w2 + ji[3] * w3)
        acc.append((quad - dpe[i] - convective + tau[i]) / inertia[i])
    return acc


def reference_accelerations(geom, masses, theta, rates, torque) -> np.ndarray:
    """forward_dynamics through `loop_kernel` and `loop_solve`, on the floats
    of theta, rates and torque (4-sequences, not checked)."""
    planar = tuple(float(t) for t in theta[1:])
    kernel = loop_kernel(_mass_forms(geom, masses), *planar)
    return np.array(loop_solve(kernel, planar, [float(w) for w in rates],
                               [float(t) for t in torque]))


def reference_step_rk4(geom, masses, x, torque, dt):
    """One classical RK4 step of x' = [rates, reference_accelerations(...)]
    on NumPy arrays, with the torque held constant over the step."""
    x = np.asarray(x, dtype=float)
    tau = np.asarray(torque, dtype=float)

    def f(state):
        return np.concatenate(
            [state[4:], reference_accelerations(geom, masses, state[:4], state[4:], tau)]
        )

    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def loop_linearize(geom, masses, op) -> LinearModel:
    """linearize at one OperatingPoint, per point: the closed-form A and B
    the library's stacked body must reproduce byte for byte."""
    theta, w = op.theta, op.rates
    wl = w.tolist()
    _, t2, t3, t4 = theta.tolist()
    kernel = _kernel(_mass_forms(geom, masses), t2, t3, t4, *wl, *op.torque.tolist(), full=True)
    acc = np.array(kernel[17:])
    inverse = 1.0 / np.array(kernel[:4])
    jac = np.zeros((4, 4))
    jac[:3, 1:] = kernel[8:11], kernel[11:14], kernel[14:17]
    n, alpha, nn = _cosine_terms(geom, masses)
    hess = -((alpha.T * np.cos(n @ theta)) @ nn).reshape(5, 4, 4)

    with np.errstate(over="ignore", invalid="ignore"):  # A is checked below
        dnum = (np.array([0.5 * v * v for v in wl] + [-1.0]) @ hess.reshape(5, 16)).reshape(4, 4)
        dnum -= w[:, None] * (w @ hess[:4])
        A = np.zeros((8, 8))
        A[0:4, 4:8] = np.eye(4)
        A[4:8, 1:4] = (dnum[:, 1:4] - acc[:, None] * jac[:, 1:4]) * inverse[:, None]
        if any(wl):
            rate = jac.T * w - w[:, None] * jac
            rate.flat[::5] -= jac @ w
            A[4:8, 4:8] = rate * inverse[:, None]
    if not np.isfinite(A).all():
        raise Diverged(f"linear model not finite at rates {wl} and torque {op.torque.tolist()}")

    B = np.zeros((8, 4))
    B[4:8].flat[::5] = inverse
    return LinearModel(A, B)


def segment_route_energies(geom, masses, theta):
    """(I1, I2, I3, I4, PE) at theta, summed over the rods and point masses
    placed by fk_planar.  I_k is the moment of everything distal to joint
    k's pivot (P1 for I1 and I2, P2 for I3, P3 for I4), I1 on the radial
    coordinates alone; PE puts each point mass at its height and each rod
    at the mean of its endpoint heights."""
    p = fk_planar(geom, theta[1], theta[2], theta[3])
    rods = ((p[0], p[1], masses.M1), (p[1], p[2], masses.M2), (p[2], p[3], masses.M3))
    points = ((p[1], masses.m2), (p[2], masses.m3), (p[3], masses.m4))

    def moment(first, pivot, radial=False):
        def rel(a):
            return (a.x - pivot.x, 0.0 if radial else a.y - pivot.y)

        return (sum(segment_inertia(rel(a), rel(b), m) for a, b, m in rods[first:])
                + sum(point_inertia(rel(a), m) for a, m in points[first:]))

    inertias = (moment(0, p[0], radial=True), moment(0, p[0]), moment(1, p[1]),
                moment(2, p[2]))
    pe = masses.g * (sum(m * a.y for a, m in points)
                     + sum(m * (a.y + b.y) / 2.0 for a, b, m in rods))
    return (*inertias, pe)


def lagrangian_accelerations(geom, masses, theta, rates, torque, h=1e-4):
    """Solve the Euler-Lagrange equations using only finite differences of
    the scalar Lagrangian L(q, w) = KE - PE.

    Expanding d/dt (dL/dw_i) by the chain rule gives

        sum_j d2L/dw_i dw_j * acc_j + sum_j d2L/dw_i dq_j * w_j - dL/dq_i = tau_i

    so the accelerations come from one 4x4 linear solve.  All first and
    second partials are central difference quotients with step h.
    """
    q = np.asarray(theta, dtype=float)
    w = np.asarray(rates, dtype=float)
    tau = np.asarray(torque, dtype=float)

    def lag(qv, wv):
        return kinetic_energy(geom, masses, qv, wv) - potential_energy(geom, masses, qv)

    n = 4
    mass = np.empty((n, n))
    mixed = np.empty((n, n))
    dLdq = np.empty(n)
    eye = np.eye(n) * h
    for i in range(n):
        dLdq[i] = (lag(q + eye[i], w) - lag(q - eye[i], w)) / (2.0 * h)
        for j in range(n):
            mass[i, j] = (
                lag(q, w + eye[i] + eye[j])
                - lag(q, w + eye[i] - eye[j])
                - lag(q, w - eye[i] + eye[j])
                + lag(q, w - eye[i] - eye[j])
            ) / (4.0 * h * h)
            mixed[i, j] = (
                lag(q + eye[j], w + eye[i])
                - lag(q + eye[j], w - eye[i])
                - lag(q - eye[j], w + eye[i])
                + lag(q - eye[j], w - eye[i])
            ) / (4.0 * h * h)
    return np.linalg.solve(mass, tau + dLdq - mixed @ w)


def fd_jacobian(f, x, h=1e-5):
    """Plain central-difference Jacobian with a fixed step, deliberately
    different from the library's adaptive-step rule."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((np.asarray(f(xp), float) - np.asarray(f(xm), float)) / (2.0 * h))
    return np.stack(cols, axis=1)


def five_point_jacobian(f, x, h=1e-3):
    """High-order central-difference Jacobian with fixed steps: the
    five-point stencil (f(x - 2h) - 8 f(x - h) + 8 f(x + h) - f(x + 2h)) / 12h
    at steps h and h/2, Richardson-combined as (16 D(h/2) - D(h)) / 15.
    The result is sixth-order in h, so with h = 1e-3 rounding (about 1e-12
    relative), not the step, sets its error; a plain five-point stencil
    there is off by ~1e-9 where a joint inertia is small."""
    x = np.asarray(x, dtype=float)

    def stencil(j, step):
        def at(k):
            y = x.copy()
            y[j] += k * step
            return np.asarray(f(y), float)

        return (at(-2) - 8.0 * at(-1) + 8.0 * at(1) - at(2)) / (12.0 * step)

    return np.stack(
        [(16.0 * stencil(j, h / 2) - stencil(j, h)) / 15.0 for j in range(x.size)], axis=1
    )


def reference_multilinear(grid, entries, theta):
    """Multilinear interpolation over the 2^4 nodes around theta, from the
    4-D node array of a flat table (entries[i1, i2, i3, i4] a 4x8 gain)."""
    gain = np.zeros(entries.shape[4:])
    cells = []
    for k in range(4):
        axis = grid.axis(k)
        i = min(int(np.searchsorted(axis, theta[k], side="right")) - 1, axis.size - 2)
        cells.append((i, (theta[k] - axis[i]) / (axis[i + 1] - axis[i])))
    for bits in np.ndindex(2, 2, 2, 2):
        weight = 1.0
        for (i, t), b in zip(cells, bits):
            weight *= t if b else 1.0 - t
        gain += weight * entries[tuple(i + b for (i, _), b in zip(cells, bits))]
    return gain


def _fraction(v: float, lo: float, hi: float) -> float:
    """Where v lies in [lo, hi], from 0 to 1; a cell of width 0 has fraction 0."""
    width = hi - lo
    return (v - lo) / width if width else 0.0


def reference_blend(rows: np.ndarray, fractions) -> np.ndarray:
    """Trilinear blend of a planar cell's corner rows (8, 32) at its three
    fractions: 8 weights in corner order (row 4*b2 + 2*b3 + b4 at the upper
    end of axis k where b_k is set), then one np.dot."""
    t2, t3, t4 = fractions
    s2, s3, s4 = 1.0 - t2, 1.0 - t3, 1.0 - t4
    a, b, c, d = s2 * s3, s2 * t3, t2 * s3, t2 * t3
    w = [a * s4, a * t4, b * s4, b * t4, c * s4, c * t4, d * s4, d * t4]
    return np.dot(w, rows).reshape(4, 8)


def _cell_coordinate(axis, v: float):
    """(index, fraction) of the cell owning v, which lies within the axis
    (a sorted list of floats).  Cells are half-open [axis[i], axis[i+1]) with
    the last cell closed, so a node belongs to the cell above it."""
    i = min(bisect.bisect_right(axis, v), len(axis) - 1) - 1
    return i, _fraction(v, axis[i], axis[i + 1])


@functools.lru_cache(maxsize=8)
def _leaf_indices(tree: bytes) -> list:
    """Each leaf's 8 pool indices, in pre-order, one struct read per leaf: a
    valid tree stores its cells in pre-order, so its leaves come in byte
    order."""
    corners, pos = [], 0
    while pos < len(tree):
        if tree[pos]:
            corners.append(list(struct.unpack_from("<8I", tree, pos + 1)))
            pos += 33
        else:
            pos += 1
    return corners


def reference_lookup(table, theta) -> np.ndarray:
    """lookup(table, theta) as one wrap_angle per angle outside the box (an
    angle in it is read as given), one bounds test per angle, and the cell's
    corner rows gathered by a list of ints."""
    lo, hi = table.lo, table.hi
    th = [v if lo[k] <= v <= hi[k] else wrap_angle(v)
          for k, v in enumerate(components(theta, 4, "theta"))]
    for k in range(4):
        if not lo[k] <= th[k] <= hi[k]:
            raise OutOfBounds(f"angle {th[k]!r} outside table dimension {k} "
                              f"[{lo[k]}, {hi[k]}]")
    if isinstance(table, GainTable):
        axes = [table.grid.axis(k).tolist() for k in (1, 2, 3)]
        (i2, f2), (i3, f3), (i4, f4) = map(_cell_coordinate, axes, th[1:])
        _, _, n3, n4 = table.grid.counts
        base = (i2 * n3 + i3) * n4 + i4
        corners = [base + (b2 * n3 + b3) * n4 + b4
                   for b2, b3, b4 in itertools.product((0, 1), repeat=3)]
        fractions, rows = (f2, f3, f4), table.gains.reshape(-1, 32)
    else:
        t2, t3, t4 = th[1:]
        child, boxes, cell = table.child, table._boxes, 0
        while child[cell] > 0:
            (l2, l3, l4), (h2, h3, h4) = boxes[cell]
            cell = (child[cell] + 4 * (t2 >= 0.5 * (l2 + h2)) + 2 * (t3 >= 0.5 * (l3 + h3))
                    + (t4 >= 0.5 * (l4 + h4)))
        (l2, l3, l4), (h2, h3, h4) = boxes[cell]
        fractions = (_fraction(t2, l2, h2), _fraction(t3, l3, h3), _fraction(t4, l4, h4))
        corners = _leaf_indices(table.tree)[~child[cell]]
        rows = table.pool.reshape(-1, 32)
    return reference_blend(rows.take(corners, axis=0), fractions)


def _kernel_torque_gains(geom, masses, weights, thetas):
    """The gains of the equilibrium nodes thetas (k, 4), each linearized by
    `loop_linearize` at zero rates and its torque (0, dPE/dtheta2..4) read
    from the kernel, then solved as one stack; every node must solve."""
    forms = _mass_forms(geom, masses)
    models = [loop_linearize(geom, masses, OperatingPoint(
        theta, np.zeros(4), (0.0, *_kernel(forms, *theta[1:])[5:8]))) for theta in thetas.tolist()]
    A, B = np.array([model.A for model in models]), np.array([model.B for model in models])
    return solve_stack(A, B, weights)[1]


def reference_build_failure(geom, masses, weights, grid):
    """The first planar node of grid, in index order, that fails solved
    alone through the online per-point bodies (`linearize` at its
    `equilibrium_point`, then `lqr_gain`), as (node index, its ArmError), or
    None when every node solves.  A node (i2, i3, i4) sits at theta1 =
    grid.lo[0], index (0, i2, i3, i4), as precompute solves it."""
    axes = [grid.axis(k) for k in (1, 2, 3)]
    for ix in np.ndindex(grid.shape[1:]):
        theta = [grid.lo[0]] + [axis[i] for axis, i in zip(axes, ix)]
        try:
            model = linearize(geom, masses, equilibrium_point(geom, masses, theta))
            lqr_gain(model.A, model.B, weights)
        except ArmError as exc:
            return (0,) + ix, exc
    return None


def reference_split(lo, hi):
    """The half-size children (lo, hi) of a box, in corner order, as a
    product over each axis's (low, high) pair of the two half-boxes."""
    mids = tuple(0.5 * (l + h) for l, h in zip(lo, hi))
    return list(zip(_corner_coords(lo, mids), _corner_coords(mids, hi)))


def reference_tree_walk(lo, hi, max_depth: int, n_pool: int, tree: bytes):
    """RefinedTable's checks of a tree and what it derives from one, read
    by a stack of (cell, depth) tuples: returns (child, boxes, cells,
    corners) for the root box lo..hi, or raises the first fault.  A leaf's
    corner indices are gathered after the walk, also after a walk error,
    and an index outside the pool raises first."""
    if max_depth < 1:
        raise TreeTooDeep(f"cell at depth 1 exceeds max_depth {max_depth}")
    child, boxes, cells, offsets = [0], [(tuple(lo[1:]), tuple(hi[1:]))], [], []
    pos, pending = 0, [(0, 1)]
    try:
        while pending:
            left = len(tree) - pos
            if left < len(pending) * _MIN_CELL_BYTES:
                raise TruncatedData(f"{len(pending)} cells pending at tree offset {pos}, "
                                    f"only {left} bytes left")
            cell, depth = pending.pop()
            if depth > max_depth:
                raise TreeTooDeep(f"cell at depth {depth} exceeds max_depth {max_depth}")
            tag = tree[pos]
            if tag == 0:
                first = child[cell] = len(child)
                child += [0] * 8
                boxes += reference_split(*boxes[cell])
                pending.extend((first + octant, depth + 1) for octant in range(7, -1, -1))
                pos += 1
            elif tag in (1, 2):
                child[cell] = ~len(cells)
                cells.append((cell, depth, tag == 2))
                offsets.append(pos + 1)
                pos += _MIN_CELL_BYTES
            else:
                raise TruncatedData(f"unknown cell tag {tag} at tree offset {pos}")
        if pos != len(tree):
            raise TruncatedData(f"{len(tree) - pos} trailing bytes after the tree")
    finally:
        corners = [list(struct.unpack_from("<8I", tree, at)) for at in offsets]
        for at, indices in zip(offsets, corners):
            if max(indices) >= n_pool:
                raise TableFormatError(f"corner index {max(indices)} at tree offset {at} "
                                       f"outside a pool of {n_pool}")
    return tuple(child), boxes, cells, np.array(corners, np.intp).reshape(-1, 8)


def reference_refine(geom, masses, weights, root_box, tol, max_depth) -> RefinedTable:
    """refine() on valid arguments, level by level: each depth keeps its
    cells' corner points, the index of each cell's first child among the
    next depth's cells (None for a leaf) and its flag; the pre-order layout
    then follows (depth, position) cursors through those lists."""
    box = components(root_box, 8, "root_box")
    lo, hi = tuple(box[:4]), tuple(box[4:])
    cache = {}  # planar point -> its gain

    def solve(points):
        new = [p for p in dict.fromkeys(points) if p not in cache]
        for s in range(0, len(new), 64):
            batch = new[s:s + 64]
            coords = np.array([(lo[0],) + p for p in batch])
            cache.update(zip(batch, _kernel_torque_gains(geom, masses, weights, coords)))

    levels = []
    boxes = [(lo[1:], hi[1:])]
    for depth in range(1, max_depth + 1):
        corners = [_corner_coords(clo, chi) for clo, chi in boxes]
        centers = [] if np.isinf(tol) else [
            tuple(0.5 * (l + h) for l, h in zip(clo, chi)) for clo, chi in boxes]
        solve(itertools.chain(*corners, centers))
        errors = np.linalg.norm([
            reference_blend(np.array([cache[p] for p in points]).reshape(8, 32), (0.5, 0.5, 0.5))
            - cache[center] for points, center in zip(corners, centers)
        ], 2, axis=(1, 2)).tolist() if centers else [0.0] * len(boxes)
        firsts, flagged, children = [], [], []
        for cell, err in zip(boxes, errors):
            split = not err <= tol and depth < max_depth
            firsts.append(len(children) if split else None)
            flagged.append(not err <= tol)
            if split:
                children.extend(reference_split(*cell))
        levels.append((corners, firsts, flagged))
        boxes = children
        if not boxes:
            break

    tree = bytearray()
    pool = {}  # planar corner -> pool index, in order of first use
    pending = [(0, 0)]  # (depth index, position at that depth), next one last
    while pending:
        d, j = pending.pop()
        corners, firsts, flagged = levels[d]
        if firsts[j] is None:
            tree.append(2 if flagged[j] else 1)
            tree += struct.pack("<8I", *(pool.setdefault(p, len(pool)) for p in corners[j]))
        else:
            tree.append(0)
            pending.extend((d + 1, firsts[j] + octant) for octant in range(7, -1, -1))
    return RefinedTable(lo, hi, table_digest(geom, masses, weights), tol, max_depth,
                        np.array([cache[p] for p in pool]), bytes(tree))


def _reference_check_system(A, B, weights):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"A must be square, got {A.shape}")
    if B.shape[0] != n:
        raise ValueError(f"B must have {n} rows, got {B.shape}")
    if weights.Q.shape != (n, n):
        raise ValueError(f"Q must be {n}x{n}, got {weights.Q.shape}")
    m = B.shape[1]
    if weights.R.shape != (m, m):
        raise ValueError(f"R must be {m}x{m}, got {weights.R.shape}")
    return A, B


def reference_care(A, B, weights):
    """(P, K): the stabilizing CARE solution and its gain R^-1 B' P, from
    the ordered Schur form of the Hamiltonian through scipy.linalg.schur."""
    A, B = _reference_check_system(A, B, weights)
    n = A.shape[0]
    # finiteness is checked here, on B and on H, in place of scipy's checks
    if not np.isfinite(B).all():
        raise ValueError("B must be finite")
    r_chol = scipy.linalg.cho_factor(weights.R)
    with np.errstate(over="ignore"):  # an overflow fails the check on H below
        G = B @ scipy.linalg.cho_solve(r_chol, B.T, check_finite=False)

    H = np.block([[A, -G], [-weights.Q, -A.T]])
    if not np.isfinite(H).all():
        raise ValueError("A must be finite, and B R^-1 B' must not overflow")
    _, Z, sdim = scipy.linalg.schur(H, output="real", sort="lhp", check_finite=False)
    if sdim != n:
        raise NotStabilizable(
            f"stable invariant subspace has dimension {sdim}, expected {n}"
        )
    Z11 = Z[:n, :n]
    Z21 = Z[n:, :n]
    try:
        P = np.linalg.solve(Z11.T, Z21.T).T
    except np.linalg.LinAlgError as exc:
        raise NotStabilizable(f"singular subspace basis: {exc}") from exc

    scale = max(1.0, float(np.abs(P).max()))
    if float(np.abs(P - P.T).max()) > 1e-10 * scale:
        raise IllConditioned("Riccati solution lost symmetry")
    P = 0.5 * (P + P.T)

    eigs = np.linalg.eigvalsh(P)
    if eigs.min() < -1e-8 * max(1.0, eigs.max()):
        raise NotStabilizable(f"Riccati solution not PSD (min eig {eigs.min()})")

    residual = A.T @ P + P @ A - P @ G @ P + weights.Q
    limit = RESIDUAL_RTOL * max(1.0, float(np.linalg.norm(weights.Q)))
    if float(np.linalg.norm(residual)) > limit:
        raise IllConditioned(
            f"CARE residual {np.linalg.norm(residual):.3e} exceeds {limit:.3e}"
        )

    K = scipy.linalg.cho_solve(r_chol, B.T @ P)
    closed = np.linalg.eigvals(A - B @ K)
    if closed.real.max() >= 0.0:
        raise NotStabilizable(
            f"closed loop not Hurwitz (max Re eig {closed.real.max():.3e})"
        )
    return P, K
