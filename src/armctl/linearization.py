"""Exact, closed-form linearization of the arm dynamics about an operating
point.

State is x = [theta, rates] (8-vector), input is the joint torque (4-vector).
With the decoupled kinetic energy each acceleration is a quotient

    acc_i = N_i / I_i,   N_i = 1/2 sum_k dI_k/dtheta_i w_k^2 - dPE/dtheta_i
                               - w_i sum_j dI_i/dtheta_j w_j + tau_i,

so A is assembled from one configuration evaluation: the inertias I, their
gradient J[i][j] = dI_i/dtheta_j and the accelerations come from one
`dynamics._kernel` call, the body forward_dynamics and the simulator use,
and the Hessians of I1..I4 and PE from `dynamics._hessians`.  No dynamics
call is differenced.

Two bodies evaluate these formulas.  `linearize` serves one
`OperatingPoint`, as each online control update does, at any rates and
torque: one kernel call, the Hessians, three numpy products, and every
elementwise operation on floats, each structural-zero term kept.
`linearize_nodes` serves a stack of equilibrium nodes (zero rates,
gravity-holding torque), as each chunk of a table build is.  There every
velocity term and the acceleration vanish, so the linear model is the
textbook one, A = [[0, I], [-H_PE / I, 0]] and B = [0; diag(1/I)]: one
kernel call per node, then the Hessians, A and B over the stack, each
product in its per-node shape so that a node's bytes never depend on its
stack (one (k, 4) @ (4, T) product for the angles n . theta rounds them
otherwise).  At an equilibrium the two bodies give the same bytes, and
both are held to `tests/oracles.loop_linearize` byte for byte.  A stack
with a failing node raises that node's error; which node of a table build
fails first is `gain_table._solve_nodes`' to find.

A keeps its exact block structure (zero / identity top blocks).  The theta1
column is +0.0: the dynamics never read the yaw angle.  At zero rates the
rate columns are exactly zero (every velocity term is quadratic in the
rates), so they are only filled at moving points.  B is exact: torque
enters additively as tau_k / I_k(theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import MassModel, _hessians, _kernel, _mass_forms, equilibrium_torque
from .errors import Diverged, vector
from .kinematics import ArmGeometry

# the identity blocks of every A (d theta/dt = rates) and of every B's lower half
_A_TOP, _B_LOW = np.eye(8, 8, 4), np.eye(8, 4, -4)
_A_TOP_ROWS = _A_TOP[:4].ravel().tolist()  # the top half of A, as `linearize` builds it


@dataclass(frozen=True)
class OperatingPoint:
    """A (theta, rates, torque) triple the dynamics are linearized at, each
    read by `errors.vector` and held as a read-only array of 4 floats."""

    theta: np.ndarray
    rates: np.ndarray
    torque: np.ndarray

    def __post_init__(self):
        names = ("theta", "rates", "torque")
        block = np.array([vector(getattr(self, k), 4, k) for k in names])
        block.flags.writeable = False
        for name, row in zip(names, block):
            object.__setattr__(self, name, row)

    def state(self) -> np.ndarray:
        return np.concatenate([self.theta, self.rates])


@dataclass(frozen=True)
class LinearModel:
    """x' = A x + B u about the operating point (A 8x8, B 8x4)."""

    A: np.ndarray
    B: np.ndarray


def equilibrium_point(
    geom: ArmGeometry, masses: MassModel, theta_ref
) -> OperatingPoint:
    """Zero-rate operating point with the gravity-holding torque, so the
    state derivative vanishes there."""
    theta = vector(theta_ref, 4, "theta_ref")
    return OperatingPoint(theta, np.zeros(4), equilibrium_torque(geom, masses, theta))


def _diverged(rates: list, torque: list) -> Diverged:
    return Diverged(f"linear model not finite at rates {rates} and torque {torque}")


def linearize_nodes(geom: ArmGeometry, masses: MassModel, theta):
    """Linearize k equilibrium nodes, given as an unchecked float array
    theta (k, 4), in one pass: each at zero rates and its equilibrium
    torque.  Returns (A, B), A (k, 8, 8) and B (k, 8, 4), for each node the
    bytes `linearize` returns at its `equilibrium_point`.  Raises
    DegenerateInertia where forward_dynamics raises it, at the first such
    node, or else Diverged for the first node whose A overflows, as that
    node alone gives it through `equilibrium_point` and `linearize`: the
    error of `equilibrium_torque` where its values overflow too (g =
    1e308), otherwise one naming its torque.  A node that is degenerate and
    overflows gives DegenerateInertia here but Diverged there.

    With H_PE the Hessian of PE, the lower blocks are
        dacc_i/dtheta_l = -H_PE[i][l] / I_i,   dacc_i/dw_m = 0,
    and B's lower block is diag(1/I).
    """
    forms = _mass_forms(geom, masses)
    inverse = []
    for _, t2, t3, t4 in theta.tolist():
        i1, i2, i3, i4 = _kernel(forms, t2, t3, t4, 0.0, 0.0, 0.0, 0.0,
                                 0.0, 0.0, 0.0, 0.0, full=True)[:4]
        inverse.append((1.0 / i1, 1.0 / i2, 1.0 / i3, 1.0 / i4))
    k = len(inverse)
    inverse = np.array(inverse).reshape(k, 4, 1)
    A = _A_TOP[None].repeat(k, 0)
    with np.errstate(over="ignore", invalid="ignore"):  # A is checked below
        hess = _hessians(geom, masses, theta)
        np.multiply(-hess[:, 4, :, 1:], inverse, out=A[:, 4:, 1:4])
    finite = np.isfinite(A).all(axis=(1, 2)).tolist()
    if False in finite:
        i = finite.index(False)
        raise _diverged([0.0] * 4, equilibrium_torque(geom, masses, theta[i]).tolist())
    return A, _B_LOW * inverse.reshape(k, 1, 4)  # 1/I > 0, so B's zeros are +0.0


def linearize(geom: ArmGeometry, masses: MassModel, op: OperatingPoint) -> LinearModel:
    """A = d[rates, acc]/d[theta, rates] and B = d[rates, acc]/d tau at op,
    in closed form.  With N_i the numerator above and H_k the Hessian of
    I_k (k = 1..4) or of PE, the lower blocks are
        dacc_i/dtheta_l = (1/2 sum_k H_k[i][l] w_k^2 - H_PE[i][l]
                           - w_i sum_j H_i[j][l] w_j - acc_i J[i][l]) / I_i,
        dacc_i/dw_m = (J[m][i] w_m - [i == m] sum_j J[i][j] w_j
                       - w_i J[i][m]) / I_i,
    and B's lower block is diag(1/I).  Raises DegenerateInertia where
    forward_dynamics raises it, or Diverged when A overflows.

    Its domain is narrower than forward_dynamics': the Hessians evaluate
    cos(n . theta) for integer n with entries up to 2, so at finite angles
    near 1e308 whose n . theta overflows (theta = (0, 1e308, -1e308, 0.3))
    it raises Diverged where forward_dynamics answers.  Forming those
    cosines from `planar_chain` instead would change A's bytes at every
    point."""
    theta, rates = op.theta, op.rates
    (_, t2, t3, t4), (w1, w2, w3, w4), torque = theta.tolist(), rates.tolist(), op.torque.tolist()
    (i1, i2, i3, i4, _, _, _, _, j12, j13, j14, j22, j23, j24, j32, j33, j34,
     a1, a2, a3, a4) = _kernel(_mass_forms(geom, masses), t2, t3, t4, w1, w2, w3, w4, *torque,
                               full=True)
    r1, r2, r3, r4 = inverse = (1.0 / i1, 1.0 / i2, 1.0 / i3, 1.0 / i4)
    rate = (0.0,) * 16  # at rest the rate block is +0.0
    with np.errstate(over="ignore", invalid="ignore"):  # A is checked below
        hess = _hessians(geom, masses, theta[None])[0]
        d = (np.array((0.5 * w1 * w1, 0.5 * w2 * w2, 0.5 * w3 * w3, 0.5 * w4 * w4, -1.0))
             @ hess.reshape(5, 16)).tolist()
        c = (rates @ hess[:4]).ravel().tolist()
        if w1 or w2 or w3 or w4:  # row i: w_m J[m][i] - w_i J[i][m], less (J w)_i at m = i
            jw1, jw2, jw3, jw4 = (np.array((0.0, j12, j13, j14, 0.0, j22, j23, j24, 0.0, j32,
                                            j33, j34, 0.0, 0.0, 0.0, 0.0)).reshape(4, 4)
                                  @ rates).tolist()
            rate = (((w1 * 0.0 - w1 * 0.0) - jw1) * r1, (w2 * 0.0 - w1 * j12) * r1,
                    (w3 * 0.0 - w1 * j13) * r1, (w4 * 0.0 - w1 * j14) * r1,
                    (w1 * j12 - w2 * 0.0) * r2, ((w2 * j22 - w2 * j22) - jw2) * r2,
                    (w3 * j32 - w2 * j23) * r2, (w4 * 0.0 - w2 * j24) * r2,
                    (w1 * j13 - w3 * 0.0) * r3, (w2 * j23 - w3 * j32) * r3,
                    ((w3 * j33 - w3 * j33) - jw3) * r3, (w4 * 0.0 - w3 * j34) * r3,
                    (w1 * j14 - w4 * 0.0) * r4, (w2 * j24 - w4 * 0.0) * r4,
                    (w3 * j34 - w4 * 0.0) * r4, ((w4 * 0.0 - w4 * 0.0) - jw4) * r4)
    # the angle block, dN_i/dtheta_l then the quotient rule; the theta1 column is +0.0
    A = [*_A_TOP_ROWS,
         0.0, ((d[1] - w1 * c[1]) - a1 * j12) * r1, ((d[2] - w1 * c[2]) - a1 * j13) * r1,
         ((d[3] - w1 * c[3]) - a1 * j14) * r1, *rate[:4],
         0.0, ((d[5] - w2 * c[5]) - a2 * j22) * r2, ((d[6] - w2 * c[6]) - a2 * j23) * r2,
         ((d[7] - w2 * c[7]) - a2 * j24) * r2, *rate[4:8],
         0.0, ((d[9] - w3 * c[9]) - a3 * j32) * r3, ((d[10] - w3 * c[10]) - a3 * j33) * r3,
         ((d[11] - w3 * c[11]) - a3 * j34) * r3, *rate[8:12],
         0.0, ((d[13] - w4 * c[13]) - a4 * 0.0) * r4, ((d[14] - w4 * c[14]) - a4 * 0.0) * r4,
         ((d[15] - w4 * c[15]) - a4 * 0.0) * r4, *rate[12:]]
    if not math.isfinite(sum(A)) and not all(map(math.isfinite, A)):
        raise _diverged([w1, w2, w3, w4], torque)
    return LinearModel(np.array(A).reshape(8, 8), _B_LOW * np.array(inverse))
