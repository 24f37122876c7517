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

One body, `linearize_stack`, serves a stack of points: one kernel call per
point, then the Hessians, A and B over the stack, each product in its
per-point shape so that a point's bytes never depend on its stack (one
(k, 4) @ (4, T) product for the angles n . theta rounds them otherwise).
`linearize` and each chunk of a table build are such stacks.  A stack with
a failing point raises that point's error; which node of a table build
fails first is `gain_table._solve_nodes`' to find.

A keeps its exact block structure (zero / identity top blocks).  The theta1
column is +0.0: the dynamics never read the yaw angle.  At zero rates the
rate columns are exactly zero (every velocity term is quadratic in the
rates), so they are only filled at moving points.  B is exact: torque
enters additively as tau_k / I_k(theta).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dynamics import MassModel, _hessians, _kernel, _mass_forms, equilibrium_torque
from .errors import Diverged, vector
from .kinematics import ArmGeometry

# the identity blocks of every A (d theta/dt = rates) and of every B's lower half
_A_TOP, _B_LOW = np.eye(8, 8, 4), np.eye(8, 4, -4)


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


def linearize_stack(geom: ArmGeometry, masses: MassModel, theta, rates, torque=None):
    """Linearize k points given as unchecked float arrays (k, 4) in one
    pass; torque None stands for each point's equilibrium torque
    (0.0, P2, P3, P4), read from the kernel evaluated there, the bytes
    `equilibrium_torque` returns.  Returns (A, B), A (k, 8, 8) and
    B (k, 8, 4).  Raises DegenerateInertia where forward_dynamics raises
    it, at the first such point, or else Diverged for the first point whose
    A overflows; each is the error `linearize` raises for that point alone.

    With N_i the numerator above and H_k the Hessian of I_k (k = 1..4) or
    of PE, the lower blocks are
        dacc_i/dtheta_l = (1/2 sum_k H_k[i][l] w_k^2 - H_PE[i][l]
                           - w_i sum_j H_i[j][l] w_j - acc_i J[i][l]) / I_i,
        dacc_i/dw_m = (J[m][i] w_m - [i == m] sum_j J[i][j] w_j
                       - w_i J[i][m]) / I_i,
    and B's lower block is diag(1/I).
    """
    forms = _mass_forms(geom, masses)
    # a row per point: 1/I, J (4x4), acc and the Hessian weights in dN/dtheta
    rows, resting, taus = [], [], []
    torque = itertools.repeat((None,) * 4) if torque is None else torque.tolist()
    for i, ((_, t2, t3, t4), (w1, w2, w3, w4), tau) in enumerate(zip(
            theta.tolist(), rates.tolist(), torque)):
        (i1, i2, i3, i4, _, p2, p3, p4, j12, j13, j14, j22, j23, j24, j32, j33, j34,
         a1, a2, a3, a4) = _kernel(forms, t2, t3, t4, w1, w2, w3, w4, *tau, full=True)
        taus.append([0.0, p2, p3, p4] if tau[0] is None else tau)
        rows.append((1.0 / i1, 1.0 / i2, 1.0 / i3, 1.0 / i4, 0.0, j12, j13, j14, 0.0, j22,
                     j23, j24, 0.0, j32, j33, j34, 0.0, 0.0, 0.0, 0.0, a1, a2, a3, a4,
                     0.5 * w1 * w1, 0.5 * w2 * w2, 0.5 * w3 * w3, 0.5 * w4 * w4, -1.0))
        if not (w1 or w2 or w3 or w4):
            resting.append(i)
    k = len(rows)
    rows = np.array(rows).reshape(k, 29)
    inverse, jac = rows[:, :4, None], rows[:, 4:20].reshape(k, 4, 4)
    hess = _hessians(geom, masses, theta)
    w = rates[:, :, None]

    A = _A_TOP[None].repeat(k, 0)
    with np.errstate(over="ignore", invalid="ignore"):  # A is checked below
        # dN_i/dtheta_l, then the quotient rule
        dnum = (rows[:, None, 24:] @ hess.reshape(k, 5, 16)).reshape(k, 4, 4)
        dnum -= w * (rates[:, None, None] @ hess[:, :4]).reshape(k, 4, 4)
        dnum -= rows[:, 20:24, None] * jac
        np.multiply(dnum[:, :, 1:], inverse, out=A[:, 4:, 1:4])
        if len(resting) < k:  # the rate block; resting points keep +0.0 there
            # J[m][i] w_m is (w J)[m][i]; C order makes rate's diagonal a view
            wjac = w * jac
            rate = np.subtract(wjac.transpose(0, 2, 1), wjac, order="C")
            rate.reshape(-1, 16)[:, ::5] -= (jac @ w)[:, :, 0]
            np.multiply(rate, inverse, out=A[:, 4:, 4:])
            if resting:
                A[resting, 4:, 4:] = 0.0
    finite = np.isfinite(A).all(axis=(1, 2)).tolist()
    if False in finite:
        i = finite.index(False)
        raise Diverged(f"linear model not finite at rates {rates[i].tolist()} "
                       f"and torque {taus[i]}")
    return A, _B_LOW * rows[:, None, :4]  # 1/I > 0, so B's zeros are +0.0


def linearize(geom: ArmGeometry, masses: MassModel, op: OperatingPoint) -> LinearModel:
    """A = d[rates, acc]/d[theta, rates] and B = d[rates, acc]/d tau at op,
    in closed form: a stack of one."""
    A, B = linearize_stack(geom, masses, op.theta[None], op.rates[None], op.torque[None])
    return LinearModel(A[0], B[0])
