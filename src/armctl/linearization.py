"""Exact, closed-form linearization of the arm dynamics about an operating
point.

State is x = [theta, rates] (8-vector), input is the joint torque (4-vector).
With the decoupled kinetic energy each acceleration is a quotient

    acc_i = N_i / I_i,   N_i = 1/2 sum_k dI_k/dtheta_i w_k^2 - dPE/dtheta_i
                               - w_i sum_j dI_i/dtheta_j w_j + tau_i,

so A is assembled from one configuration evaluation: the inertias I, their
gradient J[i][j] = dI_i/dtheta_j and the accelerations come from the same
`dynamics._kernel` call and `dynamics._solve` that forward_dynamics uses,
and the Hessians of I1..I4 and PE from `dynamics._hessians`.  No dynamics
call is differenced.

A keeps its exact block structure (zero / identity top blocks).  The theta1
column is +0.0: the dynamics never read the yaw angle.  At zero rates the
four rate columns are exactly zero too (every velocity term is quadratic in
the rates), so they are only filled away from zero rates.  B is exact:
torque enters additively as tau_k / I_k(theta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import MassModel, _hessians, _kernel, _mass_forms, _solve, equilibrium_torque
from .errors import Diverged, vector
from .kinematics import ArmGeometry

# the upper half of every A: d theta/dt = rates
_A_TOP = np.zeros((8, 8))
_A_TOP[0:4, 4:8] = np.eye(4)
_A_TOP.flags.writeable = False


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


def linearize(geom: ArmGeometry, masses: MassModel, op: OperatingPoint) -> LinearModel:
    """A = d[rates, acc]/d[theta, rates] and B = d[rates, acc]/d tau at op,
    in closed form (see the module docstring).

    With N_i the numerator above and H_k the Hessian of I_k (k = 1..4) or
    of PE, the lower blocks are
        dacc_i/dtheta_l = (1/2 sum_k H_k[i][l] w_k^2 - H_PE[i][l]
                           - w_i sum_j H_i[j][l] w_j - acc_i J[i][l]) / I_i,
        dacc_i/dw_m = (J[m][i] w_m - [i == m] sum_j J[i][j] w_j
                       - w_i J[i][m]) / I_i,
    and B's lower block is diag(1/I).  Raises DegenerateInertia where
    forward_dynamics would, and Diverged where A overflows to inf or nan.
    """
    theta, w = op.theta, op.rates
    wl = w.tolist()
    _, t2, t3, t4 = theta.tolist()
    kernel = _kernel(_mass_forms(geom, masses), t2, t3, t4)
    acc = np.array(_solve(kernel, t2, t3, t4, *wl, *op.torque.tolist()))
    inverse = 1.0 / np.array(kernel[:4])
    jac = np.zeros((4, 4))
    jac[:3, 1:] = kernel[8:11], kernel[11:14], kernel[14:]
    hess = _hessians(geom, masses, theta)

    with np.errstate(over="ignore", invalid="ignore"):  # A is checked below
        # dN_i/dtheta_l, then the quotient rule
        dnum = (np.array([0.5 * v * v for v in wl] + [-1.0]) @ hess.reshape(5, 16)).reshape(4, 4)
        dnum -= w[:, None] * (w @ hess[:4])
        A = _A_TOP.copy()
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
