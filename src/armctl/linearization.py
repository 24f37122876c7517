"""Jacobian linearization of the arm dynamics about an operating point.

State is x = [theta, rates] (8-vector), input is the joint torque (4-vector).
The A matrix keeps its exact block structure (zero / identity top blocks);
the acceleration blocks are differentiated numerically.  B is exact: torque
enters the dynamics additively as tau_k / I_k(theta).

Only the acceleration columns that can be non-zero are differenced.  The
theta1 column is always exactly zero: the dynamics never read the yaw angle,
so both perturbed evaluations are the same bit for bit.  At zero rates the
four rate columns are exactly zero too: the velocity terms are quadratic in
the rates, so perturbing a rate by +h and by -h gives the same
accelerations.  An equilibrium point (every gain-table node) therefore costs
6 dynamics evaluations (theta2..theta4) instead of 16, and a point with
non-zero rates (the online controller) 14; the skipped columns hold the
zeros a full difference would have produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numdiff
from .dynamics import (
    EPS_INERTIA,
    MassModel,
    equilibrium_torque,
    forward_dynamics,
    joint_inertias,
)
from .errors import DegenerateInertia
from .kinematics import ArmGeometry


# state columns whose acceleration partials can be non-zero: theta2..theta4
# always, the rates only away from zero rates (theta1 is never read)
_ANGLE_COLS = (1, 2, 3)
_RATE_COLS = (4, 5, 6, 7)


def _vec4(values, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.size != 4:
        raise ValueError(f"{name} must have 4 components, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite, got {v!r}")
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class OperatingPoint:
    """A (theta, rates, torque) triple the dynamics are linearized at."""

    theta: np.ndarray
    rates: np.ndarray
    torque: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _vec4(self.theta, "theta"))
        object.__setattr__(self, "rates", _vec4(self.rates, "rates"))
        object.__setattr__(self, "torque", _vec4(self.torque, "torque"))

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
    theta = _vec4(theta_ref, "theta_ref")
    tau = equilibrium_torque(geom, masses, theta)
    return OperatingPoint(theta, np.zeros(4), tau)


def linearize(geom: ArmGeometry, masses: MassModel, op: OperatingPoint) -> LinearModel:
    """A = d[rates, acc]/d[theta, rates] and B = d[rates, acc]/d tau at op.

    Acceleration blocks of A use central differences with the shared step
    rule (1e-6 * max(1, |coordinate|)), over theta2..theta4 and, unless
    op.rates are all zero, the four rates; the theta1 column, and the rate
    columns at zero rates, are exactly zero (see the module docstring).
    B's lower block is diag(1/I_k), which is exact for this model.
    """
    inertia = joint_inertias(geom, masses, op.theta)
    if np.min(inertia) <= EPS_INERTIA:
        raise DegenerateInertia(
            f"inertia {inertia!r} degenerate at theta={op.theta!r}"
        )

    def acc(x):
        return forward_dynamics(geom, masses, x[:4], x[4:], op.torque)

    A = np.zeros((8, 8))
    A[0:4, 4:8] = np.eye(4)
    cols = _ANGLE_COLS + _RATE_COLS if np.any(op.rates) else _ANGLE_COLS
    A[4:8, :] = numdiff.jacobian(acc, op.state(), cols=cols)

    B = np.zeros((8, 4))
    B[4:8, :] = np.diag(1.0 / inertia)
    return LinearModel(A, B)
