"""Forward and inverse kinematics for the four-axis arm.

The arm is a yaw base (theta1, about the vertical axis) carrying three
revolute joints that move in a single vertical plane.  Planar angles are
measured from vertical, so theta2 = theta3 = theta4 = 0 points the arm
straight up; positive angles tilt the links outward along the plane's
radial direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularYaw, Unreachable, components, scalar, vector

TWO_PI = 2.0 * math.pi

# the law-of-cosines argument may exceed 1 by a few ulp for targets that sit
# exactly on the workspace boundary; clamp within this slack, reject beyond
_COS_SLACK = 1e-12


def wrap_angle(angle: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    a = float(angle)
    if -math.pi < a <= math.pi:
        return a
    return math.pi - (math.pi - a) % TWO_PI


@dataclass(frozen=True)
class ArmGeometry:
    """Link lengths in meters."""

    L1: float
    L2: float
    L3: float

    def __post_init__(self):
        for name in ("L1", "L2", "L3"):
            v = scalar(getattr(self, name), name)
            if not v > 0.0:
                raise ValueError(f"{name} must be a positive finite length, got {v!r}")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class JointAngles:
    """Joint angles in radians, wrapped into (-pi, pi] on construction.

    theta1 is the base yaw; theta2..theta4 are the planar joint angles
    measured from vertical.
    """

    theta1: float
    theta2: float
    theta3: float
    theta4: float

    def __post_init__(self):
        for name in ("theta1", "theta2", "theta3", "theta4"):
            object.__setattr__(self, name, wrap_angle(scalar(getattr(self, name), name)))

    @classmethod
    def from_array(cls, values) -> "JointAngles":
        return cls(*components(values, 4, "values"))

    def as_array(self) -> np.ndarray:
        return np.array([self.theta1, self.theta2, self.theta3, self.theta4])

    def __len__(self):
        return 4

    def __getitem__(self, index):
        return (self.theta1, self.theta2, self.theta3, self.theta4)[index]

    def __iter__(self):
        yield self.theta1
        yield self.theta2
        yield self.theta3
        yield self.theta4


class PlanarPoint(NamedTuple):
    """Point in the joint plane: x is the radial coordinate, y the height."""

    x: float
    y: float


class SpatialPoint(NamedTuple):
    """Point in the world frame, z vertical."""

    x: float
    y: float
    z: float


def planar_chain(theta2: float, theta3: float, theta4: float):
    """Sines and cosines of the cumulative angles a2..a4 from vertical:
    (u2, v2, u3, v3, u4, v4) with u = sin a, v = cos a.  Link k runs along
    (sin a_k, cos a_k), so the zero pose stacks the links straight up."""
    a2 = theta2
    a3 = a2 + theta3
    a4 = a3 + theta4
    return (math.sin(a2), math.cos(a2), math.sin(a3), math.cos(a3),
            math.sin(a4), math.cos(a4))


def fk_planar(
    geom: ArmGeometry, theta2: float, theta3: float, theta4: float
) -> tuple[PlanarPoint, PlanarPoint, PlanarPoint, PlanarPoint]:
    """Joint positions P1..P4 in the joint plane: P1 is the origin and each
    link adds L (sin a, cos a) at its cumulative angle a (see planar_chain)."""
    angles = map(scalar, (theta2, theta3, theta4), ("theta2", "theta3", "theta4"))
    u2, v2, u3, v3, u4, v4 = planar_chain(*angles)
    x2, y2 = geom.L1 * u2, geom.L1 * v2
    x3, y3 = x2 + geom.L2 * u3, y2 + geom.L2 * v3
    x4, y4 = x3 + geom.L3 * u4, y3 + geom.L3 * v4
    return (
        PlanarPoint(0.0, 0.0),
        PlanarPoint(x2, y2),
        PlanarPoint(x3, y3),
        PlanarPoint(x4, y4),
    )


def fk_spatial(
    geom: ArmGeometry, angles: JointAngles
) -> tuple[SpatialPoint, SpatialPoint, SpatialPoint, SpatialPoint]:
    """World-frame joint positions: the joint plane lifted by the base yaw,
    (x, y) = (p.x sin theta1, p.x cos theta1), z = p.y."""
    planar = fk_planar(geom, angles.theta2, angles.theta3, angles.theta4)
    s1 = math.sin(angles.theta1)
    c1 = math.cos(angles.theta1)
    return tuple(SpatialPoint(p.x * s1, p.x * c1, p.y) for p in planar)


def ik(geom: ArmGeometry, target, pitch: float = 0.0) -> JointAngles:
    """Closed-form inverse kinematics for a world-frame end-effector target.

    `pitch` is the tool pitch: the angle of the last link from vertical in
    the joint plane, i.e. theta2 + theta3 + theta4.  The default 0 keeps the
    end link vertical.  The elbow-down branch (theta3 <= 0) is returned.

    Raises Unreachable when the wrist point violates the two-link law of
    cosines, and SingularYaw when the target is on the vertical axis while
    the wrist offset has a radial component (the yaw would be arbitrary).
    """
    x, y, z = vector(target, 3, "target")
    phi = scalar(pitch, "pitch")
    r = math.hypot(x, y)

    if r == 0.0:
        # on-axis target: yaw is a free parameter; take 0 when the wrist is
        # also on-axis, refuse when the tool offset would leave the axis
        if abs(geom.L3 * math.sin(phi)) > 1e-12:
            raise SingularYaw(
                f"target on the vertical axis with radial wrist offset (pitch={phi!r})"
            )
        theta1 = 0.0
    else:
        theta1 = math.atan2(x, y)

    # wrist point in the joint plane: pull back by the tool link
    wx = r - geom.L3 * math.sin(phi)
    wy = z - geom.L3 * math.cos(phi)

    c3 = (wx * wx + wy * wy - geom.L1**2 - geom.L2**2) / (2.0 * geom.L1 * geom.L2)
    if abs(c3) > 1.0 + _COS_SLACK:
        raise Unreachable(
            f"target ({x}, {y}, {z}) with pitch {phi} is outside the workspace "
            f"(cosine-law argument {c3})"
        )
    c3 = min(1.0, max(-1.0, c3))
    theta3 = -math.acos(c3)
    theta2 = math.atan2(wx, wy) - math.atan2(
        geom.L2 * math.sin(theta3), geom.L1 + geom.L2 * math.cos(theta3)
    )
    theta4 = phi - theta2 - theta3
    return JointAngles(theta1, theta2, theta3, theta4)
