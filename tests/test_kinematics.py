import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armctl import (
    ArmGeometry,
    JointAngles,
    SingularYaw,
    Unreachable,
    fk_planar,
    fk_spatial,
    ik,
    wrap_angle,
)

UNIT = ArmGeometry(1.0, 1.0, 1.0)

angles_st = st.floats(-math.pi, math.pi, allow_nan=False)
lengths_st = st.floats(0.05, 3.0, allow_nan=False)


class TestWrapAngle:
    def test_identity_in_range(self):
        assert wrap_angle(0.5) == 0.5
        assert wrap_angle(math.pi) == math.pi

    def test_wraps(self):
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2, abs=1e-15)
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-15)

    @given(st.floats(-50.0, 50.0, allow_nan=False))
    def test_range(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        # same direction on the circle
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)


class TestTypes:
    def test_geometry_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ArmGeometry(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ArmGeometry(1.0, -2.0, 1.0)
        with pytest.raises(ValueError):
            ArmGeometry(1.0, 1.0, float("nan"))

    def test_joint_angles_normalized(self):
        a = JointAngles(3 * math.pi / 2, 0.0, 0.0, -math.pi)
        assert a.theta1 == pytest.approx(-math.pi / 2)
        assert a.theta4 == math.pi

    def test_joint_angles_reject_nonfinite(self):
        with pytest.raises(ValueError):
            JointAngles(float("inf"), 0, 0, 0)

    def test_array_round_trip(self):
        a = JointAngles.from_array([0.1, 0.2, 0.3, 0.4])
        assert np.array_equal(a.as_array(), [0.1, 0.2, 0.3, 0.4])
        assert tuple(a) == (0.1, 0.2, 0.3, 0.4)
        assert a[2] == 0.3 and len(a) == 4
        # behaves as a sequence for numpy consumers
        assert np.array_equal(np.asarray(a, dtype=float), a.as_array())

    def test_joint_angles_are_a_wrapping_tuple(self):
        a = JointAngles(0.1, 0.2, 0.3, 0.4)
        assert isinstance(a, tuple) and a == (0.1, 0.2, 0.3, 0.4)
        assert len(a) == 4 and a[1:3] == (0.2, 0.3) and a[-1] == 0.4
        assert repr(a) == "JointAngles(theta1=0.1, theta2=0.2, theta3=0.3, theta4=0.4)"
        assert hash(a) == hash((0.1, 0.2, 0.3, 0.4))
        with pytest.raises(AttributeError):
            a.theta1 = 1.0
        assert a._replace(theta2=4.0) == (0.1, wrap_angle(4.0), 0.3, 0.4)
        assert JointAngles._make([4.0, 0.2, 0.3, 0.4]).theta1 == wrap_angle(4.0)
        with pytest.raises(ValueError, match="^theta3 must be finite"):
            a._replace(theta3=float("nan"))
        for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert type(copied) is JointAngles and copied == a
        # copies and pickles are built through the wrapping constructor
        raw = tuple.__new__(JointAngles, (4.0, 0.2, 0.3, 0.4))
        for copied in (pickle.loads(pickle.dumps(raw)), copy.copy(raw)):
            assert copied == (wrap_angle(4.0), 0.2, 0.3, 0.4)


class TestForwardKinematics:
    def test_all_vertical(self):
        p = fk_planar(UNIT, 0.0, 0.0, 0.0)
        assert p[3] == (0.0, 3.0)

    def test_all_horizontal(self):
        p = fk_planar(UNIT, math.pi / 2, 0.0, 0.0)
        assert p[3].x == pytest.approx(3.0, abs=1e-12)
        assert p[3].y == pytest.approx(0.0, abs=1e-12)

    def test_elbow_bend_chain(self):
        # theta2=pi/2, theta3=-pi/2: out one link then straight up
        p = fk_planar(UNIT, math.pi / 2, -math.pi / 2, 0.0)
        assert p[1] == pytest.approx((1.0, 0.0), abs=1e-12)
        assert p[2] == pytest.approx((1.0, 1.0), abs=1e-12)
        assert p[3] == pytest.approx((1.0, 2.0), abs=1e-12)

    def test_spatial_on_axis_ignores_yaw(self):
        for yaw in (0.0, 1.0, -2.5):
            p = fk_spatial(UNIT, JointAngles(yaw, 0.0, 0.0, 0.0))
            assert p[3] == pytest.approx((0.0, 0.0, 3.0), abs=1e-12)

    def test_spatial_zero_yaw_maps_to_y(self):
        p = fk_spatial(UNIT, JointAngles(0.0, math.pi / 2, 0.0, 0.0))
        assert p[3] == pytest.approx((0.0, 3.0, 0.0), abs=1e-12)

    def test_spatial_quarter_yaw(self):
        p = fk_spatial(UNIT, JointAngles(math.pi / 2, math.pi / 2, -math.pi / 2, 0.0))
        assert p[3] == pytest.approx((1.0, 0.0, 2.0), abs=1e-12)

    @given(lengths_st, lengths_st, lengths_st, angles_st, angles_st, angles_st)
    @settings(max_examples=100)
    def test_link_lengths_preserved(self, l1, l2, l3, t2, t3, t4):
        geom = ArmGeometry(l1, l2, l3)
        p = fk_planar(geom, t2, t3, t4)
        for k, length in enumerate((l1, l2, l3)):
            d = math.hypot(p[k + 1].x - p[k].x, p[k + 1].y - p[k].y)
            assert abs(d - length) <= 1e-12 * max(1.0, length)

    @given(angles_st, angles_st, angles_st, angles_st)
    @settings(max_examples=100)
    def test_lift_consistency(self, t1, t2, t3, t4):
        # compare at the constructed (wrapped) angles: -pi wraps to +pi
        angles = JointAngles(t1, t2, t3, t4)
        planar = fk_planar(UNIT, angles.theta2, angles.theta3, angles.theta4)
        spatial = fk_spatial(UNIT, angles)
        for pp, sp in zip(planar, spatial):
            assert abs(math.hypot(sp.x, sp.y) - abs(pp.x)) <= 1e-12 * max(1.0, abs(pp.x))
            assert sp.z == pp.y
        # spatial link lengths survive the lift
        for k, length in enumerate((1.0, 1.0, 1.0)):
            d = math.dist(spatial[k + 1], spatial[k])
            assert abs(d - length) <= 1e-12


def sample_reachable_pose(rng, geom):
    """Angles with the planar end effector at positive radius and the wrist
    comfortably inside the annulus, so IK must succeed."""
    while True:
        t1 = rng.uniform(-math.pi, math.pi)
        t2 = rng.uniform(-math.pi, math.pi)
        t3 = rng.uniform(0.2, 2.9) * rng.choice([-1.0, 1.0])
        phi = rng.uniform(-math.pi, math.pi)
        t4 = phi - t2 - t3
        planar = fk_planar(geom, t2, t3, t4)
        if planar[3].x > 0.05:
            return JointAngles(t1, t2, t3, t4), phi


class TestInverseKinematics:
    def test_known_target(self):
        angles = ik(UNIT, (0.0, 2.0, 1.0), pitch=0.0)
        assert tuple(angles) == pytest.approx((0.0, math.pi / 2, 0.0, -math.pi / 2), abs=1e-12)

    def test_fully_extended_vertical(self):
        angles = ik(UNIT, (0.0, 0.0, 3.0), pitch=0.0)
        assert tuple(angles) == pytest.approx((0.0, 0.0, 0.0, 0.0), abs=1e-12)

    def test_beyond_reach(self):
        with pytest.raises(Unreachable):
            ik(UNIT, (0.0, 10.0, 0.0))

    def test_too_close(self):
        geom = ArmGeometry(1.0, 0.5, 0.1)
        with pytest.raises(Unreachable):
            ik(geom, (0.0, 0.05, 0.0), pitch=math.pi / 2)

    def test_singular_yaw(self):
        with pytest.raises(SingularYaw):
            ik(UNIT, (0.0, 0.0, 2.0), pitch=math.pi / 2)

    def test_on_axis_with_vertical_tool(self):
        angles = ik(UNIT, (0.0, 0.0, 2.2), pitch=0.0)
        assert angles.theta1 == 0.0
        p = fk_spatial(UNIT, angles)
        assert p[3] == pytest.approx((0.0, 0.0, 2.2), abs=1e-9)

    def test_elbow_down_branch(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pose, phi = sample_reachable_pose(rng, UNIT)
            target = fk_spatial(UNIT, pose)[3]
            sol = ik(UNIT, target, pitch=phi)
            assert sol.theta3 <= 0.0

    def test_round_trip(self, geom):
        rng = np.random.default_rng(123)
        for _ in range(200):
            pose, phi = sample_reachable_pose(rng, geom)
            target = fk_spatial(geom, pose)[3]
            sol = ik(geom, target, pitch=phi)
            back = fk_spatial(geom, sol)[3]
            assert max(abs(a - b) for a, b in zip(back, target)) <= 1e-9

    def test_tool_pitch_constraint(self, geom):
        rng = np.random.default_rng(321)
        for _ in range(200):
            pose, phi = sample_reachable_pose(rng, geom)
            target = fk_spatial(geom, pose)[3]
            sol = ik(geom, target, pitch=phi)
            # exact up to the 2*pi wrap applied on construction
            assert abs(wrap_angle(sol.theta2 + sol.theta3 + sol.theta4 - phi)) <= 1e-12
