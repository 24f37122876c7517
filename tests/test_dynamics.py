import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from armctl import (
    ArmGeometry,
    DegenerateInertia,
    Diverged,
    MassModel,
    equilibrium_point,
    equilibrium_torque,
    forward_dynamics,
    joint_inertias,
    kinetic_energy,
    linearize,
    point_inertia,
    potential_energy,
    segment_inertia,
    step_rk4,
    total_energy,
)
from armctl.dynamics import _cosine_terms, _hessians, _kernel, _mass_forms
from conftest import safe_random_theta
from oracles import (
    lagrangian_accelerations,
    loop_kernel,
    reference_accelerations,
    segment_route_energies,
)

UNIT = ArmGeometry(1.0, 1.0, 1.0)

coord_st = st.floats(-3.0, 3.0, allow_nan=False)
mass_st = st.floats(0.0, 5.0, allow_nan=False)
# random arms and configurations
theta_st = st.tuples(*[st.floats(-np.pi, np.pi)] * 4)
lengths_st = st.tuples(*[st.floats(0.1, 2.0)] * 3)
masses_st = st.tuples(*[mass_st] * 6)


def nested_kernel(geom, masses, t2, t3, t4):
    """`_kernel` at (t2, t3, t4) in the loop form's layout (inertia, pe,
    dpe, jac), with the structural zeros filled in."""
    k = _kernel(_mass_forms(geom, masses), t2, t3, t4)
    jac = tuple((0.0, *k[8 + 3 * i:11 + 3 * i]) for i in range(3)) + ((0.0,) * 4,)
    return k[:4], k[4], (0.0, *k[5:8]), jac


class TestSegmentInertia:
    def test_rod_about_end(self):
        assert segment_inertia((0.0, 0.0), (2.0, 0.0), 3.0) == pytest.approx(
            3.0 * 4.0 / 3.0, abs=1e-12
        )

    def test_rod_about_center(self):
        L, m = 1.4, 0.7
        got = segment_inertia((-L / 2, 0.0), (L / 2, 0.0), m)
        assert got == pytest.approx(m * L * L / 12.0, abs=1e-12)

    def test_degenerate_point(self):
        assert segment_inertia((3.0, 4.0), (3.0, 4.0), 2.0) == pytest.approx(
            2.0 * 25.0, abs=1e-12
        )

    @given(coord_st, coord_st, coord_st, coord_st, mass_st)
    @settings(max_examples=100)
    def test_symmetric_in_endpoints(self, x1, y1, x2, y2, m):
        assert segment_inertia((x1, y1), (x2, y2), m) == pytest.approx(
            segment_inertia((x2, y2), (x1, y1), m), rel=1e-14, abs=1e-14
        )

    @given(coord_st, coord_st, coord_st, coord_st, mass_st, st.floats(0.0, 10.0))
    @settings(max_examples=100)
    def test_linear_in_mass(self, x1, y1, x2, y2, m, c):
        one = segment_inertia((x1, y1), (x2, y2), m)
        scaled = segment_inertia((x1, y1), (x2, y2), c * m)
        assert scaled == pytest.approx(c * one, rel=1e-12, abs=1e-12)


class TestPointInertia:
    def test_values(self):
        assert point_inertia((1.0, 0.0), 2.0) == 2.0
        assert point_inertia((0.0, 0.0), 5.0) == 0.0
        assert point_inertia((3.0, 4.0), 1.0) == 25.0

    def test_points_are_checked_2_vectors(self):
        with pytest.raises(ValueError, match="p must have 2 components, got 3"):
            point_inertia((1.0, 0.0, 0.0), 2.0)
        with pytest.raises(ValueError, match="pb must have 2 components, got 1"):
            segment_inertia((0.0, 0.0), 1.0, 2.0)
        with pytest.raises(ValueError, match="pa must be finite"):
            segment_inertia((math.nan, 0.0), (1.0, 0.0), 2.0)


class TestJointInertias:
    def test_tool_joint_constant_closed_form(self, geom, masses):
        rng = np.random.default_rng(0)
        expect = masses.m4 * geom.L3**2 + masses.M3 * geom.L3**2 / 3.0
        for theta in safe_random_theta(rng, 25):
            inertia = joint_inertias(geom, masses, theta)
            assert inertia[3] == expect  # exact: the closed form is the implementation

    def test_tool_joint_matches_segment_route(self, geom, masses):
        # the constant form must agree with the generic segment+point sum
        from armctl import fk_planar, point_inertia, segment_inertia

        rng = np.random.default_rng(1)
        for theta in safe_random_theta(rng, 25):
            p = fk_planar(geom, theta[1], theta[2], theta[3])
            rel = (p[3].x - p[2].x, p[3].y - p[2].y)
            generic = segment_inertia((0.0, 0.0), rel, masses.M3) + point_inertia(
                rel, masses.m4
            )
            inertia = joint_inertias(geom, masses, theta)
            assert inertia[3] == pytest.approx(generic, rel=1e-12)

    def test_vertical_arm_zero_yaw_inertia(self, geom, masses):
        inertia = joint_inertias(geom, masses, [0.0, 0.0, 0.0, 0.0])
        assert inertia[0] == 0.0

    def test_straight_arm_elbow_inertia(self, geom, masses):
        # arm straight (theta3 = theta4 = 0) at arbitrary theta2: expand the
        # pivot-P2 sum over collinear links by hand
        L2, L3 = geom.L2, geom.L3
        expect = (
            masses.m3 * L2**2
            + masses.m4 * (L2 + L3) ** 2
            + masses.M2 * L2**2 / 3.0
            + (masses.M3 / 3.0) * (L2**2 + L2 * (L2 + L3) + (L2 + L3) ** 2)
        )
        inertia = joint_inertias(geom, masses, [0.2, 1.1, 0.0, 0.0])
        assert inertia[2] == pytest.approx(expect, rel=1e-12)

    def test_independent_of_yaw(self, geom, masses):
        a = joint_inertias(geom, masses, [0.0, 0.9, -0.7, 0.3])
        b = joint_inertias(geom, masses, [2.1, 0.9, -0.7, 0.3])
        assert np.array_equal(a, b)

    @settings(max_examples=100, deadline=None)
    @given(theta=theta_st, lengths=lengths_st, mass=masses_st)
    def test_match_segment_route(self, theta, lengths, mass):
        geom = ArmGeometry(*lengths)
        mm = MassModel(*mass)
        want = segment_route_energies(geom, mm, theta)
        got = [*joint_inertias(geom, mm, theta), potential_energy(geom, mm, theta)]
        scale = max(1.0, *map(abs, want))
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12 * scale

    @given(angle2=st.floats(-math.pi, math.pi), angle3=st.floats(-math.pi, math.pi),
           angle4=st.floats(-math.pi, math.pi))
    @settings(max_examples=100)
    def test_nonnegative(self, angle2, angle3, angle4):
        masses = MassModel(m2=0.5, m3=0.4, m4=0.3, M1=0.4, M2=0.3, M3=0.2)
        inertia = joint_inertias(UNIT, masses, [0.0, angle2, angle3, angle4])
        assert np.all(inertia >= 0.0)


class TestPotentialEnergy:
    def test_zero_masses(self, geom):
        mm = MassModel(0, 0, 0, 0, 0, 0, g=9.81)
        assert potential_energy(geom, mm, [0, 1, 2, 3]) == 0.0

    def test_zero_gravity(self, geom, masses):
        mm = MassModel(masses.m2, masses.m3, masses.m4, masses.M1, masses.M2, masses.M3, g=0.0)
        assert potential_energy(geom, mm, [0, 1, 2, 3]) == 0.0

    def test_vertical_point_masses(self):
        mm = MassModel(m2=1, m3=1, m4=1, M1=0, M2=0, M3=0, g=9.81)
        # heights 1, 2, 3
        assert potential_energy(UNIT, mm, [0, 0, 0, 0]) == pytest.approx(58.86, abs=1e-12)

    def test_segment_heights_average(self):
        mm = MassModel(m2=0, m3=0, m4=0, M1=2.0, M2=0, M3=0, g=10.0)
        # link 1 horizontal: ends at heights 0 and 0 -> PE = 0;
        # vertical: mean height 1/2
        assert potential_energy(UNIT, mm, [0, math.pi / 2, 0, 0]) == pytest.approx(0.0, abs=1e-12)
        assert potential_energy(UNIT, mm, [0, 0, 0, 0]) == pytest.approx(10.0, abs=1e-12)


class TestKineticEnergy:
    def test_zero_rates(self, geom, masses):
        assert kinetic_energy(geom, masses, [0.1, 0.8, -0.5, 0.2], [0, 0, 0, 0]) == 0.0

    def test_tool_rate_only_closed_form(self, geom, masses):
        w4 = 1.7
        expect = 0.5 * (masses.m4 * geom.L3**2 + masses.M3 * geom.L3**2 / 3.0) * w4**2
        got = kinetic_energy(geom, masses, [0.3, 0.9, -0.4, 0.6], [0, 0, 0, w4])
        assert got == pytest.approx(expect, rel=1e-15)

    def test_zero_masses(self, geom):
        mm = MassModel(0, 0, 0, 0, 0, 0)
        assert kinetic_energy(geom, mm, [0, 1, -1, 0.5], [1, 2, 3, 4]) == 0.0


class TestEquilibriumTorque:
    def test_vertical_symmetry(self, geom, masses):
        assert np.array_equal(equilibrium_torque(geom, masses, [0, 0, 0, 0]), np.zeros(4))

    def test_zero_gravity(self, geom, masses):
        mm = MassModel(masses.m2, masses.m3, masses.m4, masses.M1, masses.M2, masses.M3, g=0.0)
        assert np.array_equal(equilibrium_torque(geom, mm, [0.4, 1.0, -0.8, 0.3]), np.zeros(4))

    def test_yaw_component_always_zero(self, geom, masses):
        rng = np.random.default_rng(5)
        for theta in safe_random_theta(rng, 10):
            assert equilibrium_torque(geom, masses, theta)[0] == 0.0

    def test_holds_arm_still(self, geom, masses):
        rng = np.random.default_rng(11)
        for theta in safe_random_theta(rng, 100):
            tau = equilibrium_torque(geom, masses, theta)
            acc = forward_dynamics(geom, masses, theta, np.zeros(4), tau)
            assert np.max(np.abs(acc)) <= 1e-8


def _richardson_partial(f, args, j, h):
    """Central difference of f w.r.t. args[j], Richardson-extrapolated."""

    def central(step):
        hi = list(args)
        lo = list(args)
        hi[j] += step
        lo[j] -= step
        return (f(*hi) - f(*lo)) / (2.0 * step)

    d1 = central(h)
    d2 = central(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


class TestDerivativeAccuracy:
    """The exact gradients must agree with Richardson-extrapolated central
    differences to at least 1e-6 relative."""

    def test_pe_gradient(self, geom, masses):
        rng = np.random.default_rng(3)
        for theta in safe_random_theta(rng, 20):
            args = tuple(theta[1:])
            _, _, dpe, _ = nested_kernel(geom, masses, *args)
            for j in range(3):
                ref = _richardson_partial(
                    lambda a, b, c: nested_kernel(geom, masses, a, b, c)[1], args, j, 1e-5
                )
                assert abs(dpe[j + 1] - ref) <= 1e-6 * max(1.0, abs(ref))

    def test_inertia_jacobian(self, geom, masses):
        rng = np.random.default_rng(4)
        for theta in safe_random_theta(rng, 20):
            args = tuple(theta[1:])
            _, _, _, jac = nested_kernel(geom, masses, *args)
            for k in range(4):
                for j in range(3):
                    ref = _richardson_partial(
                        lambda a, b, c, k=k: nested_kernel(geom, masses, a, b, c)[0][k],
                        args, j, 1e-5,
                    )
                    assert abs(jac[k][j + 1] - ref) <= 1e-6 * max(1.0, abs(ref))


def kernel_bytes(inertia, pe, dpe, jac) -> bytes:
    return np.array([*inertia, pe, *dpe, *(g for row in jac for g in row)]).tobytes()


class TestLoopForm:
    """The straight-line kernel repeats the IEEE operations of its loop
    form (`oracles.loop_kernel`), so every value and gradient matches it
    byte for byte, signed zeros included."""

    @settings(max_examples=200, deadline=None)
    @given(planar=st.tuples(*[st.floats(-1e3, 1e3)] * 3), lengths=lengths_st, mass=masses_st)
    def test_kernel_matches_loop_form(self, planar, lengths, mass):
        geom, mm = ArmGeometry(*lengths), MassModel(*mass)
        want = loop_kernel(_mass_forms(geom, mm), *planar)
        assert kernel_bytes(*nested_kernel(geom, mm, *planar)) == kernel_bytes(*want)

    @pytest.mark.parametrize("planar", [(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0),
                                        (-0.0, 0.0, -0.0), (math.pi, -0.0, 0.0)])
    def test_signed_zero_poses_match_loop_form(self, geom, masses, planar):
        want = loop_kernel(_mass_forms(geom, masses), *planar)
        assert kernel_bytes(*nested_kernel(geom, masses, *planar)) == kernel_bytes(*want)

    def test_structural_zero_terms_match_loop_form(self, geom, masses):
        """Without gravity, at rates whose squares underflow and zero
        torques, an acceleration can be a signed zero: the sign then shows
        the convective sums' 0.0 * w1 start and the whole I4 sum."""
        mm = MassModel(masses.m2, masses.m3, masses.m4, masses.M1, masses.M2, masses.M3, g=0.0)
        rng = np.random.default_rng(19)
        rates = [s * r for s in (1.0, -1.0) for r in (0.0, 1e-200, 1e-170, 3e-162)]
        for theta in safe_random_theta(rng, 2000):
            w = rng.choice(rates, 4)
            tau = rng.choice([0.0, -0.0], 4)
            got = forward_dynamics(geom, mm, theta, w, tau)
            assert got.tobytes() == reference_accelerations(geom, mm, theta, w, tau).tobytes()


class TestSecondDerivatives:
    """The product-to-sum expansion behind the Hessians reproduces the
    kernel's values and gradients to rounding (both read the same mass
    forms), and its Hessians match differences of the kernel's exact
    gradients."""

    @settings(max_examples=50, deadline=None)
    @given(theta=theta_st, lengths=lengths_st, mass=masses_st)
    def test_cosine_form_reproduces_kernel(self, theta, lengths, mass):
        geom = ArmGeometry(*lengths)
        mm = MassModel(*mass)
        n, alpha, _ = _cosine_terms(geom, mm)
        th = np.array(theta)
        inertia, pe, dpe, jac = nested_kernel(geom, mm, *theta[1:])
        value = alpha.T @ np.cos(n @ th)
        grad = -(alpha.T * np.sin(n @ th)) @ n
        scale = max(1.0, *map(abs, inertia), abs(pe))
        assert np.max(np.abs(value - [*inertia, pe])) <= 1e-12 * scale
        assert np.max(np.abs(grad - [*jac, dpe])) <= 1e-12 * scale
        assert np.array_equal(n[:, 0], np.zeros(len(n)))

    def test_sixteen_terms_for_the_test_arm(self, geom, masses):
        # I1: 3 differences and 6 sums of link angles; I2: 3; I3: 1; PE: 3
        _, alpha, _ = _cosine_terms(geom, masses)
        assert np.count_nonzero(alpha[1:]) == 16
        assert np.count_nonzero(alpha[1:, 3]) == 0  # I4 is constant

    def test_hessians_match_gradient_differences(self, geom, masses):
        rng = np.random.default_rng(5)
        thetas = safe_random_theta(rng, 20)
        stack = _hessians(geom, masses, thetas)
        assert stack.shape == (20, 5, 4, 4)
        for theta, hess in zip(thetas, stack):
            assert np.array_equal(hess[:, 0, :], np.zeros((5, 4)))
            assert np.array_equal(hess[:, :, 0], np.zeros((5, 4)))
            assert np.array_equal(hess[3], np.zeros((4, 4)))
            args = tuple(theta[1:])
            for l in range(3):
                def gradients(a, b, c):
                    _, _, dpe, jac = nested_kernel(geom, masses, a, b, c)
                    return np.array([*jac, dpe])

                ref = _richardson_partial(gradients, args, l, 1e-4)
                assert np.max(np.abs(hess[:, :, l + 1] - ref)) <= 1e-6 * max(
                    1.0, np.max(np.abs(ref)))


class TestForwardDynamics:
    def test_rest_no_gravity(self, geom, masses):
        mm = MassModel(masses.m2, masses.m3, masses.m4, masses.M1, masses.M2, masses.M3, g=0.0)
        acc = forward_dynamics(geom, mm, [0.5, 1.0, -0.8, 0.2], np.zeros(4), np.zeros(4))
        assert np.array_equal(acc, np.zeros(4))

    def test_pure_torque_term(self, geom, masses):
        mm = MassModel(masses.m2, masses.m3, masses.m4, masses.M1, masses.M2, masses.M3, g=0.0)
        theta = [0.5, 1.0, -0.8, 0.2]
        tau = np.array([1.0, -2.0, 0.7, 0.1])
        acc = forward_dynamics(geom, mm, theta, np.zeros(4), tau)
        inertia = joint_inertias(geom, mm, theta)
        assert np.allclose(acc, tau / inertia, rtol=1e-15, atol=0)

    def test_degenerate_inertia(self, geom):
        # no mass distal to the tool joint
        mm = MassModel(m2=0.5, m3=0.4, m4=0.0, M1=0.4, M2=0.3, M3=0.0)
        with pytest.raises(DegenerateInertia):
            forward_dynamics(geom, mm, [0.3, 0.9, -0.7, 0.2], np.zeros(4), np.zeros(4))

    def test_vertical_arm_degenerate_yaw(self, geom, masses):
        with pytest.raises(DegenerateInertia):
            forward_dynamics(geom, masses, np.zeros(4), np.zeros(4), np.zeros(4))

    def test_degenerate_inertia_messages(self, geom, masses):
        """The kernel names the first degenerate joint, its inertia and the
        planar angles, on every path that solves for accelerations."""
        tool_free = MassModel(m2=0.5, m3=0.4, m4=0.0, M1=0.4, M2=0.3, M3=0.0)
        bent, rest = [0.3, 0.9, -0.7, 0.2], np.zeros(4)
        calls = [
            (lambda: forward_dynamics(geom, tool_free, bent, rest, rest),
             "joint 4 inertia 0.0 <= 1e-12 at theta=(0.9, -0.7, 0.2)"),
            (lambda: linearize(geom, tool_free, equilibrium_point(geom, tool_free, bent)),
             "joint 4 inertia 0.0 <= 1e-12 at theta=(0.9, -0.7, 0.2)"),
            (lambda: forward_dynamics(geom, masses, rest, rest, rest),
             "joint 1 inertia 0.0 <= 1e-12 at theta=(0.0, 0.0, 0.0)"),
            (lambda: step_rk4(geom, masses, [0.3, 0.0, -0.0, 0.0, 0.1, 0.0, 0.0, 0.0], rest, 1e-3),
             "joint 1 inertia 0.0 <= 1e-12 at theta=(0.0, -0.0, 0.0)"),
        ]
        for call, message in calls:
            with pytest.raises(DegenerateInertia) as info:
                call()
            assert str(info.value) == message

    @pytest.mark.parametrize("rates, torque", [
        ([1e200, 0.0, 0.0, 0.0], [0.0] * 4),
        ([0.0, 1e200, 0.0, 0.0], [0.0] * 4),
        ([0.0] * 4, [0.0, 1e308, -1e308, 1e308]),
    ])
    def test_overflow_is_diverged(self, geom, masses, theta_ref, rates, torque):
        """Finite rates or torques whose accelerations overflow raise a
        typed error naming the state, not a non-finite result."""
        state = f"at theta {theta_ref.tolist()}, rates {rates} and torque {torque}"
        with pytest.raises(Diverged, match=r"^accelerations \[.*\] not finite ") as info:
            forward_dynamics(geom, masses, theta_ref, rates, torque)
        assert str(info.value).endswith(state)

    @settings(max_examples=300, deadline=None)
    @given(rates=st.lists(st.floats(-1e300, 1e300), min_size=4, max_size=4),
           torque=st.lists(st.floats(-1e300, 1e300), min_size=4, max_size=4))
    def test_finite_or_diverged(self, geom, masses, theta_ref, rates, torque):
        try:
            acc = forward_dynamics(geom, masses, theta_ref, rates, torque)
        except Diverged:
            return
        assert np.isfinite(acc).all()

    def test_matches_lagrangian_oracle(self, geom, masses):
        rng = np.random.default_rng(42)
        for theta in safe_random_theta(rng, 100):
            rates = rng.uniform(-2.0, 2.0, 4)
            tau = rng.uniform(-5.0, 5.0, 4)
            got = forward_dynamics(geom, masses, theta, rates, tau)
            want = lagrangian_accelerations(geom, masses, theta, rates, tau)
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-4


# an arm's six masses and g, each up to 1e308
huge_arm_st = st.tuples(*[st.floats(0.0, 1e308)] * 7)
huge_st = st.lists(st.floats(-1e300, 1e300), min_size=4, max_size=4)
THETA_REF = (0.3, 0.8, -0.9, 0.5)
NOMINAL = (0.5, 0.4, 0.3, 0.4, 0.3, 0.2, 9.81)


class TestOverflowingArms:
    """Every public dynamics reader goes through one checked kernel read,
    so on an arm whose model overflows each returns only finite values or
    raises Diverged, and none returns part of a model that overflowed."""

    @settings(max_examples=300, deadline=None)
    @given(arm=huge_arm_st, theta=theta_st, rates=huge_st, torque=huge_st,
           spin=st.lists(st.floats(-1e100, 1e100), min_size=4, max_size=4))
    # every mass 1e308: the inertias overflow to [nan, nan, inf, 4.8e307]
    @example(arm=(1e308,) * 6 + (9.81,), theta=THETA_REF, rates=[0.0] * 4, torque=[0.0] * 4,
             spin=[1.0] * 4)
    # g = 1e308: the equilibrium torque overflows to -inf
    @example(arm=NOMINAL[:6] + (1e308,), theta=THETA_REF, rates=[0.0] * 4, torque=[0.0] * 4,
             spin=[1.0] * 4)
    def test_finite_or_diverged(self, geom, arm, theta, rates, torque, spin):
        masses = MassModel(*arm)
        try:
            acc = forward_dynamics(geom, masses, theta, rates, torque)
        except (Diverged, DegenerateInertia):
            pass
        else:
            assert np.isfinite(acc).all()
        # the energies' rates: at most 1e100, and less on a heavy arm, so that
        # (1/2) sum_k I_k w_k^2, formed after the read and not checked, cannot
        # overflow finite inertias (its overflow is a FOUND of CHANGES.md)
        spin = [w / math.sqrt(1.0 + max(arm[:6])) for w in spin]
        readers = [
            lambda: joint_inertias(geom, masses, theta),
            lambda: potential_energy(geom, masses, theta),
            lambda: kinetic_energy(geom, masses, theta, spin),
            lambda: total_energy(geom, masses, theta, spin),
            lambda: equilibrium_torque(geom, masses, theta),
            lambda: equilibrium_point(geom, masses, theta).torque,
        ]
        outcomes = []
        for read in readers:
            try:
                outcomes.append(np.isfinite(read()).all())
            except Diverged as exc:
                outcomes.append(str(exc))
        # the static model is read whole: every reader returns, with finite
        # values, exactly when all 17 kernel values are finite, and otherwise
        # each raises the one read's error
        model = _kernel(_mass_forms(geom, masses), *theta[1:])
        if np.isfinite(model).all():
            assert outcomes == [True] * len(readers)
        else:
            assert str(outcomes[0]).startswith("model [")
            assert outcomes == outcomes[:1] * len(readers)
