import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import armctl.dynamics as dyn
import armctl.linearization as lin
from armctl import (
    DegenerateInertia,
    Diverged,
    MassModel,
    OperatingPoint,
    equilibrium_point,
    forward_dynamics,
    joint_inertias,
    linearize,
    numdiff,
)
from conftest import safe_random_theta
from oracles import fd_jacobian, five_point_jacobian


def random_op(rng):
    theta = safe_random_theta(rng, 1)[0]
    return OperatingPoint(theta, rng.uniform(-1.5, 1.5, 4), rng.uniform(-4.0, 4.0, 4))


class TestOperatingPoint:
    def test_validates_shape(self):
        with pytest.raises(ValueError):
            OperatingPoint([0.1, 0.2], np.zeros(4), np.zeros(4))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            OperatingPoint([0.1, 0.2, 0.3, np.nan], np.zeros(4), np.zeros(4))

    @pytest.mark.parametrize("args, message", [
        (([0.1, 0.2], np.zeros(4), np.zeros(4)), "theta must have 4 components, got 2"),
        ((np.zeros(4), [0.0, np.inf, 0.0, 0.0], [np.nan] * 4), "rates must be finite"),
        ((np.zeros(4), np.zeros((1, 4)), [1.0, 2.0, 3.0]), "torque must have 4 components"),
        ((np.zeros(4), np.zeros((1, 4)), [np.nan] * 4), "torque must be finite"),
    ])
    def test_message_names_the_first_bad_vector(self, args, message):
        with pytest.raises(ValueError, match=message):
            OperatingPoint(*args)

    def test_vectors_are_read_only_copies(self):
        rates = np.arange(4.0)
        op = OperatingPoint(np.zeros((2, 2)), rates, [1, 2, 3, 4])
        rates[0] = 9.0
        assert np.array_equal(op.rates, np.arange(4.0))
        for v in (op.theta, op.rates, op.torque):
            assert v.shape == (4,) and v.dtype == float and not v.flags.writeable

    def test_state_concatenation(self):
        op = OperatingPoint([1, 2, 3, 4], [5, 6, 7, 8], np.zeros(4))
        assert np.array_equal(op.state(), [1, 2, 3, 4, 5, 6, 7, 8])


class TestOverflow:
    @pytest.mark.parametrize("rates, torque", [
        ([1e200, 0.0, 0.0, 0.0], np.zeros(4)),
        ([0.0, 0.0, 1e160, 0.0], np.zeros(4)),
        (np.zeros(4), [0.0, 0.0, 0.0, -1e308]),
    ])
    def test_non_finite_model_is_diverged(self, geom, masses, theta_ref, rates, torque):
        """Finite rates or a finite torque large enough to overflow A raise
        a typed error, with no numpy overflow warning on the way."""
        with pytest.raises(Diverged, match="^linear model not finite"):
            linearize(geom, masses, OperatingPoint(theta_ref, rates, torque))


class TestBlockStructure:
    def test_exact_blocks(self, geom, masses):
        rng = np.random.default_rng(2)
        for _ in range(5):
            model = linearize(geom, masses, random_op(rng))
            assert np.array_equal(model.A[0:4, 0:4], np.zeros((4, 4)))
            assert np.array_equal(model.A[0:4, 4:8], np.eye(4))
            assert np.array_equal(model.B[0:4, :], np.zeros((4, 4)))
            assert np.all(np.isfinite(model.A))

    def test_b_lower_block_is_inverse_inertia(self, geom, masses):
        rng = np.random.default_rng(3)
        op = random_op(rng)
        model = linearize(geom, masses, op)
        inertia = joint_inertias(geom, masses, op.theta)
        assert np.allclose(model.B[4:8, :], np.diag(1.0 / inertia), rtol=0, atol=1e-10)
        off_diag = model.B[4:8, :][~np.eye(4, dtype=bool)]
        assert np.array_equal(off_diag, np.zeros(12))


class TestJacobianAccuracy:
    def test_matches_independent_fd(self, geom, masses):
        rng = np.random.default_rng(17)
        for _ in range(10):
            op = random_op(rng)
            model = linearize(geom, masses, op)

            def acc(x):
                return forward_dynamics(geom, masses, x[:4], x[4:], op.torque)

            reference = fd_jacobian(acc, op.state(), h=1e-5)
            diff = np.abs(model.A[4:8, :] - reference)
            assert np.all(diff <= 1e-4 + 1e-4 * np.abs(reference))

    def test_b_matches_torque_derivative(self, geom, masses):
        rng = np.random.default_rng(19)
        op = random_op(rng)
        model = linearize(geom, masses, op)

        def acc_of_tau(tau):
            return forward_dynamics(geom, masses, op.theta, op.rates, tau)

        reference = fd_jacobian(acc_of_tau, op.torque, h=1e-6)
        assert np.allclose(model.B[4:8, :], reference, rtol=0, atol=1e-8)


def _count_dynamics_calls(monkeypatch):
    """Count calls of forward_dynamics and numdiff.jacobian, under every
    name linearize could reach them by."""
    calls = []

    def counting(real):
        def wrapper(*args, **kwargs):
            calls.append(real)
            return real(*args, **kwargs)

        return wrapper

    for module, name in ((dyn, "forward_dynamics"), (lin, "forward_dynamics"),
                         (numdiff, "jacobian")):
        real = getattr(module, name, None)
        if real is not None:
            monkeypatch.setattr(module, name, counting(real))
    return calls


THETAS = st.tuples(
    st.floats(-np.pi, np.pi),
    st.floats(0.3, 2.8),
    st.floats(-2.5, -0.3),
    st.floats(-2.5, 2.5),
)
RATES = st.one_of(
    st.just((0.0, 0.0, 0.0, 0.0)),
    st.tuples(*[st.floats(-1.5, 1.5)] * 4),
)
TORQUES = st.tuples(*[st.floats(-4.0, 4.0)] * 4)


def _op(geom, masses, theta, rates, torque, at_equilibrium):
    if at_equilibrium:
        return equilibrium_point(geom, masses, theta)
    return OperatingPoint(theta, rates, torque)


def _acc_of_state(geom, masses, op):
    return lambda x: forward_dynamics(geom, masses, x[:4], x[4:], op.torque)


class TestSkippedColumns:
    """linearize is closed-form: it calls no dynamics and differences
    nothing, and keeps the structural zeros exact (the theta1 column always,
    the rate columns at zero rates)."""

    def test_no_dynamics_calls_at_equilibrium(self, geom, masses, theta_ref, monkeypatch):
        op = equilibrium_point(geom, masses, theta_ref)
        calls = _count_dynamics_calls(monkeypatch)
        model = linearize(geom, masses, op)
        assert calls == []
        assert np.array_equal(model.A[4:8, 4:8], np.zeros((4, 4)))
        assert not np.any(np.signbit(model.A[4:8, 4:8]))

    def test_no_dynamics_calls_at_nonzero_rates(self, geom, masses, theta_ref, monkeypatch):
        op = OperatingPoint(theta_ref, [0.0, 0.0, 0.3, 0.0], np.zeros(4))
        calls = _count_dynamics_calls(monkeypatch)
        model = linearize(geom, masses, op)
        assert calls == []
        assert np.any(model.A[4:8, 4:8])

    @settings(max_examples=60, deadline=None)
    @given(theta=THETAS, rates=RATES, torque=TORQUES, at_equilibrium=st.booleans())
    def test_matches_all_column_difference(
        self, geom, masses, theta, rates, torque, at_equilibrium
    ):
        op = _op(geom, masses, theta, rates, torque, at_equilibrium)
        model = linearize(geom, masses, op)
        reference = numdiff.jacobian(_acc_of_state(geom, masses, op), op.state())
        scale = np.max(np.abs(model.A))
        assert np.max(np.abs(model.A[4:8, :] - reference)) <= 1e-7 * scale
        assert np.array_equal(model.A[4:8, 0], np.zeros(4))
        assert not np.any(np.signbit(model.A[4:8, 0]))
        if not np.any(op.rates):
            assert np.array_equal(model.A[4:8, 4:8], np.zeros((4, 4)))

    @settings(max_examples=60, deadline=None)
    @given(theta=THETAS, rates=RATES, torque=TORQUES, at_equilibrium=st.booleans())
    def test_matches_five_point_difference(
        self, geom, masses, theta, rates, torque, at_equilibrium
    ):
        # the fourth-order difference is accurate to about 1e-13 relative,
        # so this bounds the closed form's own error, not the step rule's
        op = _op(geom, masses, theta, rates, torque, at_equilibrium)
        model = linearize(geom, masses, op)
        reference = five_point_jacobian(_acc_of_state(geom, masses, op), op.state())
        scale = np.max(np.abs(model.A))
        assert np.max(np.abs(model.A[4:8, :] - reference)) <= 1e-10 * scale


class TestOperatingPointDependence:
    def test_b_independent_of_rates_and_torque(self, geom, masses):
        rng = np.random.default_rng(23)
        theta = safe_random_theta(rng, 1)[0]
        m1 = linearize(geom, masses, OperatingPoint(theta, np.zeros(4), np.zeros(4)))
        m2 = linearize(
            geom, masses, OperatingPoint(theta, rng.uniform(-2, 2, 4), rng.uniform(-5, 5, 4))
        )
        assert np.array_equal(m1.B, m2.B)

    def test_a_depends_on_torque(self, geom, masses):
        # the circular dependence the cached-torque scheme works around
        rng = np.random.default_rng(29)
        theta = safe_random_theta(rng, 1)[0]
        rates = rng.uniform(-1, 1, 4)
        m1 = linearize(geom, masses, OperatingPoint(theta, rates, np.zeros(4)))
        m2 = linearize(geom, masses, OperatingPoint(theta, rates, [3.0, -2.0, 1.0, 0.5]))
        assert not np.allclose(m1.A, m2.A, rtol=0, atol=1e-8)


class TestEquilibriumPoint:
    def test_vertical_reference_zero_torque(self, geom, masses):
        op = equilibrium_point(geom, masses, np.zeros(4))
        assert np.array_equal(op.torque, np.zeros(4))
        assert np.array_equal(op.rates, np.zeros(4))

    def test_zero_gravity_zero_torque(self, geom, masses):
        mm = MassModel(masses.m2, masses.m3, masses.m4, masses.M1, masses.M2, masses.M3, g=0.0)
        op = equilibrium_point(geom, mm, [0.7, 1.2, -0.5, 0.4])
        assert np.array_equal(op.torque, np.zeros(4))

    def test_state_derivative_vanishes(self, geom, masses):
        rng = np.random.default_rng(31)
        for theta in safe_random_theta(rng, 20):
            op = equilibrium_point(geom, masses, theta)
            acc = forward_dynamics(geom, masses, op.theta, op.rates, op.torque)
            assert np.max(np.abs(acc)) <= 1e-8

    def test_degenerate_propagates(self, geom, masses):
        op = equilibrium_point(geom, masses, np.zeros(4))  # building the op is fine
        with pytest.raises(DegenerateInertia):
            linearize(geom, masses, op)  # but the vertical pose has zero yaw inertia
