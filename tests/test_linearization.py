import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import armctl.dynamics as dyn
import armctl.linearization as lin
from armctl import (
    ArmGeometry,
    DegenerateInertia,
    Diverged,
    GridSpec,
    MassModel,
    NodeFailure,
    OperatingPoint,
    equilibrium_point,
    equilibrium_torque,
    forward_dynamics,
    joint_inertias,
    linearize,
    numdiff,
    precompute,
    refine,
)
from conftest import safe_random_theta
from oracles import fd_jacobian, five_point_jacobian, loop_linearize


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

    def test_overflowing_gravity_is_diverged(self, geom, masses, weights, theta_ref):
        """Under g = 1e308 the Hessians' products overflow: linearize,
        linearize_nodes, precompute and refine raise Diverged, with no numpy
        warning on the way.  The node's equilibrium torque overflows too, so
        equilibrium_point and the stack raise equilibrium_torque's Diverged."""
        huge = dataclasses.replace(masses, g=1e308)
        with pytest.raises(Diverged, match=r"^model \[") as info:
            equilibrium_torque(geom, huge, theta_ref)
        torque = str(info.value)
        with pytest.raises(Diverged) as info:
            equilibrium_point(geom, huge, theta_ref)
        assert str(info.value) == torque
        with pytest.raises(Diverged, match="^linear model not finite"):
            linearize(geom, huge, OperatingPoint(theta_ref, np.zeros(4), np.zeros(4)))
        with pytest.raises(Diverged) as info:
            lin.linearize_nodes(geom, huge, np.array([theta_ref]))
        assert str(info.value) == torque
        box = (tuple(theta_ref - 0.1), tuple(theta_ref + 0.1))
        for build in (lambda: precompute(geom, huge, weights, GridSpec(*box, (2, 2, 2, 2))),
                      lambda: refine(geom, huge, weights, box, 0.4, 2)):
            with pytest.raises(NodeFailure) as info:
                build()
            assert isinstance(info.value.cause, Diverged)


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


class TestPerPoint:
    """linearize reproduces the per-point oracle byte for byte, at online
    states and at equilibria."""

    @settings(max_examples=60, deadline=None)
    @given(theta=THETAS, rates=RATES, torque=TORQUES, at_equilibrium=st.booleans())
    def test_bytes_match_the_oracle(self, geom, masses, theta, rates, torque, at_equilibrium):
        op = _op(geom, masses, theta, rates, torque, at_equilibrium)
        model, want = linearize(geom, masses, op), loop_linearize(geom, masses, op)
        assert model.A.tobytes() == want.A.tobytes() and model.B.tobytes() == want.B.tobytes()

    @pytest.mark.parametrize("rates", [
        [0.4, -0.0, 0.0, -0.0], [0.0, -0.4, -0.0, 0.0], [-0.0, 0.0, 0.4, -0.0],
        [0.0, -0.0, -0.0, -0.4], [-0.0] * 4, None,
    ])
    def test_bytes_at_the_resting_boundary(self, geom, masses, theta_ref, rates):
        """linearize and the oracle agree byte for byte on the boundary of
        the resting branch, which the test above draws only by chance: one
        rate non-zero among 0.0 and -0.0 on each axis (each case leaves
        -0.0 entries in A), every rate -0.0 (the rate block stays +0.0),
        and an equilibrium (None)."""
        op = (equilibrium_point(geom, masses, theta_ref) if rates is None
              else OperatingPoint(theta_ref, rates, [0.5, -1.0, 2.0, -0.0]))
        model, want = linearize(geom, masses, op), loop_linearize(geom, masses, op)
        assert model.A.tobytes() == want.A.tobytes() and model.B.tobytes() == want.B.tobytes()


# every angle over [-pi, pi], signed zeros, +-pi and +-pi/2 drawn on purpose,
# off the upright configurations (every link vertical) where I1 = 0
ANGLES = st.one_of(st.floats(-np.pi, np.pi),
                   st.sampled_from([0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2]))
EQUILIBRIA = st.tuples(*[ANGLES] * 4).filter(
    lambda t: abs(math.sin(t[1])) + abs(math.sin(t[1] + t[2]))
    + abs(math.sin(t[1] + t[2] + t[3])) > 1e-3)
# a short arm under huge gravity: A ~ g / L overflows at theta_ref, where the
# links hang, and stays finite where every link lies near horizontal
SHORT = ArmGeometry(L1=1e-3, L2=8e-4, L3=6e-4)
HEAVY = MassModel(m2=0.5, m3=0.4, m4=0.3, M1=0.4, M2=0.3, M3=0.2, g=1.4e305)
UPRIGHT = [0.4, 0.0, 0.0, 0.0]  # every link vertical: no yaw inertia (I1 = 0)


def _nodes_with(bad, i, lying=False):
    """Five equilibrium nodes, bad at index i: safe angles, or with `lying`
    angles within 0.2 rad of every link horizontal."""
    rng = np.random.default_rng(41)
    if lying:
        thetas = rng.uniform([-np.pi, np.pi / 2 - 0.2, -0.2, -0.2],
                             [np.pi, np.pi / 2 + 0.2, 0.2, 0.2], (5, 4))
    else:
        thetas = safe_random_theta(rng, 5)
    if bad is not None:
        thetas[i] = bad
    return thetas


def _assert_raises_alone_error(geom, masses, thetas, bad, kind):
    """The node stack thetas raises the error of the equilibrium at bad
    alone, of type kind."""
    with pytest.raises(kind) as alone:
        linearize(geom, masses, equilibrium_point(geom, masses, bad))
    with pytest.raises(kind, match=f"^{re.escape(str(alone.value))}$"):
        lin.linearize_nodes(geom, masses, thetas)


class TestStack:
    """linearize_nodes gives each node of any stack of equilibria the bytes
    of the per-point oracle and of linearize at its equilibrium_point, and
    a stack with a failing node raises the error that node raises alone."""

    @settings(max_examples=30, deadline=None)
    @given(nodes=st.sampled_from([1, 2, 64]).flatmap(
        lambda k: st.lists(EQUILIBRIA, min_size=k, max_size=k)))
    def test_bytes_match_the_per_point_oracle(self, geom, masses, nodes):
        thetas = np.array(nodes)
        A, B = lin.linearize_nodes(geom, masses, thetas)
        assert A.shape == (len(nodes), 8, 8) and B.shape == (len(nodes), 8, 4)
        for theta, a, b in zip(thetas, A, B):
            op = equilibrium_point(geom, masses, theta)
            for model in (loop_linearize(geom, masses, op), linearize(geom, masses, op)):
                assert a.tobytes() == model.A.tobytes() and b.tobytes() == model.B.tobytes()

    @pytest.mark.parametrize("i", [0, 2, 4])
    def test_degenerate_point_is_reported_at_its_index(self, geom, masses, i):
        # the message names the node's angles
        thetas = _nodes_with(UPRIGHT, i)
        _assert_raises_alone_error(geom, masses, thetas, UPRIGHT, DegenerateInertia)

    @pytest.mark.parametrize("i", [0, 2, 4])
    def test_overflowing_point_is_reported_at_its_index(self, theta_ref, i):
        # the message names the node's zero rates and equilibrium torque
        thetas = _nodes_with(theta_ref, i, lying=True)
        with pytest.raises(Diverged, match=r"^linear model not finite at rates \[0\.0, 0\.0, "):
            lin.linearize_nodes(SHORT, HEAVY, thetas)
        _assert_raises_alone_error(SHORT, HEAVY, thetas, theta_ref, Diverged)

    @pytest.mark.parametrize("fast_at", [None, 0, 2])
    def test_no_torque_is_each_points_equilibrium_torque(self, theta_ref, fast_at):
        """linearize_nodes takes no torque: each node is linearized at its
        equilibrium_torque, so it gets the bytes linearize gives it with
        that torque passed, and an overflowing node's Diverged message
        names that torque."""
        thetas = _nodes_with(theta_ref if fast_at is not None else None, fast_at, lying=True)
        torque = [equilibrium_torque(SHORT, HEAVY, t) for t in thetas]
        if fast_at is None:
            A, B = lin.linearize_nodes(SHORT, HEAVY, thetas)
            for theta, tau, a, b in zip(thetas, torque, A, B):
                model = linearize(SHORT, HEAVY, OperatingPoint(theta, np.zeros(4), tau))
                assert a.tobytes() == model.A.tobytes() and b.tobytes() == model.B.tobytes()
        else:
            with pytest.raises(Diverged) as info:
                lin.linearize_nodes(SHORT, HEAVY, thetas)
            assert str(info.value).endswith(f"and torque {torque[fast_at].tolist()}")

    def test_a_degenerate_point_raises_before_an_overflowing_one(self, theta_ref):
        """The kernel's DegenerateInertia comes before the check on A, so a
        degenerate node's error is raised over an earlier overflow's."""
        thetas = _nodes_with(theta_ref, 1, lying=True)
        thetas[3] = UPRIGHT
        _assert_raises_alone_error(SHORT, HEAVY, thetas, UPRIGHT, DegenerateInertia)


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
