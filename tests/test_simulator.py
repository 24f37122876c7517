import functools
import io
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import armctl.dynamics as dyn
import armctl.simulator as sim
from armctl import (
    ArmError,
    ArmGeometry,
    ControllerMode,
    CostWeights,
    DigestMismatch,
    Diverged,
    GridSpec,
    MassModel,
    OperatingPoint,
    OutOfBounds,
    SimConfig,
    bench_controller,
    equilibrium_torque,
    linearize,
    load,
    lookup,
    lqr_gain,
    precompute,
    refine,
    save,
    simulate,
    step_rk4,
)
from armctl.simulator import CSV_HEADER
from conftest import safe_random_theta
from oracles import reference_accelerations, reference_step_rk4

UNIT = ArmGeometry(1.0, 1.0, 1.0)

# gentle passive motion, inertias bounded away from zero throughout
PASSIVE_X0 = np.array([0.4, 2.6, 0.8, -0.5, 0.3, 0.0, 0.0, 0.0])
# added to the reference state: a moving start off every table node
MOVING = np.array([0.1, -0.1, 0.1, 0.1, 0.2, -0.3, 0.1, 0.4])


@pytest.fixture(scope="module")
def ref_state(theta_ref):
    return np.concatenate([theta_ref, np.zeros(4)])


@pytest.fixture(scope="module")
def flat_table(geom, masses, weights, theta_ref):
    grid = GridSpec(tuple(theta_ref - 0.25), tuple(theta_ref + 0.25), (2, 2, 2, 2))
    return precompute(geom, masses, weights, grid)


@pytest.fixture(scope="module")
def refined_table(geom, masses, weights, theta_ref):
    box = (tuple(theta_ref - 0.25), tuple(theta_ref + 0.25))
    return refine(geom, masses, weights, box, 0.4, 2)


def _run(request, run, weights):
    """simulate's mode and keyword arguments for a passive, online, flat- or
    refined-table run."""
    if run in ("flat", "refined"):
        table = request.getfixturevalue(f"{run}_table")
        return ControllerMode.TABLE_LQR, {"weights": weights, "table": table}
    if run == "online":
        return ControllerMode.ONLINE_LQR, {"weights": weights}
    return ControllerMode.PASSIVE, {}


class TestSimConfig:
    def test_validates(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(dt=0.03, control_period=0.02)
        with pytest.raises(ValueError):
            SimConfig(duration=0.0)
        with pytest.raises(ValueError):
            SimConfig(dt=0.003, control_period=0.02)  # not a multiple

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", ["dt", "control_period", "duration"])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(**{field: value})

    def test_steps(self):
        cfg = SimConfig(dt=1e-3, control_period=0.02, duration=1.0)
        assert cfg.steps_per_update == 20
        assert cfg.n_updates == 50


class TestStepRK4:
    def test_fixed_point_without_gravity(self, geom, masses):
        mm = MassModel(masses.m2, masses.m3, masses.m4, masses.M1, masses.M2, masses.M3, g=0.0)
        x = np.array([0.5, 1.0, -0.8, 0.2, 0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(step_rk4(geom, mm, x, np.zeros(4), 1e-3), x)

    def test_equilibrium_fixed_point(self, geom, masses, theta_ref):
        tau = equilibrium_torque(geom, masses, theta_ref)
        x = np.concatenate([theta_ref, np.zeros(4)])
        assert np.array_equal(step_rk4(geom, masses, x, tau, 1e-3), x)

    def test_fourth_order_convergence(self, geom, masses):
        def final_state(dt, t_end=1.0):
            x = PASSIVE_X0.copy()
            for _ in range(int(round(t_end / dt))):
                x = step_rk4(geom, masses, x, np.zeros(4), dt)
            return x

        reference = final_state(2.5e-4)
        errors = []
        for dt in (8e-3, 4e-3, 2e-3):
            errors.append(np.abs(final_state(dt) - reference).max())
        orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
        assert min(orders) >= 3.8

    def test_single_pendulum_period(self):
        # only joint 2 carries real mass; the others are made tiny so their
        # inertias stay positive without affecting the swing
        tiny = 1e-4
        mm = MassModel(m2=0.8, m3=tiny, m4=tiny, M1=0.5, M2=tiny, M3=tiny, g=9.81)
        inertia = 0.8 + 0.5 / 3.0  # m2 L1^2 + M1 L1^2 / 3
        coeff = (0.8 + 0.25) * 9.81  # (m2 + M1/2) g L1
        expected = 2.0 * math.pi * math.sqrt(inertia / coeff)

        dt = 1e-3
        x = np.array([0.0, math.pi - 0.05, 0.09, 0.0, 0.0, 0.0, 0.0, 0.0])
        crossings = []
        prev = x[1] - math.pi
        for step in range(1, int(2.8 / dt) + 1):
            x = step_rk4(UNIT, mm, x, np.zeros(4), dt)
            cur = x[1] - math.pi
            if prev < 0.0 <= cur:  # rising zero crossing of the swing angle
                crossings.append((step - 1 + prev / (prev - cur)) * dt)
            prev = cur
        assert len(crossings) >= 2
        period = crossings[1] - crossings[0]
        assert abs(period - expected) / expected < 0.01


def _reference_integrate(geom, masses, x, torque, dt, steps):
    x = np.asarray(x, dtype=float)
    for _ in range(steps):
        x = reference_step_rk4(geom, masses, x, torque, dt)
    return x.tolist()


def _first_non_finite(geom, masses, x, torque, dt, steps):
    """The array form's first non-finite state along `steps` RK4 steps, as
    (state list, n, stage): stage 1-3 for a stage state and 4 for a step's
    end state, n the count Diverged's message gives (n + 1 after an end
    state); None if every state stays finite."""
    x, tau = np.asarray(x, dtype=float), np.asarray(torque, dtype=float)

    def f(state):
        return np.concatenate(
            [state[4:], reference_accelerations(geom, masses, state[:4], state[4:], tau)])

    with np.errstate(all="ignore"):
        for n in range(steps):
            k = [f(x)]
            for stage, scale in enumerate((0.5 * dt, 0.5 * dt, dt), 1):
                y = x + scale * k[-1]
                if not np.isfinite(y).all():
                    return y.tolist(), n, stage
                k.append(f(y))
            x = x + (dt / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
            if not np.isfinite(x).all():
                return x.tolist(), n + 1, 4
    return None


def _outcome(fn, *args):
    """fn's state as bytes, or the type and message of the ArmError it
    raises; a non-finite reference state reads as Diverged, which the
    float loop raises for it."""
    try:
        with np.errstate(all="ignore"):
            state = np.asarray(fn(*args), dtype=float)
    except Diverged:
        return "Diverged"
    except ArmError as exc:
        return type(exc).__name__, str(exc)
    return state.tobytes() if np.isfinite(state).all() else "Diverged"


def _same_outcome(geom, masses, x, tau, dt, steps=1):
    got = _outcome(sim._integrate, geom, masses, list(x), list(tau), dt, steps)
    assert got == _outcome(_reference_integrate, geom, masses, x, tau, dt, steps)


# the upright pose has I1 = 0, so it ends in DegenerateInertia on both sides
SIGNED_ZERO_STATES = {
    "all zero": ([0.0] * 8, [0.0] * 4),
    "all minus zero": ([-0.0] * 8, [-0.0] * 4),
    "upright at zero rates": ([0.3, 0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0], [0.5, 0.0, 0.0, 0.0]),
    "minus zero angles and rates": ([-0.0, 1.2, -0.0, -0.0, -0.0, -0.0, -0.0, -0.0], [-0.0] * 4),
    "mixed zero rates and torque": ([0.0, 1.2, -0.9, 0.5, -0.0, 0.0, -0.0, 0.0],
                                    [-0.0, 0.0, -0.0, 0.0]),
    "minus zero rates, torque one way": ([0.3, 0.8, -0.9, 0.5, -0.0, -0.0, -0.0, -0.0],
                                         [1.0, -1.0, 0.5, -0.5]),
}


class TestBitIdentity:
    """The float RK4 loop repeats the array integrator's IEEE operations,
    so its states equal the reference's byte for byte."""

    def test_step_rk4_matches_reference(self, geom, masses):
        rng = np.random.default_rng(11)
        for theta in safe_random_theta(rng, 200):
            x = np.concatenate([theta, rng.uniform(-3.0, 3.0, 4)])
            tau = rng.uniform(-5.0, 5.0, 4)
            dt = float(rng.choice([1e-4, 1e-3, 1e-2]))
            got = step_rk4(geom, masses, x, tau, dt)
            assert got.tobytes() == reference_step_rk4(geom, masses, x, tau, dt).tobytes()

    def test_control_period_matches_reference(self, geom, masses):
        rng = np.random.default_rng(15)
        for theta in safe_random_theta(rng, 200):
            x = np.concatenate([theta, rng.uniform(-5.0, 5.0, 4)])
            tau = rng.uniform(-5.0, 5.0, 4)
            got = sim._integrate(geom, masses, x.tolist(), tau.tolist(), 1e-3, 20)
            want = _reference_integrate(geom, masses, x, tau, 1e-3, 20)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("name", SIGNED_ZERO_STATES)
    def test_signed_zero_states_match_reference(self, geom, masses, name):
        x, tau = SIGNED_ZERO_STATES[name]
        _same_outcome(geom, masses, x, tau, 1e-3)
        _same_outcome(geom, masses, x, tau, 1e-3, steps=20)

    def test_equilibrium_with_minus_zero_rates_matches_reference(self, geom, masses, theta_ref):
        tau = equilibrium_torque(geom, masses, theta_ref).tolist()
        x = [*theta_ref.tolist(), -0.0, 0.0, -0.0, -0.0]
        _same_outcome(geom, masses, x, tau, 1e-3, steps=20)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.lists(st.floats(-4.0, 4.0), min_size=8, max_size=8),
        tau=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
        dt=st.sampled_from([1e-4, 1e-3, 1e-2]),
    )
    def test_finite_states_match_reference(self, geom, masses, x, tau, dt):
        _same_outcome(geom, masses, x, tau, dt)

    def test_control_period_looks_up_mass_forms_once(self, geom, masses, monkeypatch):
        # counted under every name the RK4 loop could reach it by
        calls, real = [], dyn._mass_forms

        def counting(*args):
            calls.append(args)
            return real(*args)

        for module in (dyn, sim):
            monkeypatch.setattr(module, "_mass_forms", counting)
        x = [0.3, 0.8, -0.9, 0.5, 0.2, -0.1, 0.3, 0.0]
        sim._integrate(geom, masses, x, [0.5, -1.0, 2.0, 0.1], 1e-3, 20)
        assert calls == [(geom, masses)]

    @pytest.mark.parametrize("run", ["passive", "online", "flat", "refined"])
    def test_simulate_matches_reference(
        self, request, monkeypatch, geom, masses, weights, ref_state, run
    ):
        mode, kwargs = _run(request, run, weights)
        x0 = ref_state + np.array([0.1, -0.1, 0.1, 0.1, 0.2, -0.3, 0.1, 0.4])
        cfg = SimConfig(duration=0.2)
        got = simulate(geom, masses, cfg, mode, x0, ref_state, **kwargs)
        monkeypatch.setattr(sim, "_integrate", _reference_integrate)
        want = simulate(geom, masses, cfg, mode, x0, ref_state, **kwargs)
        for field in ("times", "states", "inputs", "energy"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


class TestDivergence:
    @pytest.mark.parametrize("rate", [1e160, 1e200])
    def test_huge_rate_raises_diverged_with_partial(self, geom, masses, rate):
        x0 = np.array([0.3, 0.8, -0.9, 0.5, 0.0, rate, 0.0, 0.0])
        with pytest.raises(Diverged) as info:
            simulate(geom, masses, SimConfig(duration=0.1), ControllerMode.PASSIVE, x0)
        partial = info.value.partial
        assert partial.times.size == 1
        assert np.array_equal(partial.states[0], x0)

    @pytest.mark.parametrize("rate, error", [(1e150, ArmError), (1e200, Diverged)])
    def test_online_runaway_rate_is_typed_with_partial(self, geom, masses, weights, rate,
                                                        error):
        """A finite but runaway state defeats the online update: the ordered
        Schur form fails at 1e150 and the linear model overflows at 1e200.
        Either is an ArmError carrying the (empty) run so far."""
        x0 = np.array([0.0, 0.5, -0.5, 0.2, rate, 0.0, 0.0, 0.0])
        x_ref = np.concatenate([x0[:4], np.zeros(4)])
        with pytest.raises(error) as info:
            simulate(geom, masses, SimConfig(duration=0.1), ControllerMode.ONLINE_LQR,
                     x0, x_ref, weights=weights)
        assert info.value.partial.times.size == 0

    @pytest.mark.parametrize("run, target", [
        ("passive", "_integrate"),
        ("online", "_integrate"), ("online", "lqr_gain"),
        ("flat", "_integrate"), ("flat", "lookup"),
        ("refined", "_integrate"), ("refined", "lookup"),
    ])
    @pytest.mark.parametrize("k", [0, 3, "last"])
    def test_partial_is_a_byte_prefix_of_the_run(
        self, request, monkeypatch, geom, masses, weights, ref_state, run, target, k
    ):
        """A failure injected on call k (from 0) of the integrator or the
        gain source aborts the run with the samples before it: k + 1 when
        period k's integration fails, k when update k's gain does.  They
        are the first samples of the same run without the failure, byte for
        byte."""
        mode, kwargs = _run(request, run, weights)
        x0 = ref_state + np.array([0.1, -0.1, 0.1, 0.1, 0.2, -0.3, 0.1, 0.4])
        cfg = SimConfig(duration=0.2)
        full = simulate(geom, masses, cfg, mode, x0, ref_state, **kwargs)
        integrating = target == "_integrate"
        # the n_updates integrations, or the n_updates + 1 control updates
        if k == "last":
            k = cfg.n_updates - 1 if integrating else cfg.n_updates
        calls = []
        real = getattr(sim, target)

        def failing(*args):
            calls.append(None)
            if len(calls) > k:
                raise Diverged(f"injected on call {k}")
            return real(*args)

        monkeypatch.setattr(sim, target, failing)
        with pytest.raises(Diverged, match=f"injected on call {k}") as info:
            simulate(geom, masses, cfg, mode, x0, ref_state, **kwargs)
        partial = info.value.partial
        n = k + 1 if integrating else k
        assert partial.times.size == n
        assert partial.states.shape == (n, 8) and partial.inputs.shape == (n, 4)
        for field in ("times", "states", "inputs", "energy"):
            assert getattr(partial, field).tobytes() == getattr(full, field)[:n].tobytes(), field

    @pytest.mark.parametrize("rates, n, stage", [
        ([1e154, 0.0, 0.0, 0.0], 0, 1),
        ([1e20, 0.0, 0.0, 0.0], 1, 1),
        ([0.0, 0.0, 1e20, 0.0], 1, 2),
        ([0.0, 0.0, 0.0, 1e20], 1, 3),
        ([0.0, 1e20, 0.0, 0.0], 2, 4),
    ])
    def test_diverged_names_the_first_non_finite_state(self, geom, masses, theta_ref, rates,
                                                       n, stage):
        """Each start state first turns non-finite at the given stage state
        (4: the step's end state) of step n, in the array form; the float
        loop raises there, with that state's values and step count."""
        x = [*theta_ref.tolist(), *rates]
        state, *where = _first_non_finite(geom, masses, x, [0.0] * 4, 1e-3, 5)
        assert where == [n, stage]
        with pytest.raises(Diverged) as info:
            sim._integrate(geom, masses, x, [0.0] * 4, 1e-3, 5)
        assert str(info.value) == f"non-finite state {state!r} after {n} of 5 RK4 steps"

    def test_step_rk4_rejects_non_finite_state(self, geom, masses):
        x = np.array([0.3, 0.8, -0.9, 0.5, 0.0, np.nan, 0.0, 0.0])
        with pytest.raises(Diverged):
            step_rk4(geom, masses, x, np.zeros(4), 1e-3)

    @settings(max_examples=40, deadline=None)
    @given(
        rates=st.lists(
            st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
            min_size=4, max_size=4,
        )
    )
    def test_result_finite_or_diverged(self, geom, masses, theta_ref, rates):
        x0 = np.concatenate([theta_ref, rates])
        try:
            traj = simulate(geom, masses, SimConfig(duration=0.1), ControllerMode.PASSIVE, x0)
        except Diverged as exc:
            assert np.all(np.isfinite(exc.partial.states))
            return
        for field in ("states", "inputs", "energy"):
            assert np.all(np.isfinite(getattr(traj, field))), field


class TestPassive:
    def test_energy_conservation(self, geom, masses):
        cfg = SimConfig(dt=1e-3, control_period=0.02, duration=10.0)
        traj = simulate(geom, masses, cfg, ControllerMode.PASSIVE, PASSIVE_X0)
        drift = np.abs(traj.energy - traj.energy[0]).max()
        assert drift <= 1e-5 * max(1.0, abs(traj.energy[0]))

    def test_zero_torque_recorded(self, geom, masses):
        cfg = SimConfig(duration=0.1)
        traj = simulate(geom, masses, cfg, ControllerMode.PASSIVE, PASSIVE_X0)
        assert np.array_equal(traj.inputs, np.zeros_like(traj.inputs))

    def test_sampling_layout(self, geom, masses):
        cfg = SimConfig(dt=1e-3, control_period=0.02, duration=1.0)
        traj = simulate(geom, masses, cfg, ControllerMode.PASSIVE, PASSIVE_X0)
        assert traj.times.size == cfg.n_updates + 1
        assert np.allclose(np.diff(traj.times), cfg.control_period, rtol=0, atol=1e-12)
        assert traj.states.shape == (traj.times.size, 8)
        assert traj.inputs.shape == (traj.times.size, 4)


class TestClosedLoop:
    def test_setpoint_invariance(self, geom, masses, weights, ref_state, flat_table):
        cfg = SimConfig(duration=2.0)
        for mode, kwargs in (
            (ControllerMode.ONLINE_LQR, {"weights": weights}),
            (ControllerMode.TABLE_LQR, {"weights": weights, "table": flat_table}),
        ):
            traj = simulate(geom, masses, cfg, mode, ref_state, ref_state, **kwargs)
            assert np.abs(traj.states - ref_state).max() <= 1e-9
            tau_eq = equilibrium_torque(geom, masses, ref_state[:4])
            assert np.abs(traj.inputs - tau_eq).max() <= 1e-9

    def test_online_regulates_perturbation(self, geom, masses, weights, ref_state):
        x0 = ref_state.copy()
        x0[:4] += 0.1
        cfg = SimConfig(duration=3.0)
        traj = simulate(geom, masses, cfg, ControllerMode.ONLINE_LQR, x0, ref_state,
                        weights=weights)
        err = np.abs(traj.states[:, :4] - ref_state[:4]).max(axis=1)
        assert err[-1] < 1e-2

    def test_table_matches_online_as_tolerance_shrinks(
        self, geom, masses, weights, theta_ref, ref_state
    ):
        # As the refine tolerance shrinks, TableLQR converges to exact
        # equilibrium-gain scheduling, which is a (slightly) different
        # controller from cached-torque OnlineLQR: their trajectory gap
        # saturates at an intrinsic floor (~1.5e-4 rad at this amplitude)
        # instead of going to zero.  Assert the gap never grows beyond that
        # saturation band while the tree really does refine.
        box = (tuple(theta_ref - 0.008), tuple(theta_ref + 0.008))
        x0 = ref_state.copy()
        x0[:4] += 0.006
        cfg = SimConfig(duration=2.0)
        online = simulate(geom, masses, cfg, ControllerMode.ONLINE_LQR, x0, ref_state,
                          weights=weights)
        gaps = []
        leaf_counts = []
        for tol in (1e-1, 1e-2, 1e-3):
            table = refine(geom, masses, weights, box, tol, 4)
            assert not table.flagged_leaves()
            leaf_counts.append(len(table.leaves()))
            run = simulate(geom, masses, cfg, ControllerMode.TABLE_LQR, x0, ref_state,
                           weights=weights, table=table)
            gaps.append(np.abs(run.states - online.states).max())
        assert gaps[1] <= gaps[0] * 1.01
        assert gaps[2] <= gaps[1] * 1.01
        assert leaf_counts[-1] > leaf_counts[0]  # the tighter tolerance refined further
        assert gaps[1] <= 5e-2

    def test_requires_reference(self, geom, masses, weights):
        with pytest.raises(ValueError):
            simulate(geom, masses, SimConfig(duration=0.1), ControllerMode.ONLINE_LQR,
                     PASSIVE_X0, weights=weights)

    def test_online_requires_weights(self, geom, masses):
        with pytest.raises(ValueError, match="^online mode requires cost weights$"):
            simulate(geom, masses, SimConfig(duration=0.1), ControllerMode.ONLINE_LQR,
                     PASSIVE_X0, PASSIVE_X0)

    @pytest.mark.parametrize("mode", ["online", None, 3])
    def test_mode_must_be_a_controller_mode(self, geom, masses, weights, flat_table, mode):
        # not parsed from its value, nor taken as table mode
        with pytest.raises(ValueError, match=f"^mode must be a ControllerMode, got {mode!r}$"):
            simulate(geom, masses, SimConfig(duration=0.1), mode, PASSIVE_X0, PASSIVE_X0,
                     weights=weights, table=flat_table)

    def test_digest_mismatch_rejected(self, geom, masses, weights, ref_state, flat_table):
        other = MassModel(m2=0.9, m3=0.4, m4=0.3, M1=0.4, M2=0.3, M3=0.2)
        with pytest.raises(DigestMismatch):
            simulate(geom, other, SimConfig(duration=0.1), ControllerMode.TABLE_LQR,
                     ref_state, ref_state, weights=weights, table=flat_table)

    def test_out_of_bounds_attaches_partial(self, geom, masses, weights, theta_ref):
        box = GridSpec(tuple(theta_ref - 0.05), tuple(theta_ref + 0.05), (2, 2, 2, 2))
        table = precompute(geom, masses, weights, box)
        x0 = np.concatenate([theta_ref + 0.04, np.zeros(4)])
        target = np.concatenate([theta_ref - 0.2, np.zeros(4)])  # outside the box
        with pytest.raises(OutOfBounds) as info:
            simulate(geom, masses, SimConfig(duration=3.0), ControllerMode.TABLE_LQR,
                     x0, target, weights=weights, table=table)
        partial = info.value.partial
        assert partial.times.size >= 1
        assert partial.states.shape == (partial.times.size, 8)


class TestControlLaw:
    """Every closed-loop input is tau_ff - K (x - x_ref), bit for bit, with
    K the mode's gain at that sample: a lookup at its angles in table mode,
    and in online mode the Riccati gain of the model linearized at its state
    and the previous input (the start pose's equilibrium torque before the
    first)."""

    @pytest.mark.parametrize("run", ["online", "flat", "refined"])
    def test_each_input_is_the_law(self, request, geom, masses, weights, ref_state, run):
        mode, kwargs = _run(request, run, weights)
        x0 = ref_state + MOVING
        traj = simulate(geom, masses, SimConfig(duration=0.2), mode, x0, ref_state, **kwargs)
        assert traj.times.size == 11
        tau_ff = equilibrium_torque(geom, masses, ref_state[:4])
        held = equilibrium_torque(geom, masses, x0[:4])
        for x, u in zip(traj.states, traj.inputs):
            if run == "online":
                model = linearize(geom, masses, OperatingPoint(x[:4], x[4:], held))
                gain = lqr_gain(model.A, model.B, weights)
            else:
                gain = lookup(kwargs["table"], x[:4])
            assert u.tobytes() == (tau_ff - gain @ (x - ref_state)).tobytes()
            held = u

    def test_passive_inputs_are_positive_zero(self, geom, masses, ref_state):
        traj = simulate(geom, masses, SimConfig(duration=0.2), ControllerMode.PASSIVE,
                        ref_state + MOVING, ref_state)
        assert traj.inputs.tobytes() == np.zeros((11, 4)).tobytes()


OTHER_MASSES = MassModel(m2=0.9, m3=0.4, m4=0.3, M1=0.4, M2=0.3, M3=0.2)
ONLINE, TABLE = ControllerMode.ONLINE_LQR, ControllerMode.TABLE_LQR


class TestArguments:
    """simulate's argument checks run before the first period, in one order:
    the mode, x_ref, online mode's weights, table mode's table, then its
    digest.  Each case breaks its own check and every later one, so the
    first to run raises."""

    @pytest.mark.parametrize("mode, faults, error, message", [
        ("online", {"x_ref", "weights", "table", "arm"}, ValueError,
         "^mode must be a ControllerMode, got 'online'$"),
        (ONLINE, {"x_ref", "weights"}, ValueError, "^online mode requires x_ref$"),
        (TABLE, {"x_ref", "table", "arm"}, ValueError, "^table mode requires x_ref$"),
        (ONLINE, {"weights"}, ValueError, "^online mode requires cost weights$"),
        (TABLE, {"table", "arm"}, ValueError, "^table mode requires a gain table$"),
        (TABLE, {"arm", "cost"}, DigestMismatch, "^table was built for a different arm$"),
        (TABLE, {"cost"}, DigestMismatch, "^table was built for different cost weights$"),
    ], ids=["mode", "online-x_ref", "table-x_ref", "weights", "table", "arm", "cost"])
    def test_first_failing_check_raises(self, geom, masses, weights, ref_state, flat_table,
                                        mode, faults, error, message):
        other = CostWeights.from_diagonals([1.0] * 8, [1.0] * 4)
        x_ref = None if "x_ref" in faults else ref_state
        kwargs = {"weights": None if "weights" in faults else other if "cost" in faults
                  else weights,
                  "table": None if "table" in faults else flat_table}
        arm = OTHER_MASSES if "arm" in faults else masses
        with pytest.raises(error, match=message) as info:
            simulate(geom, arm, SimConfig(duration=0.1), mode, ref_state + MOVING, x_ref,
                     **kwargs)
        assert not hasattr(info.value, "partial")

    def test_table_without_weights_checks_the_arm_only(self, geom, masses, weights, ref_state,
                                                        flat_table):
        cfg, x0 = SimConfig(duration=0.1), ref_state + MOVING
        bare = simulate(geom, masses, cfg, TABLE, x0, ref_state, table=flat_table)
        full = simulate(geom, masses, cfg, TABLE, x0, ref_state, weights=weights,
                        table=flat_table)
        assert bare.inputs.tobytes() == full.inputs.tobytes()
        with pytest.raises(DigestMismatch, match="^table was built for a different arm$"):
            simulate(geom, OTHER_MASSES, cfg, TABLE, x0, ref_state, table=flat_table)

    def test_passive_ignores_weights_and_table(self, geom, masses, ref_state):
        cfg, x0 = SimConfig(duration=0.1), ref_state + MOVING
        plain = simulate(geom, masses, cfg, ControllerMode.PASSIVE, x0)
        junk = simulate(geom, masses, cfg, ControllerMode.PASSIVE, x0, weights=object(),
                        table=b"AGT1")
        for field in ("times", "states", "inputs", "energy"):
            assert getattr(junk, field).tobytes() == getattr(plain, field).tobytes(), field

    @pytest.mark.parametrize("mode, name", [(ONLINE, "weights"), (TABLE, "weights"),
                                            (TABLE, "table")],
                             ids=["online-weights", "table-weights", "table-table"])
    @pytest.mark.parametrize("kind", ["bytes", "dict", "object"])
    def test_wrong_type_is_a_value_error(self, geom, masses, weights, ref_state, flat_table,
                                         mode, name, kind):
        """A table's saved bytes, a dict or any other object in place of a
        table or weights is refused before the first period, by name and type."""
        value = {"bytes": save(flat_table), "dict": {"Q": 1}, "object": object()}[kind]
        kwargs = {"weights": weights, "table": flat_table, name: value}
        expected = {"weights": "CostWeights", "table": "GainTable or RefinedTable"}[name]
        with pytest.raises(ValueError, match=f"^{name} must be a {expected}, "
                                             f"got {type(value).__name__}$") as info:
            simulate(geom, masses, SimConfig(duration=0.1), mode, ref_state + MOVING,
                     ref_state, **kwargs)
        assert not hasattr(info.value, "partial")


class TestCSV:
    def test_layout_and_precision(self, geom, masses):
        cfg = SimConfig(dt=1e-3, control_period=0.02, duration=0.2)
        traj = simulate(geom, masses, cfg, ControllerMode.PASSIVE, PASSIVE_X0)
        buf = io.StringIO()
        traj.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == traj.times.size + 1
        first = [float(v) for v in lines[1].split(",")]
        assert len(first) == 14
        assert first[0] == 0.0
        assert first[1:9] == list(PASSIVE_X0)
        # 17 significant digits round-trip exactly
        last = [float(v) for v in lines[-1].split(",")]
        assert last[1:9] == list(traj.states[-1])
        assert last[13] == traj.energy[-1]


class TestBench:
    def test_rejects_empty(self, geom, masses, weights, flat_table):
        with pytest.raises(ValueError, match="^n_iters"):
            bench_controller(geom, masses, flat_table, 0, weights=weights)

    def test_lookup_beats_online(self, geom, masses, weights, flat_table):
        report = bench_controller(geom, masses, flat_table, 50, weights=weights)
        assert report.lookup_median_us < report.online_median_us
        assert report.speedup > 1.0
        assert math.isfinite(report.speedup)
        assert report.n_iters == 50

    def test_times_the_gain_sources_simulate_flies(self, geom, masses, weights, flat_table,
                                                   monkeypatch):
        # each timed update is a gain source's own: one lookup per iteration
        # after the untimed one, and one lqr_gain per online iteration
        calls = {"lookup": 0, "lqr_gain": 0}
        for name in calls:
            def counting(*args, _name=name, _real=getattr(sim, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(sim, name, counting)
        bench_controller(geom, masses, flat_table, 20, weights=weights)
        assert calls == {"lookup": 21, "lqr_gain": 20}

    @pytest.mark.parametrize("kind", ["flat", "refined"])
    def test_one_lookup_pass(self, request, geom, masses, weights, kind, monkeypatch):
        # one _locate per iteration, after the one untimed lookup at the box's low corner
        table = request.getfixturevalue(f"{kind}_table")
        calls = []
        real = type(table)._locate

        def counting(self, t2, t3, t4):
            calls.append((t2, t3, t4))
            return real(self, t2, t3, t4)

        monkeypatch.setattr(type(table), "_locate", counting)
        bench_controller(geom, masses, table, 20, weights=weights)
        assert len(calls) == 21 and calls[0] == tuple(table.lo[1:])

    @pytest.mark.parametrize("kind", ["flat", "refined"])
    def test_first_lookup_gather_is_not_timed(self, request, geom, masses, weights, kind,
                                              monkeypatch):
        # a table's first lookup gathers its corner blocks; made 0.2 s slow
        # here, a timed first lookup would set p95 of 20 (>= 10 ms), so a
        # table never looked up and a warmed one must both stay under 2 ms
        table = request.getfixturevalue(f"{kind}_table")
        gather = type(table)._blocks.func

        def slow(self):
            time.sleep(0.2)
            return gather(self)

        blocks = functools.cached_property(slow)
        blocks.__set_name__(type(table), "_blocks")
        monkeypatch.setattr(type(table), "_blocks", blocks)
        cold, warm = load(save(table)), load(save(table))
        lookup(warm, warm.lo)
        assert "_blocks" not in cold.__dict__ and "_blocks" in warm.__dict__
        for t in (cold, warm):
            report = bench_controller(geom, masses, t, 20, weights=weights)
            assert report.lookup_median_us < 2000.0 and report.lookup_p95_us < 2000.0

    def test_online_step_at_non_zero_rates(self, geom, masses, weights, flat_table,
                                           monkeypatch):
        # a closed-loop update linearizes at non-zero rates, where the rate
        # columns are filled; an equilibrium would flatter the online side
        rates = []
        real = sim.linearize

        def recording(geom, masses, op):
            rates.append(op.rates)
            return real(geom, masses, op)

        monkeypatch.setattr(sim, "linearize", recording)
        bench_controller(geom, masses, flat_table, 20, weights=weights)
        assert len(rates) == 20
        assert all(np.all(r != 0.0) and np.all(np.abs(r) <= sim.BENCH_RATE) for r in rates)

    def test_digest_checked(self, geom, masses, weights, flat_table):
        other = CostWeights.from_diagonals([1.0] * 8, [1.0] * 4)
        with pytest.raises(DigestMismatch):
            bench_controller(geom, masses, flat_table, 10, weights=other)

    @pytest.mark.parametrize("n_iters, bad_weights, message", [
        (0, "dict", "^n_iters must be a whole number >= 1, got 0$"),
        (10, "dict", "^weights must be a CostWeights, got dict$"),
        (10, "None", "^weights must be a CostWeights, got NoneType$"),
        (10, "other", "^table must be a GainTable or RefinedTable, got bytes$"),
    ], ids=["n_iters", "weights-dict", "weights-None", "table-bytes"])
    def test_first_failing_check_raises(self, geom, masses, flat_table, monkeypatch,
                                        n_iters, bad_weights, message):
        """The checks run before the first lookup, so before any timing, in
        order: n_iters, weights, table, then the digest (test_digest_checked),
        with simulate's messages.  Each case breaks its own check and every
        later one: the table is always its saved bytes, and "other" weights
        are a CostWeights the table was not built for."""
        weights = {"dict": {"Q": 1}, "None": None,
                   "other": CostWeights.from_diagonals([1.0] * 8, [1.0] * 4)}[bad_weights]
        monkeypatch.setattr(sim, "lookup", lambda table, theta: pytest.fail("looked up"))
        with pytest.raises(ValueError, match=message):
            bench_controller(geom, masses, save(flat_table), n_iters, weights=weights)
