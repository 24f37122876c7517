import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import armctl.simulator as sim
from armctl import (
    ArmError,
    ArmGeometry,
    ControllerMode,
    CostWeights,
    DigestMismatch,
    Diverged,
    EmptyBenchmark,
    GridSpec,
    MassModel,
    OutOfBounds,
    SimConfig,
    bench_controller,
    equilibrium_torque,
    precompute,
    refine,
    simulate,
    step_rk4,
)
from armctl.simulator import CSV_HEADER
from conftest import safe_random_theta
from oracles import reference_step_rk4

UNIT = ArmGeometry(1.0, 1.0, 1.0)

# gentle passive motion, inertias bounded away from zero throughout
PASSIVE_X0 = np.array([0.4, 2.6, 0.8, -0.5, 0.3, 0.0, 0.0, 0.0])


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

    @pytest.mark.parametrize("run", ["passive", "online", "flat", "refined"])
    def test_simulate_matches_reference(
        self, request, monkeypatch, geom, masses, weights, ref_state, run
    ):
        if run in ("flat", "refined"):
            table = request.getfixturevalue(f"{run}_table")
            mode, kwargs = ControllerMode.TABLE_LQR, {"weights": weights, "table": table}
        elif run == "online":
            mode, kwargs = ControllerMode.ONLINE_LQR, {"weights": weights}
        else:
            mode, kwargs = ControllerMode.PASSIVE, {}
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
        with pytest.raises(EmptyBenchmark):
            bench_controller(geom, masses, flat_table, 0, weights=weights)

    def test_lookup_beats_online(self, geom, masses, weights, flat_table):
        report = bench_controller(geom, masses, flat_table, 50, weights=weights)
        assert report.lookup_median_us < report.online_median_us
        assert report.speedup > 1.0
        assert math.isfinite(report.speedup)
        assert report.n_iters == 50

    def test_layer_medians(self, geom, masses, weights, flat_table):
        report = bench_controller(geom, masses, flat_table, 30, weights=weights)
        layers = (report.linearize_median_us, report.care_median_us,
                  report.locate_median_us, report.blend_median_us)
        assert all(math.isfinite(v) and v > 0.0 for v in layers)
        assert report.linearize_median_us < report.online_median_us
        assert report.care_median_us < report.online_median_us

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
