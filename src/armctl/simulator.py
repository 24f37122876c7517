"""Fixed-step RK4 simulation of the arm, passive or closed loop.

Closed-loop control is one law, u = tau_eq(theta_ref) - K (x - x_ref), updated
every control period and held between updates (zero-order hold).  Each mode
is a gain source built once with its checks, a function of the state and the
held torque returning K: a linearize-plus-Riccati solve at the held torque
(online mode) or a gain-table lookup (table mode).  Passive mode has none.

The plant is integrated on Python floats: `_integrate` runs a whole control
period of RK4 steps in one loop, one `dynamics._kernel` call per stage
returning the four accelerations, with every stage state and end state
held in local floats, the arm's mass forms looked up once per call and no
array conversion per stage.  Each stage writes out the elementwise
operations of the array form, so trajectories are bit-identical to it;
`step_rk4` is the same loop for one step.  A state that turns non-finite
raises Diverged.  The energy sampled each control period is read from the
same kernel, on the state's floats.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass

import numpy as np

from .dynamics import MassModel, _energy, _kernel, _mass_forms, equilibrium_torque
from .errors import ArmError, Diverged, components, count, scalar, vector
from .gain_table import GainTable, RefinedTable, _blend, _cell, check_digest, lookup
from .kinematics import ArmGeometry
from .linearization import OperatingPoint, linearize
from .riccati import CostWeights, lqr_gain

CSV_HEADER = "t,th1,th2,th3,th4,w1,w2,w3,w4,tau1,tau2,tau3,tau4,E"
BENCH_RATE = 0.5  # rad/s, bound of the joint rates bench_controller draws


@dataclass(frozen=True)
class SimConfig:
    """Integration step, controller update interval, and run length (s).

    control_period must be a whole multiple of dt; the duration is rounded
    to a whole number of control periods (at least one).
    """

    dt: float = 1e-3
    control_period: float = 0.02
    duration: float = 5.0

    def __post_init__(self):
        for name in ("dt", "control_period", "duration"):
            object.__setattr__(self, name, scalar(getattr(self, name), name))
        if self.dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.control_period < self.dt:
            raise ValueError(f"control_period must be >= dt {self.dt}, got {self.control_period}")
        if self.duration <= 0.0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        steps = self.control_period / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(
                f"control_period {self.control_period} is not a multiple of dt {self.dt}"
            )

    @property
    def steps_per_update(self) -> int:
        return int(round(self.control_period / self.dt))

    @property
    def n_updates(self) -> int:
        return max(1, int(round(self.duration / self.control_period)))


class ControllerMode(enum.Enum):
    PASSIVE = "passive"
    ONLINE_LQR = "online"
    TABLE_LQR = "table"


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled run: one sample per control period, including t=0.

    inputs[i] is the torque commanded at times[i] (held until the next
    sample); the final row carries the command the controller would issue
    at the end state.  energy is KE + PE of the model.
    """

    times: np.ndarray
    states: np.ndarray  # (n, 8)
    inputs: np.ndarray  # (n, 4)
    energy: np.ndarray

    def to_csv(self, f):
        """Write the CSV layout (header above) with 17-significant-digit values."""
        f.write(CSV_HEADER + "\n")
        for i in range(self.times.size):
            row = [self.times[i], *self.states[i], *self.inputs[i], self.energy[i]]
            f.write(",".join(format(v, ".17g") for v in row) + "\n")


def _integrate(geom: ArmGeometry, masses: MassModel, x, torque, dt: float, steps: int):
    """`steps` classical Runge-Kutta steps of x' = [rates, accelerations]
    with the torque held constant, on Python floats.

    x is a list of 8 floats and torque a sequence of 4 (the callers check
    both); returns the end state as a list.  Every state is held in local
    floats, and each stage writes out the elementwise IEEE operations of
    the array form x + (0.5*dt)*k, x + dt*k and
    x + (dt/6)*(((k1 + 2k2) + 2k3) + k4), so the result is bit-identical to
    it.  Raises Diverged as soon as the start state, a stage state or a
    step's end state holds a non-finite value: a finite sum of a state
    proves it finite, and only a non-finite one is checked term by term.
    """
    half = 0.5 * dt
    sixth = dt / 6.0
    _check_finite(x, 0, steps)
    forms = _mass_forms(geom, masses)
    t1, t2, t3, t4, w1, w2, w3, w4 = x
    u1, u2, u3, u4 = torque
    for n in range(steps):
        # k1 = (w, a), k2 = (r, b), k3 = (q, c), k4 = (p, d); s the stage angles
        a1, a2, a3, a4 = _kernel(forms, t2, t3, t4, w1, w2, w3, w4, u1, u2, u3, u4)
        s2, s3, s4 = t2 + half * w2, t3 + half * w3, t4 + half * w4
        r1, r2, r3, r4 = w1 + half * a1, w2 + half * a2, w3 + half * a3, w4 + half * a4
        if not math.isfinite(t1 + half * w1 + s2 + s3 + s4 + r1 + r2 + r3 + r4):
            _check_finite([t1 + half * w1, s2, s3, s4, r1, r2, r3, r4], n, steps)
        b1, b2, b3, b4 = _kernel(forms, s2, s3, s4, r1, r2, r3, r4, u1, u2, u3, u4)
        s2, s3, s4 = t2 + half * r2, t3 + half * r3, t4 + half * r4
        q1, q2, q3, q4 = w1 + half * b1, w2 + half * b2, w3 + half * b3, w4 + half * b4
        if not math.isfinite(t1 + half * r1 + s2 + s3 + s4 + q1 + q2 + q3 + q4):
            _check_finite([t1 + half * r1, s2, s3, s4, q1, q2, q3, q4], n, steps)
        c1, c2, c3, c4 = _kernel(forms, s2, s3, s4, q1, q2, q3, q4, u1, u2, u3, u4)
        s2, s3, s4 = t2 + dt * q2, t3 + dt * q3, t4 + dt * q4
        p1, p2, p3, p4 = w1 + dt * c1, w2 + dt * c2, w3 + dt * c3, w4 + dt * c4
        if not math.isfinite(t1 + dt * q1 + s2 + s3 + s4 + p1 + p2 + p3 + p4):
            _check_finite([t1 + dt * q1, s2, s3, s4, p1, p2, p3, p4], n, steps)
        d1, d2, d3, d4 = _kernel(forms, s2, s3, s4, p1, p2, p3, p4, u1, u2, u3, u4)
        t1 = t1 + sixth * (w1 + 2.0 * r1 + 2.0 * q1 + p1)
        t2 = t2 + sixth * (w2 + 2.0 * r2 + 2.0 * q2 + p2)
        t3 = t3 + sixth * (w3 + 2.0 * r3 + 2.0 * q3 + p3)
        t4 = t4 + sixth * (w4 + 2.0 * r4 + 2.0 * q4 + p4)
        w1 = w1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        w2 = w2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        w3 = w3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
        w4 = w4 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4)
        if not math.isfinite(t1 + t2 + t3 + t4 + w1 + w2 + w3 + w4):
            _check_finite([t1, t2, t3, t4, w1, w2, w3, w4], n + 1, steps)
    return [t1, t2, t3, t4, w1, w2, w3, w4]


def _check_finite(y, n, steps):
    # a finite sum proves every term finite; only a non-finite sum (which
    # finite terms can also give, by overflow) needs the term-by-term test
    if not math.isfinite(sum(y)) and not all(map(math.isfinite, y)):
        raise Diverged(f"non-finite state {y!r} after {n} of {steps} RK4 steps")


def step_rk4(geom: ArmGeometry, masses: MassModel, x, torque, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of x' = [rates, forward_dynamics(...)]
    with the torque held constant over the step.  Raises Diverged when a
    state along the step is non-finite (x and torque included: their shapes
    alone are checked first, by `errors.components`)."""
    x, torque = components(x, 8, "x"), components(torque, 4, "torque")
    return np.array(_integrate(geom, masses, x, torque, scalar(dt, "dt"), 1))


def simulate(
    geom: ArmGeometry,
    masses: MassModel,
    config: SimConfig,
    mode: ControllerMode,
    x0,
    x_ref=None,
    *,
    weights: CostWeights | None = None,
    table: GainTable | RefinedTable | None = None,
) -> Trajectory:
    """Run the closed- or open-loop simulation and sample every control period.

    Online mode needs `weights` and table mode `table`, whose digest is checked
    against geom/masses (and `weights` when given); either of another type
    raises ValueError.  On a mid-run failure (any ArmError, e.g. OutOfBounds,
    NotStabilizable, IllConditioned, DegenerateInertia or Diverged) the
    exception is re-raised with the samples so far attached as `.partial`.
    x0 and x_ref are 8-vectors [theta, rates], read by `errors.vector`.
    """
    if not isinstance(mode, ControllerMode):
        raise ValueError(f"mode must be a ControllerMode, got {mode!r}")
    x = np.array(vector(x0, 8, "x0"))
    x_ref = None if x_ref is None else np.array(vector(x_ref, 8, "x_ref"))
    gain, tau_ff, u = _gain_source(geom, masses, mode, x, x_ref, weights, table)

    times, states, inputs, energy = [], [], [], []
    forms = _mass_forms(geom, masses)

    def trajectory() -> Trajectory:
        return Trajectory(np.array(times), np.array(states).reshape(len(times), 8),
                          np.array(inputs).reshape(len(times), 4), np.array(energy))

    try:
        # x is a fresh array every period and u a float array, so both are kept as they are
        for p in range(config.n_updates + 1):
            if gain is not None:
                u = tau_ff - gain(x, u) @ (x - x_ref)
            times.append(p * config.control_period)
            states.append(x)
            inputs.append(u)
            energy.append(_energy(forms, *x[1:].tolist()))
            if p < config.n_updates:
                x = np.array(_integrate(geom, masses, x.tolist(), u.tolist(),
                                        config.dt, config.steps_per_update))
    except ArmError as exc:
        exc.partial = trajectory()
        raise
    return trajectory()


def _gain_source(geom, masses, mode, x, x_ref, weights, table):
    """The mode's gain source, feed-forward and first held torque, after its checks."""
    if mode is ControllerMode.PASSIVE:
        return None, None, np.zeros(4)
    if x_ref is None:
        raise ValueError(f"{mode.value} mode requires x_ref")
    _check_weights(weights, type(None))
    # tau_ff follows each mode's checks, so they report before its Diverged
    if mode is ControllerMode.ONLINE_LQR:
        if weights is None:
            raise ValueError("online mode requires cost weights")
        def online(state, u):
            model = linearize(geom, masses, OperatingPoint(state[:4], state[4:], u))
            return lqr_gain(model.A, model.B, weights)
        tau_ff = equilibrium_torque(geom, masses, x_ref[:4])
        return online, tau_ff, equilibrium_torque(geom, masses, x[:4])
    if table is None:
        raise ValueError("table mode requires a gain table")
    check_digest(table, geom=geom, masses=masses, weights=weights)
    tau_ff = equilibrium_torque(geom, masses, x_ref[:4])
    return (lambda state, u: lookup(table, state[:4])), tau_ff, np.zeros(4)


def _check_weights(weights, *allowed):
    if not isinstance(weights, (CostWeights, *allowed)):
        raise ValueError(f"weights must be a CostWeights, got {type(weights).__name__}")


@dataclass(frozen=True)
class LatencyReport:
    """Wall-clock cost of one control step, online versus table lookup on a
    table looked up once before, and the medians of its layers: online,
    linearize and lqr_gain; lookup, in one pass, locate (argument read, bounds,
    wrap, cell and its 8 weights, its cell's cached corner block) then blend
    (the corners' weighted sum, gain product), summing to it."""

    online_median_us: float
    online_p95_us: float
    lookup_median_us: float
    lookup_p95_us: float
    speedup: float
    n_iters: int
    linearize_median_us: float
    care_median_us: float
    locate_median_us: float
    blend_median_us: float


def bench_controller(
    geom: ArmGeometry,
    masses: MassModel,
    table: GainTable | RefinedTable,
    n_iters: int,
    *,
    weights: CostWeights,
) -> LatencyReport:
    """Compare one online control step (linearize + Riccati solve + gain,
    then applying the gain) against one table lookup + gain application,
    at n_iters states drawn from a fixed seed: in-bounds angles and rates
    up to BENCH_RATE.  The rates are non-zero, as in a closed-loop update,
    so linearize fills the rate columns too (see linearization).

    Each layer is also timed on its own (see LatencyReport): linearize and
    lqr_gain inside the online step, and the lookup's two halves, locate
    (`gain_table._cell`) and blend, timed in one pass so they sum to it.
    An untimed lookup first pays the table's one-off gather of its corner blocks.
    Everything runs on the calling thread so the timings are stable.  Its
    arguments are checked first, in order: n_iters, weights, table, digest.
    """
    n_iters = count(n_iters, "n_iters", 1)
    _check_weights(weights)
    check_digest(table, geom=geom, masses=masses, weights=weights)
    lookup(table, table.lo)

    rng = np.random.default_rng(0)
    thetas = rng.uniform(table.lo, table.hi, size=(n_iters, 4))
    refs = rng.uniform(table.lo, table.hi, size=(n_iters, 4))
    rates = rng.uniform(-BENCH_RATE, BENCH_RATE, size=(n_iters, 4))

    # per iteration: online, lookup, linearize, care, locate, blend
    ns = np.empty((6, n_iters))
    clock = time.perf_counter_ns
    for i in range(n_iters):
        theta = thetas[i]
        dx = np.concatenate([theta - refs[i], rates[i]])
        op = OperatingPoint(theta, rates[i], equilibrium_torque(geom, masses, theta))

        start = clock()
        model = linearize(geom, masses, op)
        linearized = clock()
        gain = lqr_gain(model.A, model.B, weights)
        solved = clock()
        _ = gain @ dx
        end = clock()
        ns[0, i], ns[2, i], ns[3, i] = end - start, linearized - start, solved - linearized

        start = clock()
        cell = _cell(table, theta)
        located = clock()
        _ = _blend(*cell) @ dx
        end = clock()
        ns[1, i], ns[4, i], ns[5, i] = end - start, located - start, end - located

    online, lookup_us, linearize_us, care_us, locate_us, blend_us = (
        np.median(ns / 1e3, axis=1).tolist())
    return LatencyReport(
        online_median_us=online,
        online_p95_us=float(np.percentile(ns[0] / 1e3, 95)),
        lookup_median_us=lookup_us,
        lookup_p95_us=float(np.percentile(ns[1] / 1e3, 95)),
        speedup=online / lookup_us,
        n_iters=n_iters,
        linearize_median_us=linearize_us,
        care_median_us=care_us,
        locate_median_us=locate_us,
        blend_median_us=blend_us,
    )
