"""Fixed-step RK4 simulation of the arm, passive or closed loop.

Closed-loop control is u = tau_eq(theta_ref) - K (x - x_ref), updated every
control period and held constant between updates (zero-order hold).  The
gain K comes either from a fresh linearize-plus-Riccati solve each update
(online mode, linearizing at the previously commanded torque) or from a
precomputed gain table (table mode).

The plant is integrated on Python floats: `_integrate` runs a whole control
period of RK4 steps in one loop over `dynamics._accelerations`, with no
array conversion per stage.  Each stage repeats the elementwise operations
of the array form, so trajectories are bit-identical to it; `step_rk4` is
the same loop for one step.  A state that turns non-finite raises Diverged.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass

import numpy as np

from .dynamics import MassModel, _accelerations, equilibrium_torque, total_energy
from .errors import ArmError, Diverged, EmptyBenchmark, components, count, scalar, vector
from .gain_table import GainTable, RefinedTable, _blend, check_digest, lookup
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
    both); returns the end state as a list.  Each stage repeats the
    elementwise IEEE operations of the array form x + (0.5*dt)*k, x + dt*k
    and x + (dt/6)*(((k1 + 2k2) + 2k3) + k4), so the result is
    bit-identical to it.  Raises Diverged as soon as the start state, a
    stage state or a step's end state holds a non-finite value.
    """
    half = 0.5 * dt
    sixth = dt / 6.0
    _check_finite(x, 0, steps)

    def f(y):
        return y[4:] + _accelerations(geom, masses, y[1], y[2], y[3], y[4:], torque)

    for n in range(steps):
        k1 = f(x)
        y = [a + half * b for a, b in zip(x, k1)]
        _check_finite(y, n, steps)
        k2 = f(y)
        y = [a + half * b for a, b in zip(x, k2)]
        _check_finite(y, n, steps)
        k3 = f(y)
        y = [a + dt * b for a, b in zip(x, k3)]
        _check_finite(y, n, steps)
        k4 = f(y)
        x = [
            a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)
        ]
        _check_finite(x, n + 1, steps)
    return x


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

    Online mode needs `weights`; table mode needs `table` (its digest is
    checked against geom/masses, and against `weights` when given).  On a
    mid-run failure (any ArmError, e.g. OutOfBounds, NotStabilizable,
    IllConditioned, DegenerateInertia or Diverged) the exception is re-raised
    with the samples so far attached as `.partial`.  x0 and x_ref are
    8-vectors [theta, rates], read by `errors.vector`.
    """
    x = np.array(vector(x0, 8, "x0"))
    if mode is not ControllerMode.PASSIVE:
        if x_ref is None:
            raise ValueError(f"{mode.value} mode requires x_ref")
        x_ref = np.array(vector(x_ref, 8, "x_ref"))
        tau_ff = equilibrium_torque(geom, masses, x_ref[:4])
    if mode is ControllerMode.ONLINE_LQR and weights is None:
        raise ValueError("online mode requires cost weights")
    if mode is ControllerMode.TABLE_LQR:
        if table is None:
            raise ValueError("table mode requires a gain table")
        check_digest(table, geom=geom, masses=masses, weights=weights)

    tau_cached = None
    if mode is ControllerMode.ONLINE_LQR:
        tau_cached = equilibrium_torque(geom, masses, x[:4])

    def control(state):
        nonlocal tau_cached
        if mode is ControllerMode.PASSIVE:
            return np.zeros(4)
        if mode is ControllerMode.ONLINE_LQR:
            op = OperatingPoint(state[:4], state[4:], tau_cached)
            model = linearize(geom, masses, op)
            gain = lqr_gain(model.A, model.B, weights)
            u = tau_ff - gain @ (state - x_ref)
            tau_cached = u
            return u
        gain = lookup(table, state[:4])
        return tau_ff - gain @ (state - x_ref)

    times, states, inputs, energy = [], [], [], []

    def record(t, state, u):
        times.append(t)
        states.append(state.copy())
        inputs.append(np.asarray(u, dtype=float).copy())
        energy.append(total_energy(geom, masses, state[:4], state[4:]))

    def partial() -> Trajectory:
        return Trajectory(
            np.array(times), np.array(states).reshape(len(times), 8),
            np.array(inputs).reshape(len(times), 4), np.array(energy),
        )

    try:
        for p in range(config.n_updates):
            u = control(x)
            record(p * config.control_period, x, u)
            x = np.array(_integrate(
                geom, masses, x.tolist(), np.asarray(u, dtype=float).tolist(),
                config.dt, config.steps_per_update,
            ))
        record(config.n_updates * config.control_period, x, control(x))
    except ArmError as exc:
        exc.partial = partial()
        raise
    return partial()


@dataclass(frozen=True)
class LatencyReport:
    """Wall-clock cost of one control step, online versus table lookup, and
    the medians of the layers inside each: linearize and the CARE solve
    (lqr_gain) of the online step; cell location and the corner blend
    with the gain product of the lookup."""

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
    seed: int = 0,
) -> LatencyReport:
    """Compare one online control step (linearize + Riccati solve + gain,
    then applying the gain) against one table lookup + gain application,
    at n_iters random states: in-bounds angles and rates up to BENCH_RATE.
    The rates are non-zero, as in a closed-loop update, so linearize fills
    the rate columns too (see linearization).

    Each layer is also timed on its own: linearize and lqr_gain inside the
    online step, and, in a second pass over the same state, the table's
    cell location and the corner blend with the gain product.
    Everything runs on the calling thread so the timings are stable.
    Raises EmptyBenchmark when n_iters <= 0.
    """
    if scalar(n_iters, "n_iters") <= 0:
        raise EmptyBenchmark(f"n_iters must be positive, got {n_iters}")
    n_iters = count(n_iters, "n_iters", 1)
    check_digest(table, geom=geom, masses=masses, weights=weights)

    rng = np.random.default_rng(seed)
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
        gain = lookup(table, theta)
        _ = gain @ dx
        ns[1, i] = clock() - start

        _, t2, t3, t4 = theta.tolist()
        start = clock()
        corners, fractions = table._locate(t2, t3, t4)
        located = clock()
        _ = _blend(table._rows.take(corners, axis=0), fractions) @ dx
        end = clock()
        ns[4, i], ns[5, i] = located - start, end - located

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
