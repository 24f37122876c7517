"""The benchmark's workloads, driven through armctl's public API.

Every workload uses the test arm of the repository's test suite and the box
theta_ref +- 0.25 rad around theta_ref = (0.3, 0.8, -0.9, 0.5).

- regulate-table: closed-loop episodes in table mode, alternating a flat
  and a refined table; every sample is replayed through lookup + gain.
- regulate-online: the same episodes in online mode; every sample is
  replayed through linearize + lqr_gain + gain.
- build-table: the offline side: a 7^4 precompute with 2 workers and with
  1, the reference refine (tol 0.1, depth 4), save/load of both tables,
  accuracy at off-node points, and validation episodes flown with the
  freshly built tables.

All three share one set-up (config parse, a small deployment table pair
built, saved and loaded back, warm-up episodes), repeated several times per
run.  Library calls go through module attributes (``armctl.lookup``) so a
Tracer can replace them.
"""

from __future__ import annotations

import logging
import math
import signal
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import armctl

log = logging.getLogger("perfbench")

THETA_REF = (0.3, 0.8, -0.9, 0.5)
BOX_HALF = 0.25  # rad, half-width of the table box on every axis
REF_MARGIN = 0.1  # references stay this far inside the box
ANGLE_KICK = 0.05  # rad, start perturbation from the reference
RATE_KICK = 0.1  # rad/s
SETTLE_TOL = 1e-2  # rad, final angle error of a settled episode


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one run; FULL defines the workloads, TINY is for the
    smoke test."""

    deploy_counts: int = 5  # nodes per axis of the set-up's flat table
    deploy_tol: float = 0.4
    deploy_depth: int = 3
    build_counts: int = 7  # nodes per axis of build-table's flat table
    build_tol: float = 0.1
    build_depth: int = 4
    duration: float = 2.0  # simulated seconds per episode
    warmup_duration: float = 0.2
    setups: int = 5  # rounds of a run, each starting with a set-up
    builds: int = 3  # rounds in which build-table builds its flat pair
    loads: int = 20  # timed loads of the refined table, per set-up or per run
    node_checks: int = 64  # flat-node lookups checked bit for bit
    center_checks: int = 32  # refined leaf centers checked against tol
    setup_err_points: int = 100
    build_err_points: int = 300
    replays: int = 3  # times every sample of an episode is replayed and timed
    min_samples: int = 3000  # replayed control updates per run, at least


FULL = Sizes()
TINY = Sizes(
    deploy_counts=2, deploy_depth=1, build_counts=3, build_tol=0.4, build_depth=2,
    warmup_duration=0.1, setups=2, loads=2, node_checks=4,
    center_checks=2, setup_err_points=4, build_err_points=4, min_samples=20,
)


def arm_config(counts: int, duration: float) -> dict:
    """The config document of the test arm with a counts^4 grid over the box."""
    grid = {
        f"theta{k + 1}": {"min": c - BOX_HALF, "max": c + BOX_HALF, "count": counts}
        for k, c in enumerate(THETA_REF)
    }
    return {
        "geometry": {"L1": 1.0, "L2": 0.8, "L3": 0.6},
        "masses": {"m2": 0.5, "m3": 0.4, "m4": 0.3, "M1": 0.4, "M2": 0.3, "M3": 0.2, "g": 9.81},
        "cost": {"q_diag": [100.0] * 4 + [1.0] * 4, "r_diag": [1.0] * 4},
        "grid": grid,
        "sim": {"dt": 1e-3, "control_period": 0.02, "duration": duration},
    }


# The host's speed (shared vCPUs) switches between a fast and a slow speed,
# about 1.7x apart, from several times a second to once in minutes, which
# moves every wall time with it.  Each timing is therefore scaled by
# REF_NOMINAL_US / (duration of a fixed reference computation measured
# around and, for long stretches, during it): times are reported at the
# host speed at which the reference takes REF_NOMINAL_US.
REF_NOMINAL_US = 10.0
SAMPLE_PERIOD_S = 0.02  # reference sampling inside set-ups, builds and episodes
REF_PER_SAMPLE = 16  # reference runs per sample, about 0.2 ms
REF_PER_OP = 4  # reference runs between two operations timed by OpTimer
_REF_MATRIX = np.arange(16.0).reshape(4, 4) / 16.0


def _reference_op() -> float:
    """Interpreted float arithmetic plus small numpy calls, like armctl's
    own mix; it never changes, so it measures the host, not the code."""
    acc = 0.0
    for i in range(24):
        acc += math.sin(i * 0.1) * math.cos(i * 0.2)
    return float(np.linalg.norm(_REF_MATRIX @ _REF_MATRIX.T + acc))


def reference_us(n: int = 64) -> float:
    """Median duration of the reference computation, in us."""
    times = []
    for _ in range(n):
        start = time.perf_counter_ns()
        _reference_op()
        times.append(time.perf_counter_ns() - start)
    return float(np.median(times)) / 1e3


_sampling = []  # the HostSpeeds with a period that are open, outermost first


def _sample(signum, frame):
    """SIGALRM handler: one reference sample for every open HostSpeed."""
    start = time.perf_counter()
    ref = reference_us(REF_PER_SAMPLE)
    spent = time.perf_counter() - start
    for speed in _sampling:
        speed.samples.append(ref)
        speed.sampling_s += spent


class HostSpeed:
    """Times a stretch at nominal host speed.

    ``with HostSpeed() as speed: ...`` then ``speed.seconds`` is the wall
    time of the stretch scaled by the reference measured before and after
    it.  With `period`, for stretches long enough for the speed to change
    inside them, SIGALRM also measures the reference every `period` seconds
    in between, in the main thread between two bytecodes of the work; the
    time those samples take is left out of `seconds`.  (A sampling thread
    would wait for the GIL, which armctl's solves seldom let it have.)
    Control updates and loads are too short for either: OpTimer measures
    the host between every two of them.
    """

    def __init__(self, period: float | None = None):
        self.period = period
        self.samples = []
        self.sampling_s = 0.0

    def __enter__(self):
        self.samples.append(reference_us())
        if self.period is not None:
            if not _sampling:
                signal.signal(signal.SIGALRM, _sample)
                signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
            _sampling.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.period is not None:
            _sampling.remove(self)
            if not _sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
        wall = time.perf_counter() - self._start
        self.after = reference_us()
        self.samples.append(self.after)
        self.seconds = (wall - self.sampling_s) * REF_NOMINAL_US / statistics.fmean(self.samples)
        return False


class OpTimer:
    """Times short operations (control updates, loads) one by one at
    nominal host speed.

    The host switches between a fast and a slow speed (about 1.7x apart)
    several times a second, so a speed measured once per episode leaves
    updates from both in its tail.  ``with timer:`` around one operation
    appends its time in us, scaled by the reference measured just before
    and just after it, to `us`.
    """

    def __init__(self):
        self.us = []
        self._before = reference_us(REF_PER_OP)

    def __enter__(self):
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        ns = time.perf_counter_ns() - self._start
        after = reference_us(REF_PER_OP)
        self.us.append(ns * 1e-3 * 2 * REF_NOMINAL_US / (self._before + after))
        self._before = after
        return False


def _box():
    return np.subtract(THETA_REF, BOX_HALF), np.add(THETA_REF, BOX_HALF)


class GateError(Exception):
    """An output of armctl differs from what it must be."""


@dataclass
class Tally:
    """What one phase of a run attempted and measured."""

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)  # exception type -> count
    # timings at nominal host speed (see HostSpeed and OpTimer)
    control_us: list = field(default_factory=list)  # every replayed update
    sample_us: list = field(default_factory=list)  # each sample's median over its replays
    episode_p50_us: list = field(default_factory=list)  # median update of each episode
    simulated_s: float = 0.0
    simulate_wall_s: float = 0.0
    host_ref_us: list = field(default_factory=list)  # reference_us() seen, for the report
    build_s: list = field(default_factory=list)
    build_1w_s: list = field(default_factory=list)
    refine_s: list = field(default_factory=list)
    load_ms: list = field(default_factory=list)  # median of each time_loads()
    table_bytes: list = field(default_factory=list)
    gain_err: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def attempt(self, fn, *args, **kwargs):
        """Run one operation; count an exception by type and return None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation must not stop the run
            self.failures[type(exc).__name__] += 1
            log.warning("%s failed", getattr(fn, "__name__", fn), exc_info=True)
            return None

    def timed(self, into: list, scale: float, fn, *args, **kwargs):
        """attempt() that appends the wall time of a success, at nominal
        host speed and multiplied by `scale`, to `into`."""
        with HostSpeed(SAMPLE_PERIOD_S) as speed:
            result = self.attempt(fn, *args, **kwargs)
        self.host_ref_us.append(speed.after)
        if result is not None:
            into.append(speed.seconds * scale)
        return result


class Bench:
    """One benchmark run: the arm, the sizes, and the tables in use.

    A run is `rounds` rounds, each a set-up followed by a slice of the
    workload's measured work, so that every metric samples the whole run
    and not one stretch of it.
    """

    def __init__(self, sizes: Sizes, workers: int):
        self.sizes = sizes
        self.workers = workers
        self.config = None
        self.tables = None  # (flat, refined) the regulate workloads fly with
        self.built = None  # (flat, refined, refined blob) of build-table

    @property
    def rounds(self) -> int:
        return self.sizes.setups

    # -- set-up ---------------------------------------------------------------

    def setup(self, tally: Tally, rng) -> None:
        """Config parse, deployment tables built, shipped and checked, and a
        warm-up episode in each controller mode."""
        s = self.sizes
        self.config = armctl.parse_config(arm_config(s.deploy_counts, s.duration))
        flat, refined, blob = self.build_and_ship(
            tally, rng, s.deploy_counts, s.deploy_tol, s.deploy_depth, s.setup_err_points
        )
        if flat is None or refined is None:
            raise RuntimeError("set-up could not build its tables; see the log above")
        self.time_loads(tally, blob, s.loads)
        self.tables = (flat, refined)
        warmup = armctl.SimConfig(self.config.sim.dt, self.config.sim.control_period,
                                  s.warmup_duration)
        for table in self.tables:
            self.episode(Tally(), rng, armctl.ControllerMode.TABLE_LQR, table, warmup)
        self.episode(Tally(), rng, armctl.ControllerMode.ONLINE_LQR, None, warmup)

    # -- measured work ----------------------------------------------------------

    def measure(self, workload: str, tally: Tally, rng, round_: int, seconds: float) -> None:
        """Slice `round_` of the workload's measured work.

        The regulate workloads fly episodes for seconds / rounds, and until
        their share of min_samples updates is replayed.  build-table builds
        every table in round 0 and its flat pair again in the next
        `builds` - 1 rounds; each round times its share of the loads and
        flies its share of the validation episodes.
        """
        samples = -(-self.sizes.min_samples * (round_ + 1) // self.rounds)
        if workload == "build-table":
            s = self.sizes
            if round_ == 0:
                self.built = self.build_and_ship(
                    tally, rng, s.build_counts, s.build_tol, s.build_depth, s.build_err_points
                )
            elif round_ < s.builds:
                self.build_flat(tally, s.build_counts)
            flat, refined, blob = self.built
            if blob is not None:
                self.time_loads(tally, blob, -(-s.loads // self.rounds))
            tables = [t for t in (flat, refined) if t is not None]
            i = 0
            while tables and len(tally.control_us) < samples:
                self.episode(tally, rng, armctl.ControllerMode.TABLE_LQR, tables[i % len(tables)])
                i += 1
            return
        deadline = time.perf_counter() + seconds / self.rounds
        while time.perf_counter() < deadline or len(tally.control_us) < samples:
            self.unit(workload, tally, rng)

    def unit(self, workload: str, tally: Tally, rng) -> None:
        """One episode of a regulate workload, or (build-table) one refine
        of the set-up's size: the unit the tracing overhead is measured on."""
        if workload == "regulate-table":
            # the measured tally counts only episodes here, so tables alternate
            table = self.tables[tally.attempted % 2]
            self.episode(tally, rng, armctl.ControllerMode.TABLE_LQR, table)
        elif workload == "regulate-online":
            self.episode(tally, rng, armctl.ControllerMode.ONLINE_LQR)
        else:
            c, s = self.config, self.sizes
            tally.attempt(armctl.refine, c.geometry, c.masses, c.weights, _box(),
                          s.deploy_tol, s.deploy_depth)

    # -- offline build ----------------------------------------------------------

    def direct_gain(self, theta) -> np.ndarray:
        """The gain an online solve gives at the equilibrium at theta."""
        c = self.config
        op = armctl.equilibrium_point(c.geometry, c.masses, theta)
        model = armctl.linearize(c.geometry, c.masses, op)
        return armctl.lqr_gain(model.A, model.B, c.weights)

    def build_flat(self, tally, counts):
        """A counts^4 table built with `workers` and with 1 worker; the two
        must serialize identically.  Returns the first, or None."""
        c = self.config
        box = _box()
        grid = armctl.GridSpec(tuple(box[0]), tuple(box[1]), (counts,) * 4)
        arm = (c.geometry, c.masses, c.weights)
        flat = tally.timed(tally.build_s, 1.0, armctl.precompute, *arm, grid,
                           workers=self.workers)
        flat_1w = tally.timed(tally.build_1w_s, 1.0, armctl.precompute, *arm, grid, workers=1)
        if flat is not None and flat_1w is not None:
            if armctl.save(flat) != armctl.save(flat_1w):
                raise GateError(f"{counts}^4 table differs between {self.workers} workers and 1")
        return flat

    def build_and_ship(self, tally, rng, counts, tol, depth, err_points):
        """Build a flat and a refined table, save each and load it back,
        then check the loaded ones and measure the refined one's accuracy
        at err_points seeded off-node points.

        Returns (loaded flat, loaded refined, refined blob), None where a
        step failed.
        """
        c = self.config
        box = _box()
        flat = self.build_flat(tally, counts)
        refined = tally.timed(tally.refine_s, 1.0, armctl.refine, c.geometry, c.masses,
                              c.weights, box, tol, depth)
        shipped = []
        for table in (flat, refined):
            blob = None if table is None else tally.attempt(armctl.save, table)
            loaded = None if blob is None else tally.attempt(armctl.load, blob)
            if loaded is not None and armctl.save(loaded) != blob:
                raise GateError(f"save(load(b)) != b for the {type(table).__name__}")
            shipped.append((blob, loaded))
        (_, flat), (blob, refined) = shipped
        if refined is not None:
            tally.table_bytes.append(len(blob))

        if flat is not None:
            self.check_nodes(flat, rng)
        if refined is not None:
            self.check_centers(refined, rng)
            for theta in rng.uniform(box[0], box[1], size=(err_points, 4)):
                err = tally.attempt(self.gain_error, refined, theta)
                if err is not None:
                    tally.gain_err.append(err)
        return flat, refined, blob

    def time_loads(self, tally, blob, n):
        """Load the blob n times; record the median time."""
        timer, times = OpTimer(), []
        for _ in range(n):
            with timer:
                loaded = tally.attempt(armctl.load, blob)
            if loaded is not None:
                times.append(timer.us[-1])
        if times:
            tally.load_ms.append(float(np.median(times)) * 1e-3)

    def check_nodes(self, table, rng):
        """Lookups at stored nodes return the stored gains bit for bit."""
        for flat_index in rng.choice(table.grid.n_nodes, self.sizes.node_checks):
            ix = np.unravel_index(flat_index, table.grid.shape)
            gain = armctl.lookup(table, table.grid.node_angles(ix))
            if gain.tobytes() != table.entries[ix].tobytes():
                raise GateError(f"lookup at node {ix} is not the stored gain")

    def check_centers(self, table, rng):
        """At unflagged leaf centers the interpolation error is within tol."""
        leaves = [leaf for leaf in table.leaves() if not leaf.flagged]
        if not leaves:
            return
        picks = rng.choice(len(leaves), min(self.sizes.center_checks, len(leaves)), replace=False)
        for i in picks:
            center = leaves[i].center()
            err = np.linalg.norm(armctl.lookup(table, center) - self.direct_gain(center), 2)
            if not err <= table.tol:
                raise GateError(f"error {err} > tol {table.tol} at leaf center {center}")

    def gain_error(self, table, theta) -> float:
        """||lookup - direct solve||_2 at theta."""
        return float(np.linalg.norm(armctl.lookup(table, theta) - self.direct_gain(theta), 2))

    # -- closed loop --------------------------------------------------------------

    def episode(self, tally, rng, mode, table=None, sim=None):
        """Simulate one seeded episode, then replay and time every sample,
        `replays` times over.  A stall of the host hits one replay of a
        sample, not most of them, so a sample's median over its replays
        keeps the update's own cost without it.

        The reference is drawn inside the box with a margin; the start is
        the reference perturbed on angles and rates.
        """
        c = self.config
        sim = sim or c.sim
        center = np.asarray(THETA_REF)
        theta = rng.uniform(center - (BOX_HALF - REF_MARGIN), center + (BOX_HALF - REF_MARGIN))
        x_ref = np.concatenate([theta, np.zeros(4)])
        x0 = x_ref + np.concatenate(
            [rng.uniform(-ANGLE_KICK, ANGLE_KICK, 4), rng.uniform(-RATE_KICK, RATE_KICK, 4)]
        )
        with HostSpeed(SAMPLE_PERIOD_S) as speed:
            traj = tally.attempt(armctl.simulate, c.geometry, c.masses, sim, mode, x0, x_ref,
                                 weights=c.weights, table=table)
        tally.host_ref_us.append(speed.after)
        if traj is None:
            return
        tally.simulate_wall_s += speed.seconds
        tally.simulated_s += sim.n_updates * sim.control_period
        control_us = []
        for _ in range(self.sizes.replays):
            if mode is armctl.ControllerMode.TABLE_LQR:
                control_us += self.replay_table(table, traj, x_ref)
            else:
                control_us += self.replay_online(traj, x_ref)
        tally.control_us.extend(control_us)
        tally.sample_us.extend(np.median(np.reshape(control_us, (self.sizes.replays, -1)), axis=0))
        tally.episode_p50_us.append(float(np.median(control_us)))
        if not np.max(np.abs(traj.states[-1, :4] - theta)) < SETTLE_TOL:
            tally.failures["NotSettled"] += 1

    def replay_table(self, table, traj, x_ref) -> list:
        """One table update per sample: lookup, then tau_ff - K (x - x_ref).
        Returns the time of each update in us at nominal host speed."""
        c = self.config
        tau_ff = armctl.equilibrium_torque(c.geometry, c.masses, x_ref[:4])
        timer = OpTimer()
        for x, u in zip(traj.states, traj.inputs):
            with timer:
                gain = armctl.lookup(table, x[:4])
                out = tau_ff - gain @ (x - x_ref)
            if out.tobytes() != u.tobytes():
                raise GateError(f"table replay {out} != simulated input {u}")
        return timer.us

    def replay_online(self, traj, x_ref) -> list:
        """One online update per sample: linearize at the previous command,
        lqr_gain, then tau_ff - K (x - x_ref).  Returns us per update at
        nominal host speed."""
        c = self.config
        tau_ff = armctl.equilibrium_torque(c.geometry, c.masses, x_ref[:4])
        previous = armctl.equilibrium_torque(c.geometry, c.masses, traj.states[0, :4])
        timer = OpTimer()
        for x, u in zip(traj.states, traj.inputs):
            with timer:
                op = armctl.OperatingPoint(x[:4], x[4:], previous)
                model = armctl.linearize(c.geometry, c.masses, op)
                gain = armctl.lqr_gain(model.A, model.B, c.weights)
                out = tau_ff - gain @ (x - x_ref)
            if out.tobytes() != u.tobytes():
                raise GateError(f"online replay {out} != simulated input {u}")
            previous = u
        return timer.us
