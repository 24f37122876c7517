import dataclasses
import itertools
import math
import multiprocessing
import multiprocessing.connection
import os
import select
import signal
import stat
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import armctl.gain_table as gt
from armctl import (
    ArmError,
    BadGrid,
    BadMagic,
    CostWeights,
    DegenerateInertia,
    DigestMismatch,
    GainTable,
    GridSpec,
    IllConditioned,
    MassModel,
    NodeFailure,
    NotStabilizable,
    OutOfBounds,
    RefinedTable,
    TableFormatError,
    TreeTooDeep,
    TruncatedData,
    VersionMismatch,
    check_digest,
    equilibrium_point,
    linearize,
    load,
    load_file,
    lookup,
    lqr_gain,
    precompute,
    refine,
    save,
    save_file,
    table_digest,
)
from oracles import (
    _leaf_indices,
    reference_build_failure,
    reference_lookup,
    reference_multilinear,
    reference_refine,
    reference_split,
    reference_tree_walk,
)

BOX_LO = (0.05, 0.55, -1.15, 0.25)
BOX_HI = (0.55, 1.05, -0.65, 0.75)


@pytest.fixture(scope="module")
def small_grid():
    return GridSpec(BOX_LO, BOX_HI, (2, 2, 2, 2))


@pytest.fixture(scope="module")
def table(geom, masses, weights, small_grid):
    return precompute(geom, masses, weights, small_grid)


MID_TOL = 1e-2


@pytest.fixture(scope="module")
def refined_mid(geom, masses, weights, theta_ref):
    """Mid-workspace refined table at the standard tolerance."""
    box = (tuple(theta_ref - 0.05), tuple(theta_ref + 0.05))
    return refine(geom, masses, weights, box, MID_TOL, 4)


def few_ulp_box(n):
    """The box BOX_LO..BOX_HI with theta2 spanning n ulp just above 0.8."""
    lo, hi = list(BOX_LO), list(BOX_HI)
    lo[1] = hi[1] = float(np.nextafter(0.8, 1.0))
    for _ in range(n):
        hi[1] = float(np.nextafter(hi[1], 1.0))
    return lo, hi


def boxes_beyond_pi():
    """(dimension k, lo, hi): BOX_LO..BOX_HI with bound k moved to 3.2 or
    -3.2, outside the [-pi, pi] a table box must lie in."""
    for k, bound in itertools.product(range(4), (3.2, -3.2)):
        lo, hi = list(BOX_LO), list(BOX_HI)
        (hi if bound > 0 else lo)[k] = bound
        yield k, lo, hi


BEYOND_PI = r"^dimension {}: need min < max, .* within \[-pi, pi\]"


def direct_gain(geom, masses, weights, theta):
    model = linearize(geom, masses, equilibrium_point(geom, masses, theta))
    return lqr_gain(model.A, model.B, weights)


@pytest.fixture()
def solve_calls(monkeypatch):
    """Record the theta of every node that _solve_nodes solves."""
    calls = []
    original = gt._solve_nodes

    def counting(geom, masses, weights, thetas, indices):
        calls.extend(tuple(float(v) for v in theta) for theta in thetas)
        return original(geom, masses, weights, thetas, indices)

    monkeypatch.setattr(gt, "_solve_nodes", counting)
    return calls


def usable_cpus(monkeypatch, n):
    """Make precompute see n CPUs that this process may use."""
    monkeypatch.setattr(gt.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class StandIn:
    """An executor that maps in the caller, so no process is started."""

    def __init__(self, max_workers, initializer=None):
        pass

    def map(self, fn, *iterables):
        # one work item per chunk, each at most _CHUNK nodes
        assert all(len(thetas) <= gt._CHUNK for thetas in iterables[3])
        return map(fn, *iterables)

    def shutdown(self):
        pass


@pytest.fixture()
def executors(monkeypatch):
    """Start with no kept pool and 64 usable CPUs.  executors(base) makes
    precompute construct a recording subclass of base (ProcessPoolExecutor
    or StandIn) and returns the log it appends ("start", size) and
    ("shutdown", size) to.  The pools a test starts are shut down after it."""
    log, made = [], []
    monkeypatch.setattr(gt, "_pool", None)
    usable_cpus(monkeypatch, 64)

    def use(base):
        class Recording(base):
            def __init__(self, size, **kwargs):
                super().__init__(size, **kwargs)
                self.size = size
                log.append(("start", size))
                made.append(self)

            def shutdown(self, *args, **kwargs):
                log.append(("shutdown", self.size))
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(gt, "ProcessPoolExecutor", Recording)
        return log

    yield use
    for pool in made:
        pool.shutdown()


class TestGridSpec:
    def test_validates(self):
        with pytest.raises(ValueError):
            GridSpec((0, 0, 0, 0), (1, 1, 1, 0.0), (2, 2, 2, 2))  # min == max
        with pytest.raises(ValueError):
            GridSpec(BOX_LO, BOX_HI, (1, 2, 2, 2))  # count < 2
        with pytest.raises(ValueError, match="lo must have 4 components, got 3"):
            GridSpec((0, 0, 0), (1, 1, 1), (2, 2, 2))  # wrong arity
        with pytest.raises(ValueError, match="counts must have 4 components, got 1"):
            GridSpec(BOX_LO, BOX_HI, 2)
        for lo, hi in ((float("nan"), 1.0), (0.0, float("inf")), (-1e308, 1e308)):
            with pytest.raises(ValueError, match="finite span"):
                GridSpec((lo, 0, 0, 0), (hi, 1, 1, 1), (2, 2, 2, 2))
        # the box is read before the counts: an inverted span names the span
        with pytest.raises(ValueError, match="need min < max"):
            GridSpec(BOX_HI, BOX_LO, (1, 2, 2, 2))
        # a bound beyond +-pi, where lookup's wrap never reaches
        for k, lo, hi in boxes_beyond_pi():
            with pytest.raises(ValueError, match=BEYOND_PI.format(k)):
                GridSpec(lo, hi, (2, 2, 2, 2))
        # a full turn is a box: the interval is closed
        full_turn = GridSpec((-math.pi,) + BOX_LO[1:], (math.pi,) + BOX_HI[1:], (2,) * 4)
        assert (full_turn.lo[0], full_turn.hi[0]) == (-math.pi, math.pi)

    def test_counts_beyond_u32_rejected(self):
        """A table file stores each count as a u32, so a larger one is a bad
        argument here, not a failure in save after the table is solved."""
        assert GridSpec(BOX_LO, BOX_HI, (2**32 - 1, 2, 2, 2)).counts[0] == 2**32 - 1
        for k in range(4):
            counts = [2] * 4
            counts[k] = 2**32
            with pytest.raises(ValueError, match=rf"^counts\[{k}\] must be at most 4294967295"):
                GridSpec(BOX_LO, BOX_HI, counts)

    def test_node_count_does_not_wrap(self):
        assert GridSpec(BOX_LO, BOX_HI, (2**16,) * 4).n_nodes == 2**64

    def test_node_count_law(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            counts = tuple(int(c) for c in rng.integers(2, 6, size=4))
            spec = GridSpec(BOX_LO, BOX_HI, counts)
            assert spec.n_nodes == counts[0] * counts[1] * counts[2] * counts[3]

    def test_axes(self, small_grid):
        axis = small_grid.axis(2)
        assert axis[0] == BOX_LO[2] and axis[-1] == BOX_HI[2]
        assert np.array_equal(
            small_grid.node_angles((1, 0, 1, 0)),
            [BOX_HI[0], BOX_LO[1], BOX_HI[2], BOX_LO[3]],
        )

    # a wide span, a span one ulp wide, and a subnormal span near 0, where
    # linspace's step underflows to 0 and it scales i / (n - 1) instead
    AXIS_BOUNDS = (
        st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
        .filter(lambda b: b[0] < b[1])
        | st.floats(-3.0, 3.0).map(lambda a: (a, float(np.nextafter(a, 4.0))))
        | st.tuples(st.integers(-2**20, 2**20), st.integers(1, 64))
        .map(lambda p: (p[0] * 5e-324, (p[0] + p[1]) * 5e-324)))

    @settings(max_examples=200, deadline=None)
    @given(bounds=st.lists(AXIS_BOUNDS, min_size=4, max_size=4),
           counts=st.lists(st.integers(2, 40), min_size=4, max_size=4))
    @example(bounds=[(0.0, 5e-324)] * 4, counts=[3, 4, 40, 2])
    def test_node_angles_are_the_axes_bytes(self, bounds, counts):
        """Every node coordinate, negative indices included, is axis(k)[i]
        bit for bit, and an index out of range raises IndexError."""
        grid = GridSpec([b[0] for b in bounds], [b[1] for b in bounds], counts)
        for k, n in enumerate(counts):
            axis = grid.axis(k)
            for i in range(-n, n):
                index = [0, -1, 1, 0]
                index[k] = i
                angles = grid.node_angles(index)
                assert angles[k].tobytes() == axis[i].tobytes()
                assert angles.tobytes() == np.array(
                    [grid.axis(j)[index[j]] for j in range(4)]).tobytes()
            for i in (n, -n - 1):
                index = [0, 0, 0, 0]
                index[k] = i
                with pytest.raises(IndexError):
                    grid.node_angles(index)

    def test_node_angles_build_no_axis(self):
        """A node of a grid with 10^7 yaw nodes costs no 80 MB axis (nor
        32 GiB at the u32 count a flat header may store)."""
        grid = GridSpec(BOX_LO, BOX_HI, (10**7, 2, 2, 2))
        tracemalloc.start()
        try:
            angles = [grid.node_angles((i, 1, 0, 1)) for i in (0, 5, -2, -1)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert angles[0][0] == BOX_LO[0] and angles[-1][0] == BOX_HI[0]
        step = (BOX_HI[0] - BOX_LO[0]) / (10**7 - 1)
        assert angles[1][0] == 5 * step + BOX_LO[0]
        assert angles[2][0] == (10**7 - 2) * step + BOX_LO[0]
        assert angles[0][1:].tolist() == [BOX_HI[1], BOX_LO[2], BOX_HI[3]]


class TestPrecompute:
    def test_two_per_dimension_gives_16(self, table):
        assert table.entries.shape == (2, 2, 2, 2, 4, 8)
        assert table.grid.n_nodes == 16

    def test_three_per_dimension_gives_81(self, geom, masses, weights):
        spec = GridSpec(BOX_LO, BOX_HI, (3, 3, 3, 3))
        t = precompute(geom, masses, weights, spec)
        assert t.grid.n_nodes == 81
        assert t.entries.shape[:4] == (3, 3, 3, 3)

    def test_node_matches_direct_solve(self, geom, masses, weights, table):
        index = (1, 0, 1, 1)
        theta = table.grid.node_angles(index)
        model = linearize(geom, masses, equilibrium_point(geom, masses, theta))
        direct = lqr_gain(model.A, model.B, weights)
        assert np.array_equal(table.entries[index], direct)

    @pytest.mark.parametrize("digest", [b"short", "x" * 32, np.zeros(32, np.uint8)],
                             ids=["short", "str", "array"])
    def test_digest_must_be_32_bytes(self, table, digest):
        # save writes the digest as it is, so only 32 bytes round-trip
        with pytest.raises(ValueError, match="^digest must be 32 bytes"):
            dataclasses.replace(table, digest=digest)

    @pytest.mark.parametrize("gains, message", [
        (lambda t: t.gains.tolist(), "^gains must be a numpy array, got list$"),
        (lambda t: np.zeros((2, 2, 3, 4, 8)),
         r"^gains must have shape \(2, 2, 2, 4, 8\), got \(2, 2, 3, 4, 8\)$"),
    ], ids=["list", "2x2x3x4x8"])
    def test_gains_must_be_an_array_of_the_grid_shape(self, table, gains, message):
        # stored as given, never converted: save reads its shape and bytes
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(table, gains=gains(table))

    def test_deterministic_and_worker_independent(self, geom, masses, weights, small_grid):
        one = save(precompute(geom, masses, weights, small_grid, workers=1))
        again = save(precompute(geom, masses, weights, small_grid, workers=1))
        parallel = save(precompute(geom, masses, weights, small_grid, workers=2))
        assert one == again
        assert one == parallel

    @pytest.mark.parametrize("counts, workers, expected", [
        ((2, 2, 2, 2), 64, 1),  # 8 planar nodes: one chunk, run in the caller
        ((3, 10, 10, 10), 64, -(-1000 // gt._CHUNK)),  # 1000 planar nodes: 16 chunks of 64
        ((3, 9, 9, 9), 2, 2),  # 729 planar nodes: 12 chunks, capped by the 2 workers
    ])
    def test_pool_capped_at_chunk_count(self, geom, masses, weights, executors,
                                        counts, workers, expected):
        # expected processes run the chunks; for 1 the caller runs them, no pool
        log = executors(StandIn)
        grid = GridSpec(BOX_LO, BOX_HI, counts)
        serial = save(precompute(geom, masses, weights, grid))
        assert save(precompute(geom, masses, weights, grid, workers=workers)) == serial
        assert log == ([] if expected == 1 else [("start", expected)])

    @pytest.mark.parametrize("affinity, cpu_count, expected", [
        (2, None, 2),
        (5, None, 5),
        (1, None, 1),  # one usable CPU: the caller runs the chunks
        (None, 3, 3),  # no sched_getaffinity: os.cpu_count
        (None, None, 1),  # os.cpu_count unknown
    ])
    def test_pool_capped_at_cpu_count(self, geom, masses, weights, executors, monkeypatch,
                                      affinity, cpu_count, expected):
        log = executors(StandIn)
        if affinity is None:
            monkeypatch.delattr(gt.os, "sched_getaffinity", raising=False)
        else:
            usable_cpus(monkeypatch, affinity)
        monkeypatch.setattr(gt.os, "cpu_count", lambda: cpu_count)
        grid = GridSpec(BOX_LO, BOX_HI, (3, 10, 10, 10))  # 16 chunks
        serial = save(precompute(geom, masses, weights, grid))
        assert save(precompute(geom, masses, weights, grid, workers=64)) == serial
        assert log == ([] if expected == 1 else [("start", expected)])

    def test_node_failure_carries_index(self, geom, weights):
        # no tool mass: every node has a degenerate joint-4 inertia
        bad = MassModel(m2=0.5, m3=0.4, m4=0.0, M1=0.4, M2=0.3, M3=0.0)
        spec = GridSpec(BOX_LO, BOX_HI, (2, 2, 2, 2))
        with pytest.raises(NodeFailure) as info:
            precompute(geom, bad, weights, spec)
        assert info.value.index == (0, 0, 0, 0)

    def test_upright_node_failure_carries_index_and_cause(self, geom, masses, weights):
        # node (0, 1, 1, 1) is the upright pose, where the yaw inertia I1 is 0
        spec = GridSpec([-0.5] * 4, [0.5] * 4, (2, 3, 3, 3))
        with pytest.raises(NodeFailure) as info:
            precompute(geom, masses, weights, spec)
        assert info.value.index == (0, 1, 1, 1)
        assert isinstance(info.value.cause, DegenerateInertia)

    def test_node_failure_names_the_lowest_failing_node(self, geom, masses, weights,
                                                        lapack_failures):
        # node 2's Schur form fails; node 1 fails a later check, and wins
        lapack_failures(dgees=2, dgeev=1)
        with pytest.raises(NodeFailure) as info:
            precompute(geom, masses, weights, GridSpec(BOX_LO, BOX_HI, (2, 2, 2, 2)))
        assert info.value.index == (0, 0, 0, 1)
        assert str(info.value.cause) == "closed loop not Hurwitz (max Re eig 5.000e-01)"

    @pytest.mark.parametrize("fault, kind, message", [
        ("dgees", IllConditioned, "ordered Schur form failed (dgees info 3)"),
        ("skew", IllConditioned, "Riccati solution lost symmetry"),
        ("dsyevd", NotStabilizable, "Riccati solution not PSD (min eig -0.5)"),
        ("shift", IllConditioned, "CARE residual"),
        ("dgeev", NotStabilizable, "closed loop not Hurwitz (max Re eig 5.000e-01)"),
    ])
    def test_a_lapack_fault_names_its_node(self, geom, masses, weights, lapack_failures,
                                           fault, kind, message):
        # call 2 of the stack solves node 2, which fails the same way alone
        lapack_failures(**{fault: 2})
        with pytest.raises(NodeFailure) as info:
            precompute(geom, masses, weights, GridSpec(BOX_LO, BOX_HI, (2, 2, 2, 2)))
        assert info.value.index == (0, 0, 1, 0)
        assert type(info.value.cause) is kind and str(info.value.cause).startswith(message)

    def test_a_riccati_failure_before_a_degenerate_node_wins(self, geom, masses, weights,
                                                            lapack_failures):
        # planar node 13, (1, 1, 1), is upright and fails to linearize;
        # node 5's closed loop fails in the Riccati solve, and is lower
        lapack_failures(dgeev=5)
        with pytest.raises(NodeFailure) as info:
            precompute(geom, masses, weights, GridSpec([-0.5] * 4, [0.5] * 4, (2, 3, 3, 3)))
        assert info.value.index == (0, 0, 1, 2)
        assert isinstance(info.value.cause, NotStabilizable)
        assert str(info.value.cause) == "closed loop not Hurwitz (max Re eig 5.000e-01)"

    def test_a_stack_error_no_node_raises_alone_is_raised_as_it_is(self, geom, masses,
                                                                   weights, monkeypatch):
        spurious = IllConditioned("a stack error no node raises alone")
        real = gt.solve_stack

        def failing_stack(A, B, weights):
            # a build solves a failing stack's nodes again as stacks of one
            if len(A) > 1:
                raise spurious
            return real(A, B, weights)

        monkeypatch.setattr(gt, "solve_stack", failing_stack)
        with pytest.raises(IllConditioned) as info:
            precompute(geom, masses, weights, GridSpec(BOX_LO, BOX_HI, (2, 2, 2, 2)))
        assert info.value is spurious

    def test_weights_that_do_not_fit_raise_value_error(self, geom, masses):
        weights = CostWeights.from_diagonals([1.0, 1.0], [1.0])
        with pytest.raises(ValueError, match=r"^Q must be 8x8, got \(2, 2\)$") as info:
            precompute(geom, masses, weights, GridSpec(BOX_LO, BOX_HI, (2, 2, 2, 2)))
        assert type(info.value) is ValueError

    def test_one_solve_per_planar_configuration(self, geom, masses, weights, solve_calls):
        precompute(geom, masses, weights, GridSpec(BOX_LO, BOX_HI, (3, 2, 2, 2)))
        assert len(solve_calls) == 8
        assert len({theta[1:] for theta in solve_calls}) == 8


# a planar axis of a grid around the upright pose: its count, the index of
# its node at 0 and its node spacing
UPRIGHT_AXIS = st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n - 1), st.sampled_from([0.25, 0.5])))


# the masses each build-failure case changes
ARMS = {"nominal": {}, "tool-less": {"m4": 0.0, "M3": 0.0}, "g = 1e308": {"g": 1e308}}


class TestBuildFailure:
    """A build solves its nodes only through the stacked bodies, yet names
    the first failing node as the online per-point bodies find it."""

    @pytest.fixture(scope="class")
    def two_cpus(self):
        """No kept pool and 2 usable CPUs, so a grid of more than 64 planar
        nodes (2 stacks) builds on a pool of 2 with 2 workers; the pool is
        shut down after the class."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gt, "_pool", None)
            usable_cpus(mp, 2)
            yield
            if gt._pool is not None:
                gt._pool[1].shutdown()

    @settings(max_examples=50, deadline=None)
    @given(axes=st.tuples(UPRIGHT_AXIS, UPRIGHT_AXIS, UPRIGHT_AXIS),
           shift=st.sampled_from([0.0, 1e-6, 1e-4, 0.125]),
           arm=st.sampled_from(["nominal", "tool-less"]))
    # planar node 87 of 125, in stack 2, is the upright pose moved by shift
    @example(axes=((5, 3, 0.25), (5, 2, 0.25), (5, 2, 0.25)), shift=0.0, arm="nominal")
    @example(axes=((5, 3, 0.25), (5, 2, 0.25), (5, 2, 0.25)), shift=1e-6, arm="nominal")
    @example(axes=((5, 3, 0.25), (5, 2, 0.25), (5, 2, 0.25)), shift=1e-4, arm="nominal")
    @example(axes=((5, 3, 0.25), (5, 2, 0.25), (5, 2, 0.25)), shift=0.125, arm="nominal")
    # every node's equilibrium torque overflows, so equilibrium_torque's
    # Diverged names the first node of both
    @example(axes=((5, 3, 0.25), (5, 2, 0.25), (5, 2, 0.25)), shift=0.125, arm="g = 1e308")
    def test_first_failing_node_matches_the_per_node_oracle(self, geom, masses, weights,
                                                            two_cpus, axes, shift, arm):
        # every planar axis moved by shift: the node at the upright pose (0) is
        # degenerate, at 1e-6 off it fails the Riccati subspace check, at 1e-4
        # its residual check, and at 0.125 every node solves; with no tool
        # mass (m4 = M3 = 0) every node is degenerate, so the first must win
        masses = dataclasses.replace(masses, **ARMS[arm])
        grid = GridSpec([-0.5] + [shift - z * step for _, z, step in axes],
                        [0.5] + [shift + (n - 1 - z) * step for n, z, step in axes],
                        (2,) + tuple(n for n, _, _ in axes))
        expected = reference_build_failure(geom, masses, weights, grid)
        builds = []
        for workers in (1, 2):
            try:
                builds.append(save(precompute(geom, masses, weights, grid, workers)))
            except NodeFailure as exc:
                builds.append((exc.index, type(exc.cause), str(exc.cause)))
        if expected is None:
            assert isinstance(builds[0], bytes) and builds[1] == builds[0]
        else:
            index, cause = expected
            assert builds == [(index, type(cause), str(cause))] * 2


def running(pid):
    """Whether process pid is alive and not a zombie, read from /proc."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except (FileNotFoundError, ProcessLookupError):
        return False


# a child that builds a two-chunk table on a pool of 2 workers started by
# the start method argv[2], prints the workers' pids and then exits or
# (argv[1] == "hold") sleeps until it is killed
POOL_CHILD = """
import functools, multiprocessing, os, sys, time
os.sched_getaffinity = lambda pid: {0, 1}
import armctl, armctl.gain_table as gt
gt.ProcessPoolExecutor = functools.partial(
    gt.ProcessPoolExecutor, mp_context=multiprocessing.get_context(sys.argv[2]))
geom = armctl.ArmGeometry(L1=1.0, L2=0.8, L3=0.6)
masses = armctl.MassModel(m2=0.5, m3=0.4, m4=0.3, M1=0.4, M2=0.3, M3=0.2, g=9.81)
weights = armctl.CostWeights.from_diagonals([100.0] * 4 + [1.0] * 4, [1.0] * 4)
grid = armctl.GridSpec((0.05, 0.55, -1.15, 0.25), (0.55, 1.05, -0.65, 0.75), (2, 5, 5, 5))
armctl.precompute(geom, masses, weights, grid, workers=2)
print(*gt._pool[-1]._processes, flush=True)
if sys.argv[1] == "hold":
    time.sleep(60)
"""


START_METHODS = multiprocessing.get_all_start_methods()


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads process states in /proc")
class TestKeptPool:
    """precompute keeps one pool for the process while its size serves."""

    GRID = GridSpec(BOX_LO, BOX_HI, (2, 5, 5, 5))  # 125 planar nodes: 2 chunks

    @pytest.fixture(scope="class")
    def serial(self, geom, masses, weights):
        return save(precompute(geom, masses, weights, self.GRID, workers=1))

    @pytest.mark.parametrize("method", START_METHODS)
    def test_two_builds_start_one_pool(self, geom, masses, weights, executors, serial, method):
        class Started(gt.ProcessPoolExecutor):
            def __init__(self, size, **kwargs):
                super().__init__(size, mp_context=multiprocessing.get_context(method), **kwargs)

        log = executors(Started)
        for _ in range(2):
            assert save(precompute(geom, masses, weights, self.GRID, workers=2)) == serial
        assert log == [("start", 2)]

    def test_another_count_replaces_the_pool(self, geom, masses, weights, executors):
        log = executors(gt.ProcessPoolExecutor)
        grid = GridSpec(BOX_LO, BOX_HI, (2, 5, 5, 9))  # 225 planar nodes: 4 chunks
        serial = save(precompute(geom, masses, weights, grid, workers=1))
        for workers in (2, 3, 3):
            assert save(precompute(geom, masses, weights, grid, workers=workers)) == serial
        assert log == [("start", 2), ("shutdown", 2), ("start", 3)]

    def test_killed_worker_drops_the_pool(self, geom, masses, weights, executors, serial):
        log = executors(gt.ProcessPoolExecutor)
        precompute(geom, masses, weights, self.GRID, workers=2)
        worker = next(iter(gt._pool[-1]._processes.values()))
        os.kill(worker.pid, signal.SIGKILL)
        assert multiprocessing.connection.wait([worker.sentinel], timeout=10)
        with pytest.raises(ArmError, match="worker process died") as info:
            precompute(geom, masses, weights, self.GRID, workers=2)
        assert isinstance(info.value.__cause__, BrokenProcessPool)
        assert gt._pool is None
        assert save(precompute(geom, masses, weights, self.GRID, workers=2)) == serial
        assert log == [("start", 2), ("start", 2)]

    def test_fork_with_the_lock_held_builds(self, geom, masses, weights, executors, serial):
        # a child forked while another thread holds the pool lock takes a
        # free lock and a pool of its own; the parent keeps the pool it started
        log = executors(gt.ProcessPoolExecutor)
        assert save(precompute(geom, masses, weights, self.GRID, workers=2)) == serial
        held, release = threading.Event(), threading.Event()

        def hold():
            with gt._pool_lock:
                held.set()
                release.wait()

        holder = threading.Thread(target=hold)
        holder.start()
        held.wait()
        pid = os.fork()
        if pid == 0:  # the child: exit 0 only if its 2-worker build is right
            code = 1
            try:
                signal.alarm(20)
                built = save(precompute(geom, masses, weights, self.GRID, workers=2))
                code = 0 if built == serial else 1
                gt._pool[-1].shutdown()
            finally:
                os._exit(code)
        release.set()
        holder.join()
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert save(precompute(geom, masses, weights, self.GRID, workers=2)) == serial
        assert log == [("start", 2)]

    def child(self, mode, method="fork"):
        src = Path(gt.__file__).resolve().parents[1]
        return subprocess.Popen([sys.executable, "-c", POOL_CHILD, mode, method],
                                stdout=subprocess.PIPE, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)})

    def worker_pids(self, proc):
        assert select.select([proc.stdout], [], [], 60)[0], "no pids within 60 s"
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(pids) == 2
        return pids

    def test_exit_joins_the_workers(self):
        with self.child("exit") as proc:
            pids = self.worker_pids(proc)
            assert proc.wait(timeout=60) == 0
        assert not [pid for pid in pids if running(pid)]

    @pytest.mark.parametrize("method", START_METHODS)
    def test_killed_parent_leaves_no_worker(self, method):
        with self.child("hold", method) as proc:
            pids = self.worker_pids(proc)
            proc.kill()
            proc.wait(timeout=10)
        deadline = time.monotonic() + 2
        while any(running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if running(pid)]
        for pid in survivors:  # leave no orphan behind a failure
            os.kill(pid, signal.SIGKILL)
        assert not survivors


class TestYawInvariance:
    """The gain never depends on theta1, which lets builds share one solve
    along the theta1 axis.  Should the model gain a yaw-dependent term,
    these fail before a table is built wrong."""

    @settings(max_examples=40, deadline=None)
    @given(
        yaw=st.floats(-np.pi, np.pi),
        planar=st.tuples(*(st.floats(l, h) for l, h in zip(BOX_LO[1:], BOX_HI[1:]))),
    )
    def test_gain_bytes_independent_of_yaw(self, geom, masses, weights, yaw, planar):
        at_yaw = direct_gain(geom, masses, weights, (yaw,) + planar)
        at_zero = direct_gain(geom, masses, weights, (0.0,) + planar)
        assert at_yaw.tobytes() == at_zero.tobytes()

    def test_precompute_rows_equal_along_yaw(self, geom, masses, weights):
        t = precompute(geom, masses, weights, GridSpec(BOX_LO, BOX_HI, (3, 2, 2, 2)))
        for i1 in (1, 2):
            assert t.entries[i1].tobytes() == t.entries[0].tobytes()
        index = (2, 1, 0, 1)
        direct = direct_gain(geom, masses, weights, t.grid.node_angles(index))
        assert t.entries[index].tobytes() == direct.tobytes()


@pytest.fixture(scope="module")
def oracle_tables(geom, masses, weights, theta_ref):
    """The tables whose lookups are compared with the byte reference: two flat
    grids and two trees on the box theta_ref +/- 0.25, a grid whose few-ulp
    theta2 span repeats nodes, a tree with zero-width leaves, and a grid
    with no interior planar node and a tree, each with theta1 a full turn
    [-pi, pi] (so +-pi, +-2 pi and non-finite draws test its box and wrap)."""
    lo, hi = tuple(theta_ref - 0.25), tuple(theta_ref + 0.25)
    turn_lo, turn_hi = (-math.pi,) + lo[1:], (math.pi,) + hi[1:]
    few_ulp = list(BOX_HI)
    few_ulp[1] = float(np.nextafter(BOX_LO[1], 2.0))
    ulp_lo, ulp_hi = list(BOX_LO), list(BOX_HI)
    ulp_lo[1] = float(np.nextafter(0.8, 1.0))
    ulp_hi[1] = float(np.nextafter(ulp_lo[1], 1.0))
    return {
        "5^4": precompute(geom, masses, weights, GridSpec(lo, hi, (5, 5, 5, 5))),
        "3x4x2x5": precompute(geom, masses, weights, GridSpec(lo, hi, (3, 4, 2, 5))),
        "tol-0.4": refine(geom, masses, weights, (lo, hi), 0.4, 3),
        "tol-0.1": refine(geom, masses, weights, (lo, hi), 0.1, 4),
        "repeated-nodes": precompute(geom, masses, weights,
                                     GridSpec(BOX_LO, few_ulp, (2, 4, 2, 2))),
        "zero-width-leaf": refine(geom, masses, weights, (ulp_lo, ulp_hi), 1e-12, 2),
        "full-turn-2^3": precompute(geom, masses, weights,
                                    GridSpec(turn_lo, turn_hi, (3, 2, 2, 2))),
        "full-turn-tree": refine(geom, masses, weights, (turn_lo, turn_hi), 0.4, 3),
    }


def node_values(t):
    """Per axis, the sorted exact node values: a flat table's axis, or every
    leaf bound of a tree."""
    if isinstance(t, GainTable):
        return [t.grid.axis(k).tolist() for k in range(4)]
    return [sorted({v for leaf in t.leaves() for v in (leaf.lo[k], leaf.hi[k])})
            for k in range(4)]


def outcome(fn, table, theta):
    """The bytes fn returns, or the type and message of its OutOfBounds."""
    try:
        return fn(table, theta).tobytes()
    except OutOfBounds as exc:
        return type(exc), str(exc)


class TestLookup:
    @pytest.mark.parametrize("name", ["5^4", "3x4x2x5", "tol-0.4", "tol-0.1",
                                      "repeated-nodes", "zero-width-leaf",
                                      "full-turn-2^3", "full-turn-tree"])
    def test_every_node_matches_byte_reference(self, oracle_tables, name):
        # every flat node, or every corner of every leaf, hi included
        t = oracle_tables[name]
        if isinstance(t, GainTable):
            points = itertools.product(*node_values(t))
        else:
            points = {p for leaf in t.leaves() for p in itertools.product(*zip(leaf.lo, leaf.hi))}
        for theta in points:
            assert lookup(t, theta).tobytes() == reference_lookup(t, theta).tobytes()

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_byte_reference(self, oracle_tables, data):
        # exact node values, points inside, one ulp outside and +-pi on each
        # axis, some shifted by +-2 pi or made non-finite
        t = oracle_tables[data.draw(st.sampled_from(sorted(oracle_tables)))]
        nodes, theta = node_values(t), []
        for k in range(4):
            lo, hi = t.lo[k], t.hi[k]
            v = data.draw(st.one_of(
                st.sampled_from(nodes[k]),
                st.floats(lo, hi),
                st.sampled_from([float(np.nextafter(lo, -np.inf)), float(np.nextafter(hi, np.inf)),
                                 -math.pi, math.pi]),
            ))
            edit = data.draw(st.sampled_from([None] * 12 + ["+2pi", "-2pi", "nan", "inf", "-inf"]))
            theta.append({None: v, "+2pi": v + 2 * math.pi, "-2pi": v - 2 * math.pi,
                          "nan": math.nan, "inf": math.inf, "-inf": -math.inf}[edit])
        assert outcome(lookup, t, theta) == outcome(reference_lookup, t, theta)

    def test_node_lookup_bit_exact(self, table):
        for index in ((0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1)):
            theta = table.grid.node_angles(index)
            assert np.array_equal(lookup(table, theta), table.entries[index])

    def test_edge_midpoint_is_corner_average(self, table):
        theta = table.grid.node_angles((1, 0, 1, 0)).copy()
        theta[3] = 0.5 * (table.grid.axis(3)[0] + table.grid.axis(3)[1])
        want = 0.5 * (table.entries[1, 0, 1, 0] + table.entries[1, 0, 1, 1])
        assert np.abs(lookup(table, theta) - want).max() <= 1e-12

    def test_continuous_across_cell_faces(self, geom, masses, weights):
        spec = GridSpec(BOX_LO, BOX_HI, (3, 2, 2, 2))
        t = precompute(geom, masses, weights, spec)
        face = t.grid.axis(0)[1]  # interior node on dimension 0
        rng = np.random.default_rng(17)
        for _ in range(10):
            theta = rng.uniform(t.grid.lo, t.grid.hi)
            theta[0] = face
            below = theta.copy()
            below[0] = np.nextafter(face, -np.inf)
            above = theta.copy()
            above[0] = np.nextafter(face, np.inf)
            k_face = lookup(t, theta)
            assert np.abs(lookup(t, below) - k_face).max() <= 1e-12
            assert np.abs(lookup(t, above) - k_face).max() <= 1e-12

    def test_interpolates_toward_direct_solution(self, geom, masses, weights, table):
        rng = np.random.default_rng(23)
        for _ in range(5):
            theta = rng.uniform(table.grid.lo, table.grid.hi)
            model = linearize(geom, masses, equilibrium_point(geom, masses, theta))
            direct = lqr_gain(model.A, model.B, weights)
            err = np.linalg.norm(lookup(table, theta) - direct, 2)
            assert err < 0.25 * np.linalg.norm(direct, 2)

    def test_out_of_bounds(self, table):
        with pytest.raises(OutOfBounds):
            lookup(table, (BOX_LO[0] - 0.01, 0.6, -1.0, 0.5))
        with pytest.raises(OutOfBounds):
            lookup(table, (0.3, 0.6, -1.0, BOX_HI[3] + 1e-9))

    @pytest.mark.parametrize("size", [3, 5])
    @pytest.mark.parametrize("kind", ["table", "refined_mid"])
    def test_wrong_angle_count(self, request, theta_ref, kind, size):
        theta = np.resize(theta_ref, size)
        with pytest.raises(ValueError, match=f"theta must have 4 components, got {size}"):
            lookup(request.getfixturevalue(kind), theta)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["table", "refined_mid"])
    def test_non_finite_angle_out_of_bounds(self, request, theta_ref, kind, bad):
        t = request.getfixturevalue(kind)
        for k in range(4):
            theta = theta_ref.copy()
            theta[k] = bad
            with pytest.raises(OutOfBounds):
                lookup(t, theta)

    @pytest.mark.parametrize("kind", ["table", "refined_mid"])
    def test_yaw_outside_range_out_of_bounds(self, request, kind):
        t = request.getfixturevalue(kind)
        inside = 0.5 * (np.asarray(t.lo) + np.asarray(t.hi))
        for yaw in (np.nextafter(t.lo[0], -np.inf), np.nextafter(t.hi[0], np.inf)):
            with pytest.raises(OutOfBounds, match="dimension 0"):
                lookup(t, (yaw,) + tuple(inside[1:]))
        for yaw in t.lo[0], t.hi[0]:
            assert np.array_equal(lookup(t, (yaw,) + tuple(inside[1:])),
                                  lookup(t, inside))

    def test_matches_4d_multilinear_reference(self, geom, masses, weights):
        # the planar blend equals the 4-D blend over the theta1 copies up to
        # rounding: at most about 8 ulp of the largest corner gain
        t = precompute(geom, masses, weights, GridSpec(BOX_LO, BOX_HI, (3, 4, 2, 5)))
        rng = np.random.default_rng(41)
        for theta in rng.uniform(BOX_LO, BOX_HI, size=(200, 4)):
            want = reference_multilinear(t.grid, t.entries, theta)
            bound = 8 * np.finfo(float).eps * np.abs(t.gains).max()
            assert np.abs(lookup(t, theta) - want).max() <= bound

    def test_repeated_nodes_of_a_few_ulp_span(self, geom, masses, weights):
        # linspace over a 1-ulp span repeats node values; a query on them
        # is still answered with the stored gain, never a division by zero
        hi = list(BOX_HI)
        hi[1] = float(np.nextafter(BOX_LO[1], 2.0))
        t = precompute(geom, masses, weights, GridSpec(BOX_LO, hi, (2, 4, 2, 2)))
        axis = t.grid.axis(1)
        assert len(set(axis.tolist())) < axis.size
        for index in np.ndindex(t.grid.shape):
            theta = t.grid.node_angles(index)
            assert lookup(t, theta).tobytes() == t.entries[index].tobytes()

    @pytest.mark.parametrize("shipped", [False, True])
    def test_zero_width_leaf_of_a_one_ulp_root(self, geom, masses, weights, shipped):
        # over a 1-ulp theta2 span the midpoint rounds up to the upper bound,
        # so the upper children are 0 wide along theta2; a query in them
        # reads fraction 0 there, never a division by zero
        lo, hi = list(BOX_LO), list(BOX_HI)
        lo[1] = float(np.nextafter(0.8, 1.0))
        hi[1] = float(np.nextafter(lo[1], 1.0))
        assert 0.5 * (lo[1] + hi[1]) == hi[1]
        t = refine(geom, masses, weights, (lo, hi), 1e-12, 2)
        if shipped:
            t = load(save(t))
        leaves = t.leaves()
        zero_width = [n for n, leaf in enumerate(leaves) if leaf.lo[1] == leaf.hi[1]]
        assert zero_width
        for n in zero_width:
            corner = (0.3,) + leaves[n].lo[1:]
            assert lookup(t, corner).tobytes() == t.pool[t.corners[n][0]].tobytes()
            assert np.all(np.isfinite(lookup(t, leaves[n].center())))

    def test_box_edges_at_pi(self, geom, masses, weights):
        # yaw over a full turn, and theta2 ending at pi, starting at -pi, or
        # over a full turn: an angle in the box is read as given, so every
        # node, both ends included, returns its own stored gain
        for lo2, hi2, n2 in ((2.9, math.pi, 3), (-math.pi, -2.9, 2), (-math.pi, math.pi, 3)):
            grid = GridSpec((-math.pi, lo2, -1.15, 0.25), (math.pi, hi2, -0.65, 0.75),
                            (2, n2, 2, 2))
            t = precompute(geom, masses, weights, grid)
            for index in np.ndindex(grid.shape):
                theta = grid.node_angles(index)
                assert lookup(t, theta).tobytes() == t.entries[index].tobytes()
                assert reference_lookup(t, theta).tobytes() == t.entries[index].tobytes()
            inside = (0.5 * (lo2 + hi2), -0.9, 0.5)
            assert lookup(t, (-math.pi, *inside)).tobytes() == \
                lookup(t, (math.pi, *inside)).tobytes()
        # on a box ending at pi, -pi wraps to pi; on one from -pi to below
        # pi, exactly +pi is outside
        t = precompute(geom, masses, weights, GridSpec((-math.pi, 2.9, -1.15, 0.25),
                                                       (math.pi, math.pi, -0.65, 0.75),
                                                       (2, 2, 2, 2)))
        assert lookup(t, (0.0, -math.pi, -0.9, 0.5)).tobytes() == \
            lookup(t, (0.0, math.pi, -0.9, 0.5)).tobytes()
        t = precompute(geom, masses, weights, GridSpec((-math.pi, -math.pi, -1.15, 0.25),
                                                       (math.pi, -2.9, -0.65, 0.75),
                                                       (2, 2, 2, 2)))
        with pytest.raises(OutOfBounds, match="dimension 1"):
            lookup(t, (0.0, math.pi, -0.9, 0.5))

    def test_wraps_angles_first(self, table):
        # a 2*pi-shifted representation lands in the same cell (up to the
        # rounding the wrap itself introduces)
        theta = np.array([0.3, 0.8, -0.9, 0.5])
        shifted = theta + np.array([2 * np.pi, 0, 0, -2 * np.pi])
        assert np.allclose(lookup(table, theta), lookup(table, shifted), rtol=0, atol=1e-12)


BLOCK_TABLES = ["5^4", "3x4x2x5", "tol-0.4", "tol-0.1"]


def gathered_rows(t):
    """Per cell (flat, in row-major (i2, i3, i4) order) or leaf, its 8 corner
    rows gathered through the corner indices, in _weights order."""
    if isinstance(t, RefinedTable):
        return [t.pool.reshape(-1, 32)[corners] for corners in t.corners]
    rows, (n2, n3, n4) = t.gains.reshape(-1, 32), t.gains.shape[:3]
    return [rows[[((i2 + b2) * n3 + i3 + b3) * n4 + i4 + b4
                  for b2, b3, b4 in itertools.product((0, 1), repeat=3)]]
            for i2, i3, i4 in itertools.product(range(n2 - 1), range(n3 - 1), range(n4 - 1))]


def with_source(t, array):
    """t rebuilt by its constructor from array in place of its gains or pool."""
    if isinstance(t, GainTable):
        return GainTable(t.grid, array, t.digest)
    return RefinedTable(t.lo, t.hi, t.digest, t.tol, t.max_depth, array, t.tree)


class TestCornerBlocks:
    """Each table gathers its cells' 8 corner rows once, at its first lookup,
    into a read-only _blocks that every later lookup reads."""

    @pytest.mark.parametrize("name", BLOCK_TABLES)
    def test_blocks_are_the_gathered_corner_rows(self, oracle_tables, name):
        t = load(save(oracle_tables[name]))
        lookup(t, t.lo)
        cells = (len(t.corners),) if isinstance(t, RefinedTable) else tuple(
            n - 1 for n in t.gains.shape[:3])
        assert t._blocks.shape == cells + (8, 32) and not t._blocks.flags.writeable
        blocks, want = t._blocks.reshape(-1, 8, 32), gathered_rows(t)
        assert len(blocks) == len(want)
        assert all(b.tobytes() == w.tobytes() for b, w in zip(blocks, want))

    @pytest.mark.parametrize("name", BLOCK_TABLES)
    def test_gathered_at_the_first_lookup_only(self, oracle_tables, name):
        blob = save(oracle_tables[name])
        t = load(blob)
        assert "_blocks" not in t.__dict__
        lookup(t, t.hi)
        blocks = t.__dict__["_blocks"]
        for theta in np.random.default_rng(40).uniform(t.lo, t.hi, size=(20, 4)):
            lookup(t, theta)
        assert t._blocks is blocks
        assert save(t) == blob

    @pytest.mark.parametrize("name", BLOCK_TABLES)
    def test_writeable_source_is_copied(self, oracle_tables, name):
        # a change to the array a table was built from reaches no later lookup
        t = oracle_tables[name]
        source = np.array(t.gains if isinstance(t, GainTable) else t.pool)
        copy = with_source(t, source)
        points = np.random.default_rng(41).uniform(t.lo, t.hi, size=(20, 4))
        before = [lookup(copy, theta).tobytes() for theta in points]
        source[...] = 0.0
        assert [lookup(copy, theta).tobytes() for theta in points] == before
        assert save(copy) == save(t)
        stored = copy.gains if isinstance(t, GainTable) else copy.pool
        assert not stored.flags.writeable and not np.shares_memory(stored, source)

    @pytest.mark.parametrize("name", BLOCK_TABLES)
    def test_read_only_source_is_kept(self, oracle_tables, name):
        t = oracle_tables[name]
        source = t.gains if isinstance(t, GainTable) else t.pool
        assert not source.flags.writeable  # precompute and refine build read-only arrays
        kept = with_source(t, source)
        assert (kept.gains if isinstance(t, GainTable) else kept.pool) is source
        loaded = load(save(t))
        stored = loaded.gains if isinstance(t, GainTable) else loaded.pool
        assert not stored.flags.writeable and not stored.flags.owndata  # a view of the bytes read

    @pytest.mark.parametrize("name", ["5^4", "tol-0.4"])
    def test_equality_and_hash_are_identity(self, oracle_tables, name):
        t = oracle_tables[name]
        other = load(save(t))
        assert (t == other) is False and t != other
        assert t == t and hash(t) == hash(t)
        assert {t: 1, other: 2}[t] == 1


@pytest.fixture(scope="module")
def one_cell_pairs(geom, masses, weights):
    """Per box, a 2^4 flat table and a one-leaf tree (refine at tol inf) over
    it: one planar cell each, with the same 8 corner gains.  The boxes are
    the tables' box, that box with theta2 spanning one ulp, and a box whose
    planar widths (1.1, 1.1, 1.3) are not powers of two, where a division
    and a product by the reciprocal round apart."""
    boxes = {"box": (BOX_LO, BOX_HI), "one-ulp": few_ulp_box(1),
             "wide": ((0.05, 0.3, -1.4, -0.4), (0.55, 1.4, -0.3, 0.9))}
    return {name: (precompute(geom, masses, weights, GridSpec(lo, hi, (2, 2, 2, 2))),
                   refine(geom, masses, weights, (lo, hi), math.inf, 4))
            for name, (lo, hi) in boxes.items()}


class TestOneCellRule:
    """A flat cell and a leaf over the same box weigh the same corners by one
    rule, _weights, so their lookups agree byte for byte."""

    @pytest.mark.parametrize("name", ["box", "one-ulp", "wide"])
    def test_same_cell_same_corners(self, one_cell_pairs, name):
        flat, tree = one_cell_pairs[name]
        assert len(tree.leaves()) == 1 and tree.lo == flat.lo and tree.hi == flat.hi
        assert tree.pool.tobytes() == flat.gains.tobytes()  # corner order is row-major

    @pytest.mark.parametrize("name", ["box", "one-ulp", "wide"])
    def test_box_corners_match_across_kinds(self, one_cell_pairs, name):
        flat, tree = one_cell_pairs[name]
        for theta in itertools.product(*zip(flat.lo, flat.hi)):
            assert lookup(flat, theta).tobytes() == lookup(tree, theta).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_points_match_across_kinds(self, one_cell_pairs, data):
        flat, tree = one_cell_pairs[data.draw(st.sampled_from(["box", "one-ulp", "wide"]))]
        theta = [data.draw(st.floats(lo, hi)) for lo, hi in zip(flat.lo, flat.hi)]
        assert lookup(flat, theta).tobytes() == lookup(tree, theta).tobytes()


class TestRefine:
    def test_infinite_tolerance_is_single_leaf_8_solves(
        self, geom, masses, weights, solve_calls
    ):
        t = refine(geom, masses, weights, (BOX_LO, BOX_HI), float("inf"), 3)
        leaves = t.leaves()
        assert len(leaves) == 1 and not leaves[0].flagged
        # 16 corners, 8 distinct planar points: theta1 never changes a gain
        assert len(solve_calls) == 8

    def test_never_solves_a_planar_point_twice(self, geom, masses, weights, solve_calls):
        t = refine(geom, masses, weights, (BOX_LO, BOX_HI), 0.4, 2)
        assert len(t.leaves()) > 1  # the cache is exercised across cells
        planar = [theta[1:] for theta in solve_calls]
        assert len(planar) == len(set(planar))

    def test_level_with_no_new_point(self, geom, masses, weights, solve_calls):
        # a box one ulp wide in theta2..theta4: every deeper corner and center
        # rounds onto a root corner, so depths 2 and 3 solve no point
        lo = BOX_LO
        hi = (BOX_HI[0],) + tuple(float(np.nextafter(v, 9.0)) for v in lo[1:])
        t = refine(geom, masses, weights, (lo, hi), 1e-12, 3)
        assert len(solve_calls) == 8 and max(leaf.depth for leaf in t.leaves()) == 3
        assert save(t) == save(reference_refine(geom, masses, weights, (lo, hi), 1e-12, 3))

    def test_depth_cap_flags_root(self, geom, masses, weights):
        t = refine(geom, masses, weights, (BOX_LO, BOX_HI), 1e-9, 1)
        leaves = t.leaves()
        assert len(leaves) == 1 and leaves[0].flagged
        assert leaves[0].lo == BOX_LO and leaves[0].hi == BOX_HI
        assert t.flagged_leaves() == leaves

    # name: (root box, tol, max_depth, what the tree must show); a box of
    # None is theta_ref +/- 0.25
    REFERENCE_CASES = {
        "tol-0.4": (None, 0.4, 3, "splits"),
        "tol-0.1": (None, 0.1, 4, "splits"),
        "zero-width-leaf": (few_ulp_box(1), 1e-12, 2, "zero-width"),
        "coinciding-siblings": (few_ulp_box(2), 1e-12, 3, "coinciding"),
        "tol-inf": ((BOX_LO, BOX_HI), math.inf, 3, "one-leaf"),
        "flagged": ((BOX_LO, BOX_HI), 1e-6, 2, "flagged"),
    }

    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_same_bytes_as_reference_refine(self, geom, masses, weights, theta_ref, case):
        box, tol, depth, shows = self.REFERENCE_CASES[case]
        box = box or (tuple(theta_ref - 0.25), tuple(theta_ref + 0.25))
        t = refine(geom, masses, weights, box, tol, depth)
        assert save(t) == save(reference_refine(geom, masses, weights, box, tol, depth))
        leaves = t.leaves()
        keys = [(leaf.depth, leaf.lo, leaf.hi) for leaf in leaves]
        assert {
            "splits": len(leaves) > 1,
            "zero-width": any(leaf.lo[1] == leaf.hi[1] for leaf in leaves),
            # sibling cells with one (depth, box) key share one decision
            "coinciding": len(set(keys)) < len(keys),
            "one-leaf": len(leaves) == 1,
            "flagged": any(leaf.flagged for leaf in leaves),
        }[shows]

    def test_reference_refine_solves_in_stacks(self, geom, masses, weights, theta_ref,
                                               monkeypatch):
        # each level's new points reach _solve_nodes in order, cut into stacks
        # of _CHUNK: 9, 26, 154 and 1,052 points, 1,241 solves in 22 stacks
        stacks, original = [], gt._solve_nodes

        def recording(geom, masses, weights, thetas, indices):
            stacks.append(len(thetas))
            return original(geom, masses, weights, thetas, indices)

        monkeypatch.setattr(gt, "_solve_nodes", recording)
        box = (tuple(theta_ref - 0.25), tuple(theta_ref + 0.25))
        refine(geom, masses, weights, box, 0.1, 4)
        assert stacks == [min(gt._CHUNK, n - s) for n in (9, 26, 154, 1052)
                          for s in range(0, n, gt._CHUNK)]
        assert (len(stacks), sum(stacks), max(stacks)) == (22, 1241, gt._CHUNK)

    def test_depth_never_reached_costs_nothing(self, geom, masses, weights):
        # the level loop stops at the first depth that has no cell to split
        start = time.perf_counter()
        t = refine(geom, masses, weights, (BOX_LO, BOX_HI), math.inf, 2**31)
        assert time.perf_counter() - start < 1.0
        assert len(t.leaves()) == 1 and t.max_depth == 2**31

    def test_max_depth_fits_a_table_file(self, geom, masses, weights):
        t = refine(geom, masses, weights, (BOX_LO, BOX_HI), math.inf, 2**32 - 1)
        assert load(save(t)).max_depth == 2**32 - 1
        with pytest.raises(ValueError, match="^max_depth must be at most 4294967295, "
                                             "got 4294967296$"):
            refine(geom, masses, weights, (BOX_LO, BOX_HI), math.inf, 2**32)

    def test_rejects_bad_arguments(self, geom, masses, weights):
        with pytest.raises(ValueError):
            refine(geom, masses, weights, (BOX_LO, BOX_HI), 0.0, 2)
        with pytest.raises(ValueError):
            refine(geom, masses, weights, (BOX_LO, BOX_HI), 1e-2, 0)
        with pytest.raises(ValueError):
            refine(geom, masses, weights, (BOX_HI, BOX_LO), 1e-2, 2)
        # a nan or infinite bound, or a span that overflows, never reaches the solver
        for k, lo, hi in ((0, float("nan"), 1.0), (2, -1.0, float("inf")),
                          (3, -float("inf"), 1.0), (1, -1e308, 1e308)):
            box_lo, box_hi = list(BOX_LO), list(BOX_HI)
            box_lo[k], box_hi[k] = lo, hi
            with pytest.raises(ValueError, match="finite span"):
                refine(geom, masses, weights, (box_lo, box_hi), 1e-2, 2)
        for k, box_lo, box_hi in boxes_beyond_pi():
            with pytest.raises(ValueError, match=BEYOND_PI.format(k)):
                refine(geom, masses, weights, (box_lo, box_hi), 1e-2, 2)
        # the root box is read as 8 values, flattened
        for box, size in ((0.5, 1), ((0.0, 1.0), 2), (BOX_LO, 4)):
            with pytest.raises(ValueError, match=f"root_box must have 8 components, got {size}"):
                refine(geom, masses, weights, box, 1e-2, 2)

    def test_leaves_meet_tolerance_by_recomputation(self, geom, masses, weights, refined_mid):
        leaves = refined_mid.leaves()
        assert len(leaves) > 1  # the root did split
        checked = 0
        for leaf in leaves:
            if leaf.flagged:
                continue
            direct = direct_gain(geom, masses, weights, leaf.center())
            interpolated = lookup(refined_mid, leaf.center())
            assert np.linalg.norm(interpolated - direct, 2) <= MID_TOL
            checked += 1
        assert checked > 0

    def test_random_lookup_error_within_tolerance(self, geom, masses, weights, refined_mid):
        # between-node queries stay within the refine tolerance; also record
        # the coarser sanity envelope of 4x the worst cell-center error
        rng = np.random.default_rng(31)
        center_errs = [
            np.linalg.norm(
                lookup(refined_mid, leaf.center())
                - direct_gain(geom, masses, weights, leaf.center()),
                2,
            )
            for leaf in refined_mid.leaves()
        ]
        envelope = 4.0 * max(center_errs)
        worst = 0.0
        for _ in range(100):
            theta = rng.uniform(refined_mid.lo, refined_mid.hi)
            err = np.linalg.norm(
                lookup(refined_mid, theta) - direct_gain(geom, masses, weights, theta), 2
            )
            worst = max(worst, err)
        print(f"  random lookup error {worst:.5f} (tol {MID_TOL}, envelope {envelope:.5f})")
        assert worst <= MID_TOL

    def test_lookup_inside_leaf_matches_corners(self, geom, masses, weights, theta_ref):
        box = (tuple(theta_ref - 0.02), tuple(theta_ref + 0.02))
        t = refine(geom, masses, weights, box, 1e-2, 3)
        # at a root corner the interpolation weights collapse to one corner
        assert np.array_equal(
            lookup(t, np.array(box[0])), direct_gain(geom, masses, weights, box[0])
        )
        with pytest.raises(OutOfBounds):
            lookup(t, np.asarray(box[1]) + 0.1)


class TestPlanarStorage:
    """Tables store each planar gain once; theta1 is a bound only."""

    def test_flat_stores_one_gain_per_planar_node(self, geom, masses, weights):
        t = precompute(geom, masses, weights, GridSpec(BOX_LO, BOX_HI, (3, 2, 2, 2)))
        assert t.gains.shape == (2, 2, 2, 4, 8)
        assert t.entries.shape == (3, 2, 2, 2, 4, 8) and not t.entries.flags.writeable
        assert len(save(t)) == TestSerialization.REFINED_HEADER + 8 * 256

    def test_refined_pools_each_corner_once(self, geom, masses, weights, theta_ref):
        box = (tuple(theta_ref - 0.25), tuple(theta_ref + 0.25))
        t = refine(geom, masses, weights, box, 0.4, 2)
        leaves = t.leaves()
        assert len(leaves) == 8 and all(leaf.depth == 2 for leaf in leaves)
        assert all(leaf.lo[0] == box[0][0] and leaf.hi[0] == box[1][0] for leaf in leaves)
        planar = {p for leaf in leaves for p in itertools.product(*zip(leaf.lo[1:], leaf.hi[1:]))}
        assert len(t.pool) == len(planar) == 27
        # every corner of every leaf looks up to its pooled gain, bit for bit,
        # whichever leaf owns the point and at either end of the yaw range
        for n, leaf in enumerate(leaves):
            for c, point in enumerate(itertools.product(*zip(leaf.lo[1:], leaf.hi[1:]))):
                for yaw in (leaf.lo[0], leaf.hi[0]):
                    stored = t.pool[t.corners[n][c]]
                    assert lookup(t, (yaw,) + point).tobytes() == stored.tobytes()


class TestSerialization:
    def test_flat_round_trip(self, table):
        blob = save(table)
        loaded = load(blob)
        assert isinstance(loaded, GainTable)
        assert save(loaded) == blob
        assert np.array_equal(loaded.entries, table.entries)
        assert loaded.gains.flags.aligned  # unaligned gains slow every lookup
        assert loaded.grid == table.grid
        assert loaded.digest == table.digest

    def test_refined_round_trip(self, geom, masses, weights, theta_ref):
        box = (tuple(theta_ref - 0.05), tuple(theta_ref + 0.05))
        t = refine(geom, masses, weights, box, 5e-2, 3)
        blob = save(t)
        loaded = load(blob)
        assert isinstance(loaded, RefinedTable)
        assert save(loaded) == blob
        assert loaded.tol == t.tol and loaded.max_depth == t.max_depth
        assert loaded.pool.flags.aligned
        rng = np.random.default_rng(3)
        for _ in range(5):
            theta = rng.uniform(box[0], box[1])
            assert np.array_equal(lookup(t, theta), lookup(loaded, theta))

    def test_bad_magic(self, table):
        blob = bytearray(save(table))
        blob[0] ^= 0xFF
        with pytest.raises(BadMagic):
            load(bytes(blob))

    def test_version_mismatch(self, table):
        blob = bytearray(save(table))
        blob[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(VersionMismatch):
            load(bytes(blob))

    @pytest.mark.parametrize("kind", ["table", "refined_mid"])
    def test_version_1_rejected(self, request, kind):
        blob = bytearray(save(request.getfixturevalue(kind)))
        assert blob[4:8] == (2).to_bytes(4, "little")
        blob[4:8] = (1).to_bytes(4, "little")
        with pytest.raises(VersionMismatch, match="rebuild"):
            load(bytes(blob))

    def test_unsupported_dimension_count(self, table):
        blob = bytearray(save(table))
        blob[8:12] = (3).to_bytes(4, "little")
        with pytest.raises(VersionMismatch):
            load(bytes(blob))

    def test_truncated(self, table, refined_mid):
        blob = save(table)
        with pytest.raises(TruncatedData):
            load(blob[: len(blob) - 7])
        with pytest.raises(TruncatedData):
            load(blob[:10])
        # every prefix through the header and 16 bytes on: a short magic, else
        # a short header or payload, whatever the version field reads so far
        for blob in (save(table), save(refined_mid)):
            for n in range(self.REFINED_HEADER + 17):
                error = BadMagic if n < 4 else TruncatedData
                with pytest.raises(error) as raised:
                    load(blob[:n])
                assert type(raised.value) is error, n

    def test_trailing_garbage(self, table):
        with pytest.raises(TruncatedData):
            load(save(table) + b"\x00")

    def test_check_digest(self, geom, masses, weights, table):
        loaded = load(save(table))
        other = MassModel(m2=0.6, m3=0.4, m4=0.3, M1=0.4, M2=0.3, M3=0.2)
        with pytest.raises(DigestMismatch, match="different arm"):
            check_digest(loaded, geom, other, weights)
        from armctl import CostWeights

        other_w = CostWeights.from_diagonals([1.0] * 8, [2.0] * 4)
        with pytest.raises(DigestMismatch, match="cost weights"):
            check_digest(loaded, geom, masses, other_w)
        check_digest(loaded, geom, masses)  # without weights, the arm half alone
        check_digest(loaded, geom, masses, weights)
        assert loaded.digest == table_digest(geom, masses, weights)

    # magic, version, dims, four (min, max, count) records, digest
    REFINED_HEADER = 4 + 4 + 4 + 4 * 20 + 32

    @pytest.mark.parametrize(
        "params", [b"", struct.pack("<dI", 0.1, 4), struct.pack("<dI", 0.1, 2**32 - 1)],
        ids=["zeros", "depth-4", "depth-max"],
    )
    def test_hostile_internal_tags_rejected(self, refined_mid, params):
        # a refined header then 5,000 zero bytes: a chain of internal tags
        blob = save(refined_mid)[: self.REFINED_HEADER] + params + bytes(5000)
        with pytest.raises(TableFormatError):
            load(blob)

    @pytest.mark.parametrize("index", ["pool-size", "u32-max"])
    def test_corner_index_outside_pool(self, refined_mid, index):
        blob = bytearray(save(refined_mid))
        n_pool = len(refined_mid.pool)
        assert struct.unpack_from("<I", blob, self.REFINED_HEADER + 12) == (n_pool,)
        leaf_at = self.REFINED_HEADER + 16 + n_pool * 256
        while blob[leaf_at] == 0:  # skip the internal tags before the first leaf
            leaf_at += 1
        value = n_pool if index == "pool-size" else 2**32 - 1
        struct.pack_into("<I", blob, leaf_at + 1 + 4 * 5, value)
        with pytest.raises(TableFormatError, match="outside a pool"):
            load(bytes(blob))

    def test_huge_pool_rejected_before_allocating(self, refined_mid):
        blob = bytearray(save(refined_mid))
        struct.pack_into("<I", blob, self.REFINED_HEADER + 12, 2**32 - 1)
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedData):
                load(bytes(blob))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * len(blob)

    def test_tree_deeper_than_max_depth(self, geom, masses, weights, theta_ref):
        box = (tuple(theta_ref - 0.25), tuple(theta_ref + 0.25))
        t = refine(geom, masses, weights, box, 1e-6, 2)
        assert len(t.leaves()) > 1
        blob = bytearray(save(t))
        depth_at = self.REFINED_HEADER + 8
        assert struct.unpack_from("<I", blob, depth_at) == (2,)
        assert save(load(bytes(blob))) == bytes(blob)
        for max_depth in (1, 0):
            struct.pack_into("<I", blob, depth_at, max_depth)
            with pytest.raises(TreeTooDeep, match=f"exceeds max_depth {max_depth}$"):
                load(bytes(blob))

    LEAF = bytes([1]) + bytes(32)  # a leaf whose corners are all pool entry 0

    @pytest.mark.parametrize(
        "make_tree, error",
        [
            # a chain of internal tags one deeper than max_depth allows
            (lambda t: bytes(t.max_depth) + TestSerialization.LEAF * 8 * t.max_depth, TreeTooDeep),
            (lambda t: t.tree[:-1], TruncatedData),
            (lambda t: bytes([1]) + struct.pack("<8I", *[0] * 5, len(t.pool), 0, 0),
             TableFormatError),
            (lambda t: bytes([3]) + bytes(32), TruncatedData),
            (lambda t: t.tree + bytes([1]), TruncatedData),
        ],
        ids=["too-deep", "truncated", "corner-is-pool-size", "unknown-tag", "trailing"],
    )
    def test_malformed_tree_same_error_built_or_loaded(self, refined_mid, make_tree, error):
        # one walk reads a tree: a table made from it directly raises what
        # loading its bytes raises
        tree = make_tree(refined_mid)
        with pytest.raises(error) as built:
            dataclasses.replace(refined_mid, tree=tree)
        blob = save(refined_mid)
        with pytest.raises(error) as loaded:
            load(blob[: len(blob) - len(refined_mid.tree)] + tree)
        assert type(built.value) is type(loaded.value) is error

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"digest": b"short"}, "digest must be 32 bytes"),
            ({"digest": bytes(33)}, "digest must be 32 bytes"),
            ({"lo": BOX_HI, "hi": BOX_LO}, r"dimension 0: need min < max, .* got \[0.55, 0.05\]"),
            ({"lo": BOX_LO[:2] + BOX_HI[2:3] + BOX_LO[3:],
              "hi": BOX_HI[:2] + BOX_LO[2:3] + BOX_HI[3:]}, r"dimension 2: need min < max"),
            ({"lo": BOX_LO, "hi": BOX_HI[:3] + (math.nan,)}, r"dimension 3: need min < max"),
            ({"max_depth": 2**32}, "^max_depth must be at most 4294967295, got 4294967296$"),
            ({"max_depth": 2.5}, "^max_depth must be a whole number >= 0, got 2.5$"),
            ({"pool": lambda t: t.pool[:, :, :7]},
             r"^pool must have shape \(n, 4, 8\), got \(125, 4, 7\)$"),
            ({"pool": lambda t: t.pool.reshape(-1, 32)},
             r"^pool must have shape \(n, 4, 8\), got \(125, 32\)$"),
            ({"lo": lambda t: t.lo[:3]}, "^lo must have 4 components, got 3$"),
            ({"lo": lambda t: t.lo + (t.lo[0],)}, "^lo must have 4 components, got 5$"),
            ({"tol": "x"}, "^tol must have 1 components"),
            ({"digest": "x" * 32}, "^digest must be 32 bytes"),
            ({"digest": np.zeros(32, np.uint8)}, "^digest must be 32 bytes"),
            ({"pool": lambda t: t.pool.tolist()}, "^pool must be a numpy array, got list$"),
        ] + [({"lo": lo, "hi": hi}, BEYOND_PI.format(k)) for k, lo, hi in boxes_beyond_pi()],
        ids=["short-digest", "long-digest", "inverted-box", "inverted-theta3", "nan-bound",
             "max-depth-beyond-u32", "fractional-max-depth", "pool-of-4x7", "flat-pool",
             "3-component-box", "5-component-box", "text-tol", "str-digest", "array-digest",
             "list-pool"] + [f"theta{k + 1}-{'max' if hi[k] > math.pi else 'min'}-beyond-pi"
                             for k, lo, hi in boxes_beyond_pi()],
    )
    def test_table_save_cannot_round_trip_is_rejected(self, refined_mid, fields, message):
        # save would write such a table, and load would reject its bytes or
        # misread them, so the constructor rejects it as GainTable does
        fields = {k: v(refined_mid) if callable(v) else v for k, v in fields.items()}
        with pytest.raises(ValueError, match=message) as raised:
            dataclasses.replace(refined_mid, **fields)
        assert type(raised.value) is ValueError

    def test_tol_is_stored_as_float(self, refined_mid):
        t = dataclasses.replace(refined_mid, tol=np.array([refined_mid.tol]))
        assert type(t.tol) is float
        assert save(t) == save(refined_mid)

    def test_whole_float_max_depth_is_stored_as_int(self, refined_mid):
        t = dataclasses.replace(refined_mid, max_depth=4.0)
        assert t.max_depth == 4 and type(t.max_depth) is int
        assert save(t) == save(refined_mid)

    @pytest.mark.parametrize("as_box", [np.array, list], ids=["ndarray", "list"])
    def test_array_like_box_is_stored_as_tuples(self, refined_mid, as_box):
        # the box is read as GridSpec reads it, so any array-like of 4
        # values gives the table that the tuple box gives
        t = dataclasses.replace(refined_mid, lo=as_box(refined_mid.lo), hi=as_box(refined_mid.hi))
        assert type(t.lo) is type(t.hi) is tuple
        assert t.leaves() == refined_mid.leaves()
        assert save(t) == save(refined_mid)

    @staticmethod
    def _bad_leaf(t):
        """A leaf whose sixth corner index is the pool size."""
        return bytes([1]) + struct.pack("<8I", *[0] * 5, len(t.pool), 0, 0)

    @pytest.mark.parametrize(
        "make_tree, error, message",
        [
            # an index outside the pool at the root's first child, then a
            # structural fault in a later cell: the index is the first fault
            (lambda t, bad: bytes([0]) + bad + bytes(t.max_depth - 1)
             + TestSerialization.LEAF * 8 * t.max_depth,
             TableFormatError, "corner index 125 at tree offset 2 outside a pool of 125"),
            (lambda t, bad: bytes([0]) + bad + bytes([3]) + bytes(32) + TestSerialization.LEAF * 6,
             TableFormatError, "corner index 125 at tree offset 2 outside a pool of 125"),
            (lambda t, bad: (bytes([0]) + bad + bytes([0]) + TestSerialization.LEAF * 14)[:-1],
             TableFormatError, "corner index 125 at tree offset 2 outside a pool of 125"),
            (lambda t, bad: bytes([0]) + bad + TestSerialization.LEAF * 7 + bytes([1]),
             TableFormatError, "corner index 125 at tree offset 2 outside a pool of 125"),
            # a structural fault, then such an index in cells never read
            (lambda t, bad: bytes(t.max_depth) + bad + TestSerialization.LEAF * (8 * t.max_depth),
             TreeTooDeep, "cell at depth 5 exceeds max_depth 4"),
            (lambda t, bad: bytes([0, 3]) + bytes(32) + bad + TestSerialization.LEAF * 6,
             TruncatedData, "unknown cell tag 3 at tree offset 1"),
            (lambda t, bad: bytes([0]) + TestSerialization.LEAF * 6 + bad,
             TruncatedData, "8 cells pending at tree offset 1, only 231 bytes left"),
            (lambda t, bad: bytes([0]) + TestSerialization.LEAF * 8 + bad,
             TruncatedData, "33 trailing bytes after the tree"),
        ],
        ids=["index-then-too-deep", "index-then-unknown-tag", "index-then-truncated",
             "index-then-trailing", "too-deep-then-index", "unknown-tag-then-index",
             "truncated-then-index", "trailing-then-index"],
    )
    def test_first_fault_of_several_is_raised(self, refined_mid, make_tree, error, message):
        # the walk reads cells in file order and raises the first fault it
        # reads, whether a table is made from the tree or loaded from bytes
        assert refined_mid.max_depth == 4 and len(refined_mid.pool) == 125
        tree = make_tree(refined_mid, self._bad_leaf(refined_mid))
        blob = save(refined_mid)
        for make in (lambda: dataclasses.replace(refined_mid, tree=tree),
                     lambda: load(blob[: len(blob) - len(refined_mid.tree)] + tree)):
            with pytest.raises(error) as raised:
                make()
            assert type(raised.value) is error
            assert str(raised.value) == message

    @staticmethod
    def _patch_dims(blob, **fields):
        """Rewrite dimension records: fields maps "lo"/"hi"/"count" to a
        {dimension: value} dict."""
        blob = bytearray(blob)
        for name, values in fields.items():
            fmt, offset = {"lo": ("<d", 0), "hi": ("<d", 8), "count": ("<I", 16)}[name]
            for k, value in values.items():
                struct.pack_into(fmt, blob, 12 + 20 * k + offset, value)
        return bytes(blob)

    @pytest.mark.parametrize(
        "kind, fields, message",
        [
            ("flat", {"count": {2: 0}}, r"^counts\[2\] must be a whole number >= 2, got 0"),
            ("flat", {"count": {0: 1}}, r"^counts\[0\] must be a whole number >= 2, got 1"),
            ("flat", {"lo": {1: float("nan")}}, r"^dimension 1: need min < max, .* got \[nan, "),
            ("flat", {"hi": {3: float("inf")}}, r"^dimension 3: need min < max, .*, inf\]$"),
            ("flat", {"lo": {0: 1.0}, "hi": {0: 1.0}}, r"^dimension 0: .* got \[1.0, 1.0\]$"),
            ("flat", {"lo": {1: -1e308}, "hi": {1: 1e308}}, r"^dimension 1: .* finite span"),
            ("refined", {"hi": {2: float("nan")}}, r"^dimension 2: need min < max"),
            ("refined", {"lo": {1: 2.0}, "hi": {1: -2.0}}, r"^dimension 1: .* got \[2.0, -2.0\]$"),
            ("flat", {"hi": {0: 3.2}}, BEYOND_PI.format(0)),
            ("flat", {"lo": {1: -3.2}}, BEYOND_PI.format(1)),
            ("refined", {"hi": {2: 3.2}}, BEYOND_PI.format(2)),
            ("refined", {"lo": {3: -3.2}}, BEYOND_PI.format(3)),
            # as GridSpec reads them: the spans before the counts
            ("flat", {"count": {0: 1}, "hi": {3: 3.2}}, BEYOND_PI.format(3)),
        ],
        ids=["count-0-in-one", "count-1", "nan-min", "inf-max", "empty-range",
             "span-overflows", "refined-nan-max", "refined-min-above-max",
             "theta1-max-beyond-pi", "theta2-min-beyond-pi", "refined-theta3-max-beyond-pi",
             "refined-theta4-min-beyond-pi", "span-before-count"],
    )
    def test_invalid_dimension_record(self, request, kind, fields, message):
        # a header is checked by the constructors' rules and carries their message
        blob = save(request.getfixturevalue({"flat": "table", "refined": "refined_mid"}[kind]))
        with pytest.raises(BadGrid, match=message):
            load(self._patch_dims(blob, **fields))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind, start", [("table", REFINED_HEADER),
                                             ("refined_mid", REFINED_HEADER + 16)],
                             ids=["flat", "refined"])
    def test_non_finite_gain(self, request, kind, start, bad):
        # a flat payload or a tree pool: the first bad gain is named by its byte offset
        blob = bytearray(save(request.getfixturevalue(kind)))
        first = start + 8 * 37
        struct.pack_into("<d", blob, first, bad)
        struct.pack_into("<d", blob, start + 8 * 200, math.nan)
        with pytest.raises(TableFormatError) as raised:
            load(bytes(blob))
        assert type(raised.value) is TableFormatError
        assert str(raised.value) == f"gain {bad} at offset {first} is not finite"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind, field", [("table", "gains"), ("refined_mid", "pool")],
                             ids=["flat", "refined"])
    def test_non_finite_gain_built_directly(self, request, kind, field, bad):
        # the constructors hold the rule load reports by offset, so save never
        # writes a table that load refuses; the first bad entry is named
        t = request.getfixturevalue(kind)
        gains = getattr(t, field).copy()
        gains.flat[37], gains.flat[200] = bad, math.nan
        entry = ", ".join(map(str, np.unravel_index(37, gains.shape)))
        with pytest.raises(ValueError) as raised:
            dataclasses.replace(t, **{field: gains})
        assert str(raised.value) == f"{field}[{entry}] is {bad}, not finite"

    def test_pool_fault_before_tree_fault(self, refined_mid):
        # a nan pool gain of a tree too deep for max_depth 0 is the fault
        # named, built or loaded: gains come before the tree
        pool = refined_mid.pool.copy()
        pool.flat[5] = math.nan
        with pytest.raises(ValueError, match=r"^pool\[0, 0, 5\] is nan, not finite$"):
            dataclasses.replace(refined_mid, pool=pool, max_depth=0)
        blob = bytearray(save(refined_mid))
        struct.pack_into("<I", blob, self.REFINED_HEADER + 8, 0)
        struct.pack_into("<d", blob, self.REFINED_HEADER + 16 + 8 * 5, math.nan)
        with pytest.raises(TableFormatError,
                           match=f"^gain nan at offset {self.REFINED_HEADER + 56} is not finite$"):
            load(bytes(blob))

    @pytest.mark.parametrize("kind, start", [("table", REFINED_HEADER),
                                             ("refined_mid", REFINED_HEADER + 16)],
                             ids=["flat", "refined"])
    def test_finite_gains_whose_sum_overflows(self, request, kind, start):
        # gains whose sum overflows load, with no overflow warning
        blob = bytearray(save(request.getfixturevalue(kind)))
        for k in (3, 4):
            struct.pack_into("<d", blob, start + 8 * k, 1.7e308)
        assert save(load(bytes(blob))) == bytes(blob)

    def test_huge_counts_rejected_before_allocating(self, table):
        blob = self._patch_dims(save(table), count={k: 2**31 for k in range(4)})
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedData):
                load(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * len(blob)

    def test_file_round_trip(self, table, tmp_path):
        path = tmp_path / "gains.agt"
        save_file(table, path)
        assert save(load_file(path)) == save(table)


class TestSaveFile:
    """save_file writes a new file beside the target and renames it over."""

    @pytest.fixture
    def umask_022(self):
        old = os.umask(0o022)
        yield
        os.umask(old)

    def test_mode_follows_the_umask(self, table, tmp_path, umask_022):
        with open(tmp_path / "plain", "wb"):
            pass
        save_file(table, tmp_path / "gains.agt")
        mode = stat.S_IMODE(os.stat(tmp_path / "gains.agt").st_mode)
        assert mode == stat.S_IMODE(os.stat(tmp_path / "plain").st_mode) == 0o644

    def test_replaces_an_existing_file(self, table, refined_mid, tmp_path):
        path = tmp_path / "gains.agt"
        save_file(refined_mid, path)
        save_file(table, path)
        assert save(load_file(path)) == save(table)
        assert os.listdir(tmp_path) == ["gains.agt"]

    def test_failed_rename_keeps_the_old_file(self, table, refined_mid, tmp_path, monkeypatch):
        path = tmp_path / "gains.agt"
        save_file(refined_mid, path)

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            save_file(table, path)
        assert path.read_bytes() == save(refined_mid)
        assert os.listdir(tmp_path) == ["gains.agt"]

    def test_fsyncs_the_new_file_before_the_rename(self, table, tmp_path, monkeypatch):
        calls, fsync, replace = [], os.fsync, os.replace

        def record_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def record_replace(src, dst):
            calls.append(("replace", os.stat(src).st_ino))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        path = tmp_path / "gains.agt"
        save_file(table, path)
        inode = os.stat(path).st_ino
        assert calls == [("fsync", inode), ("replace", inode)]


class TestTreeRoundTrip:
    @pytest.mark.parametrize("case", ["refined_mid", "flagged"])
    def test_child_numbers_the_leaves(self, geom, masses, weights, refined_mid, case):
        # child[c] < 0 marks exactly the leaf cells, and ~child[c] is the
        # leaf's number: its place in leaves(), corners and the tree bytes
        t = refined_mid if case == "refined_mid" else refine(
            geom, masses, weights, (BOX_LO, BOX_HI), 1e-6, 2)
        leaves, cells = t.leaves(), [c for c, _, _ in t._cells]
        assert {c for c, first in enumerate(t.child) if first < 0} == set(cells)
        assert [~t.child[c] for c in cells] == list(range(len(leaves)))
        assert t.corners.tolist() == _leaf_indices(t.tree)
        assert any(leaf.flagged for leaf in leaves) == (case == "flagged")

    @settings(max_examples=12, deadline=None)
    @given(
        offset=st.lists(st.floats(-0.2, 0.2), min_size=4, max_size=4),
        half=st.floats(0.01, 0.2),
        tol=st.sampled_from([float("inf"), 1.0, 0.1, 0.01]),
        depth=st.integers(1, 3),
    )
    def test_saved_tree_reads_back(self, geom, masses, weights, theta_ref, offset, half, tol,
                                   depth):
        center = theta_ref + offset
        t = refine(geom, masses, weights, (tuple(center - half), tuple(center + half)), tol, depth)
        blob = save(t)
        loaded = load(blob)
        assert loaded.tree == t.tree
        assert save(loaded) == blob
        assert loaded.leaves() == t.leaves()


# bounds where a split's float rounding has edges: signed zeros, pi, the
# subnormal range and the floats either side of those
EDGE_BOUNDS = [0.0, -0.0, math.pi, -math.pi, math.nextafter(math.pi, 0.0),
               math.nextafter(-math.pi, 0.0), 5e-324, -5e-324, 1e-323,
               2.2250738585072009e-308, -2.2250738585072009e-308, 2.2250738585072014e-308]
split_bounds = st.one_of(st.sampled_from(EDGE_BOUNDS), st.floats(-math.pi, math.pi),
                         st.floats(-1e-307, 1e-307))
# an axis is any two bounds, or one bound twice (zero width)
split_axes = st.one_of(st.tuples(split_bounds, split_bounds),
                       split_bounds.map(lambda v: (v, v)))


def box_bits(boxes):
    """The boxes (lo, hi) as bytes, so -0.0 and 0.0 differ."""
    return [struct.pack("<6d", *lo, *hi) for lo, hi in boxes]


def walk_outcome(make):
    """The first fault make() raises, as (type, message), or what the table
    it returns derives from its tree."""
    try:
        t = make()
    except TableFormatError as exc:
        return type(exc), str(exc)
    assert t.corners.dtype == np.intp and t.corners.shape == (len(t._cells), 8)
    return t.child, t._boxes, t._cells, t.corners.tolist()


class TestTreeWalk:
    """The constructor walk against the product split and the tuple-stack walk."""

    @settings(max_examples=400, deadline=None)
    @given(planar=st.lists(split_axes, min_size=3, max_size=3))
    def test_split_matches_product_form(self, planar):
        lo, hi = tuple(a for a, _ in planar), tuple(b for _, b in planar)
        children = gt._split(lo, hi)
        assert box_bits(children) == box_bits(reference_split(lo, hi))
        assert all(type(v) is float for box in children for half in box for v in half)

    def test_split_edges_by_hand(self):
        # the midpoint of a one-ulp subnormal span rounds to 0.0, and a
        # signed zero survives as the lower half's bound
        lo, hi = (-0.0, 0.0, -math.pi), (5e-324, 0.0, math.pi)
        children = gt._split(lo, hi)
        assert box_bits(children[:1]) == box_bits([((-0.0, 0.0, -math.pi), (0.0, 0.0, 0.0))])
        assert box_bits(children) == box_bits(reference_split(lo, hi))

    @staticmethod
    def _tag_offsets(tree):
        offsets, pos = [], 0
        while pos < len(tree):
            offsets.append(pos)
            pos += 33 if tree[pos] else 1
        return offsets

    @settings(max_examples=1000, deadline=None)
    @given(
        # each edit sets one byte to a tag value, at a cell's tag half the time
        edits=st.lists(st.tuples(st.booleans(), st.integers(0, 2**16), st.integers(0, 3)),
                       max_size=4),
        cut=st.one_of(st.none(), st.integers(0, 2**16)),
        tail=st.binary(max_size=40),
        max_depth=st.one_of(st.none(), st.integers(0, 5), st.just(2**32 - 1)),
    )
    def test_damaged_tree_walks_as_the_oracle(self, refined_mid, edits, cut, tail, max_depth):
        t = refined_mid
        tree, tags = bytearray(t.tree), self._tag_offsets(t.tree)
        for at_tag, pos, value in edits:
            tree[tags[pos % len(tags)] if at_tag else pos % len(tree)] = value
        if cut is not None:
            tree = tree[: cut % (len(tree) + 1)]
        tree = bytes(tree) + tail
        depth = t.max_depth if max_depth is None else max_depth
        try:
            expected = reference_tree_walk(t.lo, t.hi, depth, len(t.pool), tree)
            expected = expected[:3] + (expected[3].tolist(),)
        except TableFormatError as exc:
            expected = type(exc), str(exc)
        blob = bytearray(save(t)[: -len(t.tree)])
        struct.pack_into("<I", blob, TestSerialization.REFINED_HEADER + 8, depth)
        assert walk_outcome(lambda: dataclasses.replace(t, max_depth=depth, tree=tree)) == expected
        assert walk_outcome(lambda: load(bytes(blob) + tree)) == expected


@pytest.fixture(scope="module")
def fuzz_blobs(geom, masses, weights, theta_ref, table):
    box = (tuple(theta_ref - 0.25), tuple(theta_ref + 0.25))
    return {"flat": save(table), "refined": save(refine(geom, masses, weights, box, 0.4, 2))}


class TestLoadFuzz:
    """Arbitrary damage to a valid blob gives a table or a TableFormatError."""

    HEADER = TestSerialization.REFINED_HEADER + 16  # through tol, max_depth, pool size

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["flat", "refined"]),
        edits=st.lists(
            st.tuples(
                # half the edits land in the header, where the structure is
                st.one_of(st.integers(0, HEADER - 1), st.integers(0, 2**20)),
                st.integers(0, 255),
            ),
            min_size=1, max_size=8,
        ),
        cut=st.one_of(st.none(), st.integers(0, 2**20)),
    )
    def test_mutated_bytes(self, fuzz_blobs, kind, edits, cut):
        blob = bytearray(fuzz_blobs[kind])
        for pos, value in edits:
            blob[pos % len(blob)] = value
        if cut is not None:
            blob = blob[: cut % (len(blob) + 1)]
        try:
            loaded = load(bytes(blob))
        except TableFormatError:
            return
        assert isinstance(loaded, (GainTable, RefinedTable))
        assert save(loaded) == bytes(blob)  # whatever load reads, save writes back
