"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import math
import time

import numpy as np

import armctl.gain_table as gt
from armctl import (
    CostWeights,
    ControllerMode,
    GridSpec,
    SimConfig,
    bench_controller,
    equilibrium_point,
    fk_spatial,
    forward_dynamics,
    ik,
    joint_inertias,
    linearize,
    lookup,
    lqr_gain,
    precompute,
    refine,
    save,
    segment_inertia,
    simulate,
    solve_care,
)
from armctl.cli import main as cli_main
from conftest import safe_random_theta
from oracles import fd_jacobian, lagrangian_accelerations
from test_kinematics import sample_reachable_pose
from test_riccati import random_stabilizable


def report(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS", flush=True)


def test_01_fk_ik_round_trip(geom):
    rng = np.random.default_rng(2024)
    targets = []
    for _ in range(1000):
        pose, phi = sample_reachable_pose(rng, geom)
        targets.append((fk_spatial(geom, pose)[3], phi))
    start = time.perf_counter()
    worst = 0.0
    for target, phi in targets:
        back = fk_spatial(geom, ik(geom, target, pitch=phi))[3]
        worst = max(worst, max(abs(a - b) for a, b in zip(back, target)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"round-trip error {worst}"
    assert elapsed < 1.0, f"runtime {elapsed:.3f}s"
    report(1, "fk-ik-round-trip")


def test_02_segment_inertia_closed_forms():
    m, L = 1.3, 0.9
    assert abs(segment_inertia((0, 0), (L, 0), m) - m * L * L / 3) <= 1e-12
    assert abs(segment_inertia((-L / 2, 0), (L / 2, 0), m) - m * L * L / 12) <= 1e-12
    a, b = 0.6, -1.1
    assert abs(segment_inertia((a, b), (a, b), m) - m * (a * a + b * b)) <= 1e-12
    report(2, "segment-inertia-closed-forms")


def test_03_tool_inertia_formula_lock(geom, masses):
    rng = np.random.default_rng(7)
    expect = masses.m4 * geom.L3**2 + masses.M3 * geom.L3**2 / 3.0
    for theta in rng.uniform(-math.pi, math.pi, size=(50, 4)):
        assert joint_inertias(geom, masses, theta)[3] == expect
    report(3, "tool-inertia-formula-lock")


def test_04_forward_dynamics_vs_lagrangian_oracle(geom, masses):
    rng = np.random.default_rng(11)
    for theta in safe_random_theta(rng, 100):
        rates = rng.uniform(-2.0, 2.0, 4)
        tau = rng.uniform(-5.0, 5.0, 4)
        got = forward_dynamics(geom, masses, theta, rates, tau)
        want = lagrangian_accelerations(geom, masses, theta, rates, tau)
        rel = np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))
        assert rel <= 1e-4, f"relative error {rel} at {theta}"
    report(4, "forward-dynamics-oracle")


def test_05_passive_energy_conservation(geom, masses):
    config = SimConfig(dt=1e-3, control_period=0.02, duration=10.0)
    x0 = np.array([0.4, 2.6, 0.8, -0.5, 0.3, 0.0, 0.0, 0.0])
    traj = simulate(geom, masses, config, ControllerMode.PASSIVE, x0)
    drift = np.abs(traj.energy - traj.energy[0]).max()
    assert drift <= 1e-5 * max(1.0, abs(traj.energy[0])), f"drift {drift}"
    report(5, "passive-energy-conservation")


def test_06_linearization_contracts(geom, masses):
    rng = np.random.default_rng(13)
    for _ in range(10):
        theta = safe_random_theta(rng, 1)[0]
        op_rates = rng.uniform(-1.5, 1.5, 4)
        op_tau = rng.uniform(-4.0, 4.0, 4)
        from armctl import OperatingPoint

        op = OperatingPoint(theta, op_rates, op_tau)
        model = linearize(geom, masses, op)
        # exact block structure
        assert np.array_equal(model.A[:4, :4], np.zeros((4, 4)))
        assert np.array_equal(model.A[:4, 4:], np.eye(4))
        assert np.array_equal(model.B[:4, :], np.zeros((4, 4)))
        # B lower block
        inertia = joint_inertias(geom, masses, theta)
        assert np.abs(model.B[4:, :] - np.diag(1.0 / inertia)).max() <= 1e-10
        # A acceleration rows vs an independent fixed-step Jacobian

        def acc(x):
            return forward_dynamics(geom, masses, x[:4], x[4:], op.torque)

        reference = fd_jacobian(acc, op.state(), h=1e-5)
        assert np.all(np.abs(model.A[4:, :] - reference) <= 1e-4 + 1e-4 * np.abs(reference))
    report(6, "linearization-jacobians")


def test_07_care_contracts():
    K = lqr_gain(*[np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])],
                 CostWeights(np.eye(2), np.eye(1)))
    assert np.abs(K - [[1.0, math.sqrt(3.0)]]).max() <= 1e-8

    rng = np.random.default_rng(17)
    start = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 5))
        A, B, w = random_stabilizable(rng, n, m)
        P = solve_care(A, B, w)
        G = B @ np.linalg.solve(w.R, B.T)
        residual = np.linalg.norm(A.T @ P + P @ A - P @ G @ P + w.Q)
        assert residual <= 1e-8 * max(1.0, np.linalg.norm(w.Q))
        K = lqr_gain(A, B, w)
        assert np.linalg.eigvals(A - B @ K).real.max() < 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.3f}s"
    report(7, "care-residual-and-stability")


def test_08_gain_table_lookup_and_format(geom, masses, weights, theta_ref):
    grid = GridSpec(tuple(theta_ref - 0.25), tuple(theta_ref + 0.25), (2, 2, 2, 2))
    table = precompute(geom, masses, weights, grid)

    # node lookups bit-exact
    for index in np.ndindex(grid.shape):
        assert np.array_equal(lookup(table, grid.node_angles(index)), table.entries[index])

    # edge midpoint equals the corner average
    theta = grid.node_angles((0, 1, 0, 1)).copy()
    theta[2] = 0.5 * (grid.axis(2)[0] + grid.axis(2)[1])
    want = 0.5 * (table.entries[0, 1, 0, 1] + table.entries[0, 1, 1, 1])
    assert np.abs(lookup(table, theta) - want).max() <= 1e-12

    # save/load round trip byte-identical
    blob = save(table)
    assert save(gt.load(blob)) == blob

    # node-count law on 5 random grid specs
    rng = np.random.default_rng(23)
    for _ in range(5):
        counts = tuple(int(c) for c in rng.integers(2, 4, size=4))
        spec = GridSpec(tuple(theta_ref - 0.2), tuple(theta_ref + 0.2), counts)
        t = precompute(geom, masses, weights, spec)
        assert t.entries.shape[:4] == counts
        assert t.grid.n_nodes == int(np.prod(counts))
    report(8, "gain-table-lookup-and-format")


def test_09_refinement_contract(geom, masses, weights, theta_ref):
    tol = 1e-2
    box = (tuple(theta_ref - 0.05), tuple(theta_ref + 0.05))
    table = refine(geom, masses, weights, box, tol, 4)
    leaves = table.leaves()
    assert len(leaves) > 1
    checked = 0
    for leaf in leaves:
        if leaf.flagged:
            continue
        center = leaf.center()
        model = linearize(geom, masses, equilibrium_point(geom, masses, center))
        direct = lqr_gain(model.A, model.B, weights)
        interpolated = lookup(table, center)
        err = np.linalg.norm(interpolated - direct, 2)
        assert err <= tol, f"leaf at {leaf.lo}..{leaf.hi} error {err}"
        checked += 1
    assert checked > 0
    report(9, "refinement-contract")


def test_10_closed_loop_regulation(geom, masses, theta_ref):
    start = time.perf_counter()
    weights = CostWeights.from_diagonals([100.0] * 4 + [1.0] * 4, [1.0] * 4)
    x_ref = np.concatenate([theta_ref, np.zeros(4)])
    x0 = x_ref.copy()
    x0[:4] += 0.1
    config = SimConfig(dt=1e-3, control_period=0.02, duration=5.0)

    grid = GridSpec(tuple(theta_ref - 0.25), tuple(theta_ref + 0.25), (2, 2, 2, 2))
    table = precompute(geom, masses, weights, grid)

    online = simulate(geom, masses, config, ControllerMode.ONLINE_LQR, x0, x_ref,
                      weights=weights)
    tabled = simulate(geom, masses, config, ControllerMode.TABLE_LQR, x0, x_ref,
                      weights=weights, table=table)
    for name, traj in (("online", online), ("table", tabled)):
        err = np.abs(traj.states[:, :4] - theta_ref).max(axis=1)
        settled = np.flatnonzero(err < 1e-2)
        assert settled.size, f"{name} mode never settled"
        t_settle = traj.times[settled[0]]
        assert t_settle <= 5.0, f"{name} settling time {t_settle}"
        assert err[-1] < 1e-2
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.3f}s"
    report(10, "closed-loop-regulation")


def test_11_lookup_faster_than_online(geom, masses, weights, theta_ref):
    grid = GridSpec(tuple(theta_ref - 0.25), tuple(theta_ref + 0.25), (2, 2, 2, 2))
    table = precompute(geom, masses, weights, grid)
    result = bench_controller(geom, masses, table, 1000, weights=weights)
    assert result.lookup_median_us < result.online_median_us
    print(
        f"  online median {result.online_median_us:.1f} us, "
        f"lookup median {result.lookup_median_us:.1f} us, "
        f"speedup {result.speedup:.1f}x"
    )
    report(11, "lookup-latency-ordering")


def test_12_precompute_determinism(write_config, tmp_path):
    cfg = write_config()
    paths = [tmp_path / name for name in ("one.agt", "two.agt", "par.agt")]
    assert cli_main(["--config", cfg, "precompute", "--out", str(paths[0])]) == 0
    assert cli_main(["--config", cfg, "precompute", "--out", str(paths[1])]) == 0
    assert cli_main(["--config", cfg, "precompute", "--out", str(paths[2]),
                     "--workers", "2"]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    report(12, "precompute-determinism")
