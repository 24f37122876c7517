"""Print byte-identity fingerprints of armctl's gain tables and trajectories.

    python3 tools/fingerprint.py [--against REV]

Each line is a name and the first 16 hex digits of the sha256 of:
  - save() of a 5^4, a non-cubic 3x4x2x5 and a 7^4 precompute, each with 1
    and with 2 workers (the non-cubic and 7^4 grids cover the planar gain
    order and a theta1 count that differs from the others; 7^4 is the grid
    perfbench builds);
  - save() of refine(tol 0.4, depth 3) and refine(tol 0.1, depth 4), and of
    refine(tol 0.4, depth 3) on the non-dyadic box theta_ref +/- (0.25,
    0.3, 0.35, 0.4), whose planar widths 0.6, 0.7 and 0.8 (unlike 0.5) make
    d / w and d * (1 / w) round apart;
  - the bytes lookup returns, on the 5^4, 3x4x2x5 and 7^4 tables (3x4x2x5
    has a count-2 axis, with no interior node; 7^4 is the grid perfbench's
    build-table flies) and on the three refined tables, at every node (every
    grid node, or every corner of every leaf) and then at 2,000 points drawn
    uniformly in the table's box (seed 20);
  - the bytes lookup returns on the 5^4 table and the tol 0.4 tree at those
    2,000 points shifted by +2 pi on theta1 and -2 pi on theta4, which
    lookup wraps back into the box;
  - what load derives from each of the three saved refined tables: its
    leaves, each packed as (lo, hi, depth, flagged), then its child numbers
    and corner indices;
  - the states, inputs and energy of a 1 s simulate in the passive, online,
    flat-table (the 5^4 table) and refined-table (the tol 0.4 table) modes;
  - forward_dynamics, linearize's A and B, and step_rk4 (dt 1e-3) at 1,000
    moving states drawn with seed 33: angles in [-pi, pi], rates in
    [-2, 2] and torques in [-5, 5], off every equilibrium;
  - linearize's A and B at 1,000 equilibria (zero rates, equilibrium_torque)
    at angles in [-pi, pi] drawn with seed 35, linearize's resting branch;
  - the gains gain_table._solve_nodes returns for 1,000 equilibria drawn
    with seed 39 across the workspace (theta1 in [-pi, pi], theta2 in
    [0.3, 2.8], theta3 in [-2.5, -0.3], theta4 in [-2, 2]) in stacks of 64,
    as a build solves its nodes, far beyond the tables' box;
  - the NodeFailure of three failing precomputes, each with 1 and with 2
    workers: its node index, its cause's type name and its cause's message.
    The grids: 2^4 on the tables' box for the tool-less arm (m4 = M3 = 0,
    every node degenerate); 2x3^3 over [-0.5, 0.5], whose node (0, 1, 1, 1)
    is the upright pose; and 2x5^3 over theta2 in [-0.75, 0.25], the rest
    in [-0.5, 0.5], whose upright node (0, 3, 2, 2) is planar node 87, in
    its second stack of 64, so a 2-worker build finds it in a pool worker.
    All three fail in linearize_nodes, before any Riccati check;
  - the Riccati solver's own outcomes on 1,000 random systems drawn with
    seed 47, in stacks of 64 that share n (1-8), m (1-4) and random full
    SPD weights: each system's solve_care P and lqr_gain K, then each
    stack's solve_stack P and K, or the error's type name and message.
    In every second stack about one system in 10 has a mode outside B's
    reach, on the imaginary axis or unstable, and one in 10 a B whose
    B R^-1 B' overflows; single-input systems of 4 or more states fail the
    residual check now and then.  So the line reaches the checks on H, on
    the Schur form's dimension, on the basis and on the residual, and the
    stacks without a fault give their bytes;
  - the same outcomes on 1,000 random systems drawn alike with seed 49,
    where each stack puts +inf, -inf or nan at one entry of B in a share
    of its systems and at one entry of A in another, the shares (B, A)
    cycling over (0.1, 0), (0, 0.1), (0.1, 0.1) and (0.02, 0.2): so a
    stack names B, or A when only A is not finite, and each system alone
    gives its own error or bytes;
  - the same outcomes, and each system's solve_stack alone, on the
    "riccati near-limit systems" drawn with seed 52: n = 6, m = 2, one
    stack of 14 per (coupling, weight) pair, whose system k (1-14) has an
    uncontrollable stable mode at -10^-k (state 0: its row of A and of B
    zero but for that eigenvalue).  Its column of A, the mode driving the
    other states, is zero (no coupling) or a random one scaled by 100 (a
    non-normal coupling), and random full SPD weights weight it with its
    Q row and column scaled by 1, 1e-6 or 0.  So P and the closed loop
    come near where the checks' certificates hand over to dsyevd and
    dgeev, and beyond it to the CARE residual's limit;
All use the test arm of tests/conftest.py, and the table, lookup and
simulate lines the box theta_ref +/- 0.25 unless named "non-dyadic".
It imports armctl from the src/ directory next to it.  It exits with status
1, naming the grid on standard error, when a grid's 1- and 2-worker builds
differ.

With --against REV it also imports REV's src/armctl from `git archive`, as
tools/ab_layers.py does, fingerprints it the same way, prints every line
whose digest differs as "name: REV-digest -> digest", and exits with status
1 on any difference.  Equal lines mean the working tree kept those results
bit for bit.
"""

import argparse
import hashlib
import itertools
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from ab_layers import arm, load_parent

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import armctl  # noqa: E402

THETA_REF = np.array([0.3, 0.8, -0.9, 0.5])
# off the reference, moving, and inside the box for the whole run
X0 = np.array([0.4, 0.7, -0.8, 0.6, 0.2, -0.3, 0.1, 0.4])
OFF_NODE = 2000  # seeded lookup points in the box, after the nodes
MOVING = 1000  # seeded moving states for the dynamics lines
RESTING = 1000  # seeded equilibria for the resting linearize lines
NODES = 1000  # seeded equilibria for the node gains line, over the workspace box below
WORKSPACE = ([-np.pi, 0.3, -2.5, -2.0], [np.pi, 2.8, -0.3, 2.0])
TURN = np.array([2 * np.pi, 0.0, 0.0, -2 * np.pi])  # the shift of the wrapped lookup lines
NON_DYADIC = np.array([0.25, 0.3, 0.35, 0.4])  # half-widths of the non-dyadic tree's box
SYSTEMS = 1000  # seeded random systems for each Riccati line, in stacks of 64
NEAR_LIMIT = range(1, 15)  # the near-limit line's uncontrollable modes at -10^-k
COUPLINGS = (0.0, 100.0)  # the scale of that mode's column of A: none, non-normal
MODE_WEIGHTS = (1.0, 1e-6, 0.0)  # the scale of its row and column of Q
# (share of systems with a non-finite B, with a non-finite A) in turn per stack
NON_FINITE_SHARES = ((0.1, 0.0), (0.0, 0.1), (0.1, 0.1), (0.02, 0.2))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def lookup_bytes(pkg, table, points) -> bytes:
    return b"".join(pkg.lookup(table, theta).tobytes() for theta in points)


def node_points(pkg, table) -> list:
    """Every node of a flat table, or every corner of every leaf of a tree."""
    if isinstance(table, pkg.GainTable):
        return list(itertools.product(*(table.grid.axis(k).tolist() for k in range(4))))
    return sorted({p for leaf in table.leaves() for p in itertools.product(*zip(leaf.lo, leaf.hi))})


def walk_bytes(pkg, table) -> bytes:
    """load(save(table))'s leaves as (lo, hi, depth, flagged), then its
    child and corners arrays."""
    loaded = pkg.load(pkg.save(table))
    leaves = b"".join(struct.pack("<8dI?", *leaf.lo, *leaf.hi, leaf.depth, leaf.flagged)
                      for leaf in loaded.leaves())
    return (leaves + np.array(loaded.child, "<i8").tobytes()
            + np.asarray(loaded.corners, "<i8").tobytes())


def failure_bytes(pkg, build) -> bytes:
    """The NodeFailure build() raises, as its index, its cause's type name
    and its cause's message, or b"built" if it returns."""
    try:
        build()
    except pkg.NodeFailure as exc:
        return repr((exc.index, type(exc.cause).__name__, str(exc.cause))).encode()
    return b"built"


def outcome_bytes(pkg, solve) -> bytes:
    """The bytes of the arrays solve() returns, or its error's type name
    and message."""
    try:
        return b"".join(a.tobytes() for a in solve())
    except (ValueError, pkg.ArmError) as exc:
        return repr((type(exc).__name__, str(exc))).encode()


def random_stacks(pkg, seed):
    """SYSTEMS random systems in stacks of up to 64, drawn from seed, as
    (rng, stack start, A, B, weights): a stack shares n (1-8), m (1-4) and
    random full SPD weights.  The caller may put faults in A and B."""
    rng = np.random.default_rng(seed)
    for s in range(0, SYSTEMS, 64):
        k, n, m = min(64, SYSTEMS - s), int(rng.integers(1, 9)), int(rng.integers(1, 5))
        C, D = rng.normal(size=(n, n)), rng.normal(size=(m, m))
        weights = pkg.CostWeights(C.T @ C, D.T @ D + np.eye(m))
        yield rng, s, rng.normal(size=(k, n, n)), rng.normal(size=(k, n, m)), weights


def stack_outcomes(pkg, A, B, weights) -> list:
    """Each system's (solve_care, lqr_gain) outcome, then the stack's solve_stack."""
    out = [outcome_bytes(pkg, lambda: (pkg.solve_care(a, b, weights),
                                       pkg.lqr_gain(a, b, weights))) for a, b in zip(A, B)]
    return out + [outcome_bytes(pkg, lambda: pkg.riccati.solve_stack(A, B, weights))]


def riccati_bytes(pkg) -> bytes:
    """The Riccati line's outcomes, on the seed-47 stacks."""
    out = []
    for rng, s, A, B, weights in random_stacks(pkg, 47):
        k, n = A.shape[:2]
        fault, mode, at = rng.uniform(size=k), rng.uniform(0.0, 2.0, k), rng.integers(0, n, k)
        share = 0.1 * (s // 64 % 2)  # of each fault, in every second stack
        for i in np.flatnonzero(fault < share):  # mode `at` outside B's reach, half at 0
            A[i, at[i]], B[i, at[i]] = 0.0, 0.0
            A[i, at[i], at[i]] = mode[i] if fault[i] < share / 2 else 0.0
        B[fault > 1.0 - share] *= 1e160  # B R^-1 B' overflows
        out += stack_outcomes(pkg, A, B, weights)
    return b"".join(out)


def non_finite_bytes(pkg) -> bytes:
    """The non-finite Riccati line's outcomes, on the seed-49 stacks: in
    each, a share of the systems has +inf, -inf or nan at one entry of B,
    and a share at one entry of A, the shares cycling over the stacks."""
    bad = (np.inf, -np.inf, np.nan)
    out = []
    for rng, s, A, B, weights in random_stacks(pkg, 49):
        (k, n, m), (in_b, in_a) = B.shape, NON_FINITE_SHARES[s // 64 % len(NON_FINITE_SHARES)]
        for M, share, cols in ((B, in_b, m), (A, in_a, n)):
            for i in np.flatnonzero(rng.uniform(size=k) < share):
                M[i, rng.integers(n), rng.integers(cols)] = bad[rng.integers(3)]
        out += stack_outcomes(pkg, A, B, weights)
    return b"".join(out)


def near_limit_bytes(pkg) -> bytes:
    """The near-limit Riccati line's outcomes: per (coupling, weight) pair,
    each system's solve_care and lqr_gain, its solve_stack alone, then the
    stack's."""
    rng = np.random.default_rng(52)
    n, m = 6, 2
    out = []
    for coupling, mode_weight in itertools.product(COUPLINGS, MODE_WEIGHTS):
        C, D = rng.normal(size=(n, n)), rng.normal(size=(m, m))
        Q = C.T @ C
        Q[0] *= mode_weight
        Q[:, 0] *= mode_weight
        weights = pkg.CostWeights(Q, D.T @ D + np.eye(m))
        A, B = rng.normal(size=(len(NEAR_LIMIT), n, n)), rng.normal(size=(len(NEAR_LIMIT), n, m))
        A[:, 0], B[:, 0] = 0.0, 0.0
        A[:, 0, 0] = [-(10.0 ** -k) for k in NEAR_LIMIT]
        A[:, 1:, 0] *= coupling
        out += [outcome_bytes(pkg, lambda: pkg.riccati.solve_stack(a[None], b[None], weights))
                for a, b in zip(A, B)]
        out += stack_outcomes(pkg, A, B, weights)
    return b"".join(out)


def fingerprints(pkg):
    """({name: digest}, [grids whose 1- and 2-worker builds differ]) of the
    armctl package pkg."""
    geom, masses, weights = arm(pkg)
    lo, hi = tuple(THETA_REF - 0.25), tuple(THETA_REF + 0.25)
    lines, tables, mismatched = {}, {}, []
    for name, counts in (("5^4", (5, 5, 5, 5)), ("3x4x2x5", (3, 4, 2, 5)),
                         ("7^4", (7, 7, 7, 7))):
        digests = []
        for workers in (1, 2):
            table = pkg.precompute(geom, masses, weights, pkg.GridSpec(lo, hi, counts), workers)
            tables[name, workers] = table
            digests.append(digest(pkg.save(table)))
            lines[f"precompute {name} workers={workers}"] = digests[-1]
        if digests[0] != digests[1]:
            mismatched.append(name)
    toolless = pkg.MassModel(m2=0.5, m3=0.4, m4=0.0, M1=0.4, M2=0.3, M3=0.0, g=9.81)
    for name, arm_masses, grid in (
            ("tool-less 2^4", toolless, pkg.GridSpec(lo, hi, (2, 2, 2, 2))),
            ("upright 2x3^3", masses, pkg.GridSpec([-0.5] * 4, [0.5] * 4, (2, 3, 3, 3))),
            ("upright 2x5^3", masses, pkg.GridSpec([-0.5, -0.75, -0.5, -0.5],
                                                   [0.5, 0.25, 0.5, 0.5], (2, 5, 5, 5)))):
        digests = []
        for workers in (1, 2):
            digests.append(digest(failure_bytes(
                pkg, lambda: pkg.precompute(geom, arm_masses, weights, grid, workers))))
            lines[f"precompute failure {name} workers={workers}"] = digests[-1]
        if digests[0] != digests[1]:
            mismatched.append(f"failure {name}")
    flat = tables["5^4", 1]
    coarse = pkg.refine(geom, masses, weights, (lo, hi), 0.4, 3)
    fine = pkg.refine(geom, masses, weights, (lo, hi), 0.1, 4)
    lines["refine tol=0.4 depth=3"] = digest(pkg.save(coarse))
    lines["refine tol=0.1 depth=4"] = digest(pkg.save(fine))
    odd_box = (tuple(THETA_REF - NON_DYADIC), tuple(THETA_REF + NON_DYADIC))
    odd = pkg.refine(geom, masses, weights, odd_box, 0.4, 3)
    lines["refine non-dyadic tol=0.4 depth=3"] = digest(pkg.save(odd))
    points = np.random.default_rng(20).uniform(lo, hi, size=(OFF_NODE, 4))
    for name, table in (("5^4", flat), ("3x4x2x5", tables["3x4x2x5", 1]),
                        ("7^4", tables["7^4", 1]),
                        ("refine tol=0.4", coarse), ("refine tol=0.1", fine),
                        ("refine non-dyadic tol=0.4", odd)):
        box_points = np.random.default_rng(20).uniform(table.lo, table.hi, size=(OFF_NODE, 4))
        lines[f"lookup {name}"] = digest(lookup_bytes(
            pkg, table, [*node_points(pkg, table), *box_points.tolist()]))
    for name, table in (("5^4", flat), ("refine tol=0.4", coarse)):
        lines[f"lookup {name} wrapped"] = digest(lookup_bytes(pkg, table, (points + TURN).tolist()))
    for name, table in (("refine tol=0.4", coarse), ("refine tol=0.1", fine),
                        ("refine non-dyadic tol=0.4", odd)):
        lines[f"leaves {name}"] = digest(walk_bytes(pkg, table))

    x_ref = np.concatenate([THETA_REF, np.zeros(4)])
    mode = pkg.ControllerMode
    runs = {
        "passive": (mode.PASSIVE, {}),
        "online": (mode.ONLINE_LQR, {"weights": weights}),
        "flat": (mode.TABLE_LQR, {"weights": weights, "table": flat}),
        "refined": (mode.TABLE_LQR, {"weights": weights, "table": coarse}),
    }
    for name, (run_mode, kwargs) in runs.items():
        traj = pkg.simulate(geom, masses, pkg.SimConfig(duration=1.0), run_mode, X0, x_ref,
                            **kwargs)
        for field in ("states", "inputs", "energy"):
            lines[f"simulate {name} {field}"] = digest(getattr(traj, field).tobytes())

    rng = np.random.default_rng(33)
    states = zip(rng.uniform(-np.pi, np.pi, (MOVING, 4)), rng.uniform(-2.0, 2.0, (MOVING, 4)),
                 rng.uniform(-5.0, 5.0, (MOVING, 4)))
    out = {"forward_dynamics": [], "linearize A": [], "linearize B": [], "step_rk4": []}
    for theta, rates, torque in states:
        model = pkg.linearize(geom, masses, pkg.OperatingPoint(theta, rates, torque))
        out["forward_dynamics"].append(pkg.forward_dynamics(geom, masses, theta, rates, torque))
        out["linearize A"].append(model.A)
        out["linearize B"].append(model.B)
        out["step_rk4"].append(pkg.step_rk4(geom, masses, [*theta, *rates], torque, 1e-3))
    rest = [pkg.linearize(geom, masses, pkg.equilibrium_point(geom, masses, theta))
            for theta in np.random.default_rng(35).uniform(-np.pi, np.pi, (RESTING, 4))]
    out["linearize A at rest"] = [model.A for model in rest]
    out["linearize B at rest"] = [model.B for model in rest]
    thetas = np.random.default_rng(39).uniform(*WORKSPACE, (NODES, 4))
    out["nodes"] = [pkg.gain_table._solve_nodes(geom, masses, weights, thetas[s:s + 64],
                                                range(s, s + 64))
                    for s in range(0, NODES, 64)]
    for name, arrays in out.items():
        lines[name] = digest(b"".join(a.tobytes() for a in arrays))
    lines["riccati random systems"] = digest(riccati_bytes(pkg))
    lines["riccati non-finite inputs"] = digest(non_finite_bytes(pkg))
    lines["riccati near-limit systems"] = digest(near_limit_bytes(pkg))
    return lines, mismatched


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV",
                        help="also fingerprint REV's src/armctl and compare")
    args = parser.parse_args(argv)

    lines, mismatched = fingerprints(armctl)
    for name, value in lines.items():
        print(name, value)
    for name in mismatched:
        print(f"precompute {name}: the 1- and 2-worker builds differ", file=sys.stderr)
    differ = []
    if args.against:
        with tempfile.TemporaryDirectory() as tmp:
            theirs, _ = fingerprints(load_parent(args.against, Path(tmp)))
        differ = [name for name in lines if theirs.get(name) != lines[name]]
        for name in differ:
            print(f"{name}: {theirs.get(name)} -> {lines[name]}")
        print(f"{len(lines) - len(differ)} of {len(lines)} lines identical to {args.against}")
    return 1 if mismatched or differ else 0


if __name__ == "__main__":
    sys.exit(main())
