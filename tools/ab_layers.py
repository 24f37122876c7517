"""Time armctl's layers in one process against another revision.

    python3 tools/ab_layers.py [--parent REV] [--rounds N] [--out BENCH_15.json]

`git archive REV src/armctl` unpacks the parent's package into a temporary
directory, where it is imported as armctl_parent beside the working tree's
armctl (from the src/ directory next to this script).  Each round times
every case once on each side, the parent first in even rounds and the change
first in odd ones.  A sample is the best of 3 repeats of the case's mean time
per call.  Each run appends one entry to the "layers" list of --out (other
keys stay): the two sides' commits and, per case, the rounds judged as pairs
by tools/bench_pairs.py's compare_runs (each side's samples, median and
quartiles, the ratio of the medians, the rounds won with ties counting for
neither, the parent's spread), the claim by its claim_holds (at least 9 in
10 rounds won and the medians apart by more than the parent's interquartile
range; null, "no claim", below ten rounds) and round_ratio, the median over
rounds of the change/parent ratio within a round.  That ratio cancels host
drift the ratio of medians does not: in one self-A/B on a 2-vCPU host the
samples varied by ~20%, and the ratio of medians read 0.88-1.12 while the
within-round ratio read 0.99-1.03.  The cases use the public API and the
stacked build kernels linearization.linearize_nodes and riccati.solve_stack,
so a parent must be commit 74530df, which added linearize_nodes, or later;
an older one fails with an AttributeError.

Before numpy is imported the tool sets the six thread variables that
perfbench/run.py's pin_threads sets (THREADS) to 1, so both sides run on one
BLAS/OpenMP thread per process, as perfbench measures them, and records them
in the entry's "threads".  Unpinned, each process's BLAS thread pool
competes with the other worker of a 2-worker build, a configuration
perfbench never measures.

Cases, on the test arm of tests/conftest.py:
  rk4_period        a 0.2 s passive simulate (ten control periods of 20 RK4
                    steps);
  table_episode     a 0.2 s table-mode simulate on the loaded 5^4 table below,
                    from the moving off-node state of table_update, the path
                    regulate-table's sim_rate times;
  online_episode    a 0.2 s online-mode simulate from that same moving state,
                    the path regulate-online's sim_rate times;
  forward_dynamics  one forward_dynamics at an online state (non-zero rates
                    and torque);
  linearize         one linearize at that online state;
  lqr_gain          one lqr_gain on the linear model of that state;
  stack1            the same solve as a stack of one: one riccati.solve_stack
                    call on that model, what lqr_gain would cost through the
                    stack body instead of its own; the tool prints its
                    median over lqr_gain's on each side, the price of
                    dropping the per-system body;
  online_update     one online control update at that state: OperatingPoint,
                    linearize and lqr_gain, then tau_ff - K @ (x - x_ref), as
                    regulate-online's control_us_p50 times it;
  linearize_eq      one linearize at rest, at the equilibrium at theta_ref
                    (zero rates, gravity-holding torque): the path of
                    perfbench's direct_gain (builds linearize their nodes,
                    failing or not, in stacks, timed by linearize_nodes64);
  lookup_flat       one lookup off-node in the 5^4 table below, loaded from
                    its saved bytes, as perfbench's regulate workloads fly
                    loaded tables (so how load lays out a table's arrays
                    shows here, as in control_us_p50);
  lookup_refined    one lookup at the same angles in the refine(0.4, 3) tree,
                    loaded the same way;
  table_update      one table control update on each of those two loaded tables:
                    lookup, then tau_ff - K @ (x - x_ref) at a moving state
                    with those angles, as regulate-table's control_us_p50
                    times it (so a call is two updates);
  linearize_nodes64 the linear models of 64 equilibrium nodes: one
                    linearization.linearize_nodes call, as a build makes
                    for each stack of its nodes;
  stack64           the gains of 64 equilibrium nodes from their linear models:
                    one riccati.solve_stack call;
  refine            refine(tol 0.4, depth 3) on the box theta_ref +/- 0.25;
  load_refined      load of the saved refine(tol 0.1, depth 4) on that box, the
                    203,733-byte reference tree whose load build-table's
                    load_ms times;
  load_deploy       load of the saved refine(tol 0.4, depth 3), the tree
                    lookup_refined reads, whose load the regulate workloads'
                    load_ms times;
  load_flat         load of the saved 5^4 table the precompute case builds,
                    the one timing of the flat path (perfbench's load_ms
                    times trees only);
  load_lookup       load of the saved reference tree of load_refined, then
                    one lookup on it at lookup_refined's angles: the cold
                    path, where a table's first lookup gathers its corner
                    blocks once;
  precompute        a 5^4 precompute with 1 worker on the same box;
  precompute_2w     the same build with 2 workers, as perfbench's set-up
                    builds it (2 chunks of 64 planar nodes, so a pool of 2);
  precompute_7      a 7^4 precompute with 1 worker on the same box, the
                    build build-table's build_1w_s times.

Run with --parent HEAD first: that self-A/B shows the noise floor, which is
wide.  On a 2-vCPU host one round on identical code read ratios from 0.86
(rk4_period) to 1.75 (load_flat); one round against a tree that differed
only in how riccati loads its unchanged LAPACK routines read 0.55 (stack64)
to 1.90 (refine), and ten rounds of it 0.95-1.04.  Ten rounds on identical
code read precompute_2w at 0.921 and linearize_eq at 1.065 as ratios of
medians.  rk4_period and table_episode time 9 calls per sample, about
20 ms, and online_episode 4 (about 18 ms on a 2-vCPU host): at 2 calls the parent's rk4_period IQR, 14% of its median, hid a
10/10 win at 0.869.  In three ten-round self-A/Bs at 9 calls on a busy
2-vCPU host the parent side's IQR read 7-26% of the median for rk4_period
and 4-18% for table_episode, while two 2-call self-A/Bs run beside them
read 20-29% and 10-39%: there the host, not the sample length, set the
spread.  So read no single ratio as a change; the claim rule above
decides.  That floor is also the resolution: the tool cannot resolve a ~5%
change on a ~10 us case.  On a 2-vCPU host lookup_flat read 1.047 (4/20
wins) against a revision whose gain_table.py was identical, while the
self-A/B beside it read 0.992: at that size the other side's tree (its
imports, its memory layout) can move a case as much as the code timed.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

# perfbench/run.py's pin_threads: one BLAS/OpenMP thread per process, set
# before numpy is imported, when this tool runs or a script that sets
# PIN_THREADS imports it first (tools/frontier.py; not fingerprint.py)
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
if __name__ == "__main__" or getattr(sys.modules["__main__"], "PIN_THREADS", False):
    os.environ.update(dict.fromkeys(THREADS, "1"))

import numpy as np  # noqa: E402

from bench_pairs import claim_holds, compare_runs, verdict  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 3


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def load_parent(rev: str, into: Path):
    """Import REV's src/armctl as the package armctl_parent."""
    blob = subprocess.run(["git", "archive", rev, "src/armctl"], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")
    (into / "src" / "armctl").rename(into / "armctl_parent")
    sys.path.insert(0, str(into))
    return importlib.import_module("armctl_parent")


def arm(pkg):
    """The test arm of tests/conftest.py in pkg: (geom, masses, weights)."""
    return (pkg.ArmGeometry(L1=1.0, L2=0.8, L3=0.6),
            pkg.MassModel(m2=0.5, m3=0.4, m4=0.3, M1=0.4, M2=0.3, M3=0.2, g=9.81),
            pkg.CostWeights.from_diagonals([100.0] * 4 + [1.0] * 4, [1.0] * 4))


def cases(pkg) -> dict:
    """Per case, its calls per timing and a function running it once with pkg."""
    geom, masses, weights = arm(pkg)
    theta_ref = np.array([0.3, 0.8, -0.9, 0.5])
    box = (tuple(theta_ref - 0.25), tuple(theta_ref + 0.25))

    rates, torque = [0.2, -0.1, 0.3, 0.0], [0.5, -1.0, 2.0, 0.1]
    online = pkg.linearize(geom, masses, pkg.OperatingPoint(theta_ref, rates, torque))
    equilibrium = pkg.equilibrium_point(geom, masses, theta_ref)
    thetas = np.random.default_rng(14).uniform(box[0], box[1], size=(64, 4))
    models = [pkg.linearize(geom, masses, pkg.equilibrium_point(geom, masses, t))
              for t in thetas]
    A = np.array([model.A for model in models])
    B = np.array([model.B for model in models])

    grid = pkg.GridSpec(box[0], box[1], (5, 5, 5, 5))
    grid7 = pkg.GridSpec(box[0], box[1], (7, 7, 7, 7))
    flat_bytes = pkg.save(pkg.precompute(geom, masses, weights, grid, workers=1))
    flat = pkg.load(flat_bytes)
    deploy = pkg.save(pkg.refine(geom, masses, weights, box, 0.4, 3))
    tree = pkg.load(deploy)
    reference = pkg.save(pkg.refine(geom, masses, weights, box, 0.1, 4))
    off_node = theta_ref + [0.01, 0.07, -0.05, 0.11]
    x, x_ref = np.concatenate([off_node, rates]), np.concatenate([theta_ref, np.zeros(4)])
    tau_ff = pkg.equilibrium_torque(geom, masses, theta_ref)

    def table_update():
        return [tau_ff - pkg.lookup(table, x[:4]) @ (x - x_ref) for table in (flat, tree)]

    x0 = np.concatenate([theta_ref, rates])

    def online_update():
        model = pkg.linearize(geom, masses, pkg.OperatingPoint(x0[:4], x0[4:], torque))
        return tau_ff - pkg.lqr_gain(model.A, model.B, weights) @ (x0 - x_ref)

    short = pkg.SimConfig(duration=0.2)
    return {
        "rk4_period": (9, lambda: pkg.simulate(
            geom, masses, short, pkg.ControllerMode.PASSIVE, x0)),
        "table_episode": (9, lambda: pkg.simulate(
            geom, masses, short, pkg.ControllerMode.TABLE_LQR, x, x_ref, weights=weights,
            table=flat)),
        "online_episode": (4, lambda: pkg.simulate(
            geom, masses, short, pkg.ControllerMode.ONLINE_LQR, x, x_ref, weights=weights)),
        "forward_dynamics": (500, lambda: pkg.forward_dynamics(
            geom, masses, theta_ref, rates, torque)),
        "linearize": (300, lambda: pkg.linearize(
            geom, masses, pkg.OperatingPoint(theta_ref, rates, torque))),
        "linearize_eq": (300, lambda: pkg.linearize(geom, masses, equilibrium)),
        "lqr_gain": (200, lambda: pkg.lqr_gain(online.A, online.B, weights)),
        "stack1": (200, lambda: pkg.riccati.solve_stack(online.A[None], online.B[None], weights)),
        "online_update": (100, online_update),
        "lookup_flat": (500, lambda: pkg.lookup(flat, off_node)),
        "lookup_refined": (500, lambda: pkg.lookup(tree, off_node)),
        "table_update": (250, table_update),
        "linearize_nodes64": (4, lambda: pkg.linearization.linearize_nodes(geom, masses, thetas)),
        "stack64": (4, lambda: pkg.riccati.solve_stack(A, B, weights)),
        "refine": (1, lambda: pkg.refine(geom, masses, weights, box, 0.4, 3)),
        "load_refined": (20, lambda: pkg.load(reference)),
        "load_deploy": (100, lambda: pkg.load(deploy)),
        "load_flat": (200, lambda: pkg.load(flat_bytes)),
        "load_lookup": (20, lambda: pkg.lookup(pkg.load(reference), off_node)),
        "precompute": (1, lambda: pkg.precompute(geom, masses, weights, grid, workers=1)),
        "precompute_2w": (1, lambda: pkg.precompute(geom, masses, weights, grid, workers=2)),
        "precompute_7": (1, lambda: pkg.precompute(geom, masses, weights, grid7, workers=1)),
    }


def sample(number: int, fn) -> float:
    """Best of REPEATS means of number calls of fn, in seconds per call."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git revision (default HEAD)")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--out", type=Path, default=None, help="BENCH_<n>.json to fill")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import armctl

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": cases(load_parent(args.parent, Path(tmp))), "change": cases(armctl)}
        times = {case: {"parent": [], "change": []} for case in sides["change"]}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for case in times:
                for side in order:
                    times[case][side].append(sample(*sides[side][case]))

    layers = {"parent": {"rev": args.parent, "commit": git("rev-parse", args.parent)},
              "change": {"commit": git("rev-parse", "HEAD"),
                         "src_modified": bool(git("status", "--porcelain", "src/armctl"))},
              "rounds": args.rounds, "unit": "s per call",
              "threads": {var: os.environ.get(var) for var in THREADS}, "cases": {}}
    for case, runs in times.items():
        entry = compare_runs(runs["parent"], runs["change"], "lower")
        entry["round_ratio"] = statistics.median(
            c / p for p, c in zip(runs["parent"], runs["change"]))
        entry["claim"] = claim_holds(entry)
        layers["cases"][case] = entry
        print(f"{case:<17} parent {entry['parent']['median'] * 1e6:10.1f} us  "
              f"change {entry['change']['median'] * 1e6:10.1f} us  ratio {entry['ratio']:.3f}  "
              f"in rounds {entry['round_ratio']:.3f}  wins {entry['wins']}/{args.rounds}  "
              f"{verdict(entry['claim'])}")
    lqr, stack1 = layers["cases"]["lqr_gain"], layers["cases"]["stack1"]
    print("stack1 / lqr_gain medians: " + "  ".join(
        f"{side} {stack1[side]['median'] / lqr[side]['median']:.3f}" for side in ("parent", "change")))
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc.setdefault("layers", []).append(layers)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
