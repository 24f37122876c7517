"""Time armctl's layers in one process against another revision.

    python3 tools/ab_layers.py [--parent REV] [--rounds N] [--out BENCH_15.json]

`git archive REV src/armctl` unpacks the parent's package into a temporary
directory, where it is imported as armctl_parent beside the working tree's
armctl (from the src/ directory next to this script).  Each round times
every case once on each side, the parent first in even rounds and the change
first in odd ones.  A sample is the best of 3 repeats of the case's mean time
per call.  Each run appends one entry to the "layers" list of --out (other
keys stay): the two sides' commits, and per case both sides' samples and
medians, the ratio (the median over rounds of the change/parent ratio
within a round), the rounds the change won, and whether those wins meet
the layer-claim rule: at least 15 of 20, three quarters of the rounds.  A
run of fewer than 20 rounds cannot support a claim, so it prints
"n/a (fewer than 20 rounds)" and stores wins_rule as null.
The ratio is taken within rounds because a shared host's speed can drift
between rounds by more than a layer change: in one self-A/B on a 2-vCPU
host the samples varied by ~20%, and the ratio of the two sides' medians
read 0.88-1.12 while the within-round ratio read 0.99-1.03.  The cases
use the public API and the stacked build kernels
linearization.linearize_stack and riccati.solve_stack, so a parent must be
commit e759761, which added linearize_stack, or later; an older one fails
with an AttributeError.

Cases, on the test arm of tests/conftest.py:
  rk4_period        a 0.2 s passive simulate (ten control periods of 20 RK4
                    steps);
  forward_dynamics  one forward_dynamics at an online state (non-zero rates
                    and torque);
  linearize         one linearize at that online state;
  lqr_gain          one lqr_gain on the linear model of that state;
  online_update     one online control update: OperatingPoint, linearize and
                    lqr_gain at that state;
  linearize_eq      one linearize at the equilibrium at theta_ref (zero rates,
                    gravity-holding torque), as a table build linearizes nodes;
  lookup_flat       one lookup off-node in the 5^4 table below;
  lookup_refined    one lookup at the same angles in the refine(0.4, 3) tree;
  table_update      one table control update on each of those two tables:
                    lookup, then tau_ff - K @ (x - x_ref) at a moving state
                    with those angles, as regulate-table's control_us_p50
                    times it (so a call is two updates);
  linearize_stack64 the linear models of 64 equilibrium nodes, as a build
                    makes them: 64 equilibrium_torque calls, then one
                    linearization.linearize_stack call;
  stack64           the gains of 64 equilibrium nodes from their linear models:
                    one riccati.solve_stack call;
  refine            refine(tol 0.4, depth 3) on the box theta_ref +/- 0.25;
  load_refined      load of the saved refine(tol 0.1, depth 4) on that box, the
                    203,733-byte reference tree whose load build-table's
                    load_ms times;
  load_flat         load of the saved 5^4 table the precompute case builds,
                    the one timing of the flat path (perfbench's load_ms
                    times trees only);
  precompute        a 5^4 precompute with 1 worker on the same box;
  precompute_2w     the same build with 2 workers, as perfbench's set-up
                    builds it (2 chunks of 64 planar nodes, so a pool of 2).

Run with --parent HEAD first: that self-A/B shows the noise floor, and each
of its ratios should lie within +/-5%.  That floor is also the resolution:
the tool cannot resolve a ~5% change on a ~10 us case.  On a 2-vCPU host
lookup_flat read 1.047 (4/20 wins) against a revision whose gain_table.py
was identical, while the self-A/B beside it read 0.992: at that size the
other side's tree (its imports, its memory layout) can move a case as much
as the code timed.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CASES = {"rk4_period": 2, "forward_dynamics": 500, "linearize": 300, "linearize_eq": 300,
         "lqr_gain": 200,
         "online_update": 100, "lookup_flat": 500, "lookup_refined": 500,
         "table_update": 250,
         "linearize_stack64": 4, "stack64": 4, "refine": 1, "load_refined": 20,
         "load_flat": 200,
         "precompute": 1, "precompute_2w": 1}  # calls per timing
REPEATS = 3
WIN_FRACTION = 0.75  # a layer claim needs 15 of 20 wins
MIN_ROUNDS = 20  # below this, 3 of 4 wins can come from noise


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


def cases(pkg) -> dict:
    """Per case, a function of no arguments running it once with pkg."""
    geom = pkg.ArmGeometry(L1=1.0, L2=0.8, L3=0.6)
    masses = pkg.MassModel(m2=0.5, m3=0.4, m4=0.3, M1=0.4, M2=0.3, M3=0.2, g=9.81)
    weights = pkg.CostWeights.from_diagonals([100.0] * 4 + [1.0] * 4, [1.0] * 4)
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

    def linearize_stack64():
        # as gain_table._solve_nodes: zero rates, each node's equilibrium torque
        torque = np.array([pkg.equilibrium_torque(geom, masses, t) for t in thetas])
        return pkg.linearization.linearize_stack(geom, masses, thetas, np.zeros((64, 4)), torque)

    def online_update():
        op = pkg.OperatingPoint(theta_ref, rates, torque)
        model = pkg.linearize(geom, masses, op)
        return pkg.lqr_gain(model.A, model.B, weights)

    grid = pkg.GridSpec(box[0], box[1], (5, 5, 5, 5))
    flat = pkg.precompute(geom, masses, weights, grid, workers=1)
    tree = pkg.refine(geom, masses, weights, box, 0.4, 3)
    reference = pkg.save(pkg.refine(geom, masses, weights, box, 0.1, 4))
    flat_bytes = pkg.save(flat)
    off_node = theta_ref + [0.01, 0.07, -0.05, 0.11]
    x, x_ref = np.concatenate([off_node, rates]), np.concatenate([theta_ref, np.zeros(4)])
    tau_ff = pkg.equilibrium_torque(geom, masses, theta_ref)

    def table_update():
        return [tau_ff - pkg.lookup(table, x[:4]) @ (x - x_ref) for table in (flat, tree)]

    passive = pkg.SimConfig(duration=0.2)
    x0 = np.concatenate([theta_ref, rates])
    return {
        "rk4_period": lambda: pkg.simulate(
            geom, masses, passive, pkg.ControllerMode.PASSIVE, x0),
        "forward_dynamics": lambda: pkg.forward_dynamics(
            geom, masses, theta_ref, rates, torque),
        "linearize": lambda: pkg.linearize(
            geom, masses, pkg.OperatingPoint(theta_ref, rates, torque)),
        "linearize_eq": lambda: pkg.linearize(geom, masses, equilibrium),
        "lqr_gain": lambda: pkg.lqr_gain(online.A, online.B, weights),
        "online_update": online_update,
        "lookup_flat": lambda: pkg.lookup(flat, off_node),
        "lookup_refined": lambda: pkg.lookup(tree, off_node),
        "table_update": table_update,
        "linearize_stack64": linearize_stack64,
        "stack64": lambda: pkg.riccati.solve_stack(A, B, weights),
        "refine": lambda: pkg.refine(geom, masses, weights, box, 0.4, 3),
        "load_refined": lambda: pkg.load(reference),
        "load_flat": lambda: pkg.load(flat_bytes),
        "precompute": lambda: pkg.precompute(geom, masses, weights, grid, workers=1),
        "precompute_2w": lambda: pkg.precompute(geom, masses, weights, grid, workers=2),
    }


def sample(fn, number: int) -> float:
    """Best of REPEATS means, in seconds per call."""
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
        times = {case: {"parent": [], "change": []} for case in CASES}
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for case, number in CASES.items():
                for side in order:
                    times[case][side].append(sample(sides[side][case], number))

    layers = {"parent": {"rev": args.parent, "commit": git("rev-parse", args.parent)},
              "change": {"commit": git("rev-parse", "HEAD"),
                         "src_modified": bool(git("status", "--porcelain", "src/armctl"))},
              "rounds": args.rounds, "unit": "s per call", "cases": {}}
    for case, runs in times.items():
        parent, change = statistics.median(runs["parent"]), statistics.median(runs["change"])
        pairs = list(zip(runs["parent"], runs["change"]))
        ratio = statistics.median(c / p for p, c in pairs)
        wins = sum(c < p for p, c in pairs)
        holds = wins >= WIN_FRACTION * args.rounds if args.rounds >= MIN_ROUNDS else None
        layers["cases"][case] = {"parent": {"median": parent, "runs": runs["parent"]},
                                 "change": {"median": change, "runs": runs["change"]},
                                 "ratio": ratio, "wins": wins, "wins_rule": holds}
        verdict = ("n/a (fewer than 20 rounds)" if holds is None
                   else f"15-of-20 rule {'holds' if holds else 'fails'}")
        print(f"{case:<17} parent {parent * 1e6:10.1f} us  change {change * 1e6:10.1f} us  "
              f"ratio {ratio:.3f}  wins {wins}/{args.rounds}  {verdict}")
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc.setdefault("layers", []).append(layers)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
