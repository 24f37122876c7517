"""Print the static frontier of armctl's gain tables: file bytes against
lookup error and frozen margin, for flat grids and refined trees.

    python3 tools/frontier.py

It takes no options.  For each of two boxes, the reference box theta_ref
+/- 0.25 that perfbench's tables cover and the workspace box, it prints a
header line with max|K| over the direct solves at the box's POINTS seeded
equilibria, then one row per table of the test arm of tests/conftest.py:

  bytes          len(save(table));
  gains          the gains it stores (a tree's pool);
  solves         the points its build hands to gain_table._solve_points;
  worst, median  ||lookup - direct||_2 at the box's points, the same points
                 for every row;
  center         the worst such error at the table's own cell or leaf
                 centers;
  margin         the worst frozen margin, max Re eig(A - B K_lookup) over
                 the points, A and B the linear model at the point.

Flat rows have n1 = 2 and are named by their planar counts (the theta1
count adds no bytes: tables are planar); tree rows by refine's tol and
max_depth.  A flat row dominates a tree row when its bytes are at most the
tree's, its worst and median errors are each at most the tree's times
(1 + RTOL), and its margin is at most the tree's plus RTOL times the tree's
|margin|.  A tree row's last column names the smallest flat row that
dominates it, and each box ends with a verdict line naming every tree row
that no flat row dominates, or "none".

Left out: the margin at the nodes, where a table returns its solved gain
bit for bit, and build time, which drifts by ~30% on a 2-vCPU host (solves
stand in for it).  Direct gains come from the build's stacked path,
linearization.linearize_nodes then riccati.solve_stack.  BLAS runs on one
thread, as tools/ab_layers.py pins it, and armctl is imported from the src/
directory next to this file, so two runs print the same bytes.
"""

import itertools
import sys
from pathlib import Path

PIN_THREADS = True  # ab_layers pins BLAS to one thread as it is imported, before numpy
from ab_layers import arm  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import armctl  # noqa: E402

ARM = arm(armctl)  # (geom, masses, weights)
POINTS = 600  # seeded equilibria per box
RTOL = 1e-3  # the dominance rule's slack
THETA_REF = np.array([0.3, 0.8, -0.9, 0.5])
# name: ((lo, hi), seed of its points, flat planar counts, tree (tol, max_depth))
BOXES = {
    "reference box theta_ref +/- 0.25": (
        (THETA_REF - 0.25, THETA_REF + 0.25), 17,
        [(3, 3, 3), (5, 5, 5), (7, 7, 7), (8, 8, 5), (9, 9, 9)], [(0.4, 3), (0.1, 4)]),
    "workspace box theta1 +/-0.5, theta2 [0.3, 2.8], theta3 [-2.5, -0.3], theta4 [-2, 2]": (
        ([-0.5, 0.3, -2.5, -2.0], [0.5, 2.8, -0.3, 2.0]), 18,
        [(3, 3, 3), (5, 5, 5), (9, 9, 9)], [(1.0, 4)]),
}


def direct(thetas):
    """(A, B, K) of the equilibria thetas (k, 4) through the build's stacked path."""
    geom, masses, weights = ARM
    A, B = armctl.linearization.linearize_nodes(geom, masses, np.asarray(thetas))
    return A, B, armctl.riccati.solve_stack(A, B, weights)[1]


def counted(build):
    """build()'s table and the points it handed to gain_table._solve_points."""
    module, points = armctl.gain_table, []
    original = module._solve_points

    def counting(*args, **kwargs):
        points.append(len(args[3]))
        return original(*args, **kwargs)

    module._solve_points = counting
    try:
        return build(), sum(points)
    finally:
        module._solve_points = original


def centers(table) -> list:
    """The table's cell centers, or its leaf centers."""
    if isinstance(table, armctl.GainTable):
        axes = (table.grid.axis(k) for k in range(4))
        return list(itertools.product(*(0.5 * (a[:-1] + a[1:]) for a in axes)))
    return [leaf.center() for leaf in table.leaves()]


def errors(table, thetas, K) -> tuple:
    """(lookups, ||lookup - K||_2) at each of thetas."""
    looked = np.array([armctl.lookup(table, theta) for theta in thetas])
    return looked, np.linalg.norm(looked - K, 2, axis=(1, 2))


def row(name, build, points, A, B, K) -> dict:
    """The columns of the table build() returns, against the direct (A, B, K) at points."""
    table, solves = counted(build)
    looked, err = errors(table, points, K)
    mids = centers(table)
    gains = table.gains if isinstance(table, armctl.GainTable) else table.pool
    return {"name": name, "bytes": len(armctl.save(table)), "gains": gains.size // 32,
            "solves": solves, "worst": err.max(), "median": np.median(err),
            "center": errors(table, mids, direct(mids)[2])[1].max(),
            "margin": np.linalg.eigvals(A - B @ looked).real.max()}


def dominates(flat: dict, tree: dict) -> bool:
    return (flat["bytes"] <= tree["bytes"] and flat["worst"] <= tree["worst"] * (1 + RTOL)
            and flat["median"] <= tree["median"] * (1 + RTOL)
            and flat["margin"] <= tree["margin"] + RTOL * abs(tree["margin"]))


def frontier(name, box, seed, flats, trees) -> list[str]:
    """The box's header line, column names, rows and verdict line."""
    lo, hi = box
    points = np.random.default_rng(seed).uniform(lo, hi, size=(POINTS, 4))
    A, B, K = direct(points)
    flat_rows = [row("flat 2x" + "x".join(map(str, counts)), lambda: armctl.precompute(
        *ARM, armctl.GridSpec(lo, hi, (2, *counts))), points, A, B, K) for counts in flats]
    tree_rows = [row(f"tree {tol}/{depth}", lambda: armctl.refine(*ARM, box, tol, depth),
                     points, A, B, K) for tol, depth in trees]
    lines = [f"{name}: {POINTS} points (seed {seed}), max|K| {np.abs(K).max():.4f}",
             f"{'row':<14}{'bytes':>9}{'gains':>7}{'solves':>8}{'worst':>9}{'median':>9}"
             f"{'center':>9}{'margin':>9}  dominated by"]
    by = {r["name"]: "" for r in flat_rows}
    for tree in tree_rows:  # the smallest flat row that dominates it, or "-"
        by[tree["name"]] = next((f["name"] for f in sorted(flat_rows, key=lambda f: f["bytes"])
                                 if dominates(f, tree)), "-")
    lines += [f"{r['name']:<14}{r['bytes']:>9}{r['gains']:>7}{r['solves']:>8}{r['worst']:>9.4f}"
              f"{r['median']:>9.4f}{r['center']:>9.4f}{r['margin']:>9.4f}  {by[r['name']]}".rstrip()
              for r in flat_rows + tree_rows]
    undominated = [tree["name"] for tree in tree_rows if by[tree["name"]] == "-"]
    return lines + [f"verdict, trees no flat row dominates: {', '.join(undominated) or 'none'}"]


if __name__ == "__main__":
    print("\n\n".join("\n".join(frontier(name, *spec)) for name, spec in BOXES.items()))
