"""Command-line interface: kinematics queries, gain-table precomputation and
inspection, simulation, and controller latency benchmarking.

Number arguments parse as plain float or int; the library function each one
reaches checks it, and its ValueError (a bad argument, see `errors`) exits 2
with the usage line and the library's message naming the argument, e.g.
"theta2 must be finite, got [nan]".  `--refine inf` builds a one-leaf table.

Exit codes: 0 success; 1 any other armctl error, or a precompute worker
process that died (killed, say; the next call starts a new pool); 2 usage,
config or argument errors; 3 unreachable IK target; 4 gain-table node failure;
5 table digest mismatch; 6 simulation aborted mid-run (out of table bounds,
solver failure, degenerate inertia, a diverged state); 7 a file that cannot be
read or written (an absent --table file, an unwritable --out); 8 a malformed
gain-table file (including an invalid dimension record).
All angles are radians; results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from concurrent.futures.process import BrokenProcessPool

from .config import ArmConfig, load_config
from .errors import (
    ArmError,
    ConfigError,
    DigestMismatch,
    NodeFailure,
    SingularYaw,
    TableFormatError,
    Unreachable,
)
from .gain_table import (
    FORMAT_VERSION,
    RefinedTable,
    arm_digest,
    load,
    load_file,
    precompute,
    refine,
    save_file,
    weights_digest,
)
from .kinematics import JointAngles, fk_spatial, ik
from .simulator import ControllerMode, simulate, bench_controller

EXIT_OK = 0
EXIT_ARM_ERROR = 1
EXIT_USAGE = 2
EXIT_UNREACHABLE = 3
EXIT_NODE_FAILURE = 4
EXIT_DIGEST = 5
EXIT_ABORTED = 6
EXIT_IO = 7
EXIT_BAD_TABLE = 8

# first match wins, so subclasses come before their bases
_EXIT_CODES = (
    ((Unreachable, SingularYaw), EXIT_UNREACHABLE),
    (ConfigError, EXIT_USAGE),
    (NodeFailure, EXIT_NODE_FAILURE),
    (DigestMismatch, EXIT_DIGEST),
    (TableFormatError, EXIT_BAD_TABLE),
    ((ArmError, BrokenProcessPool), EXIT_ARM_ERROR),
    (OSError, EXIT_IO),
)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _point(p) -> str:
    return "(" + ", ".join(_fmt(c) for c in p) + ")"


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def cmd_fk(config: ArmConfig, args) -> int:
    angles = JointAngles(*args.angles)
    points = fk_spatial(config.geometry, angles)
    for i, p in enumerate(points, start=1):
        print(f"P{i} = {_point(p)}")
    return EXIT_OK


def cmd_ik(config: ArmConfig, args) -> int:
    angles = ik(config.geometry, (args.x, args.y, args.z), pitch=args.pitch)
    print(f"theta = {_point(tuple(angles))}")
    return EXIT_OK


def cmd_precompute(config: ArmConfig, args) -> int:
    if args.refine is not None:
        table = refine(
            config.geometry,
            config.masses,
            config.weights,
            (config.grid.lo, config.grid.hi),
            args.refine,
            args.max_depth,
        )
        leaves = table.leaves()
        flagged = table.flagged_leaves()
        save_file(table, args.out)
        print(f"leaves: {len(leaves)}")
        print(f"flagged: {len(flagged)}")
        for cell in flagged:
            print(f"  unrefinable cell lo={cell.lo} hi={cell.hi}", file=sys.stderr)
    else:
        table = precompute(
            config.geometry, config.masses, config.weights, config.grid,
            workers=args.workers,
        )
        save_file(table, args.out)
        print(f"nodes: {table.grid.n_nodes}")
    return EXIT_OK


def cmd_simulate(config: ArmConfig, args) -> int:
    mode = ControllerMode(args.mode)
    table = None
    if mode is ControllerMode.TABLE_LQR and args.table is not None:
        table = load_file(args.table)  # without one, simulate's ValueError exits 2
    grid = config.grid
    x0 = args.x0 or [0.5 * (lo + hi) for lo, hi in zip(grid.lo, grid.hi)] + [0.0] * 4
    x_ref = (args.ref or x0[:4]) + [0.0] * 4

    try:
        trajectory = simulate(
            config.geometry, config.masses, config.sim, mode, x0, x_ref,
            weights=config.weights, table=table,
        )
    except ArmError as exc:
        if not hasattr(exc, "partial"):
            raise
        with open(args.out, "w", encoding="utf-8") as f:
            exc.partial.to_csv(f)
            f.write(f"# aborted: {exc}\n")
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_ABORTED
    with open(args.out, "w", encoding="utf-8") as f:
        trajectory.to_csv(f)
    print(f"samples: {trajectory.times.size}")
    return EXIT_OK


def cmd_bench(config: ArmConfig, args) -> int:
    table = load_file(args.table)
    report = bench_controller(
        config.geometry, config.masses, table, args.iters, weights=config.weights,
    )
    print(f"online_median_us: {report.online_median_us:.3f}")
    print(f"online_p95_us: {report.online_p95_us:.3f}")
    print(f"lookup_median_us: {report.lookup_median_us:.3f}")
    print(f"lookup_p95_us: {report.lookup_p95_us:.3f}")
    print(f"speedup: {report.speedup:.3f}")
    if args.layers:
        for layer in ("linearize", "care", "locate", "blend"):
            print(f"{layer}_median_us: {getattr(report, f'{layer}_median_us'):.3f}")
    return EXIT_OK


def cmd_inspect(config: ArmConfig | None, args) -> int:
    with open(args.table, "rb") as f:
        data = f.read()
    table = load(data)
    refined = isinstance(table, RefinedTable)
    print(f"kind: {'refined' if refined else 'flat'}")
    print(f"version: {FORMAT_VERSION}")
    for k in range(4):
        print(f"theta{k + 1}: [{table.lo[k]!r}, {table.hi[k]!r}]")
    if refined:
        leaves = table.leaves()
        depths = Counter(leaf.depth for leaf in leaves)
        print(f"tol: {table.tol!r}")
        print(f"max_depth: {table.max_depth}")
        print(f"leaves: {len(leaves)}")
        print("depths: " + " ".join(f"{d}:{depths[d]}" for d in sorted(depths)))
        print(f"flagged: {sum(leaf.flagged for leaf in leaves)}")
        gains = table.pool
    else:
        print("counts: " + " ".join(str(n) for n in table.grid.counts))
        print(f"leaves: {math.prod(n - 1 for n in table.grid.counts[1:])}")
        print("flagged: 0")
        gains = table.gains
    print(f"pool_gains: {gains.size // 32}")
    print(f"pool_bytes: {gains.nbytes}")
    print(f"file_bytes: {len(data)}")
    if config is not None:
        arm = table.digest[:16] == arm_digest(config.geometry, config.masses)
        cost = table.digest[16:] == weights_digest(config.weights)
        print(f"arm_digest: {'match' if arm else 'differs'}")
        print(f"weights_digest: {'match' if cost else 'differs'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="armctl",
        description="Four-axis arm control: kinematics, LQR gain tables, simulation.",
    )
    parser.add_argument("--config", help="path to the JSON arm config (required by every "
                                          "command but inspect)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fk", help="forward kinematics: print world joint positions")
    p.add_argument("angles", nargs=4, type=float, metavar="THETA",
                   help="joint angles theta1..theta4 (rad)")
    p.set_defaults(func=cmd_fk)

    p = sub.add_parser("ik", help="inverse kinematics for a world target")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.add_argument("z", type=float)
    p.add_argument("--pitch", type=float, default=0.0,
                   help="tool pitch theta2+theta3+theta4 in the joint plane (rad)")
    p.set_defaults(func=cmd_ik)

    p = sub.add_parser("precompute", help="build and save a gain table")
    p.add_argument("--out", required=True, help="output table file")
    p.add_argument("--refine", type=float, default=None, metavar="TOL",
                   help="build an error-driven refined table with this tolerance")
    p.add_argument("--max-depth", type=int, default=6, dest="max_depth")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.set_defaults(func=cmd_precompute)

    p = sub.add_parser("simulate", help="run a simulation and write a CSV trajectory")
    p.add_argument("--mode", required=True, choices=[m.value for m in ControllerMode])
    p.add_argument("--table", default=None, help="gain table file (table mode)")
    p.add_argument("--out", required=True, help="output CSV file")
    p.add_argument("--x0", nargs=8, type=float, default=None, metavar="V",
                   help="initial state theta1..4 w1..4 (default: grid center, at rest)")
    p.add_argument("--ref", nargs=4, type=float, default=None, metavar="THETA",
                   help="reference angles (default: the x0 angles)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="latency: online LQR step vs table lookup")
    p.add_argument("--table", required=True)
    p.add_argument("--iters", type=_positive_int, default=1000)
    p.add_argument("--layers", action="store_true",
                   help="also print the median of each layer: linearize, care (online "
                        "step); locate (argument read, wrap, bounds, cell, corner gather), "
                        "blend (corner blend, gain product): one pass, summing to lookup")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("inspect", help="describe a gain-table file; with --config, "
                                       "say which digest halves match it")
    p.add_argument("table", help="gain table file")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None and args.func is not cmd_inspect:
        parser.error("the following arguments are required: --config")
    try:
        config = None if args.config is None else load_config(args.config)
        return args.func(config, args)
    except ValueError as exc:  # a bad argument, named by the library's message
        parser.error(str(exc))
    except (ArmError, BrokenProcessPool, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
