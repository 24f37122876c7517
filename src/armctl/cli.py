"""Command-line interface: kinematics queries, gain-table precomputation and
inspection, simulation, and controller latency benchmarking.

Number arguments parse as plain float or int; the library function each one
reaches checks it, and its ValueError (a bad argument, see `errors`) exits 2
with the usage line and the library's message naming the argument, e.g.
"theta2 must be finite, got [nan]".  The counts `--workers` and `--iters` are
read by the same `errors.count` before anything is built or read, so
`--workers 0` gives "workers must be a whole number >= 1, got 0" and
`--iters 0` the same for n_iters.  The commands build, fly and inspect flat
tables only: a refined (tree) table file exits 8.

Exit codes: 0 success; 1 any other armctl error, a dead precompute worker
process included (killed, say; the next call starts a new pool); 2 usage,
config or argument errors; 3 unreachable IK target; 4 gain-table node failure;
5 table digest mismatch; 6 simulation aborted mid-run (out of table bounds,
solver failure, degenerate inertia, a diverged state); 7 a file that cannot be
read or written (an absent --table file, an unwritable --out); 8 a malformed
or refined gain-table file (a bad dimension record or an inf or nan gain included).
All angles are radians; results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys

from .config import ArmConfig, load_config
from .errors import (
    ArmError,
    ConfigError,
    DigestMismatch,
    NodeFailure,
    SingularYaw,
    TableFormatError,
    Unreachable,
    count,
)
from .gain_table import (
    FORMAT_VERSION,
    RefinedTable,
    arm_digest,
    load_file,
    precompute,
    save,
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
    (ArmError, EXIT_ARM_ERROR),
    (OSError, EXIT_IO),
)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _point(p) -> str:
    return "(" + ", ".join(_fmt(c) for c in p) + ")"


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
    table = precompute(config.geometry, config.masses, config.weights, config.grid,
                       workers=args.workers)
    save_file(table, args.out)
    print(f"nodes: {table.grid.n_nodes}")
    return EXIT_OK


def _flat_table(path):
    """The flat table in the file at path; a retired refined one raises TableFormatError."""
    table = load_file(path)
    if isinstance(table, RefinedTable):
        raise TableFormatError(f"{path} is a refined (tree) table, which is retired: "
                               "rebuild it as a flat grid with precompute")
    return table


def cmd_simulate(config: ArmConfig, args) -> int:
    mode = ControllerMode(args.mode)
    table = None
    if mode is ControllerMode.TABLE_LQR and args.table is not None:
        table = _flat_table(args.table)  # without one, simulate's ValueError exits 2
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
    n_iters = count(args.iters, "n_iters", 1)  # before the table file is read
    report = bench_controller(config.geometry, config.masses, _flat_table(args.table), n_iters,
                              weights=config.weights)
    for name in ("online_median_us", "online_p95_us", "lookup_median_us", "lookup_p95_us",
                 "speedup"):
        print(f"{name}: {getattr(report, name):.3f}")
    return EXIT_OK


def cmd_inspect(config: ArmConfig | None, args) -> int:
    table = _flat_table(args.table)
    print("kind: flat")
    print(f"version: {FORMAT_VERSION}")
    for k in range(4):
        print(f"theta{k + 1}: [{table.lo[k]!r}, {table.hi[k]!r}]")
    print("counts: " + " ".join(str(n) for n in table.grid.counts))
    print(f"leaves: {math.prod(n - 1 for n in table.grid.counts[1:])}")
    print("flagged: 0")
    print(f"pool_gains: {table.gains.size // 32}")
    print(f"pool_bytes: {table.gains.nbytes}")
    print(f"file_bytes: {len(save(table))}")  # save(load(b)) == b
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
    p.add_argument("--workers", type=int, default=1)
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

    p = sub.add_parser("bench", help="latency: online LQR update vs table lookup update")
    p.add_argument("--table", required=True)
    p.add_argument("--iters", type=int, default=1000)
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
    except (ArmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
