"""Run one armctl benchmark workload and print its metrics.

    python3 perfbench/run.py --workload regulate-table --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Run from a checkout: armctl is imported from ``src/`` next to this
directory, never from an installed copy.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``, with
the end-to-end metrics of BENCHMARK.json when ``--trace 0`` and the
per-layer metrics when ``--trace 1``.  A correctness-gate failure exits 3
and prints no metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("regulate-table", "regulate-online", "build-table")

# name -> (unit, better); every --trace 0 run emits all of them
END_TO_END = {
    "setup_s": ("s", "lower"),
    "control_us_p50": ("us", "lower"),
    "control_us_p99": ("us", "lower"),
    "sim_rate": ("s/s", "higher"),
    "ok_frac": ("ratio", "higher"),
    "build_s": ("s", "lower"),
    "build_1w_s": ("s", "lower"),
    "refine_s": ("s", "lower"),
    "table_bytes": ("bytes", "lower"),
    "load_ms": ("ms", "lower"),
    "gain_err_max": ("norm", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def pin_threads():
    """One BLAS/OpenMP thread per process; must run before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"


def source_identity() -> dict:
    """The commit when run in a git work tree, and a digest of src/armctl."""
    commit = None
    if (ROOT / ".git").exists():  # else git would search the parent directories
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "armctl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def _require(values, what):
    if not values:
        raise RuntimeError(f"no successful {what} to measure; see the log above")
    return values


def end_to_end(workload, setup_walls, setup_tally, tally) -> dict:
    """The end-to-end metrics of a run.

    Timings are at nominal host speed (see workloads.HostSpeed and
    workloads.OpTimer).  The host's speed also changes within a run, and
    one median over the run would jump between its speeds; so p50 is a
    median within each episode, averaged over the episodes, and build and
    load times are medians over the run's rounds.  p99 is over the run's
    samples, each the median of its replays (see Bench.episode).
    """
    import numpy as np

    build = tally if workload == "build-table" else setup_tally
    samples = _require(tally.sample_us, "control updates")
    attempted = setup_tally.attempted + tally.attempted
    failed = setup_tally.failed + tally.failed
    values = {
        "setup_s": statistics.median(setup_walls),
        "control_us_p50": statistics.fmean(tally.episode_p50_us),
        "control_us_p99": float(np.percentile(samples, 99)),
        "sim_rate": tally.simulated_s / _require(tally.simulate_wall_s, "episodes"),
        "ok_frac": 1.0 - failed / attempted,
        "build_s": statistics.median(_require(build.build_s, "builds")),
        "build_1w_s": statistics.median(_require(build.build_1w_s, "1-worker builds")),
        "refine_s": statistics.median(_require(build.refine_s, "refines")),
        "table_bytes": statistics.median(_require(build.table_bytes, "saves")),
        "load_ms": statistics.median(_require(build.load_ms, "loads")),
        "gain_err_max": max(_require(build.gain_err, "off-node solves")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}


def run_workload(args) -> int:
    import numpy as np
    import scipy

    import tracing
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    workers = min(2, len(os.sched_getaffinity(0)))
    bench = workloads.Bench(sizes, workers)
    tracer = tracing.Tracer() if args.trace else None
    traced = tracer if tracer is not None else contextlib.nullcontext()

    setup_tally, tally = workloads.Tally(), workloads.Tally()
    setup_rng = np.random.default_rng([args.seed, 0])
    rng = np.random.default_rng([args.seed, 1])
    setup_walls = []
    for round_ in range(bench.rounds):
        with workloads.HostSpeed(workloads.SAMPLE_PERIOD_S) as speed:
            with traced:
                bench.setup(setup_tally, setup_rng)
        setup_walls.append(speed.seconds)
        if tracer is not None and round_ == 0:
            tracer.overhead = calibrate(bench, tracer, args)
        with traced:
            bench.measure(args.workload, tally, rng, round_, args.seconds)

    if tracer is not None:
        metrics = tracer.metrics()
        units = tracing.per_layer_metrics()
        metrics = {name: {"value": metrics[name], "unit": units[name][0]} for name in units}
    else:
        metrics = end_to_end(args.workload, setup_walls, setup_tally, tally)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **source_identity(),
        "setups": len(setup_walls),
        "control_samples": len(tally.control_us),
        "reference_us_median": statistics.median(setup_tally.host_ref_us + tally.host_ref_us),
        "failures": dict(setup_tally.failures + tally.failures),
    }
    print("report " + json.dumps(report, sort_keys=True))
    if tracer is not None:
        print_layers(metrics)
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": setup_tally.attempted + tally.attempted,
        "failed": setup_tally.failed + tally.failed,
        "metrics": metrics,
    }))
    return 0


def calibrate(bench, tracer, args):
    """Wall time of the same units of work untraced, then traced."""
    import numpy as np

    import workloads

    rng, tally = np.random.default_rng([args.seed, 2]), workloads.Tally()
    start, units = time.perf_counter(), 0
    while units == 0 or time.perf_counter() - start < 1.0:
        bench.unit(args.workload, tally, rng)
        units += 1
    untraced = time.perf_counter() - start
    rng, tally = np.random.default_rng([args.seed, 2]), workloads.Tally()
    start = time.perf_counter()
    with tracer:
        for _ in range(units):
            bench.unit(args.workload, tally, rng)
    return untraced, time.perf_counter() - start


def print_layers(metrics):
    """Self time per layer, and how it adds up to the traced wall time."""
    wall = metrics["trace.wall_s"]["value"]
    print(f"  {'layer':32s} {'self_s':>10s} {'share':>7s}")
    for name in sorted(k[: -len(".self_s")] for k in metrics if k.endswith(".self_s")):
        self_s = metrics[f"{name}.self_s"]["value"]
        print(f"  {name:32s} {self_s:10.4f} {self_s / wall:7.1%}")
    bench = metrics["trace.bench_self_s"]["value"]
    layers = metrics["trace.layer_self_s"]["value"]
    print(f"  {'(benchmark code, no span)':32s} {bench:10.4f} {bench / wall:7.1%}")
    print(f"  layer self {layers:.4f} s + benchmark {bench:.4f} s = traced wall {wall:.4f} s")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        print(f"== {workload}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(f"== {workload} exited {proc.returncode}", flush=True)
            status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes, for the smoke test")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    if not (SRC / "armctl" / "__init__.py").is_file():
        print(f"armctl sources not found under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    pin_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    import armctl

    if Path(armctl.__file__).resolve().parent != SRC / "armctl":
        print(f"imported armctl from {armctl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    try:
        return run_workload(args)
    except workloads.GateError as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
