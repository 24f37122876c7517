"""Compare two checkouts on the benchmark in alternating pairs and write the
result as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload regulate-table:10 --workload regulate-online:6 \\
        --workload build-table:4 --seed 16001 \\
        --claim regulate-table:control_us_p50 --out BENCH_6.json

Each directory is a checkout holding perfbench/ and src/.  Make both clean
trees of the same shape, for example two `git archive` copies: a working
copy differs from a clean tree in more than its code (its .git, its caches),
and the tree alone can move a metric, as tools/ab_layers.py warns.  On a
2-vCPU host a clean parent paired against a working copy read regulate-table
build_s at 1.35 of the parent (0/4 pairs won), while two clean trees of the
same code read 0.917 (3/4).  For workload j
(in the order given) pair i runs `perfbench/run.py --workload W --seed S
--seconds 10 --trace 0` with S = seed + 100 * j + i on both checkouts, the
parent first in even pairs and the change first in odd ones.  For every
end-to-end metric of BENCHMARK.json the output holds, per side, the runs,
median and quartiles, the change/parent ratio of the medians, the pairs the
change won (ties count for neither), the parent's spread (interquartile
range over median), and one verdict.  The metric is unresolved when that
spread exceeds the metric's bound, unless every change run reads better
than every parent run: the runs cannot then tell a regression from noise.
Otherwise it regressed when the change's median is worse than the
parent's by more than the bound.  Each workload's regressed and unresolved
metrics are also printed.  A claim (WORKLOAD:METRIC) holds when the change
wins at least 9 in 10 of its pairs and the medians differ, in the better
direction, by more than the parent's interquartile range; below ten pairs
it is null, and printed as such.  tools/ab_layers.py claims by this rule
too.  A run that fails the correctness gate, or exits non-zero, is
recorded, and the script then exits with status 1.

Each side's identity is the src_sha256 its runs report, a digest of its
src/armctl: its report's commit is null on a `git archive` copy, which has
no .git.  Every run of a side must report the same src_sha256, which a
tree edited between runs does not; else the script names the side on
standard error and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 10
CLAIM_MIN_PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run; returns its report and metrics."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    report = next((json.loads(line[len("report "):]) for line in lines
                   if line.startswith("report ")), {})
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {
        "seed": seed,
        "exit": proc.returncode,
        "identity": {k: report.get(k) for k in ("commit", "src_sha256")},
        "attempted": result and result["attempted"],
        "failed": result and result["failed"],
        "metrics": result and {k: v["value"] for k, v in result["metrics"].items()},
        "error": None if result else proc.stderr.strip().splitlines()[-1:],
    }


def summary(values: list[float]) -> dict:
    # quantiles needs two points before Python 3.13; one run is its own quartiles
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare_runs(parent: list[float], change: list[float], better: str,
                 bound: float | None = None) -> dict:
    """One metric's paired runs judged as the module docstring says: both
    sides summarized, ratio, wins, pairs, spread and, given a bound, verdict."""
    lower = better == "lower"
    ps, cs = summary(parent), summary(change)
    spread = (ps["q3"] - ps["q1"]) / abs(ps["median"]) if ps["median"] else 0.0
    entry = {
        "better": better,
        "parent": ps,
        "change": cs,
        "ratio": cs["median"] / ps["median"] if ps["median"] else None,
        "wins": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
        "pairs": len(parent),
        "spread": spread,
    }
    if bound is not None:
        worse = (cs["median"] - ps["median"]) if lower else (ps["median"] - cs["median"])
        all_better = max(change) < min(parent) if lower else min(change) > max(parent)
        unresolved = spread > bound and not all_better
        entry.update(bound=bound, unresolved=unresolved,
                     regressed=not unresolved and worse > bound * abs(ps["median"]))
    return entry


def claim_holds(entry: dict) -> bool | None:
    """The claim rule of the module docstring for a compare_runs entry; None
    below CLAIM_MIN_PAIRS pairs, which can claim nothing."""
    if entry["pairs"] < CLAIM_MIN_PAIRS:
        return None
    parent, change = entry["parent"], entry["change"]
    gain = parent["median"] - change["median"]
    if entry["better"] == "higher":
        gain = -gain
    return 10 * entry["wins"] >= 9 * entry["pairs"] and gain > parent["q3"] - parent["q1"]


def verdict(holds: bool | None) -> str:
    return {None: f"no claim (fewer than {CLAIM_MIN_PAIRS} pairs)",
            True: "claim holds", False: "claim fails"}[holds]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True, metavar="NAME:PAIRS")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    import numpy
    import scipy

    doc = {
        "command": "perfbench/run.py --seconds %d --trace 0" % SECONDS,
        "host": {"nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": numpy.__version__,
                 "scipy": scipy.__version__},
        "workloads": {},
    }
    status = 0
    for j, item in enumerate(args.workload):
        workload, pairs = item.split(":")
        runs = {"parent": [], "change": []}
        seeds = [args.seed + 100 * j + i for i in range(int(pairs))]
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(sides[side], workload, seed)
                runs[side].append(run)
                print(f"{workload} seed {seed} {side}: exit {run['exit']}", flush=True)
        entry = {"seeds": seeds, "runs": runs}
        if all(run["metrics"] for side in runs.values() for run in side):
            entry["metrics"] = {m["name"]: compare_runs(
                [run["metrics"][m["name"]] for run in runs["parent"]],
                [run["metrics"][m["name"]] for run in runs["change"]],
                m["better"], m["bound"]) for m in spec["end_to_end"]}
            for flag in ("regressed", "unresolved"):
                names = [k for k, v in entry["metrics"].items() if v[flag]]
                print(f"{workload} {flag}: {', '.join(names) or 'none'}", flush=True)
        else:
            status = 1
        doc["workloads"][workload] = entry
    for side in sides:  # what each side ran: one src/armctl digest over all its runs
        side_runs = [run for entry in doc["workloads"].values() for run in entry["runs"][side]]
        digests = sorted({run["identity"]["src_sha256"] for run in side_runs} - {None})
        if len(digests) > 1:
            print(f"{side}: src_sha256 differs over its runs: {', '.join(digests)}",
                  file=sys.stderr)
            status = 1
        doc[side] = {"src_sha256": digests[0] if len(digests) == 1 else None,
                     "commit": side_runs[0]["identity"]["commit"]}
    if args.claim and status == 0:
        workload, metric = args.claim.split(":")
        entry = doc["workloads"][workload]["metrics"][metric]
        doc["claim"] = {"workload": workload, "metric": metric, "holds": claim_holds(entry)}
        print(f"{args.claim}: {verdict(doc['claim']['holds'])}", flush=True)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
