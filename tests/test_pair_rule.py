"""The one claim rule that tools/bench_pairs.py and tools/ab_layers.py share,
and bench_pairs' one source digest per side, on synthetic paired runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def judge(parent, change, better="lower", bound=None):
    entry = bench_pairs.compare_runs(parent, change, better, bound)
    return entry, bench_pairs.claim_holds(entry)


def test_sixteen_of_twenty_inside_the_iqr_does_not_claim():
    # a self-A/B's pattern: the change wins 16 of 20 rounds by less than
    # the parent's own spread
    parent = [100.0 + k for k in range(20)]
    change = [p - 0.5 for p in parent[:16]] + [p + 0.5 for p in parent[16:]]
    entry, holds = judge(parent, change)
    assert entry["wins"] == 16 and entry["pairs"] == 20
    assert entry["parent"]["median"] - entry["change"]["median"] < (
        entry["parent"]["q3"] - entry["parent"]["q1"])
    assert holds is False


def test_every_pair_won_beyond_the_iqr_claims():
    parent = [100.0 + k for k in range(20)]
    entry, holds = judge(parent, [p - 30.0 for p in parent])
    assert entry["wins"] == 20
    assert entry["ratio"] == pytest.approx(79.5 / 109.5)
    assert holds is True


def test_nine_of_ten_inside_the_iqr_does_not_claim():
    parent = [100.0 + k for k in range(10)]
    change = [p - 1.0 for p in parent[:9]] + [parent[9] + 1.0]
    entry, holds = judge(parent, change)
    assert entry["wins"] == 9
    assert holds is False
    # the same wins beyond the IQR claim: nine in ten is enough
    _, holds = judge(parent, [p - 20.0 for p in parent[:9]] + [parent[9] + 1.0])
    assert holds is True


def test_fewer_than_ten_pairs_claim_nothing():
    parent = [100.0 + k for k in range(9)]
    entry, holds = judge(parent, [p - 50.0 for p in parent])
    assert entry["wins"] == 9 and entry["pairs"] == 9
    assert holds is None
    assert bench_pairs.verdict(holds) == "no claim (fewer than 10 pairs)"


def test_ties_count_for_neither_side():
    parent = [100.0 + k for k in range(10)]
    entry, holds = judge(parent, list(parent))
    assert entry["wins"] == 0 and entry["ratio"] == 1.0
    assert holds is False
    # one tie among nine wins beyond the IQR still makes nine in ten
    change = [p - 20.0 for p in parent[:9]] + [parent[9]]
    entry, holds = judge(parent, change)
    assert entry["wins"] == 9
    assert holds is True


def test_a_higher_metric_is_judged_upward():
    parent = [50.0 + k for k in range(10)]
    entry, holds = judge(parent, [p + 20.0 for p in parent], better="higher", bound=0.25)
    assert entry["wins"] == 10 and holds is True
    assert not entry["regressed"] and not entry["unresolved"]
    entry, holds = judge(parent, [p - 20.0 for p in parent], better="higher", bound=0.25)
    assert entry["wins"] == 0 and holds is False
    assert entry["regressed"]


def test_a_single_run_summarizes_without_raising():
    summary = bench_pairs.summary([3.5])
    assert summary == {"median": 3.5, "q1": 3.5, "q3": 3.5, "runs": [3.5]}
    entry, holds = judge([2.0], [1.0], bound=0.1)
    assert entry["wins"] == 1 and entry["spread"] == 0.0
    assert not entry["unresolved"] and not entry["regressed"]
    assert holds is None


@pytest.mark.parametrize("edited", [None, "parent", "change"])
def test_each_side_is_one_source_digest_over_its_runs(tmp_path, monkeypatch, capsys, edited):
    """A side's identity is the src_sha256 its runs report; a side whose
    runs report two digests (its tree changed between runs) is named, and
    the script exits 1."""
    names = [m["name"] for m in json.loads((_PATH.parents[1] / "BENCHMARK.json").read_text())[
        "end_to_end"]]
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    calls = {"parent": 0, "change": 0}

    def run_once(checkout, workload, seed):
        side = "parent" if checkout == sides["parent"].resolve() else "change"
        calls[side] += 1
        digest = f"{side}-{calls[side] if side == edited else 0}"
        return {"seed": seed, "exit": 0, "identity": {"commit": None, "src_sha256": digest},
                "attempted": 1, "failed": 0, "metrics": dict.fromkeys(names, 1.0),
                "error": None}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    status = bench_pairs.main(["--parent", str(sides["parent"]), "--change", str(sides["change"]),
                               "--workload", "build-table:2", "--workload", "regulate-table:1",
                               "--seed", "1", "--out", str(out)])
    doc = json.loads(out.read_text())
    err = capsys.readouterr().err
    for side in sides:
        if side == edited:
            assert doc[side]["src_sha256"] is None
            assert err.startswith(f"{side}: src_sha256 differs over its runs: {side}-1, {side}-2")
        else:
            assert doc[side] == {"src_sha256": f"{side}-0", "commit": None}
    assert status == (0 if edited is None else 1) and (edited is not None or err == "")
