"""tools/frontier.py: the static frontier of flat grids against refined
trees, the gate for retiring the tree."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "frontier.py"


@pytest.fixture(scope="module")
def runs():
    """The stdout of two runs in fresh processes."""
    return [subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True,
                           check=True).stdout for _ in range(2)]


def boxes(out: str) -> dict:
    """Per box (the first word of its header), {row name: (bytes, gains,
    solves)} and its verdict line."""
    parsed = {}
    for block in out.strip().split("\n\n"):
        header, _, *rows, verdict = block.splitlines()
        cells = {" ".join(r.split()[:2]): tuple(map(int, r.split()[2:5])) for r in rows}
        parsed[header.split()[0]] = cells, verdict
    return parsed


def test_two_runs_print_the_same_bytes(runs):
    assert runs[0] == runs[1]


def test_no_tree_is_undominated(runs):
    parsed = boxes(runs[0])
    assert set(parsed) == {"reference", "workspace"}
    for _, verdict in parsed.values():
        assert verdict == "verdict, trees no flat row dominates: none"


def test_counted_bytes_gains_and_solves(runs):
    """A tree's solves are every point its levels hand to _solve_points,
    corners and centers; a flat grid solves its planar nodes once."""
    reference, workspace = boxes(runs[0])["reference"][0], boxes(runs[0])["workspace"][0]
    assert reference["tree 0.1/4"] == (203_733, 729, 1_241)
    assert reference["tree 0.4/3"] == (34_261, 125, 189)
    assert reference["flat 2x9x9x9"] == (186_748, 729, 729)
    assert reference["flat 2x5x5x5"] == (32_124, 125, 125)
    assert workspace["tree 1.0/4"] == (201_709, 722, 1_227)
