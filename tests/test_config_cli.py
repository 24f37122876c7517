import copy
import json
import math
import multiprocessing.connection
import os
import re
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import armctl
import armctl.gain_table as gt
import armctl.simulator as sim
from armctl import ArmConfig, ConfigError, IllConditioned, load_config, parse_config
from armctl.cli import main
from conftest import CONFIG_TEMPLATE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_loads_valid(self, write_config):
        cfg = load_config(write_config())
        assert cfg.geometry.L1 == 1.0
        assert cfg.masses.g == 9.81
        assert cfg.weights.Q.shape == (8, 8)
        assert cfg.grid.counts == (2, 2, 2, 2)
        assert cfg.sim.control_period == 0.02

    def test_rejects_unknown_key(self, write_config, tmp_path):
        path = write_config()
        raw = json.loads(open(path).read())
        raw["geometry"]["L4"] = 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="L4"):
            load_config(bad)

    def test_rejects_top_level_unknown(self, write_config, tmp_path):
        raw = json.loads(open(write_config()).read())
        raw["extra"] = {}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_rejects_missing_section(self, write_config, tmp_path):
        raw = json.loads(open(write_config()).read())
        del raw["sim"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError):
            load_config(bad)

    def test_rejects_domain_invariant_violation(self, write_config):
        with pytest.raises(ConfigError):
            load_config(write_config({"geometry.L1": -1.0}))
        with pytest.raises(ConfigError):
            load_config(write_config({"grid.theta1.count": 1}))
        with pytest.raises(ConfigError, match="finite span"):
            load_config(write_config({"grid.theta2.min": -1e308, "grid.theta2.max": 1e308}))

    def test_rejects_malformed_json(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",                         # not UTF-8
        b'{"sim": 1' + b"0" * 5000 + b"}",      # an int literal past the digit limit
        b"[" * 100_000 + b"]" * 100_000,        # nesting deeper than the stack
    ], ids=["bad-utf8", "5000-digits", "deep-nesting"])
    def test_hostile_file_is_config_error(self, tmp_path, content):
        bad = tmp_path / "hostile.json"
        bad.write_bytes(content)
        with pytest.raises(ConfigError, match="is not valid JSON"):
            load_config(bad)


DELETE = object()


def _config(*edits):
    """The template config after each edit (dotted path, value); a value of
    DELETE removes the key, and an empty path replaces the document."""
    doc = copy.deepcopy(CONFIG_TEMPLATE)
    for dotted, value in edits:
        if not dotted:
            return value
        *keys, last = dotted.split(".")
        node = doc
        for key in keys:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    return doc


@pytest.mark.parametrize("edit, where", [
    (("extra", {}), "<root>: unknown key 'extra'"),
    (("sim", DELETE), "<root>: missing key 'sim'"),
    (("geometry.L4", 1.0), "geometry: unknown key 'L4'"),
    (("masses.g", DELETE), "masses: missing key 'g'"),
    (("grid.theta2.step", 0.1), "grid/theta2: unknown key 'step'"),
    (("grid.theta3.count", DELETE), "grid/theta3: missing key 'count'"),
    (("geometry.L2", "0.8"), "geometry/L2: expected number, got str"),
    (("masses.g", True), "masses/g: expected number, got bool"),
    (("sim.dt", None), "sim/dt: expected number, got NoneType"),
    (("grid.theta1.count", 2.5), "grid/theta1/count: expected integer, got 2.5"),
    (("cost.q_diag", [1.0] * 7), "cost/q_diag: expected an array of 8 numbers, got 7 items"),
    (("cost.q_diag", [1.0] * 9), "cost/q_diag: expected an array of 8 numbers, got 9 items"),
    (("cost.r_diag", [1.0, 1.0, "1", 1.0]), "cost/r_diag/2: expected number, got str"),
    (("sim", [0.001, 0.02, 5.0]), "sim: expected an object, got list"),
    (("", [CONFIG_TEMPLATE]), "<root>: expected an object, got list"),
], ids=["root-unknown", "root-missing", "section-unknown", "section-missing", "range-unknown",
        "range-missing", "string", "bool", "null", "count-2.5", "q_diag-7", "q_diag-9",
        "string-in-array", "section-as-list", "root-array"])
def test_malformed_config_names_its_path(edit, where):
    with pytest.raises(ConfigError, match=f"^config invalid at {re.escape(where)}$"):
        parse_config(_config(edit))


def test_integer_may_be_written_as_float():
    assert parse_config(_config(("grid.theta1.count", 2.0))).grid.counts[0] == 2


@pytest.mark.parametrize("dotted", ["geometry.L1", "masses.g", "grid.theta2.count",
                                    "cost.q_diag", "sim.dt"])
def test_int_beyond_float_range_exit_2(capsys, write_config, dotted):
    big = 10**400  # a 401-digit JSON literal
    cfg = write_config({dotted: [big] + [1.0] * 7 if dotted == "cost.q_diag" else big})
    code, _, err = run_cli(capsys, "--config", cfg, "fk", "0", "0", "0", "0")
    assert code == 2
    # the message names the field (GridSpec reads the four counts as one argument)
    name = "counts" if dotted.endswith(".count") else dotted.split(".")[-1]
    assert err.startswith(f"error: {name} must be ")


@pytest.mark.parametrize("q_diag, r_diag, name", [
    ([1e308] * 8, [1.0] * 4, "Q"), ([1e200] * 8, [1.0] * 4, "Q"), ([1.0] * 8, [1e200] * 4, "R"),
])
def test_overflowing_cost_weights_exit_2(capsys, write_config, q_diag, r_diag, name):
    cfg = write_config({"cost.q_diag": q_diag, "cost.r_diag": r_diag})
    code, _, err = run_cli(capsys, "--config", cfg, "fk", "0", "0", "0", "0")
    assert code == 2
    assert err.startswith(f"error: {name} is too large")


# what a mutation may put in a config: JSON leaves (ints beyond float
# range too), arrays and objects of them
_LEAVES = st.one_of(st.none(), st.booleans(), st.text(max_size=2), st.integers(),
                    st.sampled_from([10**400, -10**400, 2.0, 2.5]), st.floats())
_VALUES = st.one_of(_LEAVES, st.lists(_LEAVES, max_size=9),
                    st.dictionaries(st.sampled_from(["min", "max", "count", "L1", "x"]), _LEAVES))


def _paths(value, path=()):
    yield path
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def _mutated_configs(draw):
    """The template config with one to three nodes deleted, replaced or
    given an extra sibling key."""
    doc = copy.deepcopy(CONFIG_TEMPLATE)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            return draw(_VALUES)
        *keys, last = path
        parent = doc
        for key in keys:
            parent = parent[key]
        action = draw(st.sampled_from(["delete", "replace", "add"]))
        if action == "delete":
            del parent[last]
        elif action == "add" and isinstance(parent, dict):
            parent[draw(st.sampled_from(["extra", "min", "g"]))] = draw(_VALUES)
        else:
            parent[last] = draw(_VALUES)
    return doc


@settings(max_examples=300, deadline=None)
@given(raw=_mutated_configs())
def test_mutated_config_is_config_or_config_error(raw):
    try:
        assert isinstance(parse_config(raw), ArmConfig)
    except ConfigError:
        pass


def _modules_after(code):
    """The names in sys.modules of a fresh interpreter that has run code."""
    src = Path(armctl.__file__).resolve().parents[1]
    code += "; import sys; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_import_leaves_out_jsonschema():
    assert "jsonschema" not in _modules_after("import armctl")


def test_import_leaves_out_scipy():
    """riccati loads scipy's compiled LAPACK module by its path, so neither
    the library nor the CLI imports any scipy module, scipy.linalg's package
    init above all."""
    modules = _modules_after("import armctl, armctl.cli")
    assert not {name for name in modules if name.split(".")[0] == "scipy"}


@pytest.mark.parametrize(
    "argv",
    [
        ["fk", "0", "nan", "0", "0"],
        ["fk", "inf", "0", "0", "0"],
        ["ik", "nan", "0", "0.5"],
        ["ik", "0.5", "0", "0.5", "--pitch", "inf"],
        ["simulate", "--mode", "passive", "--out", "run.csv",
         "--x0", "0.3", "0.8", "nan", "0.5", "0", "0", "0", "0"],
        ["simulate", "--mode", "online", "--out", "run.csv",
         "--ref", "0.3", "inf", "-0.9", "0.5"],
        ["simulate", "--mode", "passive", "--out", "run.csv",
         "--ref", "0.3", "nan", "-0.9", "0.5"],
    ],
    ids=["fk-nan", "fk-inf", "ik-nan", "ik-pitch-inf", "simulate-x0-nan",
         "simulate-ref-inf", "passive-ref-nan"],
)
def test_bad_number_is_usage_error(capsys, write_config, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["--config", write_config()] + argv)
    assert info.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "arm.json"]  # nothing written


@pytest.mark.parametrize("argv", [
    ["precompute", "--out", "gains.agt"],
    ["simulate", "--mode", "online", "--out", "run.csv"],
], ids=["precompute", "simulate-online"])
def test_library_value_error_is_usage_error(capsys, write_config, tmp_path, monkeypatch, argv):
    # R = 1e-307 I is positive definite, but B R^-1 B' overflows in the solve
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["--config", write_config({"cost.r_diag": [1e-307] * 4})] + argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must not overflow" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [tmp_path / "arm.json"]  # nothing written


class TestFk:
    def test_vertical(self, capsys, write_config):
        cfg = write_config({"geometry": {"L1": 1.0, "L2": 1.0, "L3": 1.0}})
        code, out, _ = run_cli(capsys, "--config", cfg, "fk", "0", "0", "0", "0")
        assert code == 0
        assert out.strip().splitlines()[-1] == "P4 = (0, 0, 3)"

    def test_oblique(self, capsys, write_config):
        cfg = write_config({"geometry": {"L1": 1.0, "L2": 1.0, "L3": 1.0}})
        code, out, _ = run_cli(
            capsys, "--config", cfg, "fk",
            str(math.pi / 2), str(math.pi / 2), str(-math.pi / 2), "0",
        )
        assert code == 0
        last = out.strip().splitlines()[-1]
        vals = [float(v) for v in last.split("=")[1].strip(" ()").split(",")]
        assert vals == pytest.approx([1.0, 0.0, 2.0], abs=1e-12)

    def test_malformed_config_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{}")
        code, _, err = run_cli(capsys, "--config", str(bad), "fk", "0", "0", "0", "0")
        assert code == 2
        assert err

    def test_missing_config_exit_2(self, capsys, tmp_path):
        absent = str(tmp_path / "absent.json")
        code, _, err = run_cli(capsys, "--config", absent, "fk", "0", "0", "0", "0")
        assert code == 2
        assert err.startswith("error: cannot read config")


class TestIk:
    def test_known_target(self, capsys, write_config):
        cfg = write_config({"geometry": {"L1": 1.0, "L2": 1.0, "L3": 1.0}})
        code, out, _ = run_cli(capsys, "--config", cfg, "ik", "0", "2", "1")
        assert code == 0
        vals = [float(v) for v in out.split("=")[1].strip(" ()\n").split(",")]
        assert vals == pytest.approx([0.0, math.pi / 2, 0.0, -math.pi / 2], abs=1e-9)

    def test_unreachable_exit_3(self, capsys, write_config):
        cfg = write_config({"geometry": {"L1": 1.0, "L2": 1.0, "L3": 1.0}})
        code, _, err = run_cli(capsys, "--config", cfg, "ik", "0", "10", "0")
        assert code == 3
        assert "workspace" in err

    def test_round_trip_through_cli(self, capsys, write_config):
        cfg = write_config()
        target = (0.4, 1.1, 0.8)
        code, out, _ = run_cli(capsys, "--config", cfg, "ik", *map(str, target),
                               "--pitch", "0.3")
        assert code == 0
        thetas = [v for v in out.split("=")[1].strip(" ()\n").split(",")]
        code, out, _ = run_cli(capsys, "--config", cfg, "fk", *thetas)
        assert code == 0
        last = out.strip().splitlines()[-1]
        vals = [float(v) for v in last.split("=")[1].strip(" ()").split(",")]
        assert vals == pytest.approx(list(target), abs=1e-9)


class TestPrecompute:
    def test_writes_table_and_counts(self, capsys, write_config, tmp_path):
        cfg = write_config({
            "grid.theta1.count": 3, "grid.theta2.count": 3,
            "grid.theta3.count": 3, "grid.theta4.count": 3,
        })
        out_path = tmp_path / "gains.agt"
        code, out, _ = run_cli(capsys, "--config", cfg, "precompute", "--out", str(out_path))
        assert code == 0
        assert "nodes: 81" in out
        assert out_path.exists()

    def test_rerun_is_byte_identical(self, capsys, write_config, tmp_path):
        cfg = write_config()
        a, b = tmp_path / "a.agt", tmp_path / "b.agt"
        assert run_cli(capsys, "--config", cfg, "precompute", "--out", str(a))[0] == 0
        assert run_cli(capsys, "--config", cfg, "precompute", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_node_failure_exit_4_no_file(self, capsys, write_config, tmp_path):
        cfg = write_config({"masses.m4": 0.0, "masses.M3": 0.0})
        out_path = tmp_path / "gains.agt"
        code, _, err = run_cli(capsys, "--config", cfg, "precompute", "--out", str(out_path))
        assert code == 4
        assert "node" in err
        assert not out_path.exists()

    def test_overflowing_grid_span_exit_2_no_file(self, capsys, write_config, tmp_path):
        cfg = write_config({"grid.theta2.min": -1e308, "grid.theta2.max": 1e308})
        out_path = tmp_path / "gains.agt"
        code, _, err = run_cli(capsys, "--config", cfg, "precompute", "--out", str(out_path))
        assert code == 2
        assert "finite span" in err
        assert not out_path.exists()

    def test_count_beyond_u32_exit_2_no_file(self, capsys, write_config, tmp_path):
        cfg = write_config({"grid.theta1.count": 2**32})
        out_path = tmp_path / "gains.agt"
        code, _, err = run_cli(capsys, "--config", cfg, "precompute", "--out", str(out_path))
        assert code == 2
        assert "counts[0] must be at most 4294967295" in err
        assert "Traceback" not in err and not out_path.exists()

    @pytest.mark.parametrize("kind", ["flat"])  # the one kind precompute builds
    def test_zero_workers_exit_2_no_file(self, capsys, write_config, tmp_path, monkeypatch,
                                         kind):
        # precompute's errors.count message, read before any node is solved
        def solve(*args, **kwargs):
            raise AssertionError("a node was solved")
        monkeypatch.setattr(gt, "_solve_points", solve)
        cfg = write_config()
        with pytest.raises(SystemExit) as info:
            main(["--config", cfg, "precompute", "--out", str(tmp_path / "gains.agt"),
                  "--workers", "0"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert err.rstrip().endswith("error: workers must be a whole number >= 1, got 0")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [tmp_path / "arm.json"]  # nothing written

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="kills a worker process")
    def test_dead_worker_exit_1_then_rebuilds(self, capsys, write_config, tmp_path, monkeypatch):
        # a worker of the kept pool dies between builds: the next build exits
        # 1 with a message, and the one after starts a new pool
        monkeypatch.setattr(gt, "_pool", None)
        monkeypatch.setattr(gt.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = write_config({f"grid.theta{k}.count": 5 for k in (2, 3, 4)})  # two chunks
        one, two = tmp_path / "one.agt", tmp_path / "two.agt"
        argv = ["--config", cfg, "precompute", "--workers", "2", "--out", str(two)]
        try:
            assert run_cli(capsys, *argv)[0] == 0
            worker = next(iter(gt._pool[-1]._processes.values()))
            os.kill(worker.pid, signal.SIGKILL)
            assert multiprocessing.connection.wait([worker.sentinel], timeout=10)
            code, _, err = run_cli(capsys, *argv)
            assert code == 1
            assert err.startswith("error: a table-build worker process died")
            assert "Traceback" not in err
            assert run_cli(capsys, *argv)[0] == 0
        finally:
            if gt._pool is not None:
                gt._pool[-1].shutdown()
        assert run_cli(capsys, "--config", cfg, "precompute", "--out", str(one))[0] == 0
        assert two.read_bytes() == one.read_bytes()

    def test_unwritable_out_exit_7(self, capsys, write_config, tmp_path):
        code, _, err = run_cli(
            capsys, "--config", write_config(), "precompute",
            "--out", str(tmp_path / "no-such-dir" / "gains.agt"),
        )
        assert code == 7
        assert err.startswith("error:")

    def test_out_is_directory_exit_7_no_temp_file(self, capsys, write_config, tmp_path):
        out_dir = tmp_path / "gains.agt"
        out_dir.mkdir()
        code, _, err = run_cli(capsys, "--config", write_config(), "precompute",
                               "--out", str(out_dir))
        assert code == 7
        assert err.startswith("error:")
        assert sorted(tmp_path.iterdir()) == [tmp_path / "arm.json", out_dir]
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("option", [["--refine", "0.1"], ["--max-depth", "3"]],
                             ids=["refine", "max-depth"])
    def test_tree_options_are_gone(self, capsys, write_config, tmp_path, monkeypatch, option):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["--config", write_config(), "precompute", "--out", "gains.agt"] + option)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert err.rstrip().endswith(f"error: unrecognized arguments: {' '.join(option)}")
        assert list(tmp_path.iterdir()) == [tmp_path / "arm.json"]  # nothing written


class TestSimulate:
    def test_passive_csv_conserves_energy(self, capsys, write_config, tmp_path):
        cfg = write_config({"sim.duration": 2.0})
        out_csv = tmp_path / "run.csv"
        code, _, _ = run_cli(
            capsys, "--config", cfg, "simulate", "--mode", "passive",
            "--out", str(out_csv),
            "--x0", "0.4", "2.6", "0.8", "-0.5", "0.3", "0", "0", "0",
        )
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].startswith("t,th1")
        energies = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(abs(e - energies[0]) for e in energies) <= 1e-5 * max(1.0, abs(energies[0]))

    def test_online_from_equilibrium_constant_torque(self, capsys, write_config, tmp_path):
        cfg = write_config({"sim.duration": 1.0})
        out_csv = tmp_path / "run.csv"
        center = ["0.3", "0.8", "-0.9", "0.5"]
        code, _, _ = run_cli(
            capsys, "--config", cfg, "simulate", "--mode", "online",
            "--out", str(out_csv), "--x0", *center, "0", "0", "0", "0",
        )
        assert code == 0
        rows = [line.split(",") for line in out_csv.read_text().strip().splitlines()[1:]]
        taus = np.array([[float(v) for v in row[9:13]] for row in rows])
        assert np.abs(taus - taus[0]).max() <= 1e-9

    def test_table_mode_digest_mismatch_exit_5(self, capsys, write_config, tmp_path):
        cfg = write_config()
        table_path = tmp_path / "gains.agt"
        assert run_cli(capsys, "--config", cfg, "precompute", "--out", str(table_path))[0] == 0
        other = write_config({"masses.m2": 0.9}, name="other.json")
        out_csv = tmp_path / "run.csv"
        code, _, err = run_cli(
            capsys, "--config", other, "simulate", "--mode", "table",
            "--table", str(table_path), "--out", str(out_csv),
        )
        assert code == 5
        assert "different arm" in err

    def test_table_mode_regulates(self, capsys, write_config, tmp_path):
        cfg = write_config({"sim.duration": 3.0})
        table_path = tmp_path / "gains.agt"
        assert run_cli(capsys, "--config", cfg, "precompute", "--out", str(table_path))[0] == 0
        out_csv = tmp_path / "run.csv"
        code, _, _ = run_cli(
            capsys, "--config", cfg, "simulate", "--mode", "table",
            "--table", str(table_path), "--out", str(out_csv),
            "--x0", "0.35", "0.85", "-0.85", "0.55", "0", "0", "0", "0",
            "--ref", "0.3", "0.8", "-0.9", "0.5",
        )
        assert code == 0
        last = out_csv.read_text().strip().splitlines()[-1].split(",")
        theta_end = np.array([float(v) for v in last[1:5]])
        assert np.abs(theta_end - [0.3, 0.8, -0.9, 0.5]).max() < 1e-2

    def test_aborted_run_exit_6_partial_csv(self, capsys, write_config, tmp_path):
        # reference far outside the table box: the transient leaves the grid
        cfg = write_config({"sim.duration": 3.0})
        table_path = tmp_path / "gains.agt"
        assert run_cli(capsys, "--config", cfg, "precompute", "--out", str(table_path))[0] == 0
        out_csv = tmp_path / "run.csv"
        code, _, err = run_cli(
            capsys, "--config", cfg, "simulate", "--mode", "table",
            "--table", str(table_path), "--out", str(out_csv),
            "--x0", "0.3", "0.8", "-0.9", "0.5", "0", "0", "0", "0",
            "--ref", "1.5", "0.8", "-0.9", "0.5",
        )
        assert code == 6
        assert "aborted" in err
        lines = out_csv.read_text().strip().splitlines()
        assert lines[-1].startswith("# aborted:")
        assert lines[0].startswith("t,")

    def test_diverged_run_exit_6_partial_csv(self, capsys, write_config, tmp_path):
        out_csv = tmp_path / "run.csv"
        code, _, err = run_cli(
            capsys, "--config", write_config(), "simulate", "--mode", "passive",
            "--out", str(out_csv),
            "--x0", "0.3", "0.8", "-0.9", "0.5", "0", "1e160", "0", "0",
        )
        assert code == 6
        assert "non-finite" in err
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].startswith("t,")
        assert len(lines) == 3  # header, the t=0 sample, the abort line
        assert lines[-1].startswith("# aborted:")

    @pytest.mark.parametrize("rate", ["1e150", "1e200"])
    def test_online_runaway_rate_exit_6_partial_csv(self, capsys, write_config, tmp_path, rate):
        out_csv = tmp_path / "run.csv"
        code, _, err = run_cli(
            capsys, "--config", write_config(), "simulate", "--mode", "online",
            "--out", str(out_csv), "--x0", "0", "0.5", "-0.5", "0.2", rate, "0", "0", "0",
        )
        assert code == 6
        assert err.startswith("aborted: ")
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].startswith("t,")
        assert len(lines) == 2  # header, the abort line
        assert lines[-1].startswith("# aborted:")

    def test_online_solver_failure_exit_6_partial_csv(
        self, capsys, write_config, tmp_path, monkeypatch
    ):
        real_gain = sim.lqr_gain
        calls = []

        def failing_on_third_update(A, B, weights):
            calls.append(None)
            if len(calls) == 3:
                raise IllConditioned("injected residual failure")
            return real_gain(A, B, weights)

        monkeypatch.setattr(sim, "lqr_gain", failing_on_third_update)
        out_csv = tmp_path / "run.csv"
        code, _, err = run_cli(
            capsys, "--config", write_config({"sim.duration": 1.0}), "simulate",
            "--mode", "online", "--out", str(out_csv),
            "--x0", "0.3", "0.8", "-0.9", "0.5", "0", "0", "0", "0",
        )
        assert code == 6
        assert "injected residual failure" in err
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0].startswith("t,")
        assert len(lines) == 1 + 2 + 1  # header, the two finished samples, marker
        assert lines[-1] == "# aborted: injected residual failure"

    def test_table_mode_requires_table(self, capsys, write_config, tmp_path):
        # simulate's own ValueError takes main's one path for a bad argument
        out_csv = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as info:
            main(["--config", write_config(), "simulate", "--mode", "table",
                  "--out", str(out_csv)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert err.rstrip().endswith("error: table mode requires a gain table")
        assert not out_csv.exists()

    def test_missing_table_exit_7(self, capsys, write_config, tmp_path):
        out_csv = tmp_path / "run.csv"
        code, _, err = run_cli(
            capsys, "--config", write_config(), "simulate", "--mode", "table",
            "--table", str(tmp_path / "missing.agt"), "--out", str(out_csv),
        )
        assert code == 7
        assert err.startswith("error:") and "missing.agt" in err
        assert not out_csv.exists()

    def test_unwritable_out_exit_7(self, capsys, write_config, tmp_path):
        code, _, err = run_cli(
            capsys, "--config", write_config({"sim.duration": 0.1}), "simulate",
            "--mode", "passive", "--out", str(tmp_path / "no-such-dir" / "run.csv"),
        )
        assert code == 7
        assert err.startswith("error:")

    def test_version_1_table_exit_8(self, capsys, write_config, tmp_path):
        # a version 1 file is not read: its tables rebuild from their config
        cfg = write_config()
        table_path = tmp_path / "gains.agt"
        assert run_cli(capsys, "--config", cfg, "precompute", "--out", str(table_path))[0] == 0
        blob = bytearray(table_path.read_bytes())
        blob[4:8] = (1).to_bytes(4, "little")
        table_path.write_bytes(bytes(blob))
        code, _, err = run_cli(
            capsys, "--config", cfg, "simulate", "--mode", "table",
            "--table", str(table_path), "--out", str(tmp_path / "run.csv"),
        )
        assert code == 8
        assert "version 1" in err and "rebuild" in err

    def test_non_finite_gain_exit_8(self, capsys, write_config, tmp_path):
        # the file fails at load, not the run at node (0, 0, 0, 0), whose lookup is nan
        cfg = write_config({f"grid.theta{k}.count": 3 for k in (2, 3, 4)})
        table_path, out_csv = tmp_path / "gains.agt", tmp_path / "run.csv"
        assert run_cli(capsys, "--config", cfg, "precompute", "--out", str(table_path))[0] == 0
        blob = bytearray(table_path.read_bytes())
        struct.pack_into("<d", blob, 124, math.nan)  # that node's K[0, 0]
        table_path.write_bytes(bytes(blob))
        code, out, err = run_cli(
            capsys, "--config", cfg, "simulate", "--mode", "table",
            "--table", str(table_path), "--out", str(out_csv),
            "--x0", "0.05", "0.55", "-1.15", "0.25", "0", "0", "0", "0",
        )
        assert code == 8 and out == ""
        assert err == "error: gain nan at offset 124 is not finite\n"
        assert not out_csv.exists()

    def test_malformed_table_exit_8(self, capsys, write_config, tmp_path):
        table_path = tmp_path / "gains.agt"
        table_path.write_bytes(b"AGT1" + bytes(20))
        code, _, err = run_cli(
            capsys, "--config", write_config(), "simulate", "--mode", "table",
            "--table", str(table_path), "--out", str(tmp_path / "run.csv"),
        )
        assert code == 8
        assert err.startswith("error:")


class TestInspect:
    def test_flat(self, capsys, write_config, tmp_path):
        cfg = write_config({"grid.theta1.count": 4, "grid.theta2.count": 3})
        table_path = tmp_path / "gains.agt"
        assert run_cli(capsys, "--config", cfg, "precompute", "--out", str(table_path))[0] == 0
        code, out, _ = run_cli(capsys, "inspect", str(table_path))
        assert code == 0
        report = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert report["kind"] == "flat" and report["version"] == "2"
        assert report["theta1"] == "[0.05, 0.55]"
        assert report["counts"] == "4 3 2 2"
        assert report["leaves"] == "2" and report["flagged"] == "0"
        assert report["pool_gains"] == "12"  # one gain per planar node, none per theta1
        assert report["pool_bytes"] == str(12 * 256)
        assert report["file_bytes"] == str(table_path.stat().st_size)
        assert "arm_digest" not in report

    def test_bad_files(self, capsys, tmp_path):
        assert run_cli(capsys, "inspect", str(tmp_path / "missing.agt"))[0] == 7
        bad = tmp_path / "bad.agt"
        bad.write_bytes(b"AGT1" + bytes(20))
        code, _, err = run_cli(capsys, "inspect", str(bad))
        assert code == 8 and err.startswith("error:")

    def test_other_commands_still_need_config(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["fk", "0", "0", "0", "0"])
        assert info.value.code == 2
        assert "--config" in capsys.readouterr().err


class TestBench:
    def test_report_fields(self, capsys, write_config, tmp_path):
        cfg = write_config()
        table_path = tmp_path / "gains.agt"
        assert run_cli(capsys, "--config", cfg, "precompute", "--out", str(table_path))[0] == 0
        code, out, _ = run_cli(capsys, "--config", cfg, "bench",
                               "--table", str(table_path), "--iters", "30")
        assert code == 0
        report = dict(line.split(": ") for line in out.strip().splitlines())
        assert list(report) == ["online_median_us", "online_p95_us", "lookup_median_us",
                                "lookup_p95_us", "speedup"]
        assert float(report["speedup"]) > 1.0
        assert float(report["online_median_us"]) > float(report["lookup_median_us"]) > 0.0

    def test_layers_option_retired(self, capsys, write_config, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["--config", write_config(), "bench", "--table", str(tmp_path / "gains.agt"),
                  "--layers"])
        assert info.value.code == 2
        assert "unrecognized arguments: --layers" in capsys.readouterr().err

    def test_other_arms_table_exit_5(self, capsys, write_config, tmp_path):
        table_path = tmp_path / "gains.agt"
        assert run_cli(capsys, "--config", write_config(), "precompute",
                       "--out", str(table_path))[0] == 0
        other = write_config({"masses.m2": 0.9}, name="other.json")
        code, out, err = run_cli(capsys, "--config", other, "bench",
                                 "--table", str(table_path), "--iters", "5")
        assert code == 5
        assert "different arm" in err
        assert out == ""

    def test_zero_iters_exit_2(self, capsys, write_config, tmp_path):
        # n_iters is read before the table, so a missing file still exits 2
        # with errors.count's message, not 7
        missing = tmp_path / "missing.agt"
        with pytest.raises(SystemExit) as info:
            main(["--config", write_config(), "bench", "--table", str(missing), "--iters", "0"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert err.rstrip().endswith("error: n_iters must be a whole number >= 1, got 0")
        assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["inspect"],
    ["simulate", "--mode", "table", "--out", "run.csv", "--table"],
    ["bench", "--iters", "5", "--table"],
], ids=["inspect", "simulate", "bench"])
def test_refined_table_file_exit_8(capsys, write_config, tmp_path, monkeypatch, command):
    # a tree written through the library: the CLI flies and inspects flat tables only
    monkeypatch.chdir(tmp_path)
    cfg = write_config()
    config = load_config(cfg)
    armctl.save_file(armctl.refine(config.geometry, config.masses, config.weights,
                                   (config.grid.lo, config.grid.hi), 0.4, 2), "refined.agt")
    code, out, err = run_cli(capsys, "--config", cfg, *command, "refined.agt")
    assert code == 8 and out == ""
    assert err == ("error: refined.agt is a refined (tree) table, which is retired: "
                   "rebuild it as a flat grid with precompute\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["arm.json", "refined.agt"]
