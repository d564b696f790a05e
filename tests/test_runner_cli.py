import csv
import ctypes
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import poincheck.cli
import poincheck.runner
import poincheck.sharp
from poincheck.cli import build_parser, main, pin_malloc_thresholds
from poincheck.config import CHECK_NAMES, ConfigError, parse_config
from poincheck.runner import _PROFILE_CHECKS, SWEEP_COLUMNS, run_sharp, run_sweep, run_verify
from poincheck.sharp import EigenConvergenceError

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def full_doc(**overrides):
    doc = {
        "dimension": 1,
        "grid_sizes": [16],
        "p_values": [2.0],
        "weights": [
            {"type": "step", "breakpoints": [], "values": [1.0]},
            {"type": "step", "breakpoints": [0.75], "values": [2.0, 1.0]},
        ],
        "kernels": [
            {"kind": "fractional", "s": 0.5},
            {"kind": "constant_floor", "c": 1.0},
        ],
        "checks": [
            "transfer",
            "gradient",
            "kernel",
            "kernel_floor",
            "fractional_truncated",
            "truncation",
            "shift",
        ],
        "sweep": {"s": [0.5, 0.8], "R": [1, 2]},
        "suite": {"seed": 11, "count": 4},
    }
    doc.update(overrides)
    return doc


def test_run_verify_row_counts(tmp_path):
    cfg = parse_config(full_doc())
    result = run_verify(cfg, tmp_path)
    # per profile: 4 transfer + 4 gradient + 4 kernel + 4 floor + 16 ckk-type
    # plus per (N,p): 16 truncation + 4 shift
    assert len(result.rows) == 2 * (4 + 4 + 4 + 4 + 16) + 16 + 4
    assert result.all_passed
    with open(result.csv_path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(result.rows)
    payload = json.loads(Path(result.json_path).read_text())
    assert len(payload) == len(result.rows)
    assert all("metadata" in entry for entry in payload)


def test_run_verify_empty_checks(tmp_path):
    cfg = parse_config(full_doc(checks=[]))
    result = run_verify(cfg, tmp_path)
    assert result.rows == []
    assert result.all_passed


def test_run_verify_deterministic_bytes(tmp_path):
    cfg = parse_config(full_doc())
    a = run_verify(cfg, tmp_path / "a")
    b = run_verify(cfg, tmp_path / "b")
    assert Path(a.csv_path).read_bytes() == Path(b.csv_path).read_bytes()
    assert Path(a.json_path).read_bytes() == Path(b.json_path).read_bytes()


def test_run_verify_seed_changes_output(tmp_path):
    a = run_verify(parse_config(full_doc()), tmp_path / "a")
    doc = full_doc()
    doc["suite"]["seed"] = 12
    b = run_verify(parse_config(doc), tmp_path / "b")
    assert Path(a.csv_path).read_bytes() != Path(b.csv_path).read_bytes()


def test_run_verify_kernel_check_requires_fractional_kernel(tmp_path):
    doc = full_doc(kernels=[{"kind": "constant_floor", "c": 1.0}], checks=["kernel"])
    with pytest.raises(ConfigError, match="fractional"):
        run_verify(parse_config(doc), tmp_path)


def test_run_verify_kernel_floor_check_requires_floor_kernel(tmp_path):
    doc = full_doc(kernels=[{"kind": "fractional", "s": 0.5}], checks=["kernel_floor"])
    with pytest.raises(ConfigError, match="kernel_floor check requires a constant_floor"):
        run_verify(parse_config(doc), tmp_path)
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize("check", CHECK_NAMES)
def test_each_check_name_yields_its_rows(check, tmp_path):
    doc = full_doc(checks=[check], sweep={"s": [0.5], "R": [1]})
    doc["suite"]["count"] = 2
    result = run_verify(parse_config(doc), tmp_path)
    assert result.rows
    assert {row["check_id"] for row in result.rows} == {check}


def test_check_table_covers_check_names():
    names = set(_PROFILE_CHECKS) | {"truncation", "shift"}
    assert names == set(CHECK_NAMES)


def test_run_verify_freezes_kernel_constants_only_for_kernel_check(tmp_path, monkeypatch):
    calls = []
    energy = poincheck.runner.kernel_energy

    def counted(*args, **kwargs):
        calls.append(args)
        return energy(*args, **kwargs)

    monkeypatch.setattr(poincheck.runner, "kernel_energy", counted)
    run_verify(parse_config(full_doc(checks=["transfer"])), tmp_path / "transfer")
    assert calls == []
    run_verify(parse_config(full_doc(checks=["kernel"])), tmp_path / "kernel")
    assert calls


def test_run_verify_failure_sets_flag(tmp_path):
    # The known truncation failure on coarse grids (its bare lattice sums
    # omit the pair mass inside single cells): at 1-d N = 64, p = 1,
    # s = 0.8, R = 5 ratios reach 1.18, past the 5% allowance.  Once the
    # check adds that mass (ROADMAP item 3), this test needs another
    # failing corner.
    doc = full_doc(
        checks=["truncation"],
        p_values=[1.0],
        sweep={"s": [0.8], "R": [5]},
        grid_sizes=[64],
    )
    result = run_verify(parse_config(doc), tmp_path)
    assert not result.all_passed


def test_run_sharp_rows_and_convergence(tmp_path):
    doc = full_doc(
        grid_sizes=[16, 32, 64],
        kernels=[],
        checks=[],
        weights=[{"type": "step", "breakpoints": [], "values": [1.0]}],
    )
    result = run_sharp(parse_config(doc), tmp_path)
    grad = [r for r in result.rows if r["target"] == "gradient"]
    assert [r["N"] for r in grad] == [16, 32, 64]
    lams = [r["eigenvalue"] for r in grad]
    target = np.pi**2 / 4
    errs = [abs(l - target) for l in lams]
    assert errs[2] < errs[1] < errs[0]
    assert result.all_passed
    for row in result.rows:
        assert row["gap_factor"] >= 1.0


def test_run_sharp_ascent_rows_for_general_p(tmp_path):
    doc = full_doc(grid_sizes=[16], p_values=[1.0], kernels=[], checks=[])
    doc["ascent"] = {"steps": 5}
    result = run_sharp(parse_config(doc), tmp_path)
    methods = {r["method"] for r in result.rows}
    assert methods == {"ascent"}
    assert result.all_passed


def test_run_sharp_kernel_targets(tmp_path):
    doc = full_doc(grid_sizes=[16], checks=[])
    result = run_sharp(parse_config(doc), tmp_path)
    kinds = {r["target"] for r in result.rows}
    assert kinds == {"transfer", "gradient", "kernel"}
    assert result.all_passed


def test_run_sweep_rows(tmp_path):
    doc = full_doc(grid_sizes=[32], weights=[{"type": "step", "breakpoints": [], "values": [1.0]}])
    result = run_sweep(parse_config(doc), tmp_path)
    assert len(result.rows) == 4  # 2 s values x 2 R values
    assert result.all_passed
    with open(result.csv_path) as handle:
        header = handle.readline().strip().split(",")
    assert header == list(SWEEP_COLUMNS)
    for row in result.rows:
        assert row["scaled_energy"] == pytest.approx(
            (1.0 - row["s"]) * row["fractional_energy"], rel=1e-12
        )
        assert row["gradient_limit_ratio"] > 0.0


def test_cli_verify_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(full_doc(checks=["transfer"], grid_sizes=[16])))
    code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "report.csv").exists()


def test_cli_nonzero_on_failing_rows(tmp_path, capsys):
    doc = full_doc(
        checks=["truncation"],
        p_values=[1.0],
        sweep={"s": [0.8], "R": [5]},
        grid_sizes=[64],
    )
    # The known truncation failure, as in test_run_verify_failure_sets_flag.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().err


class _Mallopt:
    """A C ``mallopt`` that records its calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


def _no_library(name):
    raise OSError("no C library")


def test_pin_malloc_thresholds_sets_both_and_repeats(monkeypatch):
    mallopt = _Mallopt()
    monkeypatch.setattr(poincheck.cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    pin_malloc_thresholds()
    pin_malloc_thresholds()
    # M_MMAP_THRESHOLD = 32 MiB, M_TRIM_THRESHOLD = 64 MiB, each time
    assert mallopt.calls == [(-3, 32 << 20), (-1, 64 << 20)] * 2
    assert mallopt.restype is ctypes.c_int


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_library, None])
def test_cli_runs_whether_or_not_malloc_can_be_pinned(tmp_path, monkeypatch, cdll):
    # No mallopt, no C library, and the real one pinned twice over.
    if cdll is None:
        pin_malloc_thresholds()
    else:
        monkeypatch.setattr(poincheck.cli.ctypes, "CDLL", cdll)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(full_doc(checks=["transfer"], grid_sizes=[16])))
    code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 0


def test_cli_invalid_config_exit_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(full_doc(grid_sizes=[])))
    code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "grid_sizes" in capsys.readouterr().err


def test_cli_io_errors_exit_two(tmp_path, capsys):
    # A missing config file, and an output directory under a regular file.
    code = main(["verify", "--config", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(full_doc(checks=["shift"], grid_sizes=[16])))
    code = main(["verify", "--config", str(cfg_path), "--out", str(cfg_path / "out")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,count",
    [("verify", 3), ("verify", 4), ("sharp", 3)],
    ids=["verify-c-hat", "verify-suite-eigen-member", "sharp-paper-constants"],
)
def test_cli_eigensolve_failure_outside_a_sharp_row_exits_two(
    command, count, tmp_path, capsys, monkeypatch
):
    # Suite members 0-2 are affine, bump and random; member 3 is the
    # eigenfunction.  ĉ at p = 2 and the eigen member both solve pencils
    # outside any sharp row, so their failure is an error, not a row.
    def no_convergence(pair, **kwargs):
        raise EigenConvergenceError("no convergence after 200 iterations", 0.1)

    monkeypatch.setattr(poincheck.sharp, "smallest_nonzero_eigen", no_convergence)
    doc = full_doc(checks=["gradient"], suite={"seed": 11, "count": count})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: no convergence after 200 iterations\n"


def test_cli_schema_prints_valid_json(capsys):
    assert main(["schema"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["title"].startswith("poincheck")


def test_cli_seed_override_changes_rows(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(full_doc(checks=["transfer"], grid_sizes=[16])))
    main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "123"])
    a = (tmp_path / "a" / "report.csv").read_bytes()
    b = (tmp_path / "b" / "report.csv").read_bytes()
    assert a != b


def test_cli_sharp_writes_trace(tmp_path):
    # Every eigen row has its Ritz steps in trace.csv; a p != 2 config has
    # only ascent rows, and its trace only the header.
    for p, eigen_rows in ((2.0, 2), (1.0, 0)):
        doc = full_doc(grid_sizes=[16], p_values=[p], kernels=[], checks=[],
                       weights=[{"type": "step", "breakpoints": [], "values": [1.0]}])
        doc["ascent"] = {"steps": 2}
        cfg_path = tmp_path / f"cfg{p}.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / f"out{p}"
        assert main(["sharp", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "report.csv") as handle:
            sharp_rows = [r for r in csv.DictReader(handle) if r["method"] == "eigen"]
        with open(out / "trace.csv") as handle:
            reader = csv.DictReader(handle)
            trace = list(reader)
        assert {"iteration", "eigenvalue", "residual"} <= set(reader.fieldnames)
        assert len(sharp_rows) == eigen_rows
        for row in sharp_rows:
            steps = [t for t in trace if t["target"] == row["target"]]
            assert steps and steps[-1]["eigenvalue"] == row["eigenvalue"]
        assert bool(trace) == bool(eigen_rows)


def test_cli_and_runner_option_inventory():
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    for name in ("verify", "sharp", "sweep"):
        flags = {
            flag for action in commands[name]._actions
            for flag in action.option_strings if flag not in ("-h", "--help")
        }
        assert flags == {"--config", "--out", "--seed"}, name
    for run in (run_verify, run_sharp, run_sweep):
        assert list(inspect.signature(run).parameters) == ["config", "out_dir"]


def test_demo_reports_match_benchmark_reference(tmp_path):
    # Every command of the 1-d demo, and the sweeps of the two 2-d
    # workloads (about 1.5 s together); the 2-d verify and sharp runs take
    # seconds each and are left to the benchmark gate.
    workloads = ROOT / "perfbench" / "workloads"
    runs = [("demo-1d", ROOT / "configs" / "demo.json", command)
            for command in ("verify", "sharp", "sweep")]
    runs += [(name, workloads / f"{name}.json", "sweep") for name in ("ball2d-p1", "ball2d-p2")]
    for workload, config, command in runs:
        reference = ROOT / "perfbench" / "reference" / workload / f"{command}.csv"
        out = tmp_path / workload / command
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        assert (out / "report.csv").read_bytes() == reference.read_bytes(), (
            f"the {workload} {command} report differs from {reference}; "
            "if the change is deliberate, recapture it with perfbench/capture_reference.py"
        )


def test_ball2d_n16_reports_match_golden(tmp_path):
    # The 2-d workload at N = 16 with p = 1 (two ascent steps) and p = 2,
    # small enough for tier-1: every command and the sharp trace.  To
    # recapture after a deliberate change, run each command with
    # ``--config tests/golden/ball2d-n16.json`` and copy its report.csv
    # (and the sharp trace.csv) over the file of the same command.
    golden = ROOT / "tests" / "golden"
    config = golden / "ball2d-n16.json"
    for command in ("verify", "sharp", "sweep"):
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        files = [("report.csv", f"{command}.csv")]
        if command == "sharp":
            files.append(("trace.csv", "trace.csv"))
        for produced, name in files:
            reference = golden / "ball2d-n16" / name
            assert (out / produced).read_bytes() == reference.read_bytes(), (
                f"the ball2d-n16 {command} {produced} differs from {reference}"
            )


def test_blas_pinned_before_numpy_loads(tmp_path):
    # Any route into the package (the console script imports poincheck.cli)
    # runs poincheck/__init__ first; numpy must not load before it pins BLAS.
    code = textwrap.dedent(
        """
        import os
        import sys

        class Guard:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
                    raise ImportError("numpy imported before BLAS was pinned")
                return None

        sys.meta_path.insert(0, Guard())
        import poincheck.cli
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            print(os.environ[var])
        """
    )
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(Path(poincheck.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "1", "1"]


def test_runs_without_jsonschema(tmp_path):
    # jsonschema is a test dependency only: configs are checked by the
    # package's own interpreter of CONFIG_SCHEMA, so a run must neither
    # need nor load it.
    code = textwrap.dedent(
        """
        import sys

        class Guard:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] == "jsonschema":
                    raise ImportError("jsonschema is not a runtime dependency")
                return None

        sys.meta_path.insert(0, Guard())
        from poincheck.cli import main
        status = main(sys.argv[1:])
        loaded = {"jsonschema", "referencing", "attrs"} & set(sys.modules)
        assert not loaded, loaded
        sys.exit(status)
        """
    )
    config = ROOT / "tests" / "golden" / "ball2d-n16.json"
    args = ["verify", "--config", str(config), "--seed", "733", "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(Path(poincheck.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "report.csv").is_file()
