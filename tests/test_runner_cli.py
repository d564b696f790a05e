import csv
import ctypes
import importlib.util
import inspect
import json
import os
import pkgutil
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
from poincheck.config import CHECK_NAMES, ConfigError, load_config, parse_config
from poincheck.forms import KIND_FLOOR, KIND_LOCAL, KernelSpec, kernel_energy, local_energy
from poincheck.grid import ball_cells, build_grid, deviation_p, full_cells
from poincheck.inequalities import write_json
from poincheck.runner import (
    _ASCENT_STEP_SIZE,
    _PROFILE_CHECKS,
    SWEEP_COLUMNS,
    _ascent_functionals,
    _cases,
    _constant,
    _union_atom_radii,
    run_sharp,
    run_sweep,
    run_verify,
)
from poincheck.sharp import (
    EigenConvergenceError,
    assemble_p2,
    assemble_transfer_p2,
    estimate_gradient_constant,
    pencil_eigen,
    ratio_ascent,
    smallest_nonzero_eigen,
)

from poincheck.weights import eval_weight

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
    # check adds that mass (ROADMAP item 7), this test needs another
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


@pytest.mark.parametrize("branch", [
    "frozen-eigen", "frozen-suite-gradient", "frozen-suite-kernel",
    "sharp-transfer-eigen", "sharp-kernel-eigen", "sharp-transfer-ascent", "sharp-gradient-ascent",
])
def test_constant_branch_matches_its_direct_call(branch):
    doc = full_doc(p_values=[1.0, 2.0])
    doc["ascent"] = {"steps": 3}
    config = parse_config(doc)
    radii = _union_atom_radii(config)
    case1, case2 = _cases(config, 16, radii)
    grid, local, kernel, profile = case2.grid, KernelSpec(KIND_LOCAL), config.kernels[0], config.profiles[1]

    def suite_maximum(case, energy, scale):
        return max(
            deviation_p(u, ball_cells(grid, t), case.p) / (scale(t) * energy(u, ball_cells(grid, t)))
            for u in case.suite for t in radii
        )

    def ascent(rhs_of):
        functionals = _ascent_functionals(grid, profile, 1.0)
        return ratio_ascent(
            grid, functionals[0], rhs_of(functionals), case1.suite[0],
            config.ascent_steps, _ASCENT_STEP_SIZE, weight=profile,
        )[0]

    def gradient_energy(u, cells):
        return local_energy(u, cells, 1.0)

    def kernel_energy_2(u, cells):
        return kernel_energy(u, cells, kernel, 2.0)

    def transfer_eigen():
        return 1.0 / smallest_nonzero_eigen(assemble_transfer_p2(grid, profile))[0]

    def kernel_eigen():
        return 1.0 / pencil_eigen(full_cells(grid), kernel, profile)[0]

    branches = {  # (_constant arguments, direct call, method)
        "frozen-eigen": ((case2, local), lambda: estimate_gradient_constant(grid, radii), "eigen"),
        "frozen-suite-gradient": (
            (case1, local, None, lambda t: t),
            lambda: suite_maximum(case1, gradient_energy, lambda t: t), "suite",
        ),
        "frozen-suite-kernel": (
            (case2, kernel), lambda: suite_maximum(case2, kernel_energy_2, lambda t: 1.0), "suite",
        ),
        "sharp-transfer-eigen": ((case2, None, profile), transfer_eigen, "eigen"),
        "sharp-kernel-eigen": ((case2, kernel, profile), kernel_eigen, "eigen"),
        "sharp-transfer-ascent": ((case1, None, profile), lambda: ascent(lambda f: f[1]), "ascent"),
        "sharp-gradient-ascent": ((case1, local, profile), lambda: ascent(lambda f: f[2]), "ascent"),
    }
    args, direct, method = branches[branch]
    constant = _constant(*args)
    assert constant.value == direct()
    assert constant.method == method
    if method == "eigen" and len(args) == 3:
        assert constant.value == 1.0 / constant.eigenvalue
        assert constant.trace and constant.trace[-1][1] == constant.eigenvalue


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


def test_cli_sharp_transfer_eigensolve_failure_is_a_failing_row(tmp_path, monkeypatch, capsys):
    # A transfer pencil whose solve does not converge gives a failing eigen
    # row with the solver's residual and no trace rows; every other row and
    # trace row is the one of a run in which it converges.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(full_doc(checks=[])))

    def run(out):
        code = main(["sharp", "--config", str(cfg_path), "--out", str(out)])
        tables = []
        for name in ("report.csv", "trace.csv"):
            with open(out / name) as handle:
                tables.append(list(csv.DictReader(handle)))
        return code, *tables

    def no_convergence(pair, **kwargs):
        raise EigenConvergenceError("no convergence after 200 iterations", 0.25)

    code, rows, trace = run(tmp_path / "converged")
    assert code == 0
    monkeypatch.setattr(poincheck.runner, "smallest_nonzero_eigen", no_convergence)
    code, failed_rows, failed_trace = run(tmp_path / "failed")
    assert code == 1

    def other(table):
        return [r for r in table if r["target"] != "transfer"]

    failed = [r for r in failed_rows if r["target"] == "transfer"]
    assert len(failed) == 2  # one per profile
    for row, converged in zip(failed, [r for r in rows if r["target"] == "transfer"]):
        assert row["method"] == "eigen"
        assert row["eigenvalue"] == row["empirical_constant"] == row["gap_factor"] == ""
        assert row["residual"] == "0.25"
        assert row["pass"] == "false"
        assert row["paper_constant"] == converged["paper_constant"]
    assert other(failed_rows) == other(rows)
    assert len(other(trace)) < len(trace)
    assert failed_trace == other(trace)


def test_cli_sharp_failed_eigensolves_keep_their_trace_rows(tmp_path, monkeypatch):
    # 2-d N = 20 (316 cells), past the solver's crossover.  The sharp
    # pencils that still iterate, the weighted gradient pencils (block
    # iteration) and the formed fractional ones (Lanczos), are held to a
    # tolerance no solve meets, in 3 steps: each of their rows fails with
    # the residual of its last trace row, and its 3 trace rows are written.
    # The transfer and floor pencils are solved exactly, one trace row
    # each.  The other rows and their trace rows are those of a run in
    # which every solve converges.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(full_doc(dimension=2, grid_sizes=[20], checks=[])))

    def run(out):
        code = main(["sharp", "--config", str(cfg_path), "--out", str(out)])
        tables = []
        for name in ("report.csv", "trace.csv"):
            with open(out / name) as handle:
                tables.append(list(csv.DictReader(handle)))
        return code, *tables

    def forced(cells, kernel, weight):
        # the runner's sharp targets only: the frozen ĉ keeps its solves
        if kernel.kind == KIND_FLOOR:
            return pencil_eigen(cells, kernel, weight)
        smallest_nonzero_eigen(assemble_p2(cells.grid, cells, kernel, weight), tol=0.0, max_iter=3)
        raise AssertionError("a solve held to tol = 0 converged")

    code, rows, trace = run(tmp_path / "converged")
    assert code == 0
    exact = [t for t in trace if t["target"] == "transfer" or "constant_floor" in t["kernel"]]
    assert len(exact) == 4 and all(t["iteration"] == "1" for t in exact)
    monkeypatch.setattr(poincheck.runner, "pencil_eigen", forced)
    code, failed_rows, failed_trace = run(tmp_path / "failed")
    assert code == 1

    def key(row):
        return tuple(row[c] for c in ("d", "N", "p", "profile", "target", "kernel"))

    def forced_row(row):
        return row["target"] == "gradient" or '"fractional"' in row["kernel"]

    failed = [r for r in failed_rows if forced_row(r)]
    assert len(failed) == 4  # gradient and fractional kernel, one per profile
    for row in failed:
        steps = [t for t in failed_trace if key(t) == key(row)]
        assert [t["iteration"] for t in steps] == ["1", "2", "3"]
        assert row["pass"] == "false" and row["eigenvalue"] == ""
        assert row["residual"] == steps[-1]["residual"] != ""
    assert [r for r in failed_rows if not forced_row(r)] == [
        r for r in rows if not forced_row(r)
    ]
    assert [t for t in failed_trace if not forced_row(t)] == [
        t for t in trace if not forced_row(t)
    ]


def test_cli_sharp_weight_vanishing_on_a_cell_is_a_failing_row(tmp_path, capsys):
    # step([0.75], [1, 0]) is zero on the outer shell of the 1-d N = 32
    # ball, so its p = 2 pencils have no positive mass diagonal: each of its
    # eigen rows fails with no value and no residual, and the run exits 1.
    # Its p = 1 ascent rows pass, and the rows and trace rows of the unit
    # weight are those of a run beside a weight with the same atom radii.
    doc = json.loads((ROOT / "configs" / "demo.json").read_text())
    unit = {"type": "step", "breakpoints": [], "values": [1.0]}

    def run(name, values):
        weights = [unit, {"type": "step", "breakpoints": [0.75], "values": values}]
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(dict(doc, grid_sizes=[32], weights=weights)))
        code = main(["sharp", "--config", str(cfg_path), "--out", str(tmp_path / name)])
        tables = []
        for table in ("report.csv", "trace.csv"):
            with open(tmp_path / name / table) as handle:
                rows = csv.DictReader(handle)
                tables.append([r for r in rows if r["profile"] == "step(b=[];v=[1.0])"])
        return code, *tables

    code, *reference = run("positive", [2.0, 1.0])
    assert code == 0
    capsys.readouterr()
    code, *unit_tables = run("vanishing", [1.0, 0.0])
    assert code == 1
    assert capsys.readouterr().err == "FAIL: 4 of 12 rows failed\n"
    assert unit_tables == reference
    with open(tmp_path / "vanishing" / "report.csv") as handle:
        cut_rows = [r for r in csv.DictReader(handle) if r["profile"] != "step(b=[];v=[1.0])"]
    assert [(r["p"], r["target"]) for r in cut_rows] == [
        ("1.0", "transfer"), ("1.0", "gradient"),
        ("2.0", "transfer"), ("2.0", "gradient"), ("2.0", "kernel"), ("2.0", "kernel"),
    ]
    for row in cut_rows:
        if row["p"] == "1.0":
            assert row["method"] == "ascent" and row["pass"] == "true"
            continue
        assert row["method"] == "eigen" and row["pass"] == "false"
        assert row["eigenvalue"] == row["empirical_constant"] == row["gap_factor"] == ""
        assert row["residual"] == ""
        assert float(row["paper_constant"]) > 0.0
    with open(tmp_path / "vanishing" / "trace.csv") as handle:
        assert [r for r in csv.DictReader(handle)] == reference[1]


@pytest.mark.parametrize(
    "command,checks,code",
    [("verify", ["kernel"], 2), ("sharp", [], 2), ("verify", [], 0)],
    ids=["verify-kernel", "sharp", "verify-no-checks"],
)
def test_cli_vanishing_kernel_energy_aborts_the_run(command, checks, code, tmp_path, capsys):
    # Pins a known defect, kept visible until a frozen constant that cannot
    # be computed becomes failing rows: at R = 40 the truncated kernel
    # reaches no pair of the 1-d N = 32 grid (1/R < h = 1/16), so freezing
    # its constant stops the whole run with exit 2.  verify freezes it for
    # the kernel check only; sharp for its kernel paper constants always.
    doc = json.loads((ROOT / "configs" / "demo.json").read_text())
    doc.update(kernels=[{"kind": "fractional", "s": 0.5, "R": 40}], grid_sizes=[32], checks=checks)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == code
    if code == 2:
        assert capsys.readouterr().err == (
            "error: energy vanishes on ball t=0.5625 for a nonconstant suite function; "
            "the constant cannot be frozen\n"
        )


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


def _perfbench_gate():
    spec = importlib.util.spec_from_file_location("perfbench_gate", ROOT / "perfbench" / "gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_reports_match_benchmark_reference(tmp_path):
    # Every command of the 1-d demo, and the sweeps of the two 2-d
    # workloads (about 1.5 s together); the 2-d verify and sharp runs take
    # seconds each and are left to the benchmark gate.  The sweeps match
    # perfbench/reference byte for byte.  The demo verify and sharp reports
    # match tests/golden/demo-1d byte for byte, and perfbench/reference at
    # the gate's tolerance: their pencils are solved by LAPACK and the
    # shell reduction, the reference's by the block iteration.  To
    # recapture after a deliberate change, run the command with
    # ``--config configs/demo.json`` and copy its report.csv over the file
    # of the same command.
    workloads = ROOT / "perfbench" / "workloads"
    runs = [("demo-1d", ROOT / "configs" / "demo.json", command)
            for command in ("verify", "sharp", "sweep")]
    runs += [(name, workloads / f"{name}.json", "sweep") for name in ("ball2d-p1", "ball2d-p2")]
    gate = _perfbench_gate()
    for workload, config, command in runs:
        reference = ROOT / "perfbench" / "reference" / workload / f"{command}.csv"
        out = tmp_path / workload / command
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        report = (out / "report.csv").read_bytes()
        if command == "sweep":
            assert report == reference.read_bytes(), (
                f"the {workload} {command} report differs from {reference}; "
                "if the change is deliberate, recapture it with perfbench/capture_reference.py"
            )
            continue
        golden = ROOT / "tests" / "golden" / workload / f"{command}.csv"
        assert report == golden.read_bytes(), f"the {workload} {command} report differs from {golden}"
        assert gate.compare_to_reference(command, reference.read_text(), report.decode()) == []


def test_report_json_is_json_s_bytes(tmp_path, monkeypatch):
    # Every verify, sharp and sweep payload of the three benchmark
    # workloads, written by the report writer and by ``json`` (indent 1).
    payloads = []

    def recording(path, payload):
        payloads.append(payload)
        return write_json(path, payload)

    monkeypatch.setattr(poincheck.runner, "write_json", recording)
    workloads = ROOT / "perfbench" / "workloads"
    configs = [ROOT / "configs" / "demo.json", workloads / "ball2d-p2.json", workloads / "ball2d-p1.json"]
    for config in configs:
        for command in ("verify", "sharp", "sweep"):
            out = tmp_path / config.stem / command
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
            written = (out / "report.json").read_bytes()
            assert written == (json.dumps(payloads[-1], indent=1) + "\n").encode()
    assert len(payloads) == 9


def test_demo_weighs_each_cell_set_once_per_profile(monkeypatch, tmp_path):
    # grid.cell_weights alone evaluates a cell set's weights, once per grid,
    # cell set and profile: in a demo verify or sharp, the evaluations on
    # arrays of radii are as many as the keys of the built grids' memos.
    # Besides weights, which defines eval_weight, only grid binds it (and
    # the package, which exports it).
    modules = [
        importlib.import_module(f"poincheck.{info.name}")
        for info in pkgutil.iter_modules(poincheck.__path__)
    ]
    binders = [m.__name__ for m in modules if hasattr(m, "eval_weight")]
    assert sorted(binders) == ["poincheck.grid", "poincheck.weights"]
    evaluations, grids = [], []

    def counting(profile, radius):
        if np.ndim(radius):
            evaluations.append(profile)
        return eval_weight(profile, radius)

    def recording(*args):
        grids.append(build_grid(*args))
        return grids[-1]

    for module in (poincheck, *modules):
        if hasattr(module, "eval_weight"):
            monkeypatch.setattr(module, "eval_weight", counting)
    monkeypatch.setattr(poincheck.runner, "build_grid", recording)
    config = load_config(ROOT / "configs" / "demo.json")
    for run in (run_verify, run_sharp):
        evaluations.clear()
        grids.clear()
        run(config, tmp_path / run.__name__)
        keys = sum(len(grid._weights) for grid in grids)
        assert keys > 0
        assert len(evaluations) == keys, run.__name__


def _assert_reports_match_golden(tmp_path, config, name, commands):
    """Run each command on ``config`` and compare its report.csv, and the
    sharp trace.csv, with ``tests/golden/<name>`` byte for byte."""
    for command in commands:
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        files = [("report.csv", f"{command}.csv")]
        if command == "sharp":
            files.append(("trace.csv", "trace.csv"))
        for produced, golden in files:
            reference = ROOT / "tests" / "golden" / name / golden
            assert (out / produced).read_bytes() == reference.read_bytes(), (
                f"the {name} {command} {produced} differs from {reference}"
            )


def test_ball2d_n16_reports_match_golden(tmp_path):
    # The 2-d workload at N = 16 with p = 1 (two ascent steps) and p = 2,
    # small enough for tier-1: every command and the sharp trace.  To
    # recapture after a deliberate change, run each command with
    # ``--config tests/golden/ball2d-n16.json`` and copy its report.csv
    # (and the sharp trace.csv) over the file of the same command.
    config = ROOT / "tests" / "golden" / "ball2d-n16.json"
    _assert_reports_match_golden(tmp_path, config, "ball2d-n16", ("verify", "sharp", "sweep"))


def test_ball2d_p2_reports_match_golden(tmp_path):
    # The p = 2 benchmark workload at 2-d N = 32, the one tier-1 run of the
    # iterative eigensolves on reports: sharp solves 4 stencil pencils of
    # 448 and 812 cells by Lanczos on their banded factors, 3 formed
    # fractional pencils of 812 cells by Lanczos on their full factors and
    # 6 nested rank-one pencils of 812 cells by the shell reduction, and
    # verify the 448- and 812-cell stencils by Lanczos; both solve the
    # 812-cell eigen suite member by the block iteration.  To recapture
    # after a deliberate change, run verify and sharp with ``--config
    # perfbench/workloads/ball2d-p2.json`` and copy each report.csv (and
    # the sharp trace.csv) into tests/golden/ball2d-p2.
    config = ROOT / "perfbench" / "workloads" / "ball2d-p2.json"
    _assert_reports_match_golden(tmp_path, config, "ball2d-p2", ("verify", "sharp"))


def _source_env(**overrides):
    """This process's environment without the BLAS thread variables, with
    the package's source first on the path and ``overrides`` set."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(Path(poincheck.__file__).resolve().parents[1])
    env.update(overrides)
    return env


def test_blas_pinned_before_numpy_loads(tmp_path):
    # Any route into the package (the console script imports poincheck.cli)
    # runs poincheck/__init__ first; numpy must not load before it pins BLAS.
    # The pin wins over a thread count set in the environment.
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
    for env in (_source_env(), _source_env(**dict.fromkeys(THREAD_VARS, "2"))):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "1", "1"]


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # The LAPACK eigensolve's last bits follow the BLAS thread count; with
    # two threads asked for in the environment, the golden verify report
    # must still come out at the one pinned thread, byte for byte.
    config = ROOT / "tests" / "golden" / "ball2d-n16.json"
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "poincheck.cli", "verify", "--config", str(config), "--out", str(out)],
        cwd=tmp_path,
        env=_source_env(**dict.fromkeys(THREAD_VARS, "2")),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    golden = ROOT / "tests" / "golden" / "ball2d-n16" / "verify.csv"
    assert (out / "report.csv").read_bytes() == golden.read_bytes()


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
