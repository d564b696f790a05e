"""Benchmark of the poincheck CLI: time to finished reports, per command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src``.  Every workload runs ``verify``, ``sharp`` and
``sweep`` through ``poincheck.cli.main`` in this one process, with BLAS
pinned to one thread, and writes the reports under ``perfbench/_out``.

``--trace 0`` measures the end-to-end metrics: the median of
``SETUP_REPEATS`` cold starts of a fresh interpreter (``setup_s``), then
rounds of the three commands until ``--seconds`` are used (a command is
skipped once a call of typical length would overrun), each command
repeated within a round until it has run for at least ``MIN_ROUND_S``.
On a shared host the same call runs up to 1.6 times slower in spells,
with CPU time equal to wall time, so every timed interval is scaled to a
fixed host speed by the probe of ``speed.py``, sampled all through it in
the timed process.  Each command's time is the median over rounds of its
mean call time so scaled; every raw call time is printed with the result.
``--trace 1`` runs each command once untraced and once under the layer
trace of ``tracing.py``, and reports the per-layer metrics.

Every report is checked (see ``gate.py``): repeated and traced calls must
write byte-identical reports, no row may fail, and at the reference seed
the CSVs must match ``perfbench/reference/<workload>``.  The last line of
standard output is the JSON result; the line before it records the
environment and every call's time.  The exit code is 1 when the gate
fails and 2 when the workload cannot run at all.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy

import gate
import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
COMMANDS = ("verify", "sharp", "sweep")
REFERENCE_SEED = 2024
SETUP_REPEATS = 10
MIN_ROUND_S = 1.0

# Why each workload exists is recorded in BENCHMARK.json.  The second
# value is the share of the host's speed that ``speed.scale`` takes from
# dense matrix-vector products: none for the 1-d demo, whose time is
# interpreter overhead, and half for the 2-d workloads, whose dense
# operators do not fit in one core's L2 cache.  Those shares gave the
# steadiest times over runs of five seeds of each workload.
WORKLOADS = {
    "demo-1d": (ROOT / "configs" / "demo.json", 0.0),
    "ball2d-p2": (HERE / "workloads" / "ball2d-p2.json", 0.5),
    "ball2d-p1": (HERE / "workloads" / "ball2d-p1.json", 0.5),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "verify_s": "s",
    "sharp_s": "s",
    "sweep_s": "s",
    "peak_rss_mb": "MB",
}

# A fresh interpreter imports poincheck and loads the config under the
# speed sampler, and prints the samples.
SETUP_CODE = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import speed
with speed.Sampler(interval=speed.SETUP_INTERVAL_S) as sampler:
    import poincheck.cli
    poincheck.cli.load_config(sys.argv[3])
print(json.dumps(sampler.samples))
"""


class WorkloadError(Exception):
    """The workload cannot run from this directory."""


@dataclass
class Workload:
    name: str
    config: Path
    reference: Path
    matvec_share: float = 0.0


@dataclass
class CommandRecord:
    """Calls of one command: times, the first reports, and what went wrong."""

    times: list = field(default_factory=list)
    csv_text: str | None = None
    json_text: str | None = None
    digest: str | None = None
    error: str | None = None
    nondeterministic: bool = False


def import_cli():
    """``poincheck.cli`` from this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import poincheck.cli
    except ImportError as exc:
        raise WorkloadError(f"cannot import poincheck from {SRC}: {exc}") from exc
    if not Path(poincheck.cli.__file__).resolve().is_relative_to(SRC):
        raise WorkloadError(f"poincheck was imported from outside {SRC}")
    return poincheck.cli


def expected_rows(workload: Workload) -> dict[str, int]:
    """Row count of each command's report; it does not depend on the seed."""
    counts = {}
    for command in COMMANDS:
        path = workload.reference / f"{command}.csv"
        if not path.is_file():
            raise WorkloadError(f"missing reference report {path}")
        counts[command] = path.read_text().count("\n") - 1
    return counts


class CommandRunner:
    """Times CLI calls of one workload and keeps what they wrote."""

    def __init__(self, cli, workload: Workload, seed: int, out: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.out = out
        config = cli.load_config(workload.config)
        self.report_names = (config.csv_name, config.json_name)
        self.records = {command: CommandRecord() for command in COMMANDS}

    def run(self, command: str) -> float:
        """One timed call; keeps its first reports and compares later ones."""
        record = self.records[command]
        out_dir = self.out / command
        if out_dir.exists():
            shutil.rmtree(out_dir)
        argv = ["--config", str(self.workload.config), "--out", str(out_dir), "--seed", str(self.seed)]
        start = perf_counter()
        try:
            code = self.cli.main([command, *argv])
        except Exception as exc:  # a crashing command fails its rows, not the benchmark
            elapsed = perf_counter() - start
            code, reason = 2, f"raised {exc!r}"
        else:
            elapsed = perf_counter() - start
            reason = f"exited {code}"
        record.times.append(elapsed)
        if code not in (0, 1):
            record.error = record.error or f"{command} {reason}"
            return elapsed
        csv_bytes, json_bytes = ((out_dir / name).read_bytes() for name in self.report_names)
        digest = hashlib.sha256(csv_bytes + b"\0" + json_bytes).hexdigest()
        if record.digest is None:
            record.csv_text, record.json_text = csv_bytes.decode(), json_bytes.decode()
            record.digest = digest
        elif digest != record.digest:
            record.nondeterministic = True
        return elapsed


def check_reports(workload, seed, records, rows) -> tuple[int, list[str]]:
    """Failed rows and every problem the correctness gate finds."""
    failed = 0
    problems = []
    for command in COMMANDS:
        record = records[command]
        if record.error or record.csv_text is None:
            failed += rows[command]
            problems.append(record.error or f"{command} wrote no report")
            continue
        _, report_rows = gate.parse_rows(record.csv_text)
        failed += gate.count_failed(report_rows)
        problems += gate.check_json(command, report_rows, record.json_text)
        if record.nondeterministic:
            problems.append(f"{command}: repeated calls wrote different reports")
        if seed == REFERENCE_SEED:
            reference = (workload.reference / f"{command}.csv").read_text()
            problems += gate.compare_to_reference(command, reference, record.csv_text)
    if failed:
        problems.append(f"{failed} of {sum(rows.values())} rows failed")
    return failed, problems


def measure_setup(config: Path) -> tuple[float, list]:
    """Median wall time, at the reference speed, of a fresh interpreter
    importing poincheck and loading the config; also each start's raw time."""
    raw, times = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(HERE), str(SRC), str(config)],
            check=True,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        elapsed = perf_counter() - start
        raw.append(elapsed)
        times.append(speed.scale(elapsed, json.loads(child.stdout), matvec_share=0.0))
    return statistics.median(times), raw


def measure_end_to_end(runner: CommandRunner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, and for the printed detail each cold start's raw
    time and each round's mean call time at the reference speed."""
    setup_s, setup_raw = measure_setup(runner.workload.config)
    times = {command: runner.records[command].times for command in COMMANDS}
    rounds = {command: [] for command in COMMANDS}
    start = perf_counter()
    while True:
        ran = False
        for command in COMMANDS:
            if times[command] and perf_counter() - start + statistics.median(times[command]) > seconds:
                continue
            ran = True
            calls = []
            with speed.Sampler() as sampler:
                while sum(calls) < MIN_ROUND_S:
                    calls.append(runner.run(command))
            own_s = speed.scale(sum(calls), sampler.samples, runner.workload.matvec_share)
            rounds[command].append(own_s / len(calls))
        if not ran:
            break
    metrics = {"setup_s": setup_s}
    for command in COMMANDS:
        metrics[f"{command}_s"] = statistics.median(rounds[command])
    peak_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - speed.RESIDENT_BYTES
    metrics["peak_rss_mb"] = peak_bytes / 2**20
    return metrics, {"setup_raw_s": setup_raw, "scaled_rounds_s": rounds}


def measure_layers(runner: CommandRunner) -> dict:
    untraced = {command: runner.run(command) for command in COMMANDS}
    tracer = tracing.Tracer()
    traced = {}
    runner_self = 0.0
    tracer.install()
    try:
        for command in COMMANDS:
            covered = tracer.top_s
            traced[command] = runner.run(command)
            runner_self += traced[command] - (tracer.top_s - covered)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["runner.self_s"] = runner_self
    metrics["trace_overhead_s"] = sum(traced.values()) - sum(untraced.values())
    return metrics


def per_layer_units() -> dict[str, str]:
    return {**tracing.metric_units(), "runner.self_s": "s", "trace_overhead_s": "s"}


def git_revision() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_revision": git_revision(),
        "seed": seed,
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result the benchmark prints."""
    if not workload.config.is_file():
        raise WorkloadError(f"missing workload config {workload.config}")
    rows = expected_rows(workload)
    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        runner = CommandRunner(cli, workload, seed, out)
        if trace:
            metrics, units, timing = measure_layers(runner), per_layer_units(), {}
        else:
            (metrics, timing), units = measure_end_to_end(runner, seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(out, ignore_errors=True)
    records = runner.records
    failed, problems = check_reports(workload, seed, records, rows)
    return {
        "detail": {
            "workload": workload.name,
            "environment": environment(seed),
            "times_s": {command: records[command].times for command in COMMANDS},
            **timing,
            "problems": problems,
        },
        "result": {
            "correct": not problems,
            "attempted": sum(rows.values()),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
    }


def print_outcome(outcome: dict) -> None:
    for problem in outcome["detail"]["problems"]:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps(outcome["detail"]))
    print(json.dumps(outcome["result"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    config, matvec_share = WORKLOADS[args.workload]
    workload = Workload(args.workload, config, HERE / "reference" / args.workload, matvec_share)
    try:
        outcome = measure(workload, args.seed, args.seconds, bool(args.trace))
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_outcome(outcome)
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
