"""Capture the reference reports the correctness gate compares against.

    python3 perfbench/capture_reference.py [WORKLOAD ...]

Runs each command of each named workload (default: all) once at the
reference seed and writes its CSV to ``perfbench/reference/<workload>/``.
Recapture only when a change to the reports is deliberate, and say why.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import run


def capture(workload: run.Workload) -> None:
    cli = run.import_cli()
    run.OUT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="capture-", dir=run.OUT))
    try:
        runner = run.CommandRunner(cli, workload, run.REFERENCE_SEED, out)
        workload.reference.mkdir(parents=True, exist_ok=True)
        for command in run.COMMANDS:
            runner.run(command)
            record = runner.records[command]
            if record.csv_text is None:
                raise SystemExit(f"{workload.name} {command}: {record.error}")
            (workload.reference / f"{command}.csv").write_text(record.csv_text)
    finally:
        shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(run.WORKLOADS):
        capture(run.Workload(name, run.WORKLOADS[name][0], run.HERE / "reference" / name))
