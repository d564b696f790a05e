"""Rewrite every golden report under ``tests/golden`` from the current code.

    python3 tests/golden/recapture.py

Runs each command of each golden workload once at its config's seed and
writes ``<command>.csv`` (report.csv), ``trace.csv`` (the sharp trace) and,
for ball2d-n16, ``<command>.json`` (report.json) into
``tests/golden/<workload>/``.  It reads the ball2d-p2 benchmark workload's
config and writes nothing under ``perfbench``.  Recapture only when a
change to the reports is deliberate, and say why.
"""

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from poincheck.cli import main  # noqa: E402

# workload: (config, commands, whether report.json is kept, whether the
# sharp trace.csv is kept)
GOLDEN = {
    "demo-1d": (ROOT / "configs" / "demo.json", ("verify", "sharp"), False, False),
    "ball2d-n16": (HERE / "ball2d-n16.json", ("verify", "sharp", "sweep"), True, True),
    "ball2d-p2": (ROOT / "perfbench" / "workloads" / "ball2d-p2.json", ("verify", "sharp"), False, True),
}


def recapture(name: str) -> None:
    config, commands, keep_json, keep_trace = GOLDEN[name]
    target = HERE / name
    target.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="golden-"))
    try:
        for command in commands:
            if main([command, "--config", str(config), "--out", str(out / command)]) != 0:
                raise SystemExit(f"{name} {command}: poincheck did not exit 0")
            shutil.copyfile(out / command / "report.csv", target / f"{command}.csv")
            if keep_json:
                shutil.copyfile(out / command / "report.json", target / f"{command}.json")
            if keep_trace and command == "sharp":
                shutil.copyfile(out / command / "trace.csv", target / "trace.csv")
    finally:
        shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    for name in GOLDEN:
        recapture(name)
