"""Self-test of the benchmark harness on a tiny config; runs in seconds.

    python3 perfbench/selftest.py

Uses ``workloads/tiny.json`` (1-d, N = 8, one suite function) with a
reference captured on the spot.  Checks that an untraced and a traced run
print every metric BENCHMARK.json names, with its unit, and that the
correctness gate flags a perturbed reference value, an injected failing
row and a lowered ascent bound, and that the speed probe scales times as
meant.  Exits 1 on the first failed check.
"""

import contextlib
import csv
import io
import json
import shutil
import tempfile
from pathlib import Path
from time import perf_counter

import capture_reference
import gate
import run
import speed


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def printed_result(outcome: dict) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        run.print_outcome(outcome)
    return json.loads(stdout.getvalue().splitlines()[-1])


def replace_field(csv_text: str, line: int, column: str, value: str) -> str:
    header, rows = gate.parse_rows(csv_text)
    rows[line - 2][column] = value
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def first_line(csv_text: str, **match) -> int:
    _, rows = gate.parse_rows(csv_text)
    for line, row in enumerate(rows, start=2):
        if all(row[col] == val for col, val in match.items()):
            return line
    raise SystemExit(f"selftest FAILED: no row with {match}")


def check_metrics(benchmark: dict, reference: Path) -> None:
    workload = run.Workload("tiny", run.HERE / "workloads" / "tiny.json", reference)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        outcome = run.measure(workload, run.REFERENCE_SEED, 0.5, trace)
        result = printed_result(outcome)
        wanted = {m["name"]: m["unit"] for m in benchmark[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(printed == wanted, f"trace {int(trace)} prints every {key} metric with its unit")
        expect(
            result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
            f"trace {int(trace)} passes the gate on the tiny config",
        )
    perturbed = reference.parent / f"{reference.name}-perturbed"
    shutil.copytree(reference, perturbed)
    verify = (perturbed / "verify.csv").read_text()
    line = first_line(verify, check_id="transfer")
    value = float(gate.parse_rows(verify)[1][line - 2]["rhs"])
    (perturbed / "verify.csv").write_text(replace_field(verify, line, "rhs", repr(value * (1.0 + 1e-6))))
    workload = run.Workload("tiny", workload.config, perturbed)
    result = run.measure(workload, run.REFERENCE_SEED, 0.5, True)["result"]
    shutil.rmtree(perturbed)
    expect(not result["correct"], "a run against a perturbed reference fails the gate")


def check_gate(reference: Path) -> None:
    for command in run.COMMANDS:
        text = (reference / f"{command}.csv").read_text()
        expect(not gate.compare_to_reference(command, text, text), f"{command} matches itself")

    verify = (reference / "verify.csv").read_text()
    line = first_line(verify, check_id="kernel")
    value = float(gate.parse_rows(verify)[1][line - 2]["lhs"])
    perturbed = replace_field(verify, line, "lhs", repr(value * (1.0 + 1e-6)))
    expect(bool(gate.compare_to_reference("verify", perturbed, verify)), "a perturbed reference value is flagged")

    sweep = (reference / "sweep.csv").read_text()
    value = float(gate.parse_rows(sweep)[1][0]["fractional_energy"])
    perturbed = replace_field(sweep, 2, "fractional_energy", repr(value * (1.0 + 1e-10)))
    expect(bool(gate.compare_to_reference("sweep", perturbed, sweep)), "sweep values are held to 1e-12")

    failing = replace_field(verify, 2, "pass", "false")
    expect(gate.count_failed(gate.parse_rows(failing)[1]) == 1, "an injected failing row is counted")
    expect(bool(gate.compare_to_reference("verify", verify, failing)), "an injected failing row is flagged")
    records = {c: run.CommandRecord(csv_text=(reference / f"{c}.csv").read_text()) for c in run.COMMANDS}
    records["verify"] = run.CommandRecord(csv_text=failing)
    for command, record in records.items():
        _, rows = gate.parse_rows(record.csv_text)
        record.json_text = json.dumps([{"pass": row["pass"] == "true"} for row in rows])
    rows = {c: len(gate.parse_rows(r.csv_text)[1]) for c, r in records.items()}
    failed, problems = run.check_reports(run.Workload("tiny", Path(), reference), 1, records, rows)
    expect(failed == 1 and bool(problems), "an injected failing row fails the run at any seed")

    sharp = (reference / "sharp.csv").read_text()
    line = first_line(sharp, method="ascent")
    value = float(gate.parse_rows(sharp)[1][line - 2]["empirical_constant"])
    higher = replace_field(sharp, line, "empirical_constant", repr(value * 1.01))
    lower = replace_field(sharp, line, "empirical_constant", repr(value * 0.99))
    expect(not gate.compare_to_reference("sharp", sharp, higher), "a higher ascent bound is accepted")
    expect(bool(gate.compare_to_reference("sharp", sharp, lower)), "a lower ascent bound is flagged")


def check_speed() -> None:
    interpreter_s, matvec_s = speed.INTERPRETER_REFERENCE_S, speed.MATVEC_REFERENCE_S
    at_reference = [(0.05, interpreter_s, matvec_s)] * 4
    own = 1.0 - 4 * (interpreter_s + matvec_s)
    error = speed.scale(1.0, at_reference, 0.5) - own
    expect(abs(error) < 1e-12, "at the reference speed only the probes are taken off")
    slow = [(0.05, 2 * interpreter_s, matvec_s)] * 4
    own = 1.0 - 4 * (2 * interpreter_s + matvec_s)
    error = speed.scale(1.0, slow, 0.0) - own / 2
    expect(abs(error) < 1e-12, "at half the interpreter speed a time is halved")
    error = speed.scale(1.0, slow, 1.0) - own
    expect(abs(error) < 1e-12, "with matvec share 1 the interpreter speed is ignored")
    with speed.Sampler(interval=0.01) as sampler:
        end = perf_counter() + 0.2
        while perf_counter() < end:
            pass
    expect(len(sampler.samples) >= 5, "the sampler probes all through a timed interval")


if __name__ == "__main__":
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.OUT.mkdir(exist_ok=True)
    reference = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        capture_reference.capture(run.Workload("tiny", run.HERE / "workloads" / "tiny.json", reference))
        check_metrics(benchmark, reference)
        check_gate(reference)
        check_speed()
    finally:
        shutil.rmtree(reference, ignore_errors=True)
    print("selftest passed")
