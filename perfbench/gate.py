"""Correctness gate for the report files a poincheck command writes.

A command's CSV is compared with the reference CSV captured for the same
workload at the reference seed:

- key columns (check ids, grid sizes, exponents, profile names, ...) and
  the ``pass`` flags must be identical;
- value columns must agree to a relative tolerance taken from the solvers:
  ``sweep`` values are exactly rounded ``ksum`` sums over a fixed field,
  so 1e-12 (the criterion-8 oracle agreement); ``verify`` and ``sharp``
  values depend on eigensolves (the eigen suite member, the p = 2 gradient
  constant, eigenvalues themselves), so the eigensolve tolerance 1e-8;
- ascent rows of ``sharp`` are certified lower bounds, so their
  ``empirical_constant`` may only grow and their ``gap_factor`` may only
  shrink.
"""

from __future__ import annotations

import csv
import io
import json

EIGEN_RTOL = 1e-8
KSUM_RTOL = 1e-12

VALUE_COLUMNS = {
    "verify": ("lhs", "rhs", "ratio", "constant_used"),
    "sharp": ("eigenvalue", "empirical_constant", "paper_constant", "gap_factor", "residual"),
    "sweep": (
        "fractional_energy",
        "scaled_energy",
        "gradient_energy",
        "gradient_limit_ratio",
        "fractional_check_ratio",
        "truncation_check_ratio",
    ),
}
RTOL = {"verify": EIGEN_RTOL, "sharp": EIGEN_RTOL, "sweep": KSUM_RTOL}


def parse_rows(csv_text: str) -> tuple[list[str], list[dict]]:
    reader = csv.DictReader(io.StringIO(csv_text))
    rows = list(reader)
    return list(reader.fieldnames or ()), rows


def count_failed(rows: list[dict]) -> int:
    """Rows whose ``pass`` column is not ``true``."""
    return sum(1 for row in rows if row.get("pass") != "true")


def _close(ref: str, new: str, rtol: float) -> bool:
    if ref == "" or new == "":
        return ref == new
    a, b = float(ref), float(new)
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def _not_below(ref: str, new: str) -> bool:
    return ref != "" and new != "" and float(new) >= float(ref)


def _not_above(ref: str, new: str, rtol: float) -> bool:
    return ref != "" and new != "" and float(new) <= float(ref) * (1.0 + rtol)


def compare_to_reference(command: str, ref_text: str, new_text: str) -> list[str]:
    """Problems found comparing a command's CSV with its reference CSV."""
    ref_header, ref_rows = parse_rows(ref_text)
    new_header, new_rows = parse_rows(new_text)
    if ref_header != new_header:
        return [f"{command}: columns {new_header} differ from reference {ref_header}"]
    if len(ref_rows) != len(new_rows):
        return [f"{command}: {len(new_rows)} rows, reference has {len(ref_rows)}"]
    values = VALUE_COLUMNS[command]
    rtol = RTOL[command]
    problems = []
    for line, (ref, new) in enumerate(zip(ref_rows, new_rows), start=2):
        ascent = command == "sharp" and ref.get("method") == "ascent"
        for col in ref_header:
            a, b = ref[col], new[col]
            if ascent and col == "empirical_constant":
                ok = _not_below(a, b)
            elif ascent and col == "gap_factor":
                ok = _not_above(a, b, rtol)
            elif col in values:
                ok = _close(a, b, rtol)
            else:
                ok = a == b
            if not ok:
                problems.append(f"{command} line {line} {col}: {b!r}, reference {a!r}")
    return problems


def check_json(command: str, rows: list[dict], json_text: str) -> list[str]:
    """The JSON report must hold the CSV's rows with the same pass flags."""
    try:
        entries = json.loads(json_text)
    except json.JSONDecodeError as exc:
        return [f"{command}: report JSON does not parse: {exc}"]
    if not isinstance(entries, list) or len(entries) != len(rows):
        return [f"{command}: report JSON does not hold {len(rows)} rows"]
    flags = ["true" if entry.get("pass") is True else "false" for entry in entries]
    if flags != [row.get("pass") for row in rows]:
        return [f"{command}: pass flags in the report JSON differ from the CSV"]
    return []
