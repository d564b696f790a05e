"""Command-line interface: verify | sharp | sweep | schema.

Each command takes ``--config``, ``--out`` and ``--seed``; ``sharp`` also
always writes its trace rows (step, eigenvalue, relative residual) to
``trace.csv``.  The unweighted case is the weight ``UNIT_WEIGHT``: a step
profile with no breakpoints and level 1.

Exit codes: 0 when every row passes; 1 when some row fails (reports are
still written); 2 on ``error: ...``, for an invalid config, another
``ValueError``, an I/O error reading the config or writing the reports, or
an eigensolve that does not converge outside a sharp row (a frozen
constant such as ĉ; a sharp row's own solve gives a failing row instead).

BLAS is pinned to one thread by the package ``__init__``, which runs
before this module and before numpy loads, over any thread count set in
the environment.  ``main`` pins glibc's malloc thresholds
(:func:`pin_malloc_thresholds`).
"""

import argparse
import ctypes
import json
import sys

from .config import CONFIG_SCHEMA, load_config
from .runner import run_sharp, run_sweep, run_verify
from .sharp import EigenConvergenceError

_RUNNERS = {"verify": run_verify, "sharp": run_sharp, "sweep": run_sweep}

# mallopt parameters of glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def pin_malloc_thresholds() -> None:
    """Serve blocks below 32 MiB from the heap and keep up to 64 MiB of
    freed heap, where glibc's ``mallopt`` exists; elsewhere do nothing.

    By default glibc mmaps every block of 128 KiB or more, and raises
    that threshold only after a larger block has been freed.  The pair
    energies and row sums of a 2-d grid work on blocks of about 512 KiB
    (2^16 terms: 80 rows of 812 cells), so their time depends on whether
    some earlier, larger block has raised the threshold: one N = 32
    ``kernel_energy`` call took 13-16 ms in a fresh process against
    8-12 ms with the thresholds pinned.  Fixed thresholds make every run
    take the fast path.  Calling this again is harmless.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poincheck",
        description=(
            "Verify weighted and fractional Poincare-type inequalities on "
            "discretized balls, estimate sharp constants, and sweep the "
            "fractional order."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("verify", "run the configured inequality checks"),
        ("sharp", "estimate sharp constants and compare to the explicit ones"),
        ("sweep", "tabulate energies and check ratios over the (s, R) grid"),
    ):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--out", default="out", help="output directory (default: out)")
        cmd.add_argument("--seed", type=int, default=None, help="override the suite seed")
    sub.add_parser("schema", help="print the config JSON schema")
    return parser


def main(argv=None) -> int:
    pin_malloc_thresholds()
    args = build_parser().parse_args(argv)
    if args.command == "schema":
        json.dump(CONFIG_SCHEMA, sys.stdout, indent=1)
        sys.stdout.write("\n")
        return 0
    try:
        config = load_config(args.config, seed_override=args.seed)
        result = _RUNNERS[args.command](config, args.out)
    except (ValueError, OSError, EigenConvergenceError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not result.all_passed:
        failed = sum(1 for row in result.rows if row["pass"] is not True)
        print(f"FAIL: {failed} of {len(result.rows)} rows failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
