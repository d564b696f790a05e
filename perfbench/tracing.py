"""Outside-in layer trace of poincheck.

The program itself has no spans yet, so the trace wraps public functions
of each module from outside.  A wrapped name is replaced in every
``poincheck`` module that bound it (the modules import each other with
``from .x import f``), and the originals are put back afterwards.  Each
wrapper counts calls and self time (its duration minus the time of traced
calls made inside it) plus the work counts below; none of them changes
what the wrapped function computes.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# label -> (module, names)
LAYERS = {
    "grid.build_grid": ("poincheck.grid", ("build_grid",)),
    "grid.deviation_p": ("poincheck.grid", ("deviation_p",)),
    "suite.build_suite": ("poincheck.suite", ("build_suite",)),
    "forms.local_energy": ("poincheck.forms", ("local_energy",)),
    "forms.kernel_energy": ("poincheck.forms", ("kernel_energy",)),
    "sharp.assemble_p2": ("poincheck.sharp", ("assemble_p2",)),
    "sharp.assemble_transfer_p2": ("poincheck.sharp", ("assemble_transfer_p2",)),
    "sharp.smallest_nonzero_eigen": ("poincheck.sharp", ("smallest_nonzero_eigen",)),
    "sharp.estimate_gradient_constant": ("poincheck.sharp", ("estimate_gradient_constant",)),
    "sharp.ratio_ascent": ("poincheck.sharp", ("ratio_ascent",)),
    "numerics.ksum": ("poincheck.numerics", ("ksum",)),
    "inequalities.check": (
        "poincheck.inequalities",
        (
            "check_transfer",
            "check_weighted_gradient",
            "check_weighted_kernel",
            "check_kernel_floor",
            "check_truncated_fractional",
            "check_truncation_bound",
            "check_shift_stability",
        ),
    ),
}

WORK_COUNTS = (
    "forms.kernel_energy.pairs",
    "sharp.assemble_p2.cells",
    "sharp.smallest_nonzero_eigen.iterations",
    "sharp.smallest_nonzero_eigen.failed",
    "sharp.ratio_ascent.evals",
    "numerics.ksum.elements",
    "inequalities.check.raised",
)


def metric_units() -> dict[str, str]:
    """Every metric :meth:`Tracer.metrics` reports, with its unit."""
    units = {}
    for label in LAYERS:
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_s"] = "s"
    units.update((name, "count") for name in WORK_COUNTS)
    return units


class Tracer:
    """Counts and self times of the wrapped functions while installed."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.work: Counter = Counter()
        self.top_s = 0.0  # time inside outermost traced calls
        self._stack: list[float] = []
        self._patched: list[tuple] = []
        self._raised = {
            "inequalities.check": ("inequalities.check.raised", Exception),
            "sharp.smallest_nonzero_eigen": (
                "sharp.smallest_nonzero_eigen.failed",
                sys.modules["poincheck.sharp"].EigenConvergenceError,
            ),
        }
        self._hooks = {
            "forms.kernel_energy": self._count_pairs,
            "sharp.assemble_p2": self._count_cells,
            "sharp.smallest_nonzero_eigen": self._count_iterations,
            "sharp.ratio_ascent": self._count_evals,
        }

    def _timed(self, label, fn, args, kwargs):
        counter, raised = self._raised.get(label, (None, ()))
        self._stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except raised:
            self.work[counter] += 1
            raise
        finally:
            elapsed = perf_counter() - start
            inner = self._stack.pop()
            self.calls[label] += 1
            self.self_s[label] += elapsed - inner
            if self._stack:
                self._stack[-1] += elapsed
            else:
                self.top_s += elapsed

    def _wrapper(self, label, fn):
        if label == "numerics.ksum":

            def ksum(values):
                if not isinstance(values, np.ndarray) and not hasattr(values, "__len__"):
                    values = list(values)
                self.work["numerics.ksum.elements"] += (
                    values.size if isinstance(values, np.ndarray) else len(values)
                )
                return self._timed(label, fn, (values,), {})

            return functools.wraps(fn)(ksum)

        hook = self._hooks.get(label)
        if hook is None:

            def plain(*args, **kwargs):
                return self._timed(label, fn, args, kwargs)

            return functools.wraps(fn)(plain)

        signature = inspect.signature(fn)

        def hooked(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            after = hook(bound.arguments)
            try:
                return self._timed(label, fn, bound.args, bound.kwargs)
            finally:
                if after is not None:
                    after()

        return functools.wraps(fn)(hooked)

    def _count_pairs(self, arguments):
        self.work["forms.kernel_energy.pairs"] += len(arguments["cells"]) ** 2

    def _count_cells(self, arguments):
        self.work["sharp.assemble_p2.cells"] += len(arguments["cells"])

    def _count_iterations(self, arguments):
        # The solver appends (iteration, eigenvalue, residual) per Ritz step;
        # a caller that passed no list gets one so the steps can be read.
        if arguments.get("trace") is None:
            arguments["trace"] = []
        trace = arguments["trace"]
        seen = len(trace)

        def after():
            if len(trace) > seen:
                self.work["sharp.smallest_nonzero_eigen.iterations"] += trace[-1][0]

        return after

    def _count_evals(self, arguments):
        for name in ("lhs_functional", "rhs_functional"):
            functional = arguments[name]

            def counted(u, _functional=functional):
                self.work["sharp.ratio_ascent.evals"] += 1
                return _functional(u)

            arguments[name] = counted

    def install(self) -> None:
        wrappers = {}
        for label, (module, names) in LAYERS.items():
            for name in names:
                original = getattr(sys.modules[module], name)
                wrappers[original] = self._wrapper(label, original)
        for module_name, module in list(sys.modules.items()):
            if module_name != "poincheck" and not module_name.startswith("poincheck."):
                continue
            for name, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    setattr(module, name, wrappers[value])
                    self._patched.append((module, name, value))

    def uninstall(self) -> None:
        while self._patched:
            module, name, value = self._patched.pop()
            setattr(module, name, value)

    def metrics(self) -> dict[str, float]:
        out = {}
        for label in LAYERS:
            out[f"{label}.calls"] = self.calls[label]
            out[f"{label}.self_s"] = float(self.self_s[label])
        out.update((name, self.work[name]) for name in WORK_COUNTS)
        return out
