"""The benchmark's layer trace still finds what it wraps.

``perfbench/tracing.py`` wraps poincheck functions by module and name, and
its work-count hooks read named parameters of some of them.  Renaming or
deleting one of those should fail here rather than in a benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import poincheck  # noqa: F401  (the tracer looks up poincheck.sharp)

ROOT = Path(__file__).resolve().parents[1]

# Parameters each hook reads from the bound arguments of its function.
HOOK_PARAMETERS = {
    "forms.kernel_energy": ("cells",),
    "sharp.assemble_p2": ("cells",),
    "sharp.smallest_nonzero_eigen": ("trace",),
    "sharp.ratio_ascent": ("lhs_functional", "rhs_functional"),
}


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    for label, (module_name, names) in _tracing().LAYERS.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{label}: {module_name}.{name}"


def test_hooked_parameters_exist():
    tracing = _tracing()
    assert set(tracing.Tracer()._hooks) == set(HOOK_PARAMETERS)
    for label, parameters in HOOK_PARAMETERS.items():
        module_name, (name,) = tracing.LAYERS[label]
        signature = inspect.signature(getattr(importlib.import_module(module_name), name))
        for parameter in parameters:
            assert parameter in signature.parameters, f"{label}: no parameter {parameter!r}"
