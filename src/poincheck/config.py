"""Experiment configuration: JSON document, schema, validation.

``CONFIG_SCHEMA`` is the one statement of what a config may hold; ``poincheck
schema`` prints it, and :func:`parse_config` checks a document against it
with a small interpreter of the JSON Schema 2020-12 keywords the schema
uses: ``type``, ``enum``, ``const``, ``required``, ``additionalProperties``
(``false`` only), ``properties``, ``items``, ``minItems``, ``uniqueItems``,
``minimum``, ``exclusiveMinimum``, ``exclusiveMaximum``, ``multipleOf`` (an
integer divisor) and ``oneOf``; ``$schema``, ``title`` and ``description``
are annotations.  It keeps the 2020-12 semantics: an integral float is
an ``integer``, a boolean is not a number and never equals one, 1 equals
1.0, and each keyword applies only to instances of its type.  It departs
from the standard in one rule: ``number`` and ``integer`` accept finite
values only, because ``json.load`` reads ``NaN`` and ``Infinity`` and no
bound rejects NaN.  Otherwise the first error (by path) and its
``description`` hint are those of ``jsonschema.Draft202012Validator``,
which ``tests/test_config.py`` runs as the oracle on mutated configs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .weights import RadialProfile, profile_from_json
from .forms import KernelSpec, kernel_from_json
from .suite import SuiteSpec

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "CONFIG_SCHEMA",
    "first_error",
    "load_config",
    "parse_config",
]

CHECK_NAMES = (
    "transfer",
    "gradient",
    "kernel",
    "kernel_floor",
    "fractional_truncated",
    "truncation",
    "shift",
)

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "poincheck experiment configuration",
    "type": "object",
    "required": ["dimension", "grid_sizes", "p_values", "weights", "checks", "suite"],
    "additionalProperties": False,
    "properties": {
        "dimension": {"type": "integer", "enum": [1, 2]},
        "grid_sizes": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "integer", "minimum": 4, "multipleOf": 2},
        },
        "p_values": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "number", "minimum": 1},
        },
        "weights": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "oneOf": [
                    {
                        "properties": {
                            "type": {"const": "step"},
                            "breakpoints": {
                                "type": "array",
                                "items": {
                                    "type": "number",
                                    "exclusiveMinimum": 0,
                                    "exclusiveMaximum": 1,
                                },
                            },
                            "values": {
                                "type": "array",
                                "minItems": 1,
                                "items": {"type": "number", "minimum": 0},
                            },
                        },
                        "required": ["type", "breakpoints", "values"],
                        "additionalProperties": False,
                    },
                    {
                        "properties": {
                            "type": {"const": "power"},
                            "beta": {"type": "number", "minimum": 0},
                        },
                        "required": ["type", "beta"],
                        "additionalProperties": False,
                    },
                ],
            },
        },
        "kernels": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind"],
                "additionalProperties": False,
                "properties": {
                    "kind": {"enum": ["fractional", "constant_floor"]},
                    "s": {
                        "type": "number",
                        "exclusiveMinimum": 0,
                        "exclusiveMaximum": 1,
                        "description": "s must lie in (0,1)",
                    },
                    "R": {"type": "number", "minimum": 1},
                    "c": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
        "checks": {
            "type": "array",
            "items": {"enum": list(CHECK_NAMES)},
            "uniqueItems": True,
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "s": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "number",
                        "exclusiveMinimum": 0,
                        "exclusiveMaximum": 1,
                        "description": "s must lie in (0,1)",
                    },
                },
                "R": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "number", "minimum": 1},
                },
            },
        },
        "suite": {
            "type": "object",
            "required": ["seed"],
            "additionalProperties": False,
            "properties": {
                "seed": {"type": "integer"},
                "count": {"type": "integer", "minimum": 1},
            },
        },
        "profile_samples": {"type": "integer", "minimum": 1},
        "ascent": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "steps": {"type": "integer", "minimum": 0},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "csv": {"type": "string"},
                "json": {"type": "string"},
                "trace_csv": {"type": "string"},
            },
        },
    },
}


# The instance type each interpreted keyword applies to (None: every
# instance); on an instance of another type the keyword holds.
KEYWORDS = {
    **dict.fromkeys(("type", "enum", "const", "oneOf")),
    **dict.fromkeys(("required", "additionalProperties", "properties"), "object"),
    **dict.fromkeys(("items", "minItems", "uniqueItems"), "array"),
    **dict.fromkeys(("minimum", "exclusiveMinimum", "exclusiveMaximum", "multipleOf"), "number"),
}
ANNOTATIONS = frozenset({"$schema", "title", "description"})


def _is_type(instance, name: str | None) -> bool:
    if name is None:
        return True
    if name == "object":
        return isinstance(instance, dict)
    if name == "array":
        return isinstance(instance, list)
    if name == "string":
        return isinstance(instance, str)
    if isinstance(instance, bool) or not isinstance(instance, (int, float)):
        return False
    if isinstance(instance, int):
        return True
    return math.isfinite(instance) and (name == "number" or instance.is_integer())


def _equal(a, b) -> bool:
    """JSON equality: 1 equals 1.0, a boolean equals only itself."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


def _errors(instance, schema: dict, path: tuple = ()):
    """Yield ``(path, schema, message)`` for each keyword of ``schema`` that
    ``instance`` fails, in the schema's keyword order, descending into
    ``properties`` and ``items``; ``schema`` is the one holding the keyword."""
    for keyword, value in schema.items():
        if keyword in ANNOTATIONS or not _is_type(instance, KEYWORDS[keyword]):
            continue
        message = None
        if keyword == "properties":
            for name, sub in value.items():
                if name in instance:
                    yield from _errors(instance[name], sub, (*path, name))
        elif keyword == "items":
            for index, item in enumerate(instance):
                yield from _errors(item, value, (*path, index))
        elif keyword == "required":
            for name in value:
                if name not in instance:
                    yield path, schema, f"{name!r} is a required property"
        elif keyword == "additionalProperties":
            extra = sorted(k for k in instance if k not in schema.get("properties", {}))
            if extra and value is False:
                message = f"additional properties {', '.join(map(repr, extra))} are not allowed"
        elif keyword == "oneOf":
            valid = sum(not any(_errors(instance, sub, path)) for sub in value)
            if valid != 1:
                message = f"{instance!r} is valid under {valid} of the {len(value)} given schemas"
        elif keyword == "type":
            if not _is_type(instance, value):
                message = f"{instance!r} is not of type {value!r}"
                if isinstance(instance, float) and not math.isfinite(instance):
                    message = f"{instance!r} is not a finite number"
        elif keyword == "enum":
            if not any(_equal(instance, each) for each in value):
                message = f"{instance!r} is not one of {value!r}"
        elif keyword == "const":
            if not _equal(instance, value):
                message = f"{value!r} was expected"
        elif keyword == "minItems":
            if len(instance) < value:
                message = f"{instance!r} is too short"
        elif keyword == "uniqueItems":
            if value and any(
                _equal(a, b) for i, a in enumerate(instance) for b in instance[i + 1 :]
            ):
                message = f"{instance!r} has non-unique elements"
        elif keyword == "minimum":
            if instance < value:
                message = f"{instance!r} is less than the minimum of {value!r}"
        elif keyword == "exclusiveMinimum":
            if instance <= value:
                message = f"{instance!r} is less than or equal to the minimum of {value!r}"
        elif keyword == "exclusiveMaximum":
            if instance >= value:
                message = f"{instance!r} is greater than or equal to the maximum of {value!r}"
        elif keyword == "multipleOf":  # an integer divisor: jsonschema's own test
            if instance % value != 0:
                message = f"{instance!r} is not a multiple of {value!r}"
        if message is not None:
            yield path, schema, message


def first_error(document) -> tuple[tuple, dict, str] | None:
    """The error of ``document`` against ``CONFIG_SCHEMA`` with the least
    path, the first of those in keyword order, or None when it is valid."""
    return min(_errors(document, CONFIG_SCHEMA), key=lambda error: error[0], default=None)


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending field path."""


@dataclass(frozen=True)
class ExperimentConfig:
    dimension: int
    grid_sizes: tuple[int, ...]
    p_values: tuple[float, ...]
    profiles: tuple[RadialProfile, ...]
    kernels: tuple[KernelSpec, ...]
    checks: tuple[str, ...]
    sweep_s: tuple[float, ...]
    sweep_R: tuple[float, ...]
    suite: SuiteSpec
    csv_name: str
    json_name: str
    trace_name: str
    ascent_steps: int


def parse_config(document: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Validate a config document against the schema and materialize it."""
    error = first_error(document)
    if error is not None:
        path, schema, message = error
        where = "/".join(str(part) for part in path) or "<root>"
        raise ConfigError(f"invalid config at {where}: {schema.get('description') or message}")

    samples = int(document.get("profile_samples", 16))
    try:
        profiles = tuple(
            profile_from_json(obj, samples=samples) for obj in document["weights"]
        )
        kernels = tuple(kernel_from_json(obj) for obj in document.get("kernels", ()))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    suite_doc = dict(document["suite"])
    if seed_override is not None:
        suite_doc["seed"] = int(seed_override)
    suite = SuiteSpec(seed=int(suite_doc["seed"]), count=int(suite_doc.get("count", 20)))

    sweep = document.get("sweep", {})
    output = document.get("output", {})
    ascent = document.get("ascent", {})
    return ExperimentConfig(
        dimension=int(document["dimension"]),
        grid_sizes=tuple(int(n) for n in document["grid_sizes"]),
        p_values=tuple(float(p) for p in document["p_values"]),
        profiles=profiles,
        kernels=kernels,
        checks=tuple(document["checks"]),
        sweep_s=tuple(float(s) for s in sweep.get("s", (0.5,))),
        sweep_R=tuple(float(r) for r in sweep.get("R", (1.0,))),
        suite=suite,
        csv_name=output.get("csv", "report.csv"),
        json_name=output.get("json", "report.json"),
        trace_name=output.get("trace_csv", "trace.csv"),
        ascent_steps=int(ascent.get("steps", 40)),
    )


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return parse_config(document, seed_override=seed_override)
