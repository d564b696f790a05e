"""Experiment configuration: JSON document, schema, validation."""

from __future__ import annotations

import json
from dataclasses import dataclass

import jsonschema

from .weights import RadialProfile, profile_from_json
from .forms import KernelSpec, kernel_from_json
from .suite import SuiteSpec

__all__ = ["ExperimentConfig", "ConfigError", "CONFIG_SCHEMA", "load_config", "parse_config"]

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
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(document), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = "/".join(str(part) for part in err.absolute_path) or "<root>"
        hint = err.schema.get("description") if isinstance(err.schema, dict) else None
        detail = hint or err.message
        raise ConfigError(f"invalid config at {path}: {detail}")

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
