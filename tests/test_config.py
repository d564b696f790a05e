import copy
import json
import math
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from poincheck.cli import main
from poincheck.config import (
    ANNOTATIONS,
    CONFIG_SCHEMA,
    KEYWORDS,
    ConfigError,
    first_error,
    load_config,
    parse_config,
)

ROOT = Path(__file__).resolve().parents[1]


def minimal_doc(**overrides):
    doc = {
        "dimension": 1,
        "grid_sizes": [32],
        "p_values": [2.0],
        "weights": [{"type": "step", "breakpoints": [], "values": [1.0]}],
        "checks": ["transfer"],
        "suite": {"seed": 7, "count": 5},
    }
    doc.update(overrides)
    return doc


def test_parse_minimal_config():
    cfg = parse_config(minimal_doc())
    assert cfg.dimension == 1
    assert cfg.grid_sizes == (32,)
    assert cfg.profiles[0].values == (1.0,)
    assert cfg.suite.seed == 7
    assert cfg.sweep_s == (0.5,) and cfg.sweep_R == (1.0,)


def test_rejects_tolerances():
    # Each check fixes its own tolerance, so a config cannot set one.
    with pytest.raises(ConfigError, match="tolerances"):
        parse_config(minimal_doc(tolerances={"truncation": 0.0}))
    assert "tolerances" not in CONFIG_SCHEMA["properties"]


def test_seed_override():
    cfg = parse_config(minimal_doc(), seed_override=99)
    assert cfg.suite.seed == 99


def test_rejects_s_out_of_range():
    doc = minimal_doc(kernels=[{"kind": "fractional", "s": 1.0}])
    with pytest.raises(ConfigError, match=r"s must lie in \(0,1\)"):
        parse_config(doc)
    doc = minimal_doc(sweep={"s": [1.0]})
    with pytest.raises(ConfigError, match=r"s must lie in \(0,1\)"):
        parse_config(doc)


def test_rejects_kernel_exponent_and_local_kind():
    # Every energy takes the run's p as an argument and no command has
    # local_gradient kernel rows, so neither can be configured.
    for kernel in ({"kind": "fractional", "s": 0.5, "p": 2.0}, {"kind": "local_gradient"}):
        with pytest.raises(ConfigError, match="kernels/0"):
            parse_config(minimal_doc(kernels=[kernel]))


def test_rejects_ascent_step_size_and_suite_families():
    # The ascent step is a fixed 0.05 and every suite cycles all families.
    with pytest.raises(ConfigError, match="ascent"):
        parse_config(minimal_doc(ascent={"steps": 3, "step_size": 0.1}))
    with pytest.raises(ConfigError, match="suite"):
        parse_config(minimal_doc(suite={"seed": 7, "families": ["affine"]}))
    assert parse_config(minimal_doc(ascent={"steps": 3})).ascent_steps == 3


def test_schema_lists_two_kernel_kinds_without_exponent(capsys):
    assert main(["schema"]) == 0
    kernel = json.loads(capsys.readouterr().out)["properties"]["kernels"]["items"]
    assert set(kernel["properties"]) == {"kind", "s", "R", "c"}
    assert kernel["properties"]["kind"]["enum"] == ["fractional", "constant_floor"]


def test_rejects_empty_grid_sizes():
    with pytest.raises(ConfigError, match="grid_sizes"):
        parse_config(minimal_doc(grid_sizes=[]))


def test_rejects_empty_sweep_axes(tmp_path, capsys):
    for axis in ("s", "R"):
        with pytest.raises(ConfigError, match=f"invalid config at sweep/{axis}"):
            parse_config(minimal_doc(sweep={axis: []}))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_doc(sweep={"s": []})))
    for command in ("verify", "sweep"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 2
        assert "error: invalid config at sweep/s" in capsys.readouterr().err


def test_rejects_odd_or_tiny_n():
    with pytest.raises(ConfigError):
        parse_config(minimal_doc(grid_sizes=[33]))
    with pytest.raises(ConfigError):
        parse_config(minimal_doc(grid_sizes=[2]))


def test_rejects_unknown_check_and_missing_seed():
    with pytest.raises(ConfigError, match="checks"):
        parse_config(minimal_doc(checks=["spectral"]))
    doc = minimal_doc()
    del doc["suite"]["seed"]
    with pytest.raises(ConfigError, match="seed"):
        parse_config(doc)


def test_rejects_increasing_step_weight():
    doc = minimal_doc(weights=[{"type": "step", "breakpoints": [0.5], "values": [1.0, 2.0]}])
    with pytest.raises(ConfigError, match="nonincreasing"):
        parse_config(doc)


def test_empty_checks_is_valid():
    cfg = parse_config(minimal_doc(checks=[]))
    assert cfg.checks == ()


def test_power_weight_parses_with_samples():
    doc = minimal_doc(weights=[{"type": "power", "beta": 1.0}], profile_samples=4)
    cfg = parse_config(doc)
    assert cfg.profiles[0].breakpoints == (0.25, 0.5, 0.75)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal_doc()))
    cfg = load_config(path)
    assert cfg.grid_sizes == (32,)


def test_schema_is_valid_jsonschema():
    import jsonschema

    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


# jsonschema is the oracle of the config interpreter: on every finite
# document both must find the same first error, by path and hint.
ORACLE = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


def oracle_error(document):
    """Path and description hint of jsonschema's first error, or None."""
    errors = sorted(ORACLE.iter_errors(document), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    return list(errors[0].absolute_path), errors[0].schema.get("description")


def interpreted_error(document):
    error = first_error(document)
    if error is None:
        return None
    path, schema, _ = error
    return list(path), schema.get("description")


def test_schema_uses_only_interpreted_keywords():
    def walk(schema, where):
        unknown = set(schema) - set(KEYWORDS) - ANNOTATIONS
        assert not unknown, f"{where} uses keywords the interpreter lacks: {unknown}"
        if "type" in schema:
            assert schema["type"] in {"object", "array", "string", "number", "integer"}, where
        if "additionalProperties" in schema:
            assert schema["additionalProperties"] is False, where
        if "multipleOf" in schema:  # the interpreter divides by integers only
            assert type(schema["multipleOf"]) is int, where
        for name, sub in schema.get("properties", {}).items():
            walk(sub, f"{where}/properties/{name}")
        if "items" in schema:
            walk(schema["items"], f"{where}/items")
        for index, sub in enumerate(schema.get("oneOf", ())):
            walk(sub, f"{where}/oneOf/{index}")

    walk(CONFIG_SCHEMA, "#")


@pytest.mark.parametrize(
    "overrides,path",
    [
        ({"grid_sizes": [32.0]}, None),  # an integral float is an integer
        ({"dimension": 1.0}, None),  # 1.0 equals the enum's 1
        ({"dimension": True}, ["dimension"]),  # a boolean is no integer
        ({"p_values": [True]}, ["p_values", 0]),  # nor a number
        ({"grid_sizes": [33.0]}, ["grid_sizes", 0]),
        ({"grid_sizes": ["32"]}, ["grid_sizes", 0]),  # bounds ignore a string
        ({"checks": ["transfer", "transfer"]}, ["checks"]),
        ({"checks": [1, 1.0]}, ["checks"]),  # equal, so not unique
        ({"checks": [1, True]}, ["checks", 0]),  # unique
        ({"checks": [["transfer"], ["transfer"]]}, ["checks"]),  # equal lists
        ({"checks": [{"a": 1}, {"a": 1.0}]}, ["checks"]),  # equal objects
        ({"checks": [{"a": [1]}, {"a": [1.0]}]}, ["checks"]),  # nested
        ({"checks": [[1], [True]]}, ["checks", 0]),  # unique lists
        ({"weights": [[]]}, ["weights", 0]),  # valid under both branches
        ({"weights": [{"type": "power", "beta": 1.0, "values": [1.0]}]}, ["weights", 0]),
        ({"kernels": [{"kind": "fractional", "s": 1}]}, ["kernels", 0, "s"]),
        ({"suite": {"seed": 1.5}}, ["suite", "seed"]),
        ({"suite": {}, "tolerances": {}}, []),
    ],
)
def test_interpreter_keeps_2020_12_semantics(overrides, path):
    doc = minimal_doc(**overrides)
    expected = oracle_error(doc)
    assert interpreted_error(doc) == expected
    assert (None if expected is None else expected[0]) == path


BASES = [
    json.loads((ROOT / name).read_text())
    for name in (
        "configs/demo.json",
        "perfbench/workloads/ball2d-p1.json",
        "perfbench/workloads/ball2d-p2.json",
        "tests/golden/ball2d-n16.json",
    )
]
KEYS = st.sampled_from(
    ["type", "beta", "breakpoints", "values", "kind", "s", "R", "c", "seed", "count", "steps"]
    + ["csv", "p", "extra"]
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 70),
    st.floats(-2.0, 70.0),
    st.sampled_from([0, 1, 2, 4, 0.0, 0.5, 1.0, 32.0, 33.0, 1e300, "step", "power"]),
    st.sampled_from(["fractional", "constant_floor", "transfer", "shift", ""]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)
# Numbers at and around the schema's bounds, and booleans in their place.
EDGES = st.sampled_from([-1, 0, 0.0, -0.0, 1, 1.0, 0.999, 1.001, 2, 3, 4, 6, 32.5, 33, True, False])
# Weights valid under both oneOf branches (not objects, which neither
# branch constrains) or under neither.
ODD_WEIGHTS = st.sampled_from(
    [
        3,
        "step",
        [],
        None,
        {},
        {"type": "power"},
        {"type": "step", "beta": 1.0},
        {"type": "power", "beta": 1.0, "values": [1.0]},
        {"type": "power", "beta": -1},
        {"type": "step", "breakpoints": [0.5], "values": [1.0], "beta": 0},
        {"type": "other", "beta": 1.0},
        {"type": True, "beta": 1.0},
    ]
)


def _nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _nodes(item, (*path, index))


@st.composite
def mutated_configs(draw):
    """A demo or workload config after 1-3 mutations: a value replaced by
    one of another type or by a bound's neighbour, a key added, a key
    dropped, an array item repeated, or a weight made to match both
    oneOf branches or neither.  Every number is finite."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        op = draw(st.sampled_from(["replace", "edge", "add", "drop", "repeat", "weight"]))
        if op in ("replace", "edge"):
            path, _ = draw(st.sampled_from(nodes[1:]))
            parent = dict(nodes)[path[:-1]]
            parent[path[-1]] = draw(VALUES if op == "replace" else EDGES)
        elif op in ("add", "drop"):
            objects = [node for _, node in nodes if isinstance(node, dict)]
            if op == "drop":
                objects = [node for node in objects if node]
            if objects:
                node = draw(st.sampled_from(objects))
                if op == "add":
                    node[draw(KEYS)] = draw(VALUES)
                else:
                    del node[draw(st.sampled_from(list(node)))]
        elif op == "repeat":
            arrays = [node for _, node in nodes if isinstance(node, list) and node]
            if arrays:
                node = draw(st.sampled_from(arrays))
                node.append(copy.deepcopy(draw(st.sampled_from(node))))
        elif isinstance(doc.get("weights"), list) and doc["weights"]:
            index = draw(st.integers(0, len(doc["weights"]) - 1))
            doc["weights"][index] = copy.deepcopy(draw(ODD_WEIGHTS))
    return doc


@settings(max_examples=400, deadline=None)
@given(mutated_configs())
def test_interpreter_matches_jsonschema_on_mutated_configs(document):
    assert interpreted_error(document) == oracle_error(document)


@pytest.mark.parametrize(
    "overrides,path",
    [
        ({"p_values": [math.inf]}, "p_values/0"),
        ({"p_values": [math.nan]}, "p_values/0"),
        ({"grid_sizes": [-math.inf]}, "grid_sizes/0"),
        ({"weights": [{"type": "power", "beta": math.nan}]}, "weights/0"),
        ({"weights": [{"type": "step", "breakpoints": [], "values": [math.inf]}]}, "weights/0"),
        ({"kernels": [{"kind": "fractional", "s": math.nan}]}, "kernels/0/s"),
        ({"sweep": {"R": [math.inf]}}, "sweep/R/0"),
    ],
)
def test_rejects_non_finite_numbers(overrides, path):
    # json.load reads NaN and Infinity, and no schema bound rejects NaN, so
    # numbers must be finite; here alone the interpreter departs from
    # JSON Schema.
    with pytest.raises(ConfigError, match=f"^invalid config at {path}: "):
        parse_config(minimal_doc(**overrides))


def test_cli_rejects_infinite_p_without_a_report(tmp_path, capsys):
    doc = json.loads((ROOT / "tests" / "golden" / "ball2d-n16.json").read_text())
    doc["p_values"] = [math.inf]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert "Infinity" in path.read_text()
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "error: invalid config at p_values/0: inf is not a finite number" in err
    assert not (tmp_path / "out").exists()
