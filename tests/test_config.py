import json

import pytest

from poincheck.cli import main
from poincheck.config import (
    CONFIG_SCHEMA,
    ConfigError,
    load_config,
    parse_config,
)


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
