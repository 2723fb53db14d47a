import json

import pytest

from gtflow.cli import EXIT_CONFIG, main
from gtflow.config import (ConfigError, load_preset, parse_config, preset_names)
from gtflow.engine import MAX_SIZE

MINIMAL = '{"seed": 4}'


def test_minimal_config_gets_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.seed == 4
    assert cfg["solver"]["alpha"] == 6.0
    assert cfg["network"]["khop"] == 2
    assert cfg.sections["nonlinearity"]["kind"] == "identity"


def test_round_trip_is_stable():
    cfg = parse_config(MINIMAL)
    echoed = cfg.to_json()
    again = parse_config(echoed)
    assert again.normalized() == cfg.normalized()
    assert again.to_json() == echoed


def test_missing_seed_is_an_error():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("{}")


def test_all_violations_reported_at_once():
    bad = json.dumps({
        "seed": "nope",
        "solver": {"alpha": -1, "etaa": 3},
        "network": {"total_weight": 2.0},
        "bogus": {},
    })
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    text = str(err.value)
    assert "'seed' must be an integer" in text
    assert "solver.alpha must be positive" in text
    assert "unknown key solver.etaa" in text
    assert "network.total_weight" in text
    assert "unknown section 'bogus'" in text


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key data.radins"):
        parse_config('{"seed": 1, "data": {"radins": 0.5}}')


def test_enum_values_checked():
    with pytest.raises(ConfigError, match="solver.method"):
        parse_config('{"seed": 1, "solver": {"method": "heun"}}')


def test_nonlinearity_flat_applies_to_both_lines():
    cfg = parse_config('{"seed": 1, "nonlinearity": {"kind": "log_quantizer", "rho": 0.5}}')
    assert cfg.sections["nonlinearity"]["rho"] == 0.5


def test_nonlinearity_split_lines(tmp_path, capsys):
    # one link map serves both dynamics lines; a per-line {x, y} spec is unknown keys
    flat = parse_config('{"seed": 1, "nonlinearity": {"kind": "saturation", "limit": 2.0}}')
    assert flat["nonlinearity"] == {"kind": "saturation", "rho": 1.0, "limit": 2.0}
    path = tmp_path / "split.json"
    path.write_text(json.dumps({
        "seed": 1,
        "nonlinearity": {"x": {"kind": "log_quantizer", "rho": 1.0},
                         "y": {"kind": "identity"}},
    }), encoding="utf-8")
    assert main(["bounds", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown key nonlinearity.x" in err
    assert "unknown key nonlinearity.y" in err


def test_nonlinearity_unknown_kind():
    with pytest.raises(ConfigError, match="nonlinearity.kind"):
        parse_config('{"seed": 1, "nonlinearity": {"kind": "cubic"}}')


def test_sweep_axis_validation():
    with pytest.raises(ConfigError, match="sweep axis"):
        parse_config('{"seed": 1, "sweep": {"axes": {"beta": [1, 2]}}}')
    with pytest.raises(ConfigError, match="non-empty list"):
        parse_config('{"seed": 1, "sweep": {"axes": {"alpha": []}}}')


def test_presets_all_parse():
    names = preset_names()
    assert {"fig2-nonlinear-dsvm", "fig3-linear-dsvm",
            "table1-sector-ratios", "fig5-sensitivity"} <= set(names)
    for name in names:
        cfg = parse_config(load_preset(name))
        assert cfg.description


def test_sizes_up_to_the_limit_parse():
    body = {"seed": 1, "data": {"n_points": MAX_SIZE},
            "partition": {"n_agents": MAX_SIZE}, "cost": {"m": MAX_SIZE}}
    parse_config(json.dumps(body))
    for section, key in (("data", "n_points"), ("partition", "n_agents"), ("cost", "m")):
        with pytest.raises(ConfigError, match=f"{section}.{key} must be at most {MAX_SIZE}"):
            parse_config(json.dumps({**body, section: {key: MAX_SIZE + 1}}))


def test_integer_literal_beyond_the_digit_limit_is_a_config_error():
    with pytest.raises(ConfigError, match="not valid JSON: Exceeds the limit"):
        parse_config('{"seed": 1' + "0" * 5000 + "}")


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset"):
        load_preset("fig9-imaginary")
