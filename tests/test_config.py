import json
from pathlib import Path

import pytest

from gtflow.cli import EXIT_CONFIG, _axis_grid, main
from gtflow.config import (ConfigError, load_preset, parse_config, preset_names, sweep_cell)
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


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"

DYNAMICS_SWEEP = {
    "seed": 3, "description": "every axis a dynamics sweep takes",
    "partition": {"n_agents": 8}, "network": {"switch_period": 0.5},
    "nonlinearity": {"kind": "log_quantizer", "rho": 1.0},
    "cost": {"kind": "quadratic", "m": 2},
    "solver": {"method": "euler", "sample_stride": 10},
    "sweep": {"mode": "dynamics", "t_end": 4,
              "axes": {"eta": [0.01, 0.02], "khop": [1, 3], "alpha": [0.5, 2],
                       "rho": [0.25, 1.5]}},
}


def parsed_cell(cfg, cell):
    """A sweep cell's config the long way: its normalized dict edited, dumped and parsed."""
    raw = cfg.normalized()
    for axis in ("alpha", "eta"):
        if axis in cell:
            raw["solver"][axis] = cell[axis]
    if "khop" in cell:
        raw["network"]["khop"] = int(cell["khop"])
    if "rho" in cell:
        raw["nonlinearity"]["rho"] = cell["rho"]
    raw["solver"]["t_end"] = raw["sweep"]["t_end"]
    return parse_config(json.dumps(raw))


@pytest.mark.parametrize("source", ["fig5-sensitivity", "table1-sector-ratios", "dsvm-logq",
                                    "quad-sweep", "spectral-sweep", "dynamics"])
def test_sweep_cells_equal_their_configs_parsed_from_json(source):
    if source == "dynamics":
        text = json.dumps(DYNAMICS_SWEEP)
    elif (WORKLOADS / f"{source}.json").exists():
        text = (WORKLOADS / f"{source}.json").read_text()
    else:
        text = load_preset(source)
    cfg = parse_config(text)
    cells = _axis_grid(cfg["sweep"]["axes"])  # a config without axes has one, empty, cell
    assert len(cells) == {"fig5-sensitivity": 24, "table1-sector-ratios": 3, "dsvm-logq": 1,
                          "quad-sweep": 24, "spectral-sweep": 105, "dynamics": 16}[source]
    for cell in cells:
        direct, parsed = sweep_cell(cfg, cell), parsed_cell(cfg, cell)
        assert (direct.seed, direct.description) == (parsed.seed, parsed.description)
        assert direct.sections == parsed.sections
        assert direct.to_json() == parsed.to_json()  # the same value types, 1 against 1.0
    # the base config is left as it was
    assert cfg.to_json() == parse_config(text).to_json()


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
