"""Outputs of the benchmark workloads against their pinned golden values.

Runs input variant 0 of every workload in ``perfbench/workloads`` (the file
as committed; variant v adds v to every seed), and variants 1 and 2 of the
SVM workloads, through the CLI and compares what ``perfbench/golden.json``
pins: each sweep cell's stable/diverged verdict exactly, and every number
(sweep.csv columns, distance to the oracle, final agent states) within rtol
1e-6 plus an absolute floor of 1e-12, NaN equal to NaN. Both files are only read. A smoke test also runs
the benchmark's tracer, which wraps gtflow functions by name, so renaming one
of them fails here as well as in the benchmark's trace mode.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gtflow.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
GOLDEN = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
RTOL, ATOL = 1e-6, 1e-12


def observed(out: Path, golden: dict) -> dict:
    """The values of one run under the keys golden.json uses."""
    if "stable" in golden:
        with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        seen = {key: [float(r[key]) for r in rows] for key in golden if key != "stable"}
        seen["stable"] = "".join("T" if r["stable"] == "True" else "F" for r in rows)
        return seen
    meta = {}
    for line in (out / "metadata.txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.strip().partition(": ")
        meta[key] = value
    n = sum(key.startswith("agent_") for key in meta)
    return {"distance_to_oracle": float(meta["distance_to_oracle"]),
            "final_x": [float(v) for i in range(n) for v in meta[f"agent_{i}_final"].split()]}


def close(x: float, g: float) -> bool:
    return (x == g or (math.isnan(x) and math.isnan(g))
            or abs(x - g) <= RTOL * abs(g) + ATOL)


def workload_config(name: str, variant: int) -> dict:
    """The workload's config with every seed shifted by the input variant."""
    cfg = json.loads((BENCH / "workloads" / f"{name}.json").read_text(encoding="utf-8"))
    cfg["seed"] += variant
    for section in cfg.values():
        if isinstance(section, dict) and "seed" in section:
            section["seed"] += variant
    return cfg


def check_variant(tmp_path: Path, name: str, variant: int) -> None:
    golden = GOLDEN[name][str(variant)]
    command = "sweep" if "stable" in golden else "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload_config(name, variant)), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_OK
    seen = observed(out, golden)
    for key, want in golden.items():
        if key == "stable":
            assert seen[key] == want
            continue
        got = seen[key] if isinstance(want, list) else [seen[key]]
        want = want if isinstance(want, list) else [want]
        assert len(got) == len(want), key
        off = [(i, x, g) for i, (x, g) in enumerate(zip(got, want)) if not close(x, g)]
        assert not off, f"{key} off golden at (index, value, golden): {off[:5]}"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_workload_variant_0_matches_golden(tmp_path, name):
    check_variant(tmp_path, name, 0)


# the workloads that evaluate the smoothed-hinge Hessian, whose last bits
# depend on how its curvature is computed
@pytest.mark.parametrize("name", ["dsvm-logq", "spectral-sweep"])
@pytest.mark.parametrize("variant", [1, 2])
def test_svm_workload_variants_match_golden(tmp_path, name, variant):
    check_variant(tmp_path, name, variant)


def test_tracer_wraps_every_layer_on_bounds(tmp_path):
    summary = tmp_path / "summary.json"
    argv = [sys.executable, str(BENCH / "traced.py"), str(summary), "bounds",
            "--config", str(BENCH / "workloads" / "dsvm-logq.json"), "--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(summary.read_text(encoding="utf-8"))
    assert metrics["cost.hessian.calls"] > 0


def test_tracer_sees_every_step_of_a_dynamics_sweep(tmp_path):
    # a group of cells shares one integrate call, one Laplacian per switch
    # and one derivative call per stage; the tracer must see all three
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "seed": 3, "partition": {"n_agents": 5},
        "network": {"khop": 1, "switch_period": 0.5, "switch_mode": "permute"},
        "nonlinearity": {"kind": "log_quantizer"},
        "cost": {"kind": "quadratic"},
        "solver": {"eta": 0.01, "method": "euler"},
        "outputs": {"plots": False},
        "sweep": {"mode": "dynamics", "t_end": 2.0,
                  "axes": {"alpha": [0.5, 64.0, 500.0], "rho": [0.5, 1.0]}}}), encoding="utf-8")
    summary = tmp_path / "summary.json"
    argv = [sys.executable, str(BENCH / "traced.py"), str(summary), "sweep",
            "--config", str(config), "--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(summary.read_text(encoding="utf-8"))
    assert metrics["engine.steps"] > 0
    assert metrics["graph.graph_at.calls"] <= metrics["engine.steps"] / 20


SVM_TINY = {"seed": 4, "data": {"kind": "ellipse", "n_points": 40},
            "partition": {"n_agents": 5}, "nonlinearity": {"kind": "log_quantizer"},
            "network": {"switch_period": 0.01, "switch_mode": "permute"},
            "cost": {"kind": "svm"}, "solver": {"alpha": 2.0, "eta": 0.01, "t_end": 0.5,
                                                "method": "rk4", "sample_stride": 7}}
QUAD_TINY = {"seed": 3, "partition": {"n_agents": 5},
             "network": {"khop": 1, "switch_period": 0.5, "switch_mode": "permute"},
             "nonlinearity": {"kind": "log_quantizer"}, "cost": {"kind": "quadratic", "m": 2},
             "solver": {"eta": 0.01, "method": "euler"}}
TRACED_COMMANDS = {
    "run": ("run", SVM_TINY),
    "bounds": ("bounds", SVM_TINY),
    "dynamics-sweep": ("sweep", {**QUAD_TINY, "sweep": {
        "mode": "dynamics", "t_end": 2.0, "axes": {"alpha": [0.5, 500.0], "rho": [0.5, 1.0]}}}),
    "spectral-sweep": ("sweep", {**QUAD_TINY, "sweep": {
        "mode": "spectral", "axes": {"khop": [1, 2], "rho": [0.5, 1.0], "alpha": [0.1, 30.0]}}}),
}


@pytest.mark.parametrize("case", sorted(TRACED_COMMANDS))
def test_traced_command_writes_the_untraced_artifacts(tmp_path, case):
    # the tracer replaces gtflow names in place; a name it wraps that is renamed
    # or deleted, or a wrapper that changes a result, fails here
    command, body = TRACED_COMMANDS[case]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    outs = {}
    for mode, prefix in (("plain", ["-m", "gtflow.cli"]),
                         ("traced", [str(BENCH / "traced.py"), str(tmp_path / "summary.json")])):
        outs[mode] = tmp_path / mode
        argv = [sys.executable, *prefix, command, "--config", str(config), "--out", str(outs[mode])]
        proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (mode, proc.stderr)
    names = sorted(p.name for p in outs["plain"].iterdir())
    assert names and sorted(p.name for p in outs["traced"].iterdir()) == names
    for name in names:
        assert (outs["traced"] / name).read_bytes() == (outs["plain"] / name).read_bytes(), name
    metrics = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert metrics["cli.main_s"] > 0
