import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtflow import cli, spectral
from gtflow import config as cfgmod
from gtflow.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main
from gtflow.cost import SvmHingeCost, aggregate_hessian
from gtflow.engine import integrate
from gtflow.graph import laplacian
from gtflow.verify import theorem1_suite

QUAD_CONFIG = {
    "seed": 9,
    "partition": {"n_agents": 4},
    "network": {"khop": 1, "total_weight": 0.8, "switch_period": 0.05,
                "switch_mode": "permute"},
    "cost": {"kind": "quadratic", "m": 2, "curvature_scale": 1.0},
    "solver": {"alpha": 0.3, "eta": 0.01, "t_end": 5.0, "method": "euler",
               "sample_stride": 20},
}


def write_config(tmp_path, body):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body), encoding="utf-8")
    return path


def test_run_quadratic_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path, QUAD_CONFIG)
    out = tmp_path / "artifacts"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    for name in ("trace.csv", "metadata.txt", "states.svg", "cost.svg",
                 "grad_sum.svg"):
        assert (out / name).exists()
    meta = (out / "metadata.txt").read_text()
    assert "status: completed" in meta
    assert "alpha_bar_tight" in meta
    assert "  divergence_time: none\n  divergence_entry: none\n" in meta


def test_run_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, QUAD_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == EXIT_OK
    assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == EXIT_OK
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert (out_a / "states.svg").read_bytes() == (out_b / "states.svg").read_bytes()


def test_run_invalid_config_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 1, "solver": {"alpha": -2.0}})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "alpha must be positive" in capsys.readouterr().err


CROSS_FIELD_CASES = {
    "khop-too-large": ({"network": {"khop": 3}, "partition": {"n_agents": 5}},
                       ["network.khop=3 out of range"]),
    "two-agents": ({"partition": {"n_agents": 2}}, ["network.khop=2 out of range"]),
    "rho-zero": ({"nonlinearity": {"kind": "log_quantizer", "rho": 0}},
                 ["nonlinearity.rho must be positive"]),
    "limit-negative": ({"nonlinearity": {"kind": "saturation", "limit": -1.0}},
                       ["nonlinearity.limit must be positive"]),
    "too-few-points": ({"data": {"n_points": 4}, "partition": {"n_agents": 5}},
                       ["partition.n_agents=5 exceeds data.n_points=4"]),
    "sweep-khop": ({"partition": {"n_agents": 5},
                    "sweep": {"mode": "dynamics", "axes": {"khop": [1, 3]}}},
                   ["sweep.axes.khop=3 out of range"]),
    "sweep-khop-fraction": ({"partition": {"n_agents": 7},
                             "sweep": {"mode": "spectral", "axes": {"khop": [2, 2.5]}}},
                            ["sweep.axes.khop=2.5 must be an integer"]),
    "alpha-null": ({"solver": {"alpha": None}}, ["solver.alpha must be a number"]),
    "khop-nan": ({"network": {"khop": float("nan")}}, ["network.khop must be an integer"]),
    "sweep-axes-list": ({"sweep": {"axes": [0.5]}}, ["sweep.axes must be an object"]),
    "rho-null": ({"nonlinearity": {"kind": "log_quantizer", "rho": None}},
                 ["nonlinearity.rho must be a number"]),
    "sweep-rho": ({"sweep": {"axes": {"rho": [0.5, -0.5]}}},
                  ["sweep.axes.rho values must be positive"]),
    "sweep-alpha": ({"sweep": {"mode": "spectral", "axes": {"alpha": [-1.0]}}},
                    ["sweep.axes.alpha values must be positive"]),
    "sweep-eta": ({"sweep": {"mode": "dynamics", "axes": {"eta": [0.0, -0.01]}}},
                  ["sweep.axes.eta values must be positive"]),
    "logq-rho-2": ({"nonlinearity": {"kind": "log_quantizer", "rho": 2.5}},
                   ["nonlinearity.rho=2.5 must be below 2", "1 - rho/2"]),
    "sweep-rho-logq-2": ({"nonlinearity": {"kind": "log_quantizer"},
                          "sweep": {"mode": "dynamics", "axes": {"rho": [1.0, 2.0]}}},
                         ["sweep.axes.rho=2.0 must be below 2", "1 - rho/2"]),
    "sweep-rho-no-quantizer": ({"nonlinearity": {"kind": "saturation", "limit": 2.0},
                                "sweep": {"axes": {"rho": [0.5]}}},
                               ["no nonlinearity line is a log_quantizer or uniform_quantizer"]),
    "sweep-t-end": ({"sweep": {"mode": "dynamics", "t_end": 0.0, "axes": {"alpha": [0.1]}}},
                    ["sweep.t_end must be positive"]),
    "seed-negative": ({"seed": -3}, ["seed=-3 must be non-negative"]),
    "section-seed-negative": ({"network": {"seed": -1}, "partition": {"seed": -2}},
                              ["network.seed=-1 must be non-negative",
                               "partition.seed=-2 must be non-negative"]),
    "switch-period-steps": ({"network": {"switch_period": 1e-9}},
                            ["solver.t_end=80 with solver.eta=0.001 and "
                             "network.switch_period=1e-09", "implies 8e+10 steps"]),
    "sweep-eta-steps": ({"sweep": {"mode": "dynamics", "axes": {"eta": [1e-7]}}},
                        ["sweep.t_end=60 with sweep.axes.eta=1e-07 and "
                         "network.switch_period=0.001", "implies 6e+08 steps"]),
    "t-end-zero-steps": ({"solver": {"t_end": 0.0004}},
                         ["solver.t_end=0.0004 with solver.eta=0.001 and "
                          "network.switch_period=0.001 (step 0.001) implies 0 steps"]),
    "sweep-t-end-zero-steps": ({"cost": {"kind": "quadratic"}, "solver": {"eta": 0.001},
                                "sweep": {"mode": "dynamics", "t_end": 0.0004,
                                          "axes": {"alpha": [0.1, 0.2]}}},
                               ["sweep.t_end=0.0004 with solver.eta=0.001 and "
                                "network.switch_period=0.001 (step 0.001) implies 0 steps"]),
    "sweep-eta-zero-steps": ({"network": {"switch_period": 1.0},
                              "sweep": {"mode": "dynamics", "t_end": 0.01,
                                        "axes": {"eta": [0.001, 0.05]}}},
                             ["sweep.t_end=0.01 with sweep.axes.eta=0.05 and "
                              "network.switch_period=1 (step 0.05) implies 0 steps"]),
    "eta-subnormal": ({"solver": {"eta": 1e-320}}, ["solver.eta=9.99989e-321", "implies inf steps"]),
    # a fixed network's period sets no step, so the message leaves it out
    "eta-subnormal-fixed": ({"network": {"switch_mode": "fixed"}, "solver": {"eta": 1e-320}},
                            ["solver.t_end=80 with solver.eta=9.99989e-321 (step 9.99989e-321) "
                             "implies inf steps"]),
    "oracle-tol-zero": ({"cost": {"oracle_tol": 0}}, ["cost.oracle_tol must be positive"]),
    "cost-m-zero": ({"cost": {"kind": "quadratic", "m": 0}}, ["cost.m must be at least 1"]),
    "cost-curvature-zero": ({"cost": {"kind": "quadratic", "curvature_scale": 0}},
                            ["cost.curvature_scale must be positive"]),
    "cost-curvature-negative": ({"cost": {"kind": "quadratic", "m": -1, "curvature_scale": -1}},
                                ["cost.m must be at least 1",
                                 "cost.curvature_scale must be positive"]),
    # json.dumps writes these as the NaN / Infinity tokens json.loads accepts
    "alpha-nan": ({"solver": {"alpha": float("nan")}}, ["solver.alpha must be finite"]),
    "eta-infinity": ({"solver": {"eta": float("inf")}}, ["solver.eta must be finite"]),
    "switch-period-nan": ({"network": {"switch_period": float("nan")}},
                          ["network.switch_period must be finite"]),
    "rho-nan": ({"nonlinearity": {"kind": "log_quantizer", "rho": float("nan")}},
                ["nonlinearity.rho must be finite"]),
    "sweep-alpha-nan": ({"sweep": {"mode": "dynamics", "axes": {"alpha": [float("nan"), 0.5]}}},
                        ["sweep.axes.alpha values must be finite"]),
    "sweep-alpha-repeated": ({"sweep": {"mode": "dynamics", "axes": {"alpha": [0.5, 0.5, 1]}}},
                             ["sweep.axes.alpha repeats the value 0.5"]),
    "sweep-eta-spectral": ({"cost": {"kind": "quadratic"},
                            "sweep": {"mode": "spectral", "axes": {"eta": [0.001, 0.002]}}},
                           ["sweep.axes.eta sets the integration step, which a spectral "
                            "sweep never reads"]),
    "sweep-alpha-unseedable": ({"partition": {"n_agents": 5}, "cost": {"kind": "quadratic", "m": 1},
                                "nonlinearity": {"kind": "log_quantizer", "rho": 1.0},
                                "sweep": {"mode": "spectral", "axes": {"alpha": [0.1, 1e303]}}},
                               ["sweep.axes.alpha=1e+303 is too large",
                                "seeds each cell's random gains with int(value * 1e6)"]),
    # integer literals that no float can hold
    "alpha-beyond-float-range": ({"solver": {"alpha": 10**400}}, ["solver.alpha must be finite"]),
    "sweep-alpha-beyond-float-range": ({"sweep": {"mode": "dynamics",
                                                  "axes": {"alpha": [0.5, 10**400]}}},
                                       ["sweep.axes.alpha values must be finite"]),
    # sizes above engine.MAX_SIZE; the builders would crash or loop for ages
    "cost-m-too-large": ({"cost": {"kind": "quadratic", "m": 10**30}},
                         ["cost.m must be at most 10000"]),
    "n-agents-too-large": ({"partition": {"n_agents": 10**20}, "cost": {"kind": "quadratic"}},
                           ["partition.n_agents must be at most 10000"]),
    "n-points-too-large": ({"data": {"n_points": 10**20}},
                           ["data.n_points must be at most 10000"]),
    "all-at-once": ({"partition": {"n_agents": 2},
                     "nonlinearity": {"kind": "uniform_quantizer", "rho": -1}},
                    ["network.khop=2 out of range", "nonlinearity.rho must be positive"]),
}


@pytest.mark.parametrize("case", sorted(CROSS_FIELD_CASES))
def test_cross_field_config_problems_exit_3(tmp_path, capsys, case):
    body, messages = CROSS_FIELD_CASES[case]
    cfg = write_config(tmp_path, {"seed": 1, **body})
    for command in ("bounds", "sweep"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:")
        for message in messages:
            assert message in err


def test_negative_seed_override_exits_3(tmp_path, capsys):
    out = str(tmp_path / "o")
    argv = ["bounds", "--preset", "fig5-sensitivity", "--seed", "-20", "--out", out]
    assert main(argv) == EXIT_CONFIG
    assert "seed=-20 must be non-negative" in capsys.readouterr().err


def test_missing_dataset_csv_exits_3(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    cfg = write_config(tmp_path, {"seed": 1, "data": {"kind": "csv", "path": str(missing)}})
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"data.path {str(missing)!r}" in err
    assert "No such file" in err


def test_malformed_dataset_csv_exits_3(tmp_path, capsys):
    data = tmp_path / "data.csv"
    cfg = write_config(tmp_path, {"seed": 1, "data": {"kind": "csv", "path": str(data)}})
    for row, message in [("0.3,abc,-1", "line 4: could not convert string to float"),
                         ("inf,0.2,1", "line 4: coordinates must be finite"),
                         ("0.3,nan,-1", "line 4: coordinates must be finite")]:
        data.write_text(f"chi1,chi2,label\n0.1,0.2,1\n\n{row}\n", encoding="utf-8")
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"data.path {str(data)!r}" in err
        assert message in err


@pytest.mark.parametrize("method, stages", [("rk4", 4), ("euler", 1)])
def test_svm_run_evaluates_each_agents_hessian_once_per_stage(tmp_path, monkeypatch,
                                                              method, stages):
    # one call per agent for the bound report, one for the curvature test at
    # the start state and one per derivative stage: never batched over agents;
    # and one on the centralized baseline's cost, for its error bound
    calls = []
    hessian = SvmHingeCost.hessian

    def counted(self, x):
        calls.append(np.shape(x))
        return hessian(self, x)

    monkeypatch.setattr(SvmHingeCost, "hessian", counted)
    n, steps = 5, 40
    body = {"seed": 94, "data": {"n_points": 60, "seed": 7},
            "partition": {"n_agents": n, "mode": "stratified"},
            "network": {"khop": 2, "switch_period": 0.001, "switch_mode": "permute"},
            "nonlinearity": {"kind": "log_quantizer", "rho": 1.0},
            "cost": {"kind": "svm"}, "outputs": {"plots": False},
            "solver": {"alpha": 6.0, "eta": 0.001, "t_end": steps * 0.001, "method": method,
                       "sample_stride": 10}}
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_config(tmp_path, body)), "--out", str(out)]) == EXIT_OK
    assert f"steps: {steps}" in (out / "metadata.txt").read_text()
    assert len(calls) == n * (stages * steps + 2) + 1
    assert all(shape[-1] == 4 and len(shape) <= 2 for shape in calls)


def test_unreachable_oracle_tolerance_exits_3_with_the_gradient_norm_reached(tmp_path, capsys):
    # the fig2 oracle stops moving near a gradient norm of 8e-9, so 1e-12 is
    # out of reach: the run exits 3 at once instead of at the iteration cap
    body = json.loads(cfgmod.load_preset("fig2-nonlinear-dsvm"))
    body["cost"]["oracle_tol"] = 1e-12
    body["solver"]["t_end"] = 0.01
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_config(tmp_path, body)), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert re.search(r"cost\.oracle_tol 1e-12 is out of reach: the centralized oracle stopped "
                     r"moving at iteration \d+, at gradient norm [0-9.]+e-09\n", err), err
    assert "Traceback" not in err and not (out / "trace.csv").exists()
    # a reachable tolerance runs as before
    body["cost"]["oracle_tol"] = 1e-8
    assert main(["run", "--config", str(write_config(tmp_path, body)), "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("agents, khop, switches", [(4, 1, "100"), (5, 2, "1")],
                         ids=["ring", "uniform-complete"])
def test_run_metadata_counts_laplacians_and_derivative_evaluations(tmp_path, agents, khop,
                                                                   switches):
    # 500 Euler steps over 100 switching intervals; a permuted 4-ring changes
    # its graph every interval, a uniform K5 never does
    body = {**QUAD_CONFIG, "partition": {"n_agents": agents},
            "network": {**QUAD_CONFIG["network"], "khop": khop}}
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_config(tmp_path, body)), "--out", str(out)]) == EXIT_OK
    meta = read_result(out)
    assert (meta["steps"], meta["derivative_evaluations"]) == ("500", "500")
    assert (meta["topology_switches"], meta["fixed_point_time"]) == (switches, "none")


def test_sweep_dynamics_programming_error_propagates(tmp_path, monkeypatch):
    def broken_integrate(costs, x0, config):
        raise TypeError("integrate bug")

    monkeypatch.setattr(cli, "integrate", broken_integrate)
    body = {**QUAD_CONFIG, "sweep": {"mode": "dynamics", "t_end": 1.0,
                                     "axes": {"alpha": [0.1, 0.2]}}}
    cfg = write_config(tmp_path, body)
    with pytest.raises(TypeError, match="integrate bug"):
        main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])


ALLOCATION = "Unable to allocate 44.7 GiB for an array with shape (1, 10000001, 2, 100, 3)"


@pytest.mark.parametrize("error, line", [
    (MemoryError(ALLOCATION), f"gtflow: out of memory: {ALLOCATION}\n"),
    (MemoryError(), "gtflow: out of memory\n"),
], ids=["numpy-allocation", "bare"])
def test_memory_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch, error, line):
    # as integrate's preallocated record fails on an accepted config too large
    # for the machine
    def out_of_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "integrate", out_of_memory)
    cfg = write_config(tmp_path, QUAD_CONFIG)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == line
    assert "Traceback" not in err


@pytest.mark.parametrize("axes", [
    {"khop": [1, 2], "alpha": [0.3, 3.0, 400.0]},
    {"eta": [0.005, 0.01, 0.025], "alpha": [0.3, 3.0, 400.0]},
    {"rho": [0.25, 1.0, 1.9], "alpha": [0.3, 3.0, 400.0]},
], ids=lambda axes: "-".join(axes))
def test_sweep_dynamics_rows_match_one_run_per_cell(tmp_path, axes):
    body = {**QUAD_CONFIG, "partition": {"n_agents": 5},
            "nonlinearity": {"kind": "log_quantizer", "rho": 1.0},
            "outputs": {"plots": False},
            "sweep": {"mode": "dynamics", "t_end": 2.0, "axes": axes}}
    path = write_config(tmp_path, body)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
    header, *lines = (out / "sweep.csv").read_text().splitlines()
    names = sorted(axes)
    assert header.split(",") == names + ["status", "final_grad_sum_norm", "stable"]
    cfg = cfgmod.parse_config(json.dumps(body))
    costs, x0, _ = cli._build_costs(cfg)
    statuses = set()
    for cell, line in zip(cli._axis_grid(axes), lines, strict=True):
        cell_cfg = cfgmod.sweep_cell(cfg, cell)
        solver = cfgmod.build_solver(cell_cfg, cfgmod.build_schedule(cell_cfg))
        trace = integrate(costs, x0, solver)
        *values, status, grad, stable = line.split(",")
        assert [float(v) for v in values] == [cell[k] for k in names]
        assert (status, stable) == (trace.status, str(trace.status == "completed"))
        assert float(grad) == trace.grad_sum_norm[-1]
        statuses.add(status)
    assert statuses == {"completed", "diverged"}


def test_run_divergent_config_exits_2(tmp_path):
    body = dict(QUAD_CONFIG)
    body["solver"] = {**QUAD_CONFIG["solver"], "alpha": 500.0, "eta": 0.05}
    body["cost"] = {**QUAD_CONFIG["cost"], "curvature_scale": 50.0}
    cfg = write_config(tmp_path, body)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_DIVERGED
    meta = read_result(tmp_path / "o")
    assert meta["status"] == "diverged"
    assert 0 < int(meta["steps"]) < 100


@pytest.mark.parametrize("blowup", ["finite", "nan", "inf"])
def test_run_reports_where_and_when_it_diverged_without_numpy_warnings(tmp_path, capsys, blowup):
    # pytest turns any RuntimeWarning into an error, so a warning numpy raised
    # on the inf and NaN entries would fail this run
    if blowup == "finite":  # the divergent config of test_run_divergent_config_exits_2
        body = {**QUAD_CONFIG, "solver": {**QUAD_CONFIG["solver"], "alpha": 500.0, "eta": 0.05},
                "cost": {**QUAD_CONFIG["cost"], "curvature_scale": 50.0}}
    else:  # the quad-sweep workload's run at alpha 1e308: inf within one step
        body = {"seed": 31, "partition": {"n_agents": 8},
                "network": {"khop": 2, "total_weight": 0.8, "switch_period": 0.5,
                            "switch_mode": "permute", "seed": 5},
                "nonlinearity": {"kind": "log_quantizer", "rho": 1.0},
                "cost": {"kind": "quadratic", "m": 2, "curvature_scale": 4.0},
                "solver": {"alpha": 1e308, "eta": 0.01, "t_end": 0.05,
                           "method": "rk4" if blowup == "nan" else "euler",
                           "sample_stride": 100}}
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["run", "--config", str(write_config(tmp_path, body)), "--out", str(out)]) == EXIT_DIVERGED
    meta = read_result(out)
    row, _ = _final_row(out)
    state = {k: v for k, v in row.items() if k[:2] in ("x_", "y_")}
    if blowup == "nan":  # RK4's later stages turn the inf into NaN everywhere
        assert all(np.isnan(v) for v in state.values())
        entry = next(k for k, v in state.items() if np.isnan(v))  # columns are in C order
    else:
        # the Euler step's diagonal curvature never multiplies a zero
        # coupling by inf, so its state holds inf but no NaN
        assert not any(np.isnan(v) for v in state.values())
        assert sum(np.isinf(v) for v in state.values()) == (0 if blowup == "finite" else 24)
        entry = max(state, key=lambda k: abs(state[k]))  # the first of the largest
        assert abs(state[entry]) > 1e12
    assert float(meta["divergence_time"]) == row["t"] > 0
    assert meta["divergence_entry"] == entry
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"t = {meta['divergence_time']}, at {entry} " in err


def _final_row(out):
    """The last trace.csv row by column name, and its agent states as an (n, m) array."""
    head, *rows = (out / "trace.csv").read_text().splitlines()
    row = dict(zip(head.split(","), map(float, rows[-1].split(","))))
    n = 1 + max(int(k.split("_")[1]) for k in row if k.startswith("x_"))
    return row, np.array([v for k, v in row.items() if k.startswith("x_")]).reshape(n, -1)


@pytest.mark.parametrize("solver", [{"t_end": 1.0, "sample_stride": 7},
                                    {"alpha": 500.0, "eta": 0.05}], ids=["stride-7", "diverged"])
def test_run_metadata_reports_the_final_state(tmp_path, solver):
    body = {**QUAD_CONFIG, "solver": {**QUAD_CONFIG["solver"], **solver}}
    if "alpha" in solver:  # the divergent config of test_run_divergent_config_exits_2
        body["cost"] = {**QUAD_CONFIG["cost"], "curvature_scale": 50.0}
    out = tmp_path / "o"
    code = main(["run", "--config", str(write_config(tmp_path, body)), "--out", str(out)])
    assert code == (EXIT_DIVERGED if "alpha" in solver else EXIT_OK)
    meta = read_result(out)
    row, X = _final_row(out)
    assert row["t"] == int(meta["steps"]) * float(meta["eta_used"])
    consensus = np.max(np.linalg.norm(X - X.mean(axis=0), axis=1))
    assert float(meta["final_consensus_error"]) == consensus == row["consensus_error"]
    assert float(meta["final_grad_sum_norm"]) == row["grad_sum_norm"]


@pytest.mark.parametrize("kind", ["log_quantizer", "identity"])
def test_run_metadata_reports_agreement_ratio_and_conservation_drift(tmp_path, kind):
    body = {**QUAD_CONFIG, "nonlinearity": {"kind": kind, "rho": 1.0}}
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_config(tmp_path, body)), "--out", str(out)]) == EXIT_OK
    lines = [ln.strip() for ln in (out / "metadata.txt").read_text().splitlines()]
    at = next(i for i, ln in enumerate(lines) if ln.startswith("sector_ratio: "))
    key, ratio = lines[at + 1].split(": ")
    assert key == "agreement_ratio"
    meta = read_result(out)
    row, X = _final_row(out)
    A = np.abs(X)
    assert float(ratio) == np.max(A.max(axis=0) / A.min(axis=0)) >= 1.0
    assert float(meta["final_conservation_drift"]) == row["conservation_residual"]
    keys = [ln.split(": ")[0] for ln in lines if ": " in ln and not ln.startswith('"')]
    assert len(keys) == len(set(keys)) and not any(k.startswith("agent_") for k in keys)


def test_cli_import_leaves_the_verify_corpus_unloaded():
    code = "import sys, gtflow.cli; print('gtflow.verify' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def read_result(out):
    text = (out / "metadata.txt").read_text()
    block = text.split("\nresult:\n")[1]
    return dict(ln.strip().split(": ", 1) for ln in block.splitlines() if ": " in ln)


def test_run_metadata_reports_step_actually_used(tmp_path):
    # eta 0.03 does not divide the switching period 0.05, so 0.025 is used;
    # an eta far above the period is cut to the period itself
    for eta, eta_used, steps in [(0.03, 0.025, "200"), (1e9, 0.05, "100")]:
        body = {**QUAD_CONFIG, "solver": {**QUAD_CONFIG["solver"], "eta": eta}}
        cfg = write_config(tmp_path, body)
        with pytest.warns(UserWarning, match="does not divide"):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        meta = read_result(tmp_path / "o")
        assert float(meta["eta_used"]) == eta_used
        assert meta["steps"] == steps


def test_run_fixed_network_takes_eta_as_given(tmp_path):
    # a fixed network never switches, so its period (the default 0.001 here)
    # does not shrink the step
    body = {**QUAD_CONFIG, "network": {"khop": 1, "total_weight": 0.8, "switch_mode": "fixed"}}
    cfg = write_config(tmp_path, body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    meta = read_result(tmp_path / "o")
    assert float(meta["eta_used"]) == 0.01
    assert meta["steps"] == "500"
    assert meta["topology_switches"] == "1"


@pytest.mark.parametrize("argv, message", [
    (["run", "--preset", "fig5-sensitivity", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["run", "--out", "o"], "one of the arguments --config --preset is required"),
    (["bounds", "--preset", "fig5-sensitivity", "--fast"], "unrecognized arguments: --fast"),
    (["sweep", "--preset", "fig5-sensitivity", "--jobs", "0"], "unrecognized arguments: --jobs"),
    (["sweep", "--preset", "fig5-sensitivity", "--jobs", "-4"], "unrecognized arguments: --jobs"),
    (["sweep", "--preset", "fig5-sensitivity", "--jobs", "two"], "unrecognized arguments: --jobs"),
], ids=["seed-not-int", "no-config", "unknown-flag", "jobs-zero", "jobs-negative", "jobs-word"])
def test_bad_command_line_exits_3_with_usage(capsys, argv, message):
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage: gtflow ")
    assert message in err


def test_help_exits_0(capsys):
    assert main(["-h"]) == EXIT_OK
    assert main(["sweep", "--help"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "--preset" in text
    assert "--jobs" not in text


def test_config_that_is_not_utf8_exits_3(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b'{"seed": 1, "description": "\xff"}')
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"cannot read config {str(cfg)!r}" in err
    assert "can't decode byte 0xff" in err


@pytest.mark.parametrize("command", ["run", "bounds", "sweep"])
def test_unusable_out_exits_3_before_any_work(tmp_path, capsys, monkeypatch, command):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("integrate", "_build_costs"):
        monkeypatch.setattr(cli, name, no_work)
    cfg = write_config(tmp_path, QUAD_CONFIG)
    taken = tmp_path / "taken"
    taken.write_text("a file", encoding="utf-8")
    for out, reason in [(taken, "File exists"), (taken / "sub", "Not a directory")]:
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"gtflow: cannot use --out {str(out)!r}: {reason}\n"
    assert taken.read_text(encoding="utf-8") == "a file"


def test_bounds_reports_three_values(tmp_path, capsys):
    cfg = write_config(tmp_path, QUAD_CONFIG)
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    text = capsys.readouterr().out
    for key in ("alpha_bar_matching", "alpha_bar_spectral", "alpha_bar_tight",
                "kappa", "gamma", "eigen_ratio"):
        assert key in text
    assert (tmp_path / "o" / "bounds.txt").exists()


def test_bounds_and_run_of_a_network_past_the_float_range_of_4_to_the_nm(tmp_path, capsys):
    # n m = 600: 4^nm does not convert to a float, yet the spectral bound is a number
    body = {"seed": 3, "partition": {"n_agents": 300}, "cost": {"kind": "quadratic", "m": 2},
            "network": {"khop": 2}, "solver": {"t_end": 0.01}, "outputs": {"plots": False}}
    cfg = write_config(tmp_path, body)
    for command, name in (("bounds", "bounds.txt"), ("run", "metadata.txt")):
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        [value] = re.findall(r"^ *alpha_bar_spectral: (\S+)$", (out / name).read_text(), flags=re.M)
        assert math.isfinite(float(value)) and float(value) >= 0.0
    assert "Traceback" not in capsys.readouterr().err


def test_bounds_need_no_system_matrix(tmp_path, monkeypatch):
    # the bound constants come from the n-by-n Laplacian alone
    argv = ["bounds", "--preset", "fig2-nonlinear-dsvm", "--out"]
    assert main(argv + [str(tmp_path / "a")]) == EXIT_OK

    def no_assemble(*args):
        raise AssertionError("bounds assembled the 2nm-by-2nm system matrix")

    monkeypatch.setattr(spectral, "assemble", no_assemble)
    assert main(argv + [str(tmp_path / "b")]) == EXIT_OK
    assert ((tmp_path / "a" / "bounds.txt").read_bytes()
            == (tmp_path / "b" / "bounds.txt").read_bytes())


def test_bounds_identity_reduces_to_slow_over_gamma(tmp_path, capsys):
    cfg = write_config(tmp_path, QUAD_CONFIG)
    main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "o")])
    lines = dict(ln.split(": ") for ln in
                 (tmp_path / "o" / "bounds.txt").read_text().splitlines())
    tight = float(lines["alpha_bar_tight"])
    slow = float(lines["slowest_decay"])
    gamma = float(lines["gamma"])
    assert tight == pytest.approx(slow / gamma)


def test_bounds_khop_lowers_eigen_ratio(tmp_path):
    # denser coupling narrows the Laplacian spectrum spread
    ratios = {}
    for k in (1, 3):
        body = json.loads(json.dumps(QUAD_CONFIG))
        body["partition"]["n_agents"] = 7
        body["network"]["khop"] = k
        cfg = write_config(tmp_path, body)
        out = tmp_path / f"k{k}"
        main(["bounds", "--config", str(cfg), "--out", str(out)])
        lines = dict(ln.split(": ") for ln in
                     (out / "bounds.txt").read_text().splitlines())
        ratios[k] = float(lines["eigen_ratio"])
    assert ratios[3] < ratios[1]


def test_bounds_sector_ratio_orders_tight_bound(tmp_path):
    tights = {}
    for rho in (0.25, 1.6):
        body = json.loads(json.dumps(QUAD_CONFIG))
        body["nonlinearity"] = {"kind": "log_quantizer", "rho": rho}
        cfg = write_config(tmp_path, body)
        out = tmp_path / f"rho{rho}"
        main(["bounds", "--config", str(cfg), "--out", str(out)])
        lines = dict(ln.split(": ") for ln in
                     (out / "bounds.txt").read_text().splitlines())
        tights[rho] = float(lines["alpha_bar_tight"])
    assert tights[1.6] < tights[0.25]


def test_sweep_empty_axes_degenerates_to_run(tmp_path):
    cfg = write_config(tmp_path, QUAD_CONFIG)
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert (out / "trace.csv").exists()


def test_sweep_spectral_grid(tmp_path):
    body = dict(QUAD_CONFIG)
    body["nonlinearity"] = {"kind": "log_quantizer", "rho": 1.0}
    body["sweep"] = {"mode": "spectral",
                     "axes": {"alpha": [0.01, 0.1, 30.0], "rho": [0.25, 1.0]}}
    cfg = write_config(tmp_path, body)
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,rho,sector_ratio,zero_count,max_nonzero_real,stable"
    assert len(lines) == 7
    assert (out / "sweep.svg").exists()
    header = lines[0].split(",")
    cells = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    small = [c for c in cells if float(c["alpha"]) == 0.01]
    assert all(c["stable"] == "True" for c in small)
    # the tabulated linearized ratios ride along per rho cell
    ratios = {float(c["rho"]): float(c["sector_ratio"]) for c in cells}
    assert ratios[0.25] == pytest.approx(9 / 7)
    assert ratios[1.0] == pytest.approx(3.0)


def test_sweep_spectral_rows_match_four_regimes_per_cell(tmp_path, monkeypatch):
    # cells that share khop and alpha share one unit-gain decomposition; every
    # row must still equal its own cell's four regimes, in the order lower,
    # unit, upper, random, whose first unstable report is the worst
    axes = {"khop": [1, 2], "rho": [0.25, 1.0, 1.9], "alpha": [0.01, 0.3, 2.0]}
    body = {**QUAD_CONFIG, "seed": 12, "partition": {"n_agents": 6},
            "network": {**QUAD_CONFIG["network"], "directed": True, "total_weight": 0.9},
            "cost": {**QUAD_CONFIG["cost"], "curvature_scale": 8.0},
            "nonlinearity": {"kind": "log_quantizer", "rho": 1.0},
            "outputs": {"plots": False}, "sweep": {"mode": "spectral", "axes": axes}}
    path = write_config(tmp_path, body)
    report = spectral.spectral_report
    calls = []
    monkeypatch.setattr(spectral, "spectral_report", lambda A, m: calls.append(0) or report(A, m))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
    assert len(calls) == 3 * 18 + 6  # three per cell, one per (khop, alpha) group
    text = (out / "sweep.csv").read_text()
    cfg = cfgmod.parse_config(json.dumps(body))
    costs, x0, _ = cli._build_costs(cfg)
    hess = aggregate_hessian(costs, x0)
    nm = x0.size
    verdicts = set()
    for cell, line in zip(cli._axis_grid(axes), text.splitlines()[1:], strict=True):
        cell_cfg = cfgmod.sweep_cell(cfg, cell)
        lap = laplacian(cfgmod.build_schedule(cell_cfg).base_graph)
        tight = cli._combined_sector(cell_cfg, mode="tight")
        rng = np.random.default_rng([cfg.seed + 11, *(int(v * 1e6) for v in cell.values())])
        gains = (np.full(nm, tight.kappa), np.ones(nm), np.full(nm, tight.upper),
                 rng.uniform(tight.kappa, tight.upper, size=nm))
        regimes = [report(spectral.assemble(lap, hess, xi, cell["alpha"]), x0.shape[1]) for xi in gains]
        worst = next((r for r in regimes if not r.stable), regimes[0])
        stable = all(r.stable for r in regimes)
        expected = [*(cell[k] for k in sorted(axes)), cli._combined_sector(cell_cfg).ratio,
                    worst.zero_count, worst.max_nonzero_real, stable]
        assert line == ",".join(cli._csv_cell(v) for v in expected)
        verdicts.add(stable)
    assert verdicts == {True, False}


def _map_fills(svg_text):
    """Fill colors of the heat-map cells, row by row."""
    return re.findall(r'<rect x="[^"]*" y="[^"]*" width="[^"]*" height="[^"]*" '
                      r'fill="(#[0-9a-f]{6})"', svg_text)


STABLE_FILL, HALF_FILL, UNSTABLE_FILL = "#ff1d26", "#ffffff", "#313695"


def test_sweep_map_of_all_stable_grid_is_drawn_stable(tmp_path):
    body = dict(QUAD_CONFIG)
    body["nonlinearity"] = {"kind": "log_quantizer", "rho": 1.0}
    body["sweep"] = {"mode": "spectral", "axes": {"alpha": [0.01, 0.02], "rho": [0.25, 1.0]}}
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(write_config(tmp_path, body)), "--out", str(out)]) == EXIT_OK
    assert "False" not in (out / "sweep.csv").read_text()
    assert _map_fills((out / "sweep.svg").read_text()) == [STABLE_FILL] * 4


def test_sweep_map_averages_verdicts_over_a_third_axis(tmp_path, monkeypatch):
    # (alpha=1, khop=1) is stable at rho=0.5 only; the last rho must not decide its cell
    verdicts = {(1.0, 0.5): True, (1.0, 1.0): False, (2.0, 0.5): False, (2.0, 1.0): False}

    def fake_rows(cfg, axes):
        return [{"alpha": a, "khop": 1.0, "rho": r, "stable": ok}
                for (a, r), ok in verdicts.items()]

    monkeypatch.setattr(cli, "_sweep_spectral", fake_rows)
    body = dict(QUAD_CONFIG)
    body["nonlinearity"] = {"kind": "log_quantizer", "rho": 1.0}
    body["sweep"] = {"mode": "spectral",
                     "axes": {"alpha": [1.0, 2.0], "khop": [1], "rho": [0.5, 1.0]}}
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(write_config(tmp_path, body)), "--out", str(out)]) == EXIT_OK
    assert _map_fills((out / "sweep.svg").read_text()) == [HALF_FILL, UNSTABLE_FILL]


def test_sweep_without_plots_writes_no_map(tmp_path):
    body = dict(QUAD_CONFIG)
    body["outputs"] = {"plots": False}
    body["sweep"] = {"mode": "spectral", "axes": {"alpha": [0.01, 30.0]}}
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(write_config(tmp_path, body)), "--out", str(out)]) == EXIT_OK
    assert (out / "sweep.csv").exists()
    assert not (out / "sweep.svg").exists()


def test_sweep_spectral_directed_shows_unstable_cells(tmp_path):
    body = json.loads(json.dumps(QUAD_CONFIG))
    body["seed"] = 12
    body["partition"]["n_agents"] = 6
    body["network"]["directed"] = True
    body["network"]["total_weight"] = 0.9
    body["cost"]["curvature_scale"] = 8.0
    body["sweep"] = {"mode": "spectral", "axes": {"alpha": [0.01, 2.0]}}
    cfg = write_config(tmp_path, body)
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    verdicts = {float(r["alpha"]): r["stable"] == "True" for r in rows}
    assert verdicts[0.01] is True
    assert verdicts[2.0] is False


def test_preset_listing(capsys):
    assert main(["preset", "list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "fig2-nonlinear-dsvm" in out
    assert "fig5-sensitivity" in out


VERIFY_STDOUT = """\
PASS  graph invariants: 100 random rings, 0 failures
PASS  switching reproducibility: bitwise-identical draws per (seed, interval)
PASS  nonlinearity properties: odd, monotone, sector-contained (12 decades)
PASS  cost finite differences: 100 random points, rel tol 1e-5
PASS  smoothing gap: 0 < L - max(z,0) <= log(2)/mu (float-resolution aware); L'' even and > 0 for |mu z| <= 700
PASS  zero-eigenvalue structure: 200 undirected and 200 directed fixtures below the tight bound, 0 violations
PASS  eigenvalue derivative at alpha=0: 40 fixtures, closed form vs finite differences (rel tol 1e-4)
PASS  matching distance metric: 60 random multisets: symmetry, identity, triangle, shift, brute-force
PASS  matching perturbation estimate: 320 (fixture, alpha) cells, worst distance / estimate 0.0567, 0 violations
PASS  linear-engine step oracle: 25 fixtures, Euler step vs (I + eta M) within 1e-12
PASS  equilibrium invariance: derivative at [x*; 0] is zero for every link kind
PASS  conservation drift: quadratic exact; Euler ~x2 per halving, RK4 ~x16 on smooth links
PASS  Lyapunov decrease: V non-increasing at every RK4 step and below 1e-3 V0 at the end on 12 undirected and 12 directed fixtures where it is a Lyapunov function of the linear flow (1332 drawn)
PASS  trace determinism: identical config twice gives byte-identical CSV
PASS  member axis: 2 fixtures x 5 lock-step members, each bit-identical to its own run and the quadratic's to its per-stage Hessian run; drift exact (quadratic) or < 1% (svm); one of 3 members stops at an exact fixed point, byte for byte its forced run
15/15 checks passed
"""


def test_verify_command_passes(capsys):
    # the corpus is fixed, so every detail string (counts drawn, worst ratio) is too
    assert main(["verify"]) == EXIT_OK
    assert capsys.readouterr().out == VERIFY_STDOUT


def test_theorem1_suite_catches_sign_mutation():
    # flip the sign of the descent coupling: the suite must notice
    def broken_assemble(lap, hess, gains, alpha):
        A0 = spectral.assemble(lap, hess, gains, 0.0)
        return A0 - (spectral.assemble(lap, hess, gains, alpha) - A0)

    result = theorem1_suite(assemble_fn=broken_assemble)
    assert not result.passed
    assert result.failures


def test_svm_run_reports_the_oracle_gradient_norm(tmp_path):
    body = {"seed": 94, "data": {"n_points": 60, "seed": 7},
            "partition": {"n_agents": 3, "mode": "stratified"},
            "network": {"khop": 1, "switch_period": 0.01, "switch_mode": "permute"},
            "nonlinearity": {"kind": "log_quantizer", "rho": 1.0},
            "cost": {"kind": "svm", "oracle_tol": 1e-7}, "outputs": {"plots": False},
            "solver": {"alpha": 6.0, "eta": 0.01, "t_end": 0.1, "method": "rk4"}}
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_config(tmp_path, body)), "--out", str(out)]) == EXIT_OK
    meta = (out / "metadata.txt").read_text()
    [norm] = re.findall(r"^  oracle_gradient_norm: (\S+)$", meta, flags=re.M)
    assert 0.0 < float(norm) <= 1e-7
    # the oracle's local error estimate follows it, far below the agreement floor
    [bound] = re.findall(r"^  oracle_gradient_norm: \S+\n  oracle_error_bound: (\S+)$", meta,
                         flags=re.M)
    [distance] = re.findall(r"^  distance_to_oracle: (\S+)$", meta, flags=re.M)
    assert 0.0 < float(bound) < float(distance) and np.isfinite(float(bound))
    # the per-agent lines stay the only keys that start with agent_
    assert re.findall(r"^  (agent_\w*):", meta, flags=re.M) == [f"agent_{i}_final" for i in range(3)]


# configs at the edge of the float range that once ended in a traceback
SPAN_OVERFLOW = {"seed": 2, "partition": {"n_agents": 5},
                 "network": {"khop": 1, "switch_mode": "fixed"},
                 "cost": {"kind": "quadratic", "m": 2, "curvature_scale": 3.0},
                 "solver": {"alpha": 1e308, "eta": 1.0, "t_end": 1.0, "method": "euler",
                            "sample_stride": 1}}
SPAN_ROUNDS_TO_ZERO = {"seed": 10, "partition": {"n_agents": 3},
                       "network": {"khop": 1, "switch_mode": "fixed", "switch_period": 0.2},
                       "nonlinearity": {"kind": "uniform_quantizer", "rho": 1e300},
                       "cost": {"kind": "quadratic", "m": 2, "curvature_scale": 1e150},
                       "solver": {"alpha": 1.0, "eta": 0.1, "t_end": 0.3, "method": "rk4"}}
OVERFLOWING_SYSTEM = {"seed": 12, "partition": {"n_agents": 5},
                      "network": {"khop": 1, "switch_mode": "fixed"},
                      "cost": {"kind": "quadratic", "m": 1, "curvature_scale": 1.7e308},
                      "nonlinearity": {"kind": "log_quantizer", "rho": 1.0},
                      "outputs": {"plots": False},
                      "sweep": {"mode": "spectral", "axes": {"alpha": [0.2]}}}


@pytest.mark.parametrize("body", [SPAN_OVERFLOW, SPAN_ROUNDS_TO_ZERO],
                         ids=["span-overflows", "span-rounds-to-zero"])
def test_diverged_run_near_the_float_limit_draws_its_plots(tmp_path, capsys, body):
    # states of about +-1.67e308, whose span overflows, and a cost column
    # whose one finite value 7.97e150 does not move when one unit is added
    out = tmp_path / "o"
    assert main(["run", "--config", str(write_config(tmp_path, body)), "--out", str(out)]) == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("gtflow: the run diverged at t = ")
    for name in ("states.svg", "cost.svg", "grad_sum.svg"):
        assert "nan" not in (out / name).read_text()


def test_run_whose_cost_moves_by_one_ulp_finishes(tmp_path):
    # the cost column reads 7.9658407712319912 then ...903: a tick step below
    # half an ulp of the values once left the cost plot's tick loop spinning
    body = {"seed": 10, "partition": {"n_agents": 3},
            "network": {"khop": 1, "switch_mode": "fixed"},
            "nonlinearity": {"kind": "uniform_quantizer", "rho": 1e300},
            "cost": {"kind": "quadratic", "m": 2},
            "solver": {"alpha": 5e-16, "eta": 0.1, "t_end": 0.3, "method": "euler"}}
    out = tmp_path / "o"
    argv = [sys.executable, "-m", "gtflow.cli", "run",
            "--config", str(write_config(tmp_path, body)), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    costs = [row["cost"] for row in csv.DictReader((out / "trace.csv").read_text().splitlines())]
    assert costs == ["7.9658407712319912", "7.9658407712319903"]
    assert "7.96584" in (out / "cost.svg").read_text()


def test_spectral_cell_whose_system_matrix_overflows_is_unstable(tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["sweep", "--config", str(write_config(tmp_path, OVERFLOWING_SYSTEM)), "--out", str(out)]
    with pytest.warns(RuntimeWarning, match="overflow"):  # in assemble's B @ LG
        assert main(argv) == EXIT_OK
    [row] = csv.DictReader((out / "sweep.csv").read_text().splitlines())
    assert row["stable"] == "False"
    assert "Traceback" not in capsys.readouterr().err
    # a matrix the eigensolver refuses reads as a report that is not stable
    report = spectral.spectral_report(np.full((4, 4), np.inf), 1)
    assert not report.stable and math.isnan(report.max_nonzero_real)


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"
BASES = ([json.loads(cfgmod.load_preset(name)) for name in cfgmod.preset_names()]
         + [json.loads(path.read_text(encoding="utf-8")) for path in sorted(WORKLOADS.glob("*.json"))])
NUMERIC_KEYS = [("seed",)] + [(section, key) for section, keys in cfgmod.SCHEMA.items()
                               for key, ((kind, _), _) in keys.items()
                               if kind in ("number", "integer")]
EXTREMES = st.sampled_from([0, -1, 3, 0.0, 1e-300, -1e-300, 1e-150, -1e-8, 1e8, 1e150,
                            -1e150, 1e300, 1.7e308, -1.7e308])


@st.composite
def mutated_configs(draw):
    """A preset or workload cut to a few hundred steps and two values per sweep
    axis, with one to three numeric keys set to extreme values."""
    body = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    solver = body["solver"]
    solver["t_end"] = min(solver["t_end"], 300 * solver["eta"])
    if "sweep" in body:
        body["sweep"]["t_end"] = solver["t_end"]
        body["sweep"]["axes"] = {k: v[:2] for k, v in body["sweep"]["axes"].items()}
    for path in draw(st.lists(st.sampled_from(NUMERIC_KEYS), min_size=1, max_size=3, unique=True)):
        *sections, key = path
        target = body.setdefault(sections[0], {}) if sections else body
        target[key] = draw(EXTREMES)
    return body


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's own, on these inputs
@settings(max_examples=60, deadline=None, derandomize=True)
@example(body=SPAN_OVERFLOW, command="run")
@example(body=SPAN_ROUNDS_TO_ZERO, command="run")
@example(body=OVERFLOWING_SYSTEM, command="sweep")
@given(body=mutated_configs(), command=st.sampled_from(["run", "bounds", "sweep"]))
def test_every_extreme_config_exits_cleanly(body, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "o")])
    assert code in (EXIT_OK, EXIT_DIVERGED, EXIT_CONFIG), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
