"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The distributed-SVM criteria run the shipped presets end to end and
take a few minutes; everything else is fast.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from gtflow import cli
from gtflow import config as cfgmod
from gtflow import verify
from gtflow.cli import main as cli_main
from gtflow.config import load_preset, parse_config
from gtflow.cost import QuadraticCost, aggregate_hessian, infinity_norm
from gtflow.engine import SolverConfig, integrate
from gtflow.graph import SwitchingSchedule, SwitchMode, laplacian, make_khop_ring
from gtflow.nonlinear import log_quantizer, sector_bounds
from gtflow.spectral import assemble, laplacian_rates, spectral_report, step_size_bounds
from gtflow.svmlab import dsvm_experiment


def report(num, name, detail):
    print(f"\nACCEPTANCE {num} ({name}): PASS — {detail}")


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_sector_ratio_table():
    start = time.time()
    # exact rational identity: (1 + rho/2) / (1 - rho/2) = (2 + rho)/(2 - rho)
    assert (2 + Fraction("1.6")) / (2 - Fraction("1.6")) == 9
    assert (2 + Fraction(1)) / (2 - Fraction(1)) == 3
    third = (2 + Fraction("0.25")) / (2 - Fraction("0.25"))
    assert third == Fraction(9, 7)

    ratios = {}
    for rho in (1.6, 1.0, 0.25):
        b = sector_bounds(log_quantizer(rho))
        ratios[rho] = b.ratio
    assert ratios[1.6] == pytest.approx(9.0, rel=1e-12)
    assert ratios[1.0] == pytest.approx(3.0, rel=1e-12)
    assert ratios[0.25] == pytest.approx(float(Fraction(9, 7)), rel=1e-12)
    # tabulated two-decimal values within rounding
    assert abs(ratios[0.25] - 1.28) < 0.01
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, "sector-ratio table",
           f"ratios 9, 3, {ratios[0.25]:.4f} exact in rationals, {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_zero_eigenvalue_structure():
    start = time.time()
    result = verify.theorem1_suite()
    elapsed = time.time() - start
    assert result.passed, result.failures[:3]
    assert elapsed < 60
    report(2, "zero-eigenvalue structure",
           f"200/200 fixtures: exactly m zeros, rest in LHP, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_eigen_derivative():
    start = time.time()
    result = verify.check_eigen_derivative()
    elapsed = time.time() - start
    assert result.passed, result.failures[:3]
    assert elapsed < 30
    report(3, "eigenvalue derivative",
           f"40 fixtures, finite differences vs closed form at 1e-4, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_linear_step_oracle():
    start = time.time()
    result = verify.check_linear_step_oracle()
    elapsed = time.time() - start
    assert result.passed, result.failures[:3]
    assert elapsed < 5
    report(4, "linear-engine oracle",
           f"25 fixtures, Euler step == (I + eta M) state at 1e-12, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_conservation():
    start = time.time()
    # quadratic fixture over the full horizon: the discrete update conserves
    # the tracker-minus-gradient sum exactly, so machine noise bounds it far
    # below C * eta with C pinned at 1e-6
    rng = np.random.default_rng(8)
    costs = [QuadraticCost(np.diag(rng.uniform(0.4, 1.0, size=2)),
                           rng.normal(size=2)) for _ in range(5)]
    sched = SwitchingSchedule(make_khop_ring(5, 1, 0.8), 1.0, mode=SwitchMode.FIXED)
    x0 = rng.uniform(-1, 1, size=(5, 2))
    pinned_c = 1e-6
    for g in (None, log_quantizer(1.0)):
        kwargs = {} if g is None else {"g": g}
        for eta in (0.02, 0.01):
            cfg = SolverConfig(alpha=0.3, eta=eta, t_end=50.0, schedule=sched,
                               sample_stride=100, **kwargs)
            trace = integrate(costs, x0, cfg)
            assert trace.conservation.max() <= pinned_c * eta

    # integrator-order scaling on the smooth-gradient fixture
    result = verify.check_conservation()
    assert result.passed, result.failures[:3]
    elapsed = time.time() - start
    assert elapsed < 30
    report(5, "conservation law",
           f"quadratic drift <= {pinned_c:g}*eta; Euler halves, RK4 ~x16 "
           f"on smooth links, {elapsed:.1f}s")


# ------------------------------------------------------- criteria 6, 7 shared

def _run_preset_variant(preset, nonlinearity=None):
    raw = json.loads(load_preset(preset))
    if nonlinearity is not None:
        raw["nonlinearity"] = nonlinearity
    cfg = parse_config(json.dumps(raw))
    costs, x0, (data, _) = cli._build_costs(cfg)
    solver = cfgmod.build_solver(cfg, cfgmod.build_schedule(cfg))
    cost = cfg["cost"]
    start = time.time()
    rep = dsvm_experiment(data, costs, solver, x0, regularizer_mode=cost["regularizer_mode"],
                          oracle_tol=cost["oracle_tol"])
    return rep, time.time() - start


@pytest.fixture(scope="module")
def dsvm_runs():
    runs = {}
    runs["logq"] = _run_preset_variant("fig2-nonlinear-dsvm")
    runs["linear"] = _run_preset_variant("fig3-linear-dsvm")
    runs["uniform"] = _run_preset_variant(
        "fig2-nonlinear-dsvm", {"kind": "uniform_quantizer", "rho": 1.0})
    return runs


def test_criterion_6_dsvm_reproduction(dsvm_runs):
    for label in ("linear", "logq"):
        rep, elapsed = dsvm_runs[label]
        assert rep.trace.status == "completed", label
        assert rep.distance_to_oracle <= 1e-2, (label, rep.distance_to_oracle)
        assert rep.consensus_accuracy == rep.oracle_accuracy, label
        assert elapsed < 300, (label, elapsed)
    lin, logq = dsvm_runs["linear"][0], dsvm_runs["logq"][0]
    report(6, "distributed SVM reproduction",
           f"identity dist={lin.distance_to_oracle:.2e}, "
           f"log-quantized dist={logq.distance_to_oracle:.2e}, "
           f"accuracy {logq.consensus_accuracy} == oracle {logq.oracle_accuracy}")


def test_criterion_7_uniform_quantizer_residual(dsvm_runs):
    uni, elapsed = dsvm_runs["uniform"]
    logq = dsvm_runs["logq"][0]
    assert elapsed < 300
    # bounded trajectory, no divergence
    assert uni.trace.status == "completed"
    assert np.isfinite(uni.trace.states[:, 0]).all()
    uni_gn, logq_gn = uni.trace.grad_sum_norm[-1], logq.trace.grad_sum_norm[-1]
    assert uni_gn > 0
    ratio = uni_gn / logq_gn
    assert ratio > 10, (uni_gn, logq_gn)
    report(7, "uniform-quantization residual",
           f"bounded run, grad-sum residual {uni_gn:.2e} "
           f"= {ratio:.0f}x the log-quantized run's")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_bound_conservatism_and_trends():
    start = time.time()
    rng0 = np.random.default_rng(12)
    hvals = rng0.uniform(0.5, 8.0, size=5)
    hess = hvals.reshape(5, 1, 1)
    alphas = np.logspace(np.log10(0.02), np.log10(2.0), 25)
    rhos = (0.25, 1.0, 1.6)

    frontiers = {}
    saw_unstable = False
    for directed in (False, True):
        for k in (1, 2):
            lap = laplacian(make_khop_ring(5, k, 0.8, directed=directed))
            slowest, radius = laplacian_rates(lap)
            for rho in rhos:
                kap, up = np.exp(-rho / 2), np.exp(rho / 2)
                bounds = step_size_bounds(kap, up, infinity_norm(hess), slowest, radius, 5, 1)
                rng = np.random.default_rng(99)
                regimes = {
                    "lower": np.full(5, kap),
                    "unit": np.ones(5),
                    "upper": np.full(5, up),
                    "rand_a": rng.uniform(kap, up, 5),
                    "rand_b": rng.uniform(kap, up, 5),
                }
                frontier = 0.0
                for a in alphas:
                    stable = all(spectral_report(assemble(lap, hess, xi, float(a)), 1).stable
                                 for xi in regimes.values())
                    if stable:
                        frontier = float(a)
                    else:
                        saw_unstable = True
                    # conservatism: nothing below the tight bound is unstable
                    if a < bounds.tight:
                        assert stable, (directed, k, rho, float(a), bounds.tight)
                frontiers[(directed, k, rho)] = frontier

    assert saw_unstable  # cells above the empirical frontier go unstable
    # larger sector ratio shrinks the stable region (directed ring, khop 1)
    assert (frontiers[(True, 1, 0.25)] >= frontiers[(True, 1, 1.0)]
            >= frontiers[(True, 1, 1.6)])
    assert frontiers[(True, 1, 0.25)] > frontiers[(True, 1, 1.6)]
    # larger eigen-ratio (sparser ring) shrinks the stable region
    for rho in rhos:
        assert frontiers[(True, 2, rho)] >= frontiers[(True, 1, rho)]
    elapsed = time.time() - start
    assert elapsed < 180
    report(8, "step-size bound conservatism",
           f"no unstable cell below the tight bound; directed frontier "
           f"{frontiers[(True, 1, 0.25)]:.2f} -> {frontiers[(True, 1, 1.6)]:.2f} "
           f"as the sector ratio grows, {elapsed:.0f}s")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_lyapunov_decrease():
    start = time.time()
    checked = 0
    for seed in (0, 3, 14):
        for m in (1, 2):
            rng = np.random.default_rng(seed)
            costs = [QuadraticCost(np.diag(rng.uniform(0.4, 1.0, size=m) * 0.8),
                                   rng.normal(size=m)) for _ in range(5)]
            sched = SwitchingSchedule(make_khop_ring(5, 1, 0.8), 1.0,
                                      mode=SwitchMode.FIXED)
            x0 = rng.uniform(-1, 1, size=(5, m))
            q_sum = sum(c.Q for c in costs)
            x_star = np.linalg.solve(q_sum, sum(c.Q @ c.b for c in costs))
            ref = np.tile(x_star, (5, 1))
            cfg = SolverConfig(alpha=0.3, eta=0.005, t_end=75.0, schedule=sched,
                               sample_stride=200)
            trace = integrate(costs, x0, cfg, reference=ref)
            assert trace.status == "completed"
            v = trace.lyapunov
            # samplewise monotone within integration noise
            assert np.all(np.diff(v) <= 1e-10 * v[0]), (seed, m)
            # log-envelope decay within a factor two of the spectral rate
            hess = aggregate_hessian(costs, ref)
            lap = laplacian(sched.base_graph)
            rep = spectral_report(assemble(lap, hess, None, 0.3), m)
            keep = v > 1e-18
            slope = np.polyfit(trace.times[keep], np.log(v[keep]), 1)[0]
            predicted = 2 * abs(rep.max_nonzero_real)
            assert predicted / 2 <= -slope <= predicted * 2, (seed, m, slope, predicted)
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 60
    report(9, "Lyapunov decrease",
           f"{checked} stable runs monotone at samples; decay within 2x of "
           f"the spectral rate, {elapsed:.0f}s")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_run_determinism(tmp_path):
    start = time.time()
    body = {
        "seed": 21,
        "partition": {"n_agents": 5},
        "network": {"khop": 2, "total_weight": 0.8, "switch_period": 0.01,
                    "switch_mode": "permute"},
        "nonlinearity": {"kind": "log_quantizer", "rho": 1.0},
        "cost": {"kind": "quadratic", "m": 2, "curvature_scale": 1.0},
        "solver": {"alpha": 0.3, "eta": 0.01, "t_end": 5.0, "method": "euler",
                   "sample_stride": 10},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(body), encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    csv_a = (out_a / "trace.csv").read_bytes()
    csv_b = (out_b / "trace.csv").read_bytes()
    assert csv_a == csv_b
    elapsed = time.time() - start
    assert elapsed < 60
    report(10, "determinism",
           f"two runs, byte-identical trace CSV ({len(csv_a)} bytes), {elapsed:.1f}s")
