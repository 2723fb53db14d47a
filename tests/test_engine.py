import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from gtflow import engine
from gtflow.cost import (QuadraticCost, SvmHingeCost, aggregate_hessian, global_cost,
                         infinity_norm, stage_hessian, sum_gradient)
from gtflow.engine import (SolverBatch, SolverConfig, agreement_ratio, conservation_residual,
                           derivative, integrate)
from gtflow.graph import SwitchingSchedule, SwitchMode, graph_at, laplacian, make_khop_ring
from gtflow.nonlinear import (apply, identity, log_quantizer, saturation,
                              uniform_quantizer)
from gtflow.spectral import assemble, laplacian_rates, spectral_report, step_size_bounds
from gtflow.verify import _quadratic_setup, check_lyapunov_decrease, freezing_fixture


def quadratic_fixture(n=5, m=2, seed=0, curvature=1.0):
    rng = np.random.default_rng(seed)
    costs = [QuadraticCost(np.diag(rng.uniform(0.4, 1.0, size=m) * curvature),
                           rng.normal(size=m)) for _ in range(n)]
    graph = make_khop_ring(n, 1, 0.8)
    sched = SwitchingSchedule(graph, 1.0, mode=SwitchMode.FIXED)
    x0 = rng.uniform(-1, 1, size=(n, m))
    return costs, sched, x0


def closed_form_optimum(costs):
    q_sum = sum(c.Q for c in costs)
    return np.linalg.solve(q_sum, sum(c.Q @ c.b for c in costs))


def test_single_agent_exponential_flow():
    # n=1 has no links: with y starting on the gradient the tracker stays
    # equal to it, so x follows dx/dt = -(x - 3)
    costs = [QuadraticCost(np.eye(1), np.array([3.0]))]
    lap = np.zeros((1, 1))
    X, Y = np.array([[1.0]]), np.array([[1.0 - 3.0]])
    eta, steps = 1e-4, 20000
    for _ in range(steps):
        dX, dY = derivative(np.stack([X, Y]), lap, costs, 1.0, identity())
        X = X + eta * dX
        Y = Y + eta * dY
    t = eta * steps
    assert X[0, 0] == pytest.approx(3.0 + (1.0 - 3.0) * np.exp(-t), abs=1e-4)


def test_derivative_zero_at_equilibrium():
    costs, sched, _ = quadratic_fixture()
    x_star = closed_form_optimum(costs)
    X = np.tile(x_star, (5, 1))
    Y = np.zeros_like(X)
    lap = laplacian(sched.base_graph)
    # the g(c) - g(c) cancellation is exact; the Laplacian row-sum
    # cancellation is exact only up to summation order, hence the 1e-12
    for g in (identity(), log_quantizer(1.0)):
        with np.errstate(divide="ignore"):  # the stage helper is unguarded; log(0) at Y = 0
            dX, dY = derivative(np.stack([X, Y]), lap, costs, 0.5, g)
        assert np.abs(dX).max() < 1e-12
        assert np.abs(dY).max() < 1e-12


def test_derivative_matches_system_matrix():
    costs, sched, x0 = quadratic_fixture()
    rng = np.random.default_rng(1)
    X = rng.normal(size=(5, 2))
    Y = rng.normal(size=(5, 2))
    lap = laplacian(sched.base_graph)
    alpha = 0.4
    dX, dY = derivative(np.stack([X, Y]), lap, costs, alpha, identity())
    A = assemble(lap, aggregate_hessian(costs, X), None, alpha)
    stacked = A @ np.concatenate([X.ravel(), Y.ravel()])
    got = np.concatenate([dX.ravel(), dY.ravel()])
    assert np.max(np.abs(got - stacked)) < 1e-12


def svm_fixture(n=5, points=12, seed=3):
    rng = np.random.default_rng(seed)
    return [SvmHingeCost(rng.normal(size=(points, 3)), rng.choice([-1.0, 1.0], size=points))
            for _ in range(n)]


@pytest.mark.parametrize("g", [log_quantizer(0.5), saturation(0.7)], ids=lambda g: g.kind)
@pytest.mark.parametrize("kind", ["quadratic", "svm"])
def test_stacked_derivative_equals_per_line_formulas(kind, g):
    costs = quadratic_fixture()[0] if kind == "quadratic" else svm_fixture()
    m = costs[0].m
    rng = np.random.default_rng(4)
    X, Y = rng.normal(size=(5, m)), rng.normal(size=(5, m))
    lap = laplacian(make_khop_ring(5, 2, 0.8))
    alpha = 0.7
    dX = lap @ apply(g, X) - alpha * Y
    dY = lap @ apply(g, Y) + np.stack([c.hessian(X[i]) @ dX[i] for i, c in enumerate(costs)])
    dS = derivative(np.stack([X, Y]), lap, costs, alpha, g)
    assert np.array_equal(dS[0], dX)
    assert np.array_equal(dS[1], dY)


class NanCurvature(QuadraticCost):
    """A quadratic whose Hessian is NaN: only the tracker line blows up."""

    def hessian(self, x):
        return np.full_like(self.Q, np.nan)


def test_nan_in_tracker_line_alone_ends_run_as_diverged():
    costs = [NanCurvature(c.Q, c.b) for c in quadratic_fixture()[0]]
    _, sched, x0 = quadratic_fixture()
    cfg = SolverConfig(alpha=0.3, eta=0.01, t_end=1.0, schedule=sched)
    trace = integrate(costs, x0, cfg)
    assert trace.status == "diverged"
    assert trace.steps == 1
    assert np.isfinite(trace.states[-1, 0]).all() and np.isnan(trace.states[-1, 1]).all()
    # the NaN line does not enter the largest magnitude seen
    assert trace.max_abs_state == np.abs(trace.states[-1, 0]).max()
    # but its first NaN in C order is where the run diverged
    assert (trace.divergence_time, trace.divergence_entry) == (0.01, "y_0_0")


def test_integrate_constant_at_equilibrium():
    # the invariant point pairs the optimizer with a zero tracker
    costs, sched, _ = quadratic_fixture()
    x_star = closed_form_optimum(costs)
    x0 = np.tile(x_star, (5, 1))
    cfg = SolverConfig(alpha=0.5, eta=0.01, t_end=1.0, schedule=sched,
                       y_init="zero", sample_stride=10)
    trace = integrate(costs, x0, cfg)
    assert trace.status == "completed"
    assert np.allclose(trace.states[:, 0], trace.states[0, 0], atol=1e-10)
    assert np.abs(trace.states[:, 1]).max() < 1e-10


def test_integrate_quadratic_converges_to_closed_form():
    costs, sched, x0 = quadratic_fixture()
    x_star = closed_form_optimum(costs)
    cfg = SolverConfig(alpha=0.4, eta=0.01, t_end=50.0, schedule=sched,
                       sample_stride=100)
    trace = integrate(costs, x0, cfg)
    assert trace.status == "completed"
    assert trace.consensus_error[-1] < 1e-6
    assert float(np.linalg.norm(sum_gradient(costs, trace.states[-1, 0]))) < 1e-6
    assert np.max(np.abs(trace.states[-1, 0] - x_star)) < 1e-6


def test_integrate_diverges_far_above_bound():
    costs, sched, x0 = quadratic_fixture()
    lap = laplacian(sched.base_graph)
    hess = aggregate_hessian(costs, x0)
    bounds = step_size_bounds(1.0, 1.0, infinity_norm(hess), *laplacian_rates(lap), 5, 2)
    cfg = SolverConfig(alpha=1e3 * bounds.tight, eta=0.05, t_end=50.0,
                       schedule=sched, sample_stride=100)
    trace = integrate(costs, x0, cfg)
    assert trace.status == "diverged"
    # the trace ends on the state the diverging step produced
    assert len(trace.times) == 2 and 1 < trace.steps < 100
    assert trace.times[-1] == trace.steps * trace.eta
    assert np.abs(trace.states[-1]).max() == trace.max_abs_state > 1e12
    # a finite blow-up diverged at its entry of largest magnitude
    assert np.isfinite(trace.states[-1]).all()
    assert trace.divergence_time == trace.times[-1]
    line, node, component = np.unravel_index(np.abs(trace.states[-1]).argmax(), (2, 5, 2))
    assert trace.divergence_entry == f"{'xy'[line]}_{node}_{component}"
    completed = integrate(costs, x0, dataclasses.replace(cfg, alpha=0.3))
    assert completed.status == "completed"
    assert completed.divergence_time is None and completed.divergence_entry is None


def test_trace_row_count_and_times():
    costs, sched, x0 = quadratic_fixture()
    cfg = SolverConfig(alpha=0.3, eta=0.01, t_end=1.0, schedule=sched,
                       sample_stride=7)
    trace = integrate(costs, x0, cfg)
    steps = round(1.0 / 0.01)
    # every 7th step from t=0, plus the final state at step 100
    assert len(trace.times) == steps // 7 + 2
    assert np.all(np.diff(trace.times) > 0)


def test_trace_ends_on_final_state_when_stride_does_not_divide_steps():
    costs, sched, x0 = quadratic_fixture()
    runs = {stride: integrate(costs, x0, SolverConfig(alpha=0.3, eta=0.01, t_end=1.0,
                                                      schedule=sched, sample_stride=stride))
            for stride in (1, 7)}
    sparse, dense = runs[7], runs[1]
    assert sparse.states.shape == (16, 2, 5, 2)
    assert sparse.times[-1] == 100 * sparse.eta == dense.times[-1]
    assert np.array_equal(sparse.states[-1], dense.states[-1])
    assert np.array_equal(sparse.states[:-1], dense.states[:99:7])
    for name in ("cost", "grad_sum_norm", "consensus_error", "conservation"):
        assert getattr(sparse, name)[-1] == getattr(dense, name)[-1], name


def test_run_that_rounds_to_no_steps_raises():
    # a verdict of 'completed' on the initial state would describe a run that never ran
    costs, sched, x0 = quadratic_fixture()
    for t_end in (0.004, 0.005):
        cfg = SolverConfig(alpha=0.3, eta=0.01, t_end=t_end, schedule=sched)
        with pytest.raises(ValueError, match="rounds to 0 steps"):
            integrate(costs, x0, cfg)
        with pytest.raises(ValueError, match="rounds to 0 steps"):
            integrate(costs, x0, SolverBatch((cfg, SolverConfig(
                alpha=0.5, eta=0.01, t_end=t_end, schedule=sched))))
    trace = integrate(costs, x0, SolverConfig(alpha=0.3, eta=0.01, t_end=0.006, schedule=sched))
    assert (trace.status, trace.steps, len(trace.times)) == ("completed", 1, 2)


@pytest.mark.parametrize("with_reference", [False, True])
def test_to_csv_layout_reads_the_stacked_states(with_reference):
    costs, sched, x0 = quadratic_fixture(n=3, m=2)
    cfg = SolverConfig(alpha=0.3, eta=0.01, t_end=0.5, schedule=sched, sample_stride=20)
    reference = np.tile(closed_form_optimum(costs), (3, 1)) if with_reference else None
    trace = integrate(costs, x0, cfg, reference=reference)
    head, *rows = trace.to_csv().splitlines()
    states = [f"{line}_{i}_{j}" for line in "xy" for i in range(3) for j in range(2)]
    diagnostics = ["cost", "grad_sum_norm", "consensus_error", "conservation_residual"]
    assert head.split(",") == ["t", *states, *diagnostics] + ["lyapunov"] * with_reference
    assert len(rows) == len(trace.times) == trace.states.shape[0]
    columns = [trace.cost, trace.grad_sum_norm, trace.consensus_error, trace.conservation]
    if with_reference:
        columns.append(trace.lyapunov)
    for r, row in enumerate(rows):
        values = [float(v) for v in row.split(",")]
        assert values[0] == trace.times[r]
        assert np.array_equal(values[1:13], trace.states[r].ravel())
        assert values[13:] == [c[r] for c in columns]


def test_eta_is_reduced_to_divide_switch_period():
    costs, _, x0 = quadratic_fixture()
    sched = SwitchingSchedule(make_khop_ring(5, 1, 0.8), 0.05,
                              rng_seed=1, mode=SwitchMode.PERMUTE)
    cfg = SolverConfig(alpha=0.3, eta=0.03, t_end=0.5, schedule=sched)
    with pytest.warns(UserWarning, match="does not divide"):
        trace = integrate(costs, x0, cfg)
    assert trace.eta == pytest.approx(0.025)


def test_conservation_gradient_init_binds_tracker_to_gradients():
    costs, sched, x0 = quadratic_fixture()
    cfg = SolverConfig(alpha=0.4, eta=0.02, t_end=20.0, schedule=sched,
                       g=log_quantizer(1.0),
                       sample_stride=20)
    trace = integrate(costs, x0, cfg)
    # quadratic costs: the discrete update conserves the offset exactly
    assert conservation_residual(trace) < 1e-10
    # with gradient init the offset is zero, so sum(y) tracks sum(grad f)
    sum_y = trace.states[-1, 1].sum(axis=0)
    assert np.allclose(sum_y, sum_gradient(costs, trace.states[-1, 0]), atol=1e-9)


def test_conservation_zero_init_reports_offset():
    costs, sched, x0 = quadratic_fixture()
    cfg = SolverConfig(alpha=0.4, eta=0.02, t_end=5.0, schedule=sched,
                       y_init="zero", sample_stride=10)
    trace = integrate(costs, x0, cfg)
    assert conservation_residual(trace) < 1e-10
    # the conserved offset itself is the initial gradient sum, measurably
    offset = trace.states[-1, 1].sum(axis=0) - sum_gradient(costs, trace.states[-1, 0])
    assert np.allclose(offset, -sum_gradient(costs, x0), atol=1e-9)


def test_lyapunov_zero_at_equilibrium():
    costs, sched, _ = quadratic_fixture()
    x_star = closed_form_optimum(costs)
    x0 = np.tile(x_star, (5, 1))
    cfg = SolverConfig(alpha=0.5, eta=0.01, t_end=1.0, schedule=sched,
                       y_init="zero", sample_stride=10)
    trace = integrate(costs, x0, cfg, reference=np.tile(x_star, (5, 1)))
    assert np.abs(trace.lyapunov).max() < 1e-18


def test_lyapunov_monotone_and_rate_on_stable_fixture():
    costs, sched, x0 = quadratic_fixture(curvature=0.8)
    x_star = closed_form_optimum(costs)
    ref = np.tile(x_star, (5, 1))
    cfg = SolverConfig(alpha=0.3, eta=0.005, t_end=75.0, schedule=sched,
                       sample_stride=200)
    trace = integrate(costs, x0, cfg, reference=ref)
    v = trace.lyapunov
    assert v[-1] < 1e-10
    assert np.all(np.diff(v) <= 1e-10 * v[0])
    dx = trace.states[:, 0] - ref
    series = 0.5 * (np.sum(dx * dx, axis=(1, 2)) + np.sum(trace.states[:, 1] ** 2, axis=(1, 2)))
    assert np.allclose(series, v, rtol=1e-12)
    # log-envelope decay against the operating-point spectrum
    hess = aggregate_hessian(costs, np.tile(x_star, (5, 1)))
    lap = laplacian(sched.base_graph)
    rep = spectral_report(assemble(lap, hess, None, 0.3), hess.shape[1])
    keep = v > 1e-18
    slope = np.polyfit(trace.times[keep], np.log(v[keep]), 1)[0]
    predicted = 2 * abs(rep.max_nonzero_real)
    assert predicted / 2 <= -slope <= predicted * 2


@pytest.mark.parametrize("fault", [None, "flipped descent", "frozen"])
def test_lyapunov_check_passes_and_catches_faults_that_conserve(monkeypatch, fault):
    # both faults leave the tracker-minus-gradient sum conserved: a flipped
    # -alpha y term makes V grow, a zero derivative keeps it where it started
    if fault == "flipped descent":
        monkeypatch.setattr(engine, "derivative", lambda S, lap, costs, alpha, *rest:
                            derivative(S, lap, costs, -alpha, *rest))
    elif fault == "frozen":
        monkeypatch.setattr(engine, "derivative", lambda S, *args: np.zeros_like(S))
    result = check_lyapunov_decrease()
    assert result.passed == (fault is None)
    assert len(result.failures) == (0 if fault is None else 24)


def test_integrate_determinism():
    costs, _, x0 = quadratic_fixture()
    sched = SwitchingSchedule(make_khop_ring(5, 1, 0.8), 0.05, rng_seed=9,
                              mode=SwitchMode.PERMUTE)
    cfg = SolverConfig(alpha=0.3, eta=0.01, t_end=3.0, schedule=sched,
                       g=log_quantizer(1.0),
                       sample_stride=25)
    a = integrate(costs, x0, cfg)
    b = integrate(costs, x0, cfg)
    assert a.to_csv() == b.to_csv()
    assert (a.states == b.states).all()


def test_solver_config_validation():
    sched = SwitchingSchedule(make_khop_ring(5, 1, 0.8), 1.0)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.0, eta=0.01, t_end=1.0, schedule=sched)
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.1, eta=0.01, t_end=1.0, schedule=sched, method="rk5")
    with pytest.raises(ValueError):
        SolverConfig(alpha=0.1, eta=0.01, t_end=1.0, schedule=sched, y_init="warm")


def serial_reference(costs, x0, cfg):
    """One run on a single (2, n, m) state, a Laplacian per step: the member axis's reference.

    Returns the sampled times and states, the status, the steps taken and the
    largest state magnitude seen, as the integrator before the member axis
    recorded them.
    """
    eta = cfg.aligned_eta()
    steps = int(round(cfg.t_end / eta))
    X = np.array(x0, dtype=float)
    Y = (np.stack([c.gradient(x) for c, x in zip(costs, X)]) if cfg.y_init == "gradient"
         else np.zeros_like(X))
    S = np.stack([X, Y])
    rows, max_abs, status, taken = [], 0.0, "completed", steps
    for k in range(steps):
        L = laplacian(graph_at(cfg.schedule, k * eta))
        if k % cfg.sample_stride == 0:
            rows.append((k * eta, S))

        def f(state):
            # as integrate's step loop: cosh overflows to L'' = 0, log(0) at an exact 0
            with np.errstate(over="ignore", divide="ignore"):
                return derivative(state, L, costs, cfg.alpha, cfg.g)

        if cfg.method == "euler":
            S = S + eta * f(S)
        else:
            k1 = f(S)
            k2 = f(S + 0.5 * eta * k1)
            k3 = f(S + 0.5 * eta * k2)
            k4 = f(S + eta * k3)
            S = S + (eta / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ax, ay = np.abs(S).max(axis=(1, 2))
        max_abs = max(max_abs, float(max(ax, ay)))
        if not (ax <= 1e12 and ay <= 1e12):
            status, taken = "diverged", k + 1
            break
    rows.append((taken * eta, S))
    return (np.array([t for t, _ in rows]), np.array([S for _, S in rows]),
            status, taken, max_abs)


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_integrate_started_where_cosh_overflows_raises_no_warning(method):
    # |mu z| is far past 1420 at x0, so the start-state curvature and every
    # stage's overflow cosh; RuntimeWarnings are errors in this suite
    costs = svm_fixture()
    x0 = np.full((5, costs[0].m), 1e5)
    cfg = SolverConfig(alpha=0.3, eta=0.01, t_end=0.05, schedule=permuting_schedule(5),
                       g=identity(), method=method)
    trace = integrate(costs, x0, cfg)
    assert trace.steps == 5
    # the public Hessian guards itself; the unguarded stage helper warns
    assert np.isfinite(aggregate_hessian(costs, x0)).all()
    with pytest.warns(RuntimeWarning, match="overflow"):
        stage_hessian(costs, x0)


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_integrate_started_at_exact_zeros_of_a_log_quantizer_raises_no_warning(method):
    # a zero tracker and a zero entry of x0 put exact zeros under the log
    # quantizer's log at the first stage; RuntimeWarnings are errors in this suite
    costs, sched, x0 = quadratic_fixture()
    x0[0, 0] = 0.0
    g = log_quantizer(1.0)
    cfg = SolverConfig(alpha=0.3, eta=0.01, t_end=0.05, schedule=sched, g=g,
                       method=method, y_init="zero")
    assert integrate(costs, x0, cfg).steps == 5
    batch = SolverBatch((cfg, dataclasses.replace(cfg, alpha=0.6, g=log_quantizer(0.5))))
    assert [trace.steps for trace in integrate(costs, x0, batch)] == [5, 5]
    # the public link map guards itself; the unguarded stage helper warns
    S = np.stack([x0, np.zeros_like(x0)])
    assert (apply(g, S)[1] == 0).all()
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        derivative(S, laplacian(sched.base_graph), costs, 0.3, g)


def assert_matches_reference(trace, costs, x0, cfg):
    times, states, status, steps, max_abs = serial_reference(costs, x0, cfg)
    assert (trace.status, trace.steps) == (status, steps)
    assert np.array_equal(trace.times, times)
    assert np.array_equal(trace.states, states, equal_nan=True)
    assert trace.max_abs_state == max_abs


def permuting_schedule(n):
    return SwitchingSchedule(make_khop_ring(n, 2, 0.8), 0.1, rng_seed=4, mode=SwitchMode.PERMUTE)


LINKS = {"log_quantizer": [log_quantizer(r) for r in (0.5, 1.0, 1.5, 1.9)],
         "uniform_quantizer": [uniform_quantizer(r) for r in (0.05, 0.2, 0.1, 0.4)],
         "saturation": [saturation(0.7)] * 4}


@pytest.mark.parametrize("link", sorted(LINKS))
@pytest.mark.parametrize("kind", ["quadratic", "svm"])
@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_batch_members_equal_their_own_runs(method, kind, link):
    costs = quadratic_fixture()[0] if kind == "quadratic" else svm_fixture()
    x0 = np.random.default_rng(7).uniform(-1, 1, size=(5, costs[0].m))
    sched = permuting_schedule(5)
    # the last alpha diverges within a few steps; the others run to t_end
    members = tuple(SolverConfig(alpha=a, eta=0.01, t_end=2.0, schedule=sched, g=g,
                                 method=method, sample_stride=7)
                    for a, g in zip((0.3, 1.2, 0.6, 5e4), LINKS[link]))
    traces = integrate(costs, x0, SolverBatch(members))
    assert [t.status for t in traces] == ["completed"] * 3 + ["diverged"]
    for trace, cfg in zip(traces, members):
        alone = integrate(costs, x0, cfg)
        assert trace.to_csv() == alone.to_csv()
        assert (trace.status, trace.steps, trace.eta) == (alone.status, alone.steps, alone.eta)
        assert np.array_equal(trace.states, alone.states)
        assert trace.max_abs_state == alone.max_abs_state
        assert_matches_reference(trace, costs, x0, cfg)


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("kind", ["quadratic", "svm"])
def test_two_member_batch_equals_its_own_runs(method, kind):
    # with two members the line-major (2, B, n, m) state and a member-major
    # (B, 2, n, m) one have the same shape, so a swapped axis raises nothing
    costs = quadratic_fixture()[0] if kind == "quadratic" else svm_fixture()
    x0 = np.random.default_rng(7).uniform(-1, 1, size=(5, costs[0].m))
    sched = permuting_schedule(5)
    members = tuple(SolverConfig(alpha=a, eta=0.01, t_end=2.0, schedule=sched,
                                 g=log_quantizer(rho), method=method, sample_stride=7)
                    for a, rho in ((0.3, 0.5), (5e4, 1.5)))
    traces = integrate(costs, x0, SolverBatch(members))
    assert [t.status for t in traces] == ["completed", "diverged"]
    for trace, cfg in zip(traces, members):
        alone = integrate(costs, x0, cfg)
        assert trace.to_csv() == alone.to_csv()
        assert ((trace.status, trace.steps, trace.max_abs_state)
                == (alone.status, alone.steps, alone.max_abs_state))


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_every_derivative_call_gets_c_ordered_line_major_arrays(monkeypatch, method):
    # dropping a member must leave the state, alpha and link level C-ordered:
    # a fancy index on the member axis would hand later steps strided lines
    costs = quadratic_fixture()[0]
    n, m = len(costs), costs[0].m
    x0 = np.random.default_rng(7).uniform(-1, 1, size=(n, m))
    sched = permuting_schedule(n)
    members = tuple(SolverConfig(alpha=a, eta=0.01, t_end=2.0, schedule=sched,
                                 g=log_quantizer(rho), method=method)
                    for a, rho in ((0.3, 0.5), (5e4, 1.0), (1.2, 1.5), (0.6, 1.9)))
    seen = []
    monkeypatch.setattr(engine, "derivative",
                        lambda S, lap, costs, alpha, g, rho, hessian:
                        seen.append((S.shape, alpha.shape, rho.shape, S.flags.c_contiguous,
                                     alpha.flags.c_contiguous, rho.flags.c_contiguous))
                        or derivative(S, lap, costs, alpha, g, rho, hessian))
    traces = integrate(costs, x0, SolverBatch(members))
    assert [t.status for t in traces] == ["completed", "diverged", "completed", "completed"]
    diverged = traces[1].steps
    assert 1 < diverged < 200
    stages = 1 if method == "euler" else 4
    want = [((2, B, n, m), (B, n, m), (2, B, n, m), True, True, True)
            for B, steps in ((4, diverged), (3, 200 - diverged)) for _ in range(stages * steps)]
    assert seen == want


def count_laplacians(monkeypatch) -> list:
    built = []
    monkeypatch.setattr(engine, "laplacian", lambda g: built.append(g) or laplacian(g))
    return built


@pytest.mark.parametrize("method, stages", [("euler", 1), ("rk4", 4)])
def test_run_that_stops_at_a_fixed_point_equals_the_run_forced_through_every_step(method, stages):
    costs, x0, sched = freezing_fixture()
    assert sched.static
    members = tuple(SolverConfig(alpha=a, eta=0.01, t_end=20.0, schedule=sched,
                                 g=log_quantizer(rho), method=method, sample_stride=7)
                    for a, rho in ((6.0, 1.0), (6.0, 1.9), (1e4, 1.0)))
    traces = integrate(costs, x0, SolverBatch(members))
    assert [t.status for t in traces] == ["completed", "completed", "diverged"]
    going, stopped, _ = traces
    assert (going.fixed_point_time, going.derivative_evaluations) == (None, stages * 2000)
    assert 15.0 < stopped.fixed_point_time < 20.0
    assert stopped.derivative_evaluations == stages * (round(stopped.fixed_point_time / 0.01) + 1)
    assert stopped.steps == 2000 and stopped.times[-1] == 2000 * 0.01
    for trace, cfg in zip(traces, members):
        alone = integrate(costs, x0, cfg)
        assert trace.to_csv() == alone.to_csv()
        assert ((trace.fixed_point_time, trace.derivative_evaluations, trace.topology_switches)
                == (alone.fixed_point_time, alone.derivative_evaluations, 1))
    # the reference builds a Laplacian and takes every step
    times, states, status, steps, max_abs = serial_reference(costs, x0, members[1])
    assert (stopped.status, stopped.steps, stopped.max_abs_state) == (status, steps, max_abs)
    assert stopped.times.tobytes() == times.tobytes()
    assert stopped.states.tobytes() == states.tobytes()


@pytest.mark.parametrize("t_end, exits, evaluations", [
    # the third member diverges on the last step, and the other two complete
    (0.05, ["completed", "completed", "diverged"], [5, 5, 5]),
    # the second member's fixed point falls on the last step, as the first completes
    (17.86, ["completed", "fixed point", "diverged"], [1786, 1786, 5]),
])
def test_members_that_leave_on_the_last_step_through_different_exits_equal_their_own_runs(
        t_end, exits, evaluations):
    costs, x0, sched = freezing_fixture()
    members = tuple(SolverConfig(alpha=a, eta=0.01, t_end=t_end, schedule=sched,
                                 g=log_quantizer(rho), sample_stride=7)
                    for a, rho in ((6.0, 1.0), (6.0, 1.9), (1e4, 1.0)))
    traces = integrate(costs, x0, SolverBatch(members))
    assert ["fixed point" if t.fixed_point_time is not None else t.status
            for t in traces] == exits
    assert [t.derivative_evaluations for t in traces] == evaluations  # Euler: one per step
    for trace, cfg in zip(traces, members):
        alone = integrate(costs, x0, cfg)
        assert trace.to_csv() == alone.to_csv()
        assert ((trace.status, trace.steps, trace.fixed_point_time, trace.max_abs_state,
                 trace.derivative_evaluations)
                == (alone.status, alone.steps, alone.fixed_point_time, alone.max_abs_state,
                    alone.derivative_evaluations))


def test_largest_magnitude_of_a_diverged_state_skips_its_nans_but_not_its_infs():
    # one RK4 step at a huge alpha leaves inf at three agents and NaN at three,
    # NaN in the x line among them
    costs = [QuadraticCost(np.eye(1), np.zeros(1)) for _ in range(6)]
    sched = SwitchingSchedule(make_khop_ring(6, 2, 0.8), 0.01, mode=SwitchMode.FIXED)
    cfg = SolverConfig(alpha=1e104, eta=0.01, t_end=0.01, schedule=sched, method="rk4")
    trace = integrate(costs, np.arange(1.0, 7.0)[:, None], cfg)
    final = np.abs(trace.states[-1])
    assert trace.status == "diverged" and np.isnan(final[0]).any()
    assert trace.max_abs_state == np.fmax.reduce(final, axis=None) == np.inf


def test_non_uniform_permute_schedule_never_stops_early(monkeypatch):
    # agents that share their optimum start on it with a zero tracker; with
    # link weights 1/4 the Laplacian products are exact, so every step leaves
    # the state unchanged bit for bit, whatever the relabelling
    rng = np.random.default_rng(2)
    b = rng.normal(size=2)
    costs = [QuadraticCost(np.diag(rng.uniform(0.4, 1.0, size=2)), b) for _ in range(7)]
    x0 = np.tile(b, (7, 1))
    ring = make_khop_ring(7, 1, 0.5)
    permuted = SwitchingSchedule(ring, 0.1, rng_seed=4, mode=SwitchMode.PERMUTE)
    assert not permuted.static
    built = count_laplacians(monkeypatch)
    cfg = SolverConfig(alpha=0.5, eta=0.01, t_end=1.0, schedule=permuted,
                       g=log_quantizer(1.0), method="rk4", sample_stride=7)
    trace = integrate(costs, x0, cfg)
    assert (trace.fixed_point_time, trace.derivative_evaluations) == (None, 4 * 100)
    assert trace.topology_switches == len(built) == 10  # one per interval
    assert_matches_reference(trace, costs, x0, cfg)
    # the same state on the ring held fixed stops after its first step
    built.clear()
    fixed = integrate(costs, x0, dataclasses.replace(
        cfg, schedule=SwitchingSchedule(ring, 0.1, mode=SwitchMode.FIXED)))
    assert (fixed.fixed_point_time, fixed.derivative_evaluations) == (0.0, 4)
    assert fixed.topology_switches == len(built) == 1
    assert np.array_equal(fixed.states, trace.states) and np.array_equal(fixed.times, trace.times)


@pytest.mark.parametrize("mode", [SwitchMode.FIXED, SwitchMode.PERMUTE])
def test_static_schedule_builds_one_laplacian(monkeypatch, mode):
    costs, _, x0 = quadratic_fixture()
    sched = SwitchingSchedule(make_khop_ring(5, 2, 0.8), 0.1, rng_seed=4, mode=mode)
    assert sched.static  # K5 with uniform weights
    built = count_laplacians(monkeypatch)
    cfg = SolverConfig(alpha=0.3, eta=0.01, t_end=2.0, schedule=sched,
                       g=log_quantizer(1.0), sample_stride=7)
    trace = integrate(costs, x0, cfg)
    assert len(built) == trace.topology_switches == 1
    assert trace.fixed_point_time is None and trace.derivative_evaluations == 200
    assert_matches_reference(trace, costs, x0, cfg)


class NanCurvatureAbove(QuadraticCost):
    """A quadratic whose Hessian turns NaN where |x| exceeds 3: only the tracker line blows up."""

    def hessian(self, x):
        far = (np.abs(x) > 3.0).any(axis=-1)[..., None, None]
        return np.where(far, np.nan, self.Q)


def test_nan_in_one_members_tracker_line_ends_only_that_member():
    costs, _, x0 = quadratic_fixture()
    costs = [NanCurvatureAbove(c.Q, c.b) for c in costs]
    sched = permuting_schedule(5)
    members = tuple(SolverConfig(alpha=a, eta=0.01, t_end=1.0, schedule=sched,
                                 g=log_quantizer(1.0), sample_stride=10)
                    for a in (0.3, 400.0, 0.6))
    traces = integrate(costs, x0, SolverBatch(members))
    assert [t.status for t in traces] == ["completed", "diverged", "completed"]
    ended = traces[1]
    assert ended.steps < 100 and ended.times[-1] == ended.steps * ended.eta
    assert np.isfinite(ended.states[-1, 0]).all() and np.isnan(ended.states[-1, 1]).any()
    # the NaN line does not enter the largest magnitude seen
    assert ended.max_abs_state == np.abs(ended.states[-1, 0]).max()
    for trace, cfg in zip(traces, members):
        assert_matches_reference(trace, costs, x0, cfg)


def test_single_member_batch_is_the_run_byte_for_byte():
    costs, _, x0 = quadratic_fixture()
    cfg = SolverConfig(alpha=0.3, eta=0.01, t_end=3.0, schedule=permuting_schedule(5),
                       g=log_quantizer(1.0), method="rk4", sample_stride=7)
    reference = np.tile(closed_form_optimum(costs), (5, 1))
    run = integrate(costs, x0, cfg, reference=reference)
    [member] = integrate(costs, x0, SolverBatch((cfg,)), reference=reference)
    assert member.to_csv() == run.to_csv()
    assert_matches_reference(run, costs, x0, cfg)


@pytest.mark.parametrize("kind,n,m", [("quadratic", 5, 2), ("quadratic", 9, 1), ("svm", 5, 4)])
def test_trace_diagnostics_of_all_rows_equal_each_rows_own(kind, n, m):
    costs = quadratic_fixture(n=n, m=m)[0] if kind == "quadratic" else svm_fixture()
    x0 = np.random.default_rng(7).uniform(-1, 1, size=(n, m))
    cfg = SolverConfig(alpha=0.6, eta=0.01, t_end=2.0, schedule=permuting_schedule(n),
                       g=log_quantizer(1.0), sample_stride=7)
    trace = integrate(costs, x0, cfg)
    xs, ys = trace.states[:, 0], trace.states[:, 1]
    offset0 = ys[0].sum(axis=0) - sum_gradient(costs, xs[0])
    for r, (X, Y) in enumerate(zip(xs, ys)):
        g = sum_gradient(costs, X)
        assert trace.cost[r] == global_cost(costs, X)
        assert trace.grad_sum_norm[r] == float(np.linalg.norm(g))
        assert trace.consensus_error[r] == float(np.max(np.linalg.norm(X - X.mean(axis=0),
                                                                       axis=1)))
        assert trace.conservation[r] == float(np.linalg.norm((Y.sum(axis=0) - g) - offset0))


class PerRowCurvature(QuadraticCost):
    """A quadratic whose Hessian comes back once per row, so it is not taken as constant."""

    def hessian(self, x):
        return np.broadcast_to(self.Q, x.shape[:-1] + self.Q.shape)


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_constant_curvature_once_per_run_gives_the_per_stage_bytes(monkeypatch, method):
    fixture, _, x0 = quadratic_fixture()
    sched = permuting_schedule(5)
    members = tuple(SolverConfig(alpha=a, eta=0.01, t_end=2.0, schedule=sched,
                                 g=log_quantizer(rho), method=method, sample_stride=7)
                    for a, rho in ((0.3, 0.5), (1.2, 1.0), (5e4, 1.5)))
    calls = []
    hessian = QuadraticCost.hessian
    monkeypatch.setattr(QuadraticCost, "hessian",
                        lambda self, x: calls.append(x.shape) or hessian(self, x))
    # full curvature blocks take the block product; diagonal ones are carried
    # as their diagonals, and must give the per-stage block product's bytes
    for costs in ([QuadraticCost(c.Q + 0.1, c.b) for c in fixture], fixture):
        per_stage = [PerRowCurvature(c.Q, c.b) for c in costs]
        reference = np.tile(closed_form_optimum(costs), (5, 1))
        for config in (members[0], SolverBatch(members)):
            calls.clear()
            once = integrate(costs, x0, config, reference=reference)
            assert len(calls) == len(costs)  # one call per agent for the whole run
            staged = integrate(per_stage, x0, config, reference=reference)
            for a, b in zip(*(t if isinstance(t, list) else [t] for t in (once, staged)),
                            strict=True):
                assert a.to_csv() == b.to_csv()
                assert ((a.status, a.steps, a.max_abs_state)
                        == (b.status, b.steps, b.max_abs_state))
        assert [t.status for t in once] == ["completed", "completed", "diverged"]
        for trace, cfg in zip(once, members):
            assert trace.to_csv() == integrate(costs, x0, cfg, reference=reference).to_csv()


def record_curvature(monkeypatch) -> list:
    """The ``hessian`` argument of every derivative call integrate makes."""
    seen = []
    monkeypatch.setattr(engine, "derivative",
                        lambda S, *args: seen.append(args[5]) or derivative(S, *args))
    return seen


@pytest.mark.parametrize("coupling", [0.0, -0.0, 5e-324, -0.1, np.nan])
@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_constant_curvature_is_carried_as_its_diagonal_only_when_every_coupling_is_zero(
        monkeypatch, method, coupling):
    fixture, _, x0 = quadratic_fixture()
    # the coupling of one agent's Q, set after the symmetry check: any value
    # but 0 keeps the blocks
    costs = [QuadraticCost(c.Q.copy(), c.b) for c in fixture]
    per_stage = [PerRowCurvature(c.Q, c.b) for c in costs]  # the same Q arrays
    costs[3].Q[0, 1] = costs[3].Q[1, 0] = coupling
    sched = permuting_schedule(5)
    members = tuple(SolverConfig(alpha=a, eta=0.01, t_end=1.0, schedule=sched,
                                 g=log_quantizer(rho), method=method, sample_stride=7)
                    for a, rho in ((0.3, 0.5), (1.2, 1.0)))
    seen = record_curvature(monkeypatch)
    for config in (members[0], SolverBatch(members)):
        seen.clear()
        once = integrate(costs, x0, config)
        assert seen and all(h is seen[0] for h in seen)  # one stack for the whole run
        if coupling == 0:
            assert seen[0].shape == (5, 2)
            assert seen[0].tobytes() == np.diagonal(aggregate_hessian(costs, x0), axis1=1,
                                                    axis2=2).tobytes()
        else:
            assert seen[0].shape == (5, 2, 2)
        staged = integrate(per_stage, x0, config)
        for a, b in zip(*(t if isinstance(t, list) else [t] for t in (once, staged)),
                        strict=True):
            assert a.to_csv() == b.to_csv()
            assert (a.status, a.steps) == (b.status, b.steps)
    if np.isnan(coupling):
        assert [t.status for t in once] == ["diverged"] * 2


def test_non_diagonal_curvature_keeps_the_block_product(monkeypatch):
    costs, sched, x0 = _quadratic_setup()
    assert all((c.Q[~np.eye(2, dtype=bool)] != 0).all() for c in costs)
    seen = record_curvature(monkeypatch)
    cfg = SolverConfig(alpha=0.3, eta=0.01, t_end=1.0, schedule=sched,
                       g=log_quantizer(1.0), method="rk4", sample_stride=7)
    trace = integrate(costs, x0, cfg)
    assert {h.shape for h in seen} == {(5, 2, 2)}
    assert_matches_reference(trace, costs, x0, cfg)


def test_solver_batch_members_share_all_but_alpha_and_rho():
    sched = permuting_schedule(5)
    base = SolverConfig(alpha=0.3, eta=0.01, t_end=1.0, schedule=sched, g=log_quantizer(1.0))
    SolverBatch((base, SolverConfig(alpha=2.0, eta=0.01, t_end=1.0, schedule=sched,
                                    g=log_quantizer(0.5))))
    others = [{"eta": 0.02}, {"t_end": 2.0}, {"method": "rk4"}, {"y_init": "zero"},
              {"sample_stride": 2}, {"g": uniform_quantizer(1.0)},
              {"schedule": permuting_schedule(5)}]
    for change in others:
        fields = {"alpha": 0.3, "eta": 0.01, "t_end": 1.0, "schedule": sched,
                  "g": log_quantizer(1.0), **change}
        with pytest.raises(ValueError, match="differ only in alpha"):
            SolverBatch((base, SolverConfig(**fields)))
    with pytest.raises(ValueError, match="at least one member"):
        SolverBatch(())


def test_agreement_ratio_of_zero_and_non_finite_components():
    # per component max_i |x_i| / min_i |x_i| at the final x, the largest one
    for X, want in [([[0.0, 2.0, -1.0], [0.0, -2.0, 4.0]], 4.0),
                    ([[0.0, 1.0, 1.0], [3.0, 1.0, 1.0]], np.inf),
                    ([[np.nan, 1.0, 1.0], [1.0, 1.0, 1.0]], np.nan)]:
        X = np.array(X)
        trace = SimpleNamespace(states=np.array([[X + 5.0, X], [X, -X]]))
        assert np.array_equal(agreement_ratio(trace), want, equal_nan=True)


def first_step(costs, x0, config):
    """The state after one step, from derivative calls and the textbook RK4 and Euler updates.

    A batch's state is line-major, (2, B, n, m); a lone config's is (2, n, m).
    """
    members = config.members if isinstance(config, SolverBatch) else (config,)
    first = members[0]
    X = np.array(x0, dtype=float)
    S = np.stack([X, np.stack([c.gradient(x) for c, x in zip(costs, X)])])
    if isinstance(config, SolverBatch):
        S = np.repeat(S[:, None], len(members), axis=1)
        alpha = np.array([c.alpha for c in members]).reshape(-1, 1, 1)
        rho = np.array([c.g.rho for c in members]).reshape(1, -1, 1, 1)
    else:
        alpha, rho = config.alpha, config.g.rho
    H = aggregate_hessian(costs, X[None])  # (n, m, m) for a curvature that does not read x
    args = (laplacian(graph_at(first.schedule, 0.0)), costs, alpha, first.g, rho,
            H if H.ndim == 3 else None)
    eta = first.eta
    if first.method == "euler":
        return S + eta * derivative(S, *args)
    k1 = derivative(S, *args)
    k2 = derivative(S + 0.5 * eta * k1, *args)
    k3 = derivative(S + 0.5 * eta * k2, *args)
    k4 = derivative(S + eta * k3, *args)
    return S + (eta / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("kind", ["svm", "quadratic"])
def test_one_step_is_the_textbook_update_of_derivative_calls_byte_for_byte(kind, method):
    # a lone SVM run, and a 3-member quadratic batch
    sched = permuting_schedule(5)
    if kind == "svm":
        costs = svm_fixture()
        config = SolverConfig(alpha=6.0, eta=0.01, t_end=0.01, schedule=sched,
                              g=log_quantizer(1.0), method=method)
    else:
        costs = quadratic_fixture()[0]
        config = SolverBatch(tuple(
            SolverConfig(alpha=a, eta=0.01, t_end=0.01, schedule=sched, g=log_quantizer(rho),
                         method=method) for a, rho in ((0.3, 0.5), (1.2, 1.0), (0.6, 1.5))))
    x0 = np.random.default_rng(7).uniform(-1, 1, size=(5, costs[0].m))
    traces = integrate(costs, x0, config)
    traces = traces if isinstance(traces, list) else [traces]
    expected = first_step(costs, x0, config)
    expected = expected.swapaxes(0, 1) if isinstance(config, SolverBatch) else [expected]
    assert len(traces) == len(expected)
    for trace, state in zip(traces, expected):
        assert trace.steps == 1 and trace.states.shape[0] == 2
        assert trace.states[-1].tobytes() == state.tobytes()


def test_stage_hessians_of_a_lone_run_take_lone_rows_and_of_a_batch_stacked_rows(monkeypatch):
    costs = svm_fixture()
    n, m = len(costs), costs[0].m
    x0 = np.random.default_rng(7).uniform(-1, 1, size=(n, m))
    calls = []
    hessian = SvmHingeCost.hessian
    monkeypatch.setattr(SvmHingeCost, "hessian",
                        lambda self, x: calls.append(x.shape) or hessian(self, x))
    cfg = SolverConfig(alpha=0.6, eta=0.01, t_end=0.05, schedule=permuting_schedule(n),
                       g=log_quantizer(1.0), method="rk4")
    for config, B in ((cfg, 1), (SolverBatch((cfg, dataclasses.replace(cfg, alpha=1.2))), 2)):
        calls.clear()
        integrate(costs, x0, config)
        # the curvature test at the start state sees the member axis; each
        # stage then makes one call per agent
        assert calls[:n] == [(B, m)] * n
        assert calls[n:] == [(m,) if B == 1 else (B, m)] * (n * 4 * 5)
