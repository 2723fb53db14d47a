"""Self-contained property corpus: every structural claim, one runnable check.

Each check returns a CheckResult and runs one fixed corpus: its seeds and
sizes are constants, so the suite doubles as the CLI ``verify`` command and
as the backbone of the test suite, and both see the same draws. Two checks
accept injection points (the assembler of the eigenstructure suite and the
estimate of the matching perturbation check) so a deliberately broken
variant can prove the check has teeth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import cost as costmod
from . import nonlinear as nl
from . import spectral
from .cost import QuadraticCost, SvmHingeCost, aggregate_hessian, infinity_norm
from .engine import (SolverBatch, SolverConfig, conservation_residual, derivative,
                     integrate)
from .graph import (SwitchingSchedule, SwitchMode, WeightedGraph, check_weight_balanced,
                    graph_at, is_strongly_connected, laplacian, make_khop_ring)
from .svmlab import feature_map, generate_ellipse_data, partition

__all__ = ["CheckResult", "run_all", "theorem1_suite",
           "random_fixture", "directed_fixture", "freezing_fixture"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    failures: list = field(default_factory=list)

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


# ---------------------------------------------------------------- fixtures

def random_fixture(rng: np.random.Generator):
    """One randomized network + cost fixture for the eigenstructure suite, on an undirected khop ring."""
    n = int(rng.integers(3, 9))
    m = int(rng.integers(1, 3))
    k_max = (n - 1) // 2
    k = int(rng.integers(1, k_max + 1)) if k_max >= 1 else 1
    total_weight = float(rng.uniform(0.3, 0.95))
    return _fixture(rng, make_khop_ring(n, k, total_weight), m, k, total_weight, "khop ring")


def directed_fixture(rng: np.random.Generator):
    """A ``random_fixture`` on a directed, weight-balanced, strongly connected network.

    Half the draws are directed khop rings. The others are random positive
    sums of one to three derangement matrices (permutations without a fixed
    point), whose row and column sums agree for any weights, scaled to a row
    sum in (0.3, 0.95); such a sum is drawn again until it is strongly
    connected. ``k`` is 0 for them.
    """
    n = int(rng.integers(3, 9))
    m = int(rng.integers(1, 3))
    total_weight = float(rng.uniform(0.3, 0.95))
    if rng.random() < 0.5:
        k = int(rng.integers(1, (n - 1) // 2 + 1))
        graph = make_khop_ring(n, k, total_weight, directed=True)
        return _fixture(rng, graph, m, k, total_weight, "directed khop ring")
    while True:
        c = rng.uniform(0.1, 1.0, size=int(rng.integers(1, 4)))
        w = sum(ci * _derangement(rng, n) for ci in c)
        if is_strongly_connected(w):
            break
    graph = WeightedGraph(n, w * (total_weight / c.sum()))
    return _fixture(rng, graph, m, 0, total_weight, f"{c.size}-derangement sum")


def _derangement(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random n-by-n permutation matrix with a zero diagonal."""
    while True:
        p = rng.permutation(n)
        if np.all(p != np.arange(n)):
            return np.eye(n)[p]


def _fixture(rng, graph, m, k, total_weight, kind):
    """The cost blocks, link gains and a step size below the tight bound, drawn for one network."""
    n = graph.n
    lap = laplacian(graph)

    rho = float(rng.uniform(0.1, 1.8))
    kappa, upper = 1 - rho / 2, 1 + rho / 2

    blocks = []
    for _ in range(n):
        a = 0.3 * rng.normal(size=(m, m))
        q = a @ a.T + np.diag(rng.uniform(0.5, 3.0, size=m))
        q += np.eye(m) * 0.1 * np.abs(q).sum(axis=1).max()
        blocks.append(q)
    hess = np.array(blocks)

    slowest, radius = spectral.laplacian_rates(lap)
    bounds = spectral.step_size_bounds(kappa, upper, infinity_norm(hess), slowest, radius, n, m)
    xi = rng.uniform(kappa, upper, size=n * m)
    alpha = float(rng.uniform(0.0, 1.0)) * bounds.tight * 0.999
    return {
        "n": n, "m": m, "k": k, "graph": kind, "network": graph,
        "total_weight": total_weight, "rho": rho,
        "kappa": kappa, "upper": upper, "lap": lap, "hess": hess,
        "bounds": bounds, "xi": xi, "alpha": alpha,
    }


def freezing_fixture():
    """(costs, x0, schedule): three SVM agents on a uniform triangle, a static schedule.

    Log-quantized at rho 1.9 and alpha 6, at eta 0.01 under Euler or RK4, the
    state stops changing, bit for bit, near t = 18; at rho 1 it does not by
    t = 20.
    """
    data = generate_ellipse_data(30, 7, radius=0.9, margin_gap=0.3)
    feats = feature_map(data.points)
    costs = [SvmHingeCost(feats[idx], data.labels[idx]) for idx in partition(data, 3, seed=8)]
    x0 = np.random.default_rng(7).uniform(0, 1, size=(3, 4))
    sched = SwitchingSchedule(make_khop_ring(3, 1, 0.8), 0.01, rng_seed=4, mode=SwitchMode.PERMUTE)
    return costs, x0, sched


# ------------------------------------------------------------------ checks

def check_graph_invariants() -> CheckResult:
    """Row sums, balance, irreducibility, and one-zero Laplacian spectrum."""
    rng = np.random.default_rng(0)
    failures = []
    for trial in range(100):
        n = int(rng.integers(2, 12))
        k_max = max((n - 1) // 2, 1) if n >= 3 else 0
        if k_max == 0:
            continue
        k = int(rng.integers(1, k_max + 1))
        tw = float(rng.uniform(0.1, 0.99))
        g = make_khop_ring(n, k, tw)
        lap = laplacian(g)
        balanced, imbalance = check_weight_balanced(g)
        if not balanced or not np.allclose(g.weights, g.weights.T):
            failures.append((trial, "balance", imbalance))
            continue
        if np.max(g.row_sums) >= 1 or not is_strongly_connected(g.weights):
            failures.append((trial, "structure", n, k, tw))
            continue
        eigs = np.linalg.eigvals(lap)
        tol = 1e-9 * np.abs(lap).max()
        zero = np.abs(eigs) <= tol
        if zero.sum() != 1 or np.any(eigs[~zero].real >= 0):
            failures.append((trial, "spectrum", n, k, tw))
    return CheckResult("graph invariants", not failures,
                       f"100 random rings, {len(failures)} failures", failures)


def check_graph_at_reproducible() -> CheckResult:
    base = make_khop_ring(5, 2, 0.8)
    sched = SwitchingSchedule(base, 0.001, rng_seed=1, mode=SwitchMode.PERMUTE)
    failures = []
    for t in (0.0, 0.0004, 0.0013, 3.7):
        a = graph_at(sched, t).weights
        b = graph_at(sched, t).weights
        if not (a == b).all():
            failures.append(t)
        same_interval = graph_at(sched, t + 0.4 * sched.switch_period).weights
        if sched.interval_index(t) == sched.interval_index(t + 0.4 * sched.switch_period):
            if not (a == same_interval).all():
                failures.append((t, "interval"))
    return CheckResult("switching reproducibility", not failures,
                       "bitwise-identical draws per (seed, interval)", failures)


def check_nonlinearity_properties() -> CheckResult:
    """Every link kind is odd, monotone and inside its sector, on one sample.

    The sample is signed and log-uniform in |z| over 12 decades; saturation
    uses its part with |z| <= 1e3, against the bounds on (-1e3, 1e3). The
    log quantizer is held to its exact (tight) envelope at every level, and
    its linearized upper value 1 + rho/2 must be exceeded somewhere, which
    is what makes the tight mode necessary. The uniform quantizer is held to
    its sector (0, 2): its dead zone leaves no positive kappa to certify,
    but the upper value 2 is approached just past it. Each property holds to
    an absolute 1e-12.
    """
    rng = np.random.default_rng(2)
    mags = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=20000))
    z = np.sort(mags * rng.choice([-1.0, 1.0], size=mags.size))
    inner = z[np.abs(z) <= 1e3]
    sat, uniform = nl.saturation(2.0), nl.uniform_quantizer(1.0)
    cases = [(nl.identity(), z, nl.sector_bounds(nl.identity())),
             (uniform, z, nl.sector_bounds(uniform)),
             (sat, inner, nl.sector_bounds(sat, (-1e3, 1e3)))]
    cases += [(g, z, nl.sector_bounds(g, mode="tight"))
              for g in map(nl.log_quantizer, (0.1, 0.25, 0.5, 1.0, 1.6, 1.95))]
    failures = []
    for g, zs, bounds in cases:
        name = g.kind if g.rho is None else f"{g.kind}(rho={g.rho})"
        gz = nl.apply(g, zs)
        odd_gap = np.abs(nl.apply(g, -zs) + gz)
        if odd_gap.max() > 1e-12:
            failures.append((name, "odd", float(zs[odd_gap.argmax()]), float(odd_gap.max())))
        drops = gz[:-1] - gz[1:]  # zs is sorted
        if drops.max() > 1e-12:
            failures.append((name, "monotone", float(zs[drops.argmax()]), float(drops.max())))
        ratio = gz / zs
        excess = np.maximum(bounds.kappa - ratio, ratio - bounds.upper)
        if excess.max() > 1e-12:
            worst = excess.argmax()
            failures.append((name, "sector", float(zs[worst]), float(ratio[worst])))
        if g.kind == "log_quantizer" and not np.any(ratio > 1 + g.rho / 2):
            failures.append((name, "linearized upper value 1 + rho/2 unexpectedly holds"))
    return CheckResult("nonlinearity properties", not failures,
                       "odd, monotone, sector-contained (12 decades)", failures)


def check_cost_finite_differences() -> CheckResult:
    """Analytic gradients and Hessians against central differences."""
    rng = np.random.default_rng(3)
    failures = []

    def handles():
        for _ in range(50):
            m = int(rng.integers(1, 4))
            a = rng.normal(size=(m, m))
            yield QuadraticCost(a @ a.T + np.eye(m), rng.normal(size=m)), m
        for _ in range(50):
            npts = int(rng.integers(1, 20))
            feats = rng.normal(size=(npts, 3))
            labs = rng.choice([-1.0, 1.0], size=npts)
            yield SvmHingeCost(feats, labs, C=float(rng.uniform(0.2, 3.0)),
                               mu=float(rng.uniform(0.5, 4.0)), eps_nu=1e-6), 4

    for c, m in handles():
        x = rng.normal(size=m)
        grad = np.atleast_1d(c.gradient(x))
        hess = np.atleast_2d(c.hessian(x))
        if not np.allclose(hess, hess.T, atol=1e-12):
            failures.append(("hessian asymmetric", type(c).__name__))
            continue
        fd_grad = np.empty(m)
        fd_hess = np.empty((m, m))
        for i in range(m):
            h = 1e-6 * (1 + abs(x[i]))
            e = np.zeros(m)
            e[i] = h
            fd_grad[i] = (c.value(x + e) - c.value(x - e)) / (2 * h)
            fd_hess[:, i] = (np.atleast_1d(c.gradient(x + e))
                             - np.atleast_1d(c.gradient(x - e))) / (2 * h)
        scale = 1.0 + np.abs(fd_grad)
        if np.max(np.abs(grad - fd_grad) / scale) > 1e-5:
            failures.append(("gradient", type(c).__name__, x.tolist()))
        if np.max(np.abs(hess - fd_hess) / (1.0 + np.abs(fd_hess))) > 1e-5:
            failures.append(("hessian", type(c).__name__, x.tolist()))
    return CheckResult("cost finite differences", not failures,
                       "100 random points, rel tol 1e-5", failures)


def check_smoothing_gap() -> CheckResult:
    """Gap to the exact hinge stays in (0, log2/mu]; L'' is even and positive.

    Strict positivity of the gap is only representable while exp(-|mu z|)
    clears the floating-point resolution of |z|, so it is asserted on that
    range; far outside it the gap may round to zero (never below float
    noise). L''(z) must equal L''(-z) bit for bit everywhere, and be strictly
    positive wherever exp(-|mu z|) is a normal float (|mu z| <= 700).
    """
    rng = np.random.default_rng(4)
    failures = []
    for mu in (0.5, 2.0, 10.0):
        z = rng.uniform(-50, 50, size=5000)
        val, _, curv = costmod.smoothed_hinge(z, mu)
        gap = val - np.maximum(z, 0.0)
        if gap.min() < -1e-12 * (1 + np.abs(z).max()) or gap.max() > np.log(2) / mu + 1e-12:
            failures.append((mu, float(gap.min()), float(gap.max())))
        narrow = np.abs(mu * z) <= 30
        if np.any(gap[narrow] <= 0):
            failures.append((mu, "gap not strictly positive on representable range"))
        uneven = curv.view(np.uint64) != costmod.smoothed_hinge(-z, mu)[2].view(np.uint64)
        if np.any(uneven):
            failures.append((mu, "L'' not even", float(z[uneven][0])))
        flat = (curv <= 0) & (np.abs(mu * z) <= 700)
        if np.any(flat):
            failures.append((mu, "L'' not strictly positive", float(z[flat][0])))
    return CheckResult("smoothing gap", not failures,
                       "0 < L - max(z,0) <= log(2)/mu (float-resolution aware); "
                       "L'' even and > 0 for |mu z| <= 700", failures)


def theorem1_suite(assemble_fn=spectral.assemble) -> CheckResult:
    """Randomized eigenstructure suite.

    Every fixture with a step size below the tight bound must show exactly m
    zero eigenvalues and a strictly negative real part everywhere else. It
    draws 200 undirected fixtures (``random_fixture``) and 200 directed ones
    (``directed_fixture``) from a generator of their own, so the undirected
    draws are those of seed 5 alone. Violating fixtures are dumped whole for
    triage.
    """
    undirected, directed = np.random.default_rng(5), np.random.default_rng([5, 1])
    failures = []
    for idx in range(200):
        for fx in (random_fixture(undirected), directed_fixture(directed)):
            if fx["alpha"] <= 0:
                continue
            A = assemble_fn(fx["lap"], fx["hess"], fx["xi"], fx["alpha"])
            rep = spectral.spectral_report(A, fx["m"])
            if rep.zero_count != fx["m"] or rep.max_nonzero_real >= 0:
                failures.append({
                    "index": idx, "graph": fx["graph"], "n": fx["n"], "m": fx["m"],
                    "k": fx["k"], "total_weight": fx["total_weight"], "rho": fx["rho"],
                    "alpha": fx["alpha"], "tight_bound": fx["bounds"].tight,
                    "zero_count": rep.zero_count,
                    "max_nonzero_real": rep.max_nonzero_real,
                })
    return CheckResult("zero-eigenvalue structure", not failures,
                       "200 undirected and 200 directed fixtures below the "
                       f"tight bound, {len(failures)} violations", failures)


def check_eigen_derivative() -> CheckResult:
    rng = np.random.default_rng(6)
    failures = []
    for idx in range(40):
        fx = random_fixture(rng)
        rep = spectral.eigen_derivative_check(fx["lap"], fx["hess"], fx["xi"])
        if not rep.ok:
            failures.append((idx, rep.max_rel_error, rep.zero_block_norm))
    return CheckResult("eigenvalue derivative at alpha=0", not failures,
                       "40 fixtures, closed form vs finite differences "
                       "(rel tol 1e-4)", failures)


def check_matching_distance_metric() -> CheckResult:
    rng = np.random.default_rng(7)
    failures = []
    for trial in range(60):
        size = int(rng.integers(1, 7))
        a = rng.normal(size=size) + 1j * rng.normal(size=size)
        b = rng.normal(size=size) + 1j * rng.normal(size=size)
        c = rng.normal(size=size) + 1j * rng.normal(size=size)
        dab = spectral.matching_distance(a, b)
        if abs(dab - spectral.matching_distance(b, a)) > 1e-12:
            failures.append((trial, "symmetry"))
        if spectral.matching_distance(a, a) != 0.0:
            failures.append((trial, "identity"))
        if dab > spectral.matching_distance(a, c) + spectral.matching_distance(c, b) + 1e-12:
            failures.append((trial, "triangle"))
        shift = complex(rng.normal(), rng.normal())
        if abs(spectral.matching_distance(a, a + shift) - abs(shift)) > 1e-12:
            failures.append((trial, "shift"))
        # brute-force oracle on small multisets
        if size <= 4:
            from itertools import permutations
            brute = min(max(abs(a[i] - b[p[i]]) for i in range(size))
                        for p in permutations(range(size)))
            if abs(dab - brute) > 1e-12:
                failures.append((trial, "exactness", dab, brute))
    return CheckResult("matching distance metric", not failures,
                       "60 random multisets: symmetry, identity, triangle, "
                       "shift, brute-force", failures)


def check_matching_perturbation(excess_fn=spectral.matching_excess) -> CheckResult:
    """The perturbation estimate behind the matching bound, against measured spectra.

    For alpha in {0.9 * the matching bound, the fixture's alpha, 1e-3, 1e-6},
    the optimal matching distance between the spectra of the alpha = 0 and
    the alpha system must not exceed ``excess_fn(alpha, upper, gamma, nm)``,
    on 80 fixtures.
    """
    rng = np.random.default_rng(14)
    failures = []
    worst = 0.0
    cells = 0
    for idx in range(80):
        fx = random_fixture(rng)
        b = fx["bounds"]
        base = np.linalg.eigvals(spectral.assemble(fx["lap"], fx["hess"], fx["xi"], 0.0))
        for alpha in (0.9 * b.matching, fx["alpha"], 1e-3, 1e-6):
            if alpha <= 0:
                continue
            moved = np.linalg.eigvals(spectral.assemble(fx["lap"], fx["hess"], fx["xi"], alpha))
            dist = spectral.matching_distance(base, moved)
            bound = excess_fn(alpha, b.upper, b.gamma, b.n * b.m)
            worst, cells = max(worst, dist / bound), cells + 1
            if not dist <= bound:
                failures.append({"index": idx, "n": b.n, "m": b.m, "alpha": alpha,
                                 "distance": dist, "bound": bound})
    return CheckResult("matching perturbation estimate", not failures,
                       f"{cells} (fixture, alpha) cells, worst distance / estimate "
                       f"{worst:.3g}, {len(failures)} violations", failures)


def _quadratic_setup(n=5, m=2, seed=8):
    rng = np.random.default_rng(seed)
    costs = []
    for _ in range(n):
        a = 0.2 * rng.normal(size=(m, m))
        costs.append(QuadraticCost(a @ a.T + np.diag(rng.uniform(0.5, 1.2, size=m)),
                                   rng.normal(size=m)))
    graph = make_khop_ring(n, 1, 0.8)
    sched = SwitchingSchedule(graph, 1.0, mode=SwitchMode.FIXED)
    x0 = rng.uniform(-1, 1, size=(n, m))
    return costs, sched, x0


def check_linear_step_oracle() -> CheckResult:
    """One Euler step must equal (I + eta M) acting on the stacked state."""
    rng = np.random.default_rng(9)
    failures = []
    for trial in range(25):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(1, 3))
        costs, sched, _ = _quadratic_setup(n=n, m=m, seed=int(rng.integers(1 << 31)))
        graph = sched.base_graph
        lap = laplacian(graph)
        X = rng.normal(size=(n, m))
        Y = rng.normal(size=(n, m))
        alpha, eta = float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.001, 0.05))
        hess = aggregate_hessian(costs, X)
        A = spectral.assemble(lap, hess, None, alpha)
        stacked = np.concatenate([X.ravel(), Y.ravel()])
        oracle_next = stacked + eta * (A @ stacked)
        dX, dY = derivative(np.stack([X, Y]), lap, costs, alpha, nl.identity())
        engine_next = np.concatenate([(X + eta * dX).ravel(), (Y + eta * dY).ravel()])
        err = np.max(np.abs(engine_next - oracle_next))
        if err > 1e-12 * max(1.0, np.abs(oracle_next).max()):
            failures.append((trial, n, m, err))
    return CheckResult("linear-engine step oracle", not failures,
                       "25 fixtures, Euler step vs (I + eta M) within 1e-12",
                       failures)


def check_equilibrium_invariance() -> CheckResult:
    """The optimizer with zero tracker is a fixed point, links linear or not."""
    costs, sched, _ = _quadratic_setup(seed=10)
    n, m = 5, 2
    q_sum = sum(c.Q for c in costs)
    x_star = np.linalg.solve(q_sum, sum(c.Q @ c.b for c in costs))
    X = np.tile(x_star, (n, 1))
    Y = np.zeros_like(X)
    lap = laplacian(sched.base_graph)
    failures = []
    for g in (nl.identity(), nl.log_quantizer(1.0), nl.saturation(0.5)):
        with np.errstate(divide="ignore"):  # the log quantizer's log(0) at Y = 0, as in integrate
            dX, dY = derivative(np.stack([X, Y]), lap, costs, 0.3, g)
        worst = max(np.abs(dX).max(), np.abs(dY).max())
        if worst > 1e-12:
            failures.append((g.kind, worst))
    return CheckResult("equilibrium invariance", not failures,
                       "derivative at [x*; 0] is zero for every link kind", failures)


def check_conservation() -> CheckResult:
    """Drift of the conserved tracker-minus-gradient sum.

    Quadratic costs conserve it exactly in discrete time (the Hessian-chain
    term telescopes against the constant-curvature gradient), so those runs
    must sit at float noise. Integrator-order scaling is exhibited on a
    smoothed-hinge fixture whose gradient is genuinely nonlinear: halving the
    Euler step about halves the drift, and the fourth-order stepper shrinks
    it by roughly sixteen.
    """
    failures = []
    costs, sched, x0 = _quadratic_setup(seed=11)
    for g in (nl.identity(), nl.log_quantizer(1.0)):
        cfg = SolverConfig(alpha=0.3, eta=0.02, t_end=50.0, schedule=sched,
                           g=g, sample_stride=50)
        res = conservation_residual(integrate(costs, x0, cfg))
        if res > 1e-10:
            failures.append(("quadratic", g.kind, res))

    rng = np.random.default_rng(12)
    n = 3
    svm_costs = [SvmHingeCost(rng.normal(size=(5, 1)), rng.choice([-1.0, 1.0], size=5),
                              C=1.0, mu=2.0, eps_nu=1e-3) for _ in range(n)]
    graph = make_khop_ring(n, 1, 0.8)
    sched3 = SwitchingSchedule(graph, 1.0, mode=SwitchMode.FIXED)
    x0s = rng.uniform(-1, 1, size=(n, 2))

    def drift(eta, method, g):
        cfg = SolverConfig(alpha=0.2, eta=eta, t_end=50.0, schedule=sched3,
                           g=g, method=method, sample_stride=100)
        return conservation_residual(integrate(svm_costs, x0s, cfg))

    for g in (nl.identity(), nl.log_quantizer(0.5)):
        coarse, fine = drift(0.02, "euler", g), drift(0.01, "euler", g)
        ratio = coarse / fine if fine > 0 else np.inf
        if not (1.4 <= ratio <= 3.5):
            failures.append(("euler halving", g.kind, coarse, fine, ratio))
    # fourth-order shrink needs a smooth field: quantized links are
    # discontinuous, which demotes the local error order at every jump
    # crossing, so the x16 claim is scoped to smooth links
    coarse4, fine4 = drift(0.1, "rk4", nl.identity()), drift(0.05, "rk4", nl.identity())
    ratio4 = coarse4 / fine4 if fine4 > 0 else np.inf
    if not (ratio4 >= 8.0 or coarse4 < 1e-12):
        failures.append(("rk4 halving", "identity", coarse4, fine4, ratio4))
    drift_logq4 = drift(0.05, "rk4", nl.log_quantizer(0.5))
    if drift_logq4 > drift(0.05, "euler", nl.log_quantizer(0.5)) + 1e-12:
        failures.append(("rk4 vs euler", "log_quantizer", drift_logq4))
    return CheckResult("conservation drift", not failures,
                       "quadratic exact; Euler ~x2 per halving, RK4 ~x16 on "
                       "smooth links", failures)


def check_lyapunov_decrease() -> CheckResult:
    """V = 0.5 ||[x; y] - [x*; 0]||^2 never increases where it is a Lyapunov function of the flow.

    On identity links the quadratic fixtures' flow is linear, dS/dt = A S in
    offsets from [x*; 0], and a run whose tracker starts on the gradients
    stays on the subspace where the tracker sum equals the gradient sum. V is
    a Lyapunov function there exactly when the symmetric part of A is
    negative semidefinite on that subspace; otherwise some start raises it,
    and most draws are of that kind. The check draws undirected
    (``random_fixture``) and directed (``directed_fixture``) fixtures, alpha
    below the tight bound, until 12 of each family have that property. Each runs under RK4 at eta = 0.5 / ||A||_2 from a random start
    for ten time constants of its slowest mode, at most 2000 steps:
    V must rise by no more than 1e-10 V0 at any step and end below 1e-3 V0.
    """
    failures = []
    draws = 0
    for family, draw, rng in (("undirected", random_fixture, np.random.default_rng(14)),
                              ("directed", directed_fixture, np.random.default_rng([14, 1]))):
        found = 0
        while found < 12:
            fx = draw(rng)
            draws += 1
            n, m, hess = fx["n"], fx["m"], fx["hess"]
            A = spectral.assemble(fx["lap"], hess, None, fx["alpha"])
            # the conserved subspace: sum_i y_i - sum_i Q_i x_i = 0, x before y
            conserved = np.hstack([-hess.transpose(1, 0, 2).reshape(m, n * m),
                                   np.tile(np.eye(m), n)])
            basis = np.linalg.svd(conserved)[2][m:].T
            if np.linalg.eigvalsh(basis.T @ (A + A.T) @ basis).max() > 0:
                continue
            found += 1
            costs = [QuadraticCost(q, b) for q, b in zip(hess, rng.normal(size=(n, m)))]
            x0 = rng.uniform(-1, 1, size=(n, m))
            x_star = np.linalg.solve(hess.sum(axis=0), sum(c.Q @ c.b for c in costs))
            eta = 0.5 / np.linalg.norm(A, 2)
            rate = abs(spectral.spectral_report(A, m).max_nonzero_real)
            t_end = eta * min(2000, int(np.ceil(10.0 / (rate * eta))))
            cfg = SolverConfig(alpha=fx["alpha"], eta=eta, t_end=t_end, method="rk4",
                               schedule=SwitchingSchedule(fx["network"], t_end))
            v = integrate(costs, x0, cfg, reference=np.tile(x_star, (n, 1))).lyapunov
            rise = float(np.diff(v).max())
            if not (rise <= 1e-10 * v[0] and v[-1] < 1e-3 * v[0]):
                failures.append((family, n, m, fx["alpha"], rise / v[0], v[-1] / v[0]))
    return CheckResult("Lyapunov decrease", not failures,
                       f"V non-increasing at every RK4 step and below 1e-3 V0 at the end on "
                       "12 undirected and 12 directed fixtures where "
                       f"it is a Lyapunov function of the linear flow ({draws} drawn)",
                       failures)


def check_determinism() -> CheckResult:
    costs, sched_base, x0 = _quadratic_setup(seed=12)
    sched = SwitchingSchedule(sched_base.base_graph, 0.05, rng_seed=3,
                              mode=SwitchMode.PERMUTE)
    cfg = SolverConfig(alpha=0.3, eta=0.01, t_end=2.0, schedule=sched,
                       g=nl.log_quantizer(1.0), sample_stride=10)
    a = integrate(costs, x0, cfg).to_csv()
    b = integrate(costs, x0, cfg).to_csv()
    return CheckResult("trace determinism", a == b,
                       "identical config twice gives byte-identical CSV")


class _PerRowCurvature(QuadraticCost):
    """A quadratic whose Hessian comes back once per row, so it is evaluated at every stage."""

    def hessian(self, x):
        return np.broadcast_to(self.Q, x.shape[:-1] + self.Q.shape)


class _EveryStep(SwitchingSchedule):
    """A schedule taken as changing: a Laplacian per interval and no fixed-point exit."""

    @property
    def static(self) -> bool:
        return False


def check_member_axis() -> CheckResult:
    """Members run in lock step equal their own runs and each conserve their offset.

    A quadratic and a smoothed-hinge fixture each run one ``SolverBatch`` of
    log-quantized members with mixed alpha and rho on a permuting ring, the
    last member far above any bound. Every member must be bit-identical to
    its run alone (states, status, steps), the last one must diverge, and the
    others must complete with a conservation drift at float noise
    (quadratic, exact in discrete time) or below 1% of the initial gradient
    sum (smoothed hinge, Euler drift of order eta). The quadratic's constant
    Hessian is evaluated once per run; every member's trace must also match,
    byte for byte, a batch run that evaluates it at every stage.

    Those rings are uniform complete graphs, so their schedules are static. A
    third batch on one has exactly one member reach an exact fixed point
    while the others go on: each must equal its own run, and the one that
    stopped must equal, byte for byte, its run forced through every step.
    """
    rng = np.random.default_rng(13)
    costs, _, x0 = _quadratic_setup(seed=13)
    n = len(costs)
    svm_costs = [SvmHingeCost(rng.normal(size=(8, 2)), rng.choice([-1.0, 1.0], size=8),
                              C=1.0, mu=2.0, eps_nu=1e-3) for _ in range(n)]
    x0s = rng.uniform(-1, 1, size=(n, 3))
    sched = SwitchingSchedule(make_khop_ring(n, 2, 0.8), 0.5, rng_seed=13,
                              mode=SwitchMode.PERMUTE)
    failures = []
    for name, fx_costs, fx_x0, rel_tol in (("quadratic", costs, x0, 1e-10),
                                           ("svm", svm_costs, x0s, 1e-2)):
        alphas = [*rng.uniform(0.1, 0.5, size=4), 1e4]
        batch = SolverBatch(tuple(
            SolverConfig(alpha=float(a), eta=0.01, t_end=10.0, schedule=sched,
                         g=nl.log_quantizer(float(rho)), sample_stride=25)
            for a, rho in zip(alphas, rng.uniform(0.1, 1.9, size=5))))
        scale = float(np.linalg.norm(costmod.sum_gradient(fx_costs, fx_x0)))
        traces = integrate(fx_costs, fx_x0, batch)
        if name == "quadratic":
            staged = integrate([_PerRowCurvature(c.Q, c.b) for c in fx_costs], fx_x0, batch)
            failures += [(name, b, "differs from its per-stage Hessian run")
                         for b, (trace, per_stage) in enumerate(zip(traces, staged))
                         if trace.to_csv() != per_stage.to_csv()]
        for b, (trace, cfg) in enumerate(zip(traces, batch.members)):
            alone = integrate(fx_costs, fx_x0, cfg)
            if ((trace.status, trace.steps) != (alone.status, alone.steps)
                    or not np.array_equal(trace.states, alone.states)):
                failures.append((name, b, "differs from its own run"))
            expected = "diverged" if b == 4 else "completed"
            if trace.status != expected:
                failures.append((name, b, trace.status, f"expected {expected}"))
            elif expected == "completed" and conservation_residual(trace) > rel_tol * scale:
                failures.append((name, b, "drift", conservation_residual(trace)))
    costs3, x03, sched3 = freezing_fixture()
    batch = SolverBatch(tuple(
        SolverConfig(alpha=a, eta=0.01, t_end=20.0, schedule=sched3,
                     g=nl.log_quantizer(rho), sample_stride=7)
        for a, rho in ((6.0, 1.0), (6.0, 1.9), (3.0, 1.0))))
    traces = integrate(costs3, x03, batch)
    stopped = [t.fixed_point_time is not None for t in traces]
    if stopped != [False, True, False]:
        failures.append(("fixed point", "expected member 1 alone to stop", stopped))
    for b, (trace, cfg) in enumerate(zip(traces, batch.members)):
        alone = integrate(costs3, x03, cfg)
        if (trace.to_csv() != alone.to_csv()
                or (trace.status, trace.steps, trace.fixed_point_time)
                != (alone.status, alone.steps, alone.fixed_point_time)):
            failures.append(("fixed point", b, "differs from its own run"))
    cfg = batch.members[1]
    forced = integrate(costs3, x03, replace(
        cfg, schedule=_EveryStep(sched3.base_graph, sched3.switch_period, sched3.rng_seed,
                                 sched3.mode)))
    if (forced.fixed_point_time is not None or forced.to_csv() != traces[1].to_csv()
            or (forced.status, forced.steps, forced.max_abs_state)
            != (traces[1].status, traces[1].steps, traces[1].max_abs_state)):
        failures.append(("fixed point", 1, "differs from its run forced through every step"))
    return CheckResult("member axis", not failures,
                       "2 fixtures x 5 lock-step members, each bit-identical to "
                       "its own run and the quadratic's to its per-stage Hessian run; "
                       "drift exact (quadratic) or < 1% (svm); one of 3 members stops at "
                       "an exact fixed point, byte for byte its forced run", failures)


ALL_CHECKS = [
    check_graph_invariants,
    check_graph_at_reproducible,
    check_nonlinearity_properties,
    check_cost_finite_differences,
    check_smoothing_gap,
    theorem1_suite,
    check_eigen_derivative,
    check_matching_distance_metric,
    check_matching_perturbation,
    check_linear_step_oracle,
    check_equilibrium_invariance,
    check_conservation,
    check_lyapunov_decrease,
    check_determinism,
    check_member_axis,
]


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
