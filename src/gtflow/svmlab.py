"""Distributed-SVM experiment layer.

Synthetic two-class data on [-1, 1]^2 split by a radius threshold: not
linearly separable in the plane, linearly separable after the quadratic
feature map phi(c) = [c1^2, c2^2, sqrt(2) c1 c2] (whose Gram matrix is the
squared polynomial kernel). Data shards go to agents, each holding a
smoothed-hinge cost; the engine drives them to a common classifier that is
compared against a centralized gradient-descent baseline. A classifier is
the state vector x = [w; nu] itself, the hyperplane sgn(w . phi(c) - nu).

The baseline solves the agents' problem: it takes C, mu and eps_nu from
their costs. The per-agent cost counts the quadratic regularizer once per
agent, so the stacked consensus objective carries it n times. The default
'matched' comparison therefore scales the centralized baseline's
regularizer by n (both sides then minimize the identical function);
'literal' keeps the single-count centralized objective and comparisons
should then be read as decision-boundary comparisons only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import SvmHingeCost, aggregate_hessian
from .engine import SolverConfig, Trace, integrate

__all__ = [
    "LabeledDataset",
    "feature_map",
    "generate_ellipse_data",
    "partition",
    "centralized_oracle",
    "OracleStalled",
    "evaluate",
    "dsvm_experiment",
    "dataset_from_csv",
]


@dataclass(frozen=True)
class LabeledDataset:
    """Planar points with +/-1 labels."""

    points: np.ndarray  # (N, 2)
    labels: np.ndarray  # (N,), values in {-1, +1}

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        labs = np.asarray(self.labels, dtype=float).ravel()
        if pts.shape[0] != labs.size or pts.shape[1] != 2:
            raise ValueError("points must be (N, 2) with one label each")
        if not np.all(np.isin(labs, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if not (np.any(labs > 0) and np.any(labs < 0)):
            raise ValueError("both classes must be non-empty")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labs)

    @property
    def count(self) -> int:
        return self.labels.size


def feature_map(points: np.ndarray) -> np.ndarray:
    """phi(c) = [c1^2, c2^2, sqrt(2) c1 c2]; phi(a).phi(b) = (a.b)^2."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    c1, c2 = pts[:, 0], pts[:, 1]
    return np.stack([c1 ** 2, c2 ** 2, np.sqrt(2.0) * c1 * c2], axis=1)


def generate_ellipse_data(
    n_points: int,
    seed: int,
    radius: float = 0.6,
    margin_gap: float = 0.05,
) -> LabeledDataset:
    """Uniform points on [-1, 1]^2 labeled by distance from the origin.

    Label +1 outside ``radius``, -1 on or inside (ties go negative). Points
    within ``margin_gap`` of the radius are resampled so the classes are
    separable in feature space with positive margin whenever the gap is
    positive. More than 1000 draws per point in all raises ValueError.
    """
    if n_points < 2:
        raise ValueError("need at least 2 points")
    if not (0 < radius < 1):
        raise ValueError("radius must lie in (0, 1)")
    if margin_gap < 0:
        raise ValueError("margin_gap must be non-negative")
    rng = np.random.default_rng(seed)
    pts = np.empty((n_points, 2))
    labs = np.empty(n_points)
    filled = 0
    attempts_left = 1000 * n_points
    while filled < n_points:
        if attempts_left <= 0:
            raise ValueError(
                f"resampling budget exhausted: margin_gap={margin_gap} leaves too "
                "little admissible area"
            )
        p = rng.uniform(-1.0, 1.0, size=2)
        attempts_left -= 1
        dist = float(np.hypot(p[0], p[1]))
        if abs(dist - radius) < margin_gap:
            continue
        pts[filled] = p
        labs[filled] = 1.0 if dist > radius else -1.0
        filled += 1
    return LabeledDataset(pts, labs)


def partition(
    data: LabeledDataset, n_agents: int, mode: str = "stratified", seed: int = 0
) -> list[np.ndarray]:
    """Split a dataset across agents: one array of point indices per agent.

    'stratified' deals each label class round-robin after a seeded shuffle,
    so per-agent label proportions stay within one point of the global ones.
    'contiguous' hands out raw index blocks; with label-sorted data that
    produces single-label shards, the degenerate-curvature stress case.
    """
    if n_agents < 1 or n_agents > data.count:
        raise ValueError("need 1 <= n_agents <= point count")
    if mode == "stratified":
        rng = np.random.default_rng(seed)
        shuffled = []
        for label in (1.0, -1.0):
            idx = np.flatnonzero(data.labels == label)
            rng.shuffle(idx)
            shuffled.append(idx)
        order = np.concatenate(shuffled)
        return [order[a::n_agents] for a in range(n_agents)]
    if mode == "contiguous":
        bounds = np.linspace(0, data.count, n_agents + 1).astype(int)
        return [np.arange(bounds[a], bounds[a + 1]) for a in range(n_agents)]
    raise ValueError(f"unknown partition mode {mode!r}")


class OracleStalled(RuntimeError):
    """The centralized oracle stopped short of its gradient-norm tolerance."""

    def __init__(self, reason: str, gradient_norm: float):
        self.gradient_norm = gradient_norm
        super().__init__(f"{reason}, at gradient norm {gradient_norm:.3g}")


@dataclass(frozen=True)
class OracleResult:
    """The baseline classifier x = [w; nu], its objective, and how close it stopped.

    ``error_bound`` is gradient_norm / lambda_min of the Hessian at x, both
    of the oracle's own cost: a local first-order estimate of its distance
    to the exact minimizer (a bound on it for a quadratic).
    """

    x: np.ndarray
    objective: float
    gradient_norm: float
    iterations: int
    error_bound: float


def centralized_oracle(
    data: LabeledDataset,
    C: float = 1.0,
    mu: float = 2.0,
    eps_nu: float = 1e-6,
    tol: float = 1e-6,
    regularizer_scale: float = 1.0,
    max_iter: int = 200000,
) -> OracleResult:
    """Centralized baseline via gradient descent with backtracking.

    Minimizes  regularizer_scale * (w.w + eps_nu nu^2) + C * sum_j L(z_j, mu)
    to gradient norm ``tol``. ``regularizer_scale=n`` is the matched mode
    (identical objective to the n-agent consensus problem); 1 is the literal
    single-count objective. Armijo constant 1e-4, shrink factor 0.5, with the
    accepted step carried (doubled) into the next iteration. Raises
    ``OracleStalled`` when the tolerance is out of reach: at the iteration
    cap, or as soon as an iteration accepts the step it was carried with and
    a candidate equal to x bit for bit. Value and gradient depend on x alone,
    so the iteration is then at an exact fixed point of its map and never
    moves again (the Armijo test accepts it because values that agree to
    rounding compare equal).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if regularizer_scale <= 0:
        raise ValueError("regularizer_scale must be positive")
    # same minimizer: scale the hinge term down instead of the regularizer up
    cost = SvmHingeCost(feature_map(data.points), data.labels,
                        C=C / regularizer_scale, mu=mu, eps_nu=eps_nu)
    x = np.zeros(cost.m)
    step = 1.0
    value = cost.value(x)
    for it in range(max_iter):
        grad = cost.gradient(x)
        gn_sq = float(grad @ grad)
        if np.sqrt(gn_sq) <= tol:
            curvature = np.linalg.eigvalsh(aggregate_hessian([cost], x[None])[0])[0]
            return OracleResult(x, regularizer_scale * value,
                                np.sqrt(gn_sq), it, float(np.sqrt(gn_sq) / curvature))
        carried, step = step, min(step * 2.0, 1e8)
        while True:
            candidate = x - step * grad
            cand_value = cost.value(candidate)
            if cand_value <= value - 1e-4 * step * gn_sq:
                break
            step *= 0.5
            if step < 1e-18:
                raise OracleStalled("line search stalled", np.sqrt(gn_sq))
        if step == carried and np.array_equal(candidate, x):
            # (x, step) maps to itself: every later iteration is this one
            raise OracleStalled(f"stopped moving at iteration {it}", np.sqrt(gn_sq))
        x, value = candidate, cand_value
    raise OracleStalled(f"reached the iteration cap {max_iter}",
                        float(np.linalg.norm(cost.gradient(x))))


def evaluate(x: np.ndarray, data: LabeledDataset) -> float:
    """Training accuracy of sgn(w . phi(c) - nu), x = [w; nu], under the tie-is-wrong rule."""
    values = feature_map(data.points) @ x[:-1] - x[-1]
    return float(np.mean(np.sign(values) == data.labels))


@dataclass
class DsvmReport:
    """Outcome of one distributed run against the centralized baseline."""

    trace: Trace
    consensus: np.ndarray
    consensus_spread: float
    oracle: OracleResult
    distance_to_oracle: float
    consensus_accuracy: float
    oracle_accuracy: float

    def summary_lines(self) -> list[str]:
        out = [
            f"status: {self.trace.status}",
            f"consensus_spread: {self.consensus_spread!r}",
            f"distance_to_oracle: {self.distance_to_oracle!r}",
            f"consensus_accuracy: {self.consensus_accuracy!r}",
            f"oracle_accuracy: {self.oracle_accuracy!r}",
            f"final_grad_sum_norm: {float(self.trace.grad_sum_norm[-1])!r}",
            f"oracle_objective: {self.oracle.objective!r}",
            f"oracle_gradient_norm: {format(self.oracle.gradient_norm, '.17g')}",
            f"oracle_error_bound: {format(self.oracle.error_bound, '.17g')}",
        ]
        for i, x in enumerate(self.trace.states[-1, 0]):
            out.append(f"agent_{i}_final: {' '.join(format(v, '.17g') for v in x)}")
        return out


def dsvm_experiment(
    data: LabeledDataset,
    costs: list[SvmHingeCost],
    solver: SolverConfig,
    x0: np.ndarray,
    regularizer_mode: str = "matched",
    oracle_tol: float = 1e-6,
) -> DsvmReport:
    """Integrate the per-agent costs from x0 and compare against the baseline.

    ``costs`` are the agents' shards of ``data``, all with one C, mu and
    eps_nu; the oracle solves the centralized problem with those. The
    consensus classifier is the network mean of the agents' final states;
    the spread is the max distance of any agent from that mean.
    """
    if regularizer_mode not in ("matched", "literal"):
        raise ValueError(f"unknown regularizer mode {regularizer_mode!r}")
    shared = {(c.C, c.mu, c.eps_nu) for c in costs}
    if len(shared) != 1:
        raise ValueError("the agents' costs must share one C, mu and eps_nu")
    (C, mu, eps_nu), = shared
    n = len(costs)
    scale = float(n) if regularizer_mode == "matched" else 1.0
    oracle = centralized_oracle(data, C=C, mu=mu, eps_nu=eps_nu, tol=oracle_tol,
                                regularizer_scale=scale)
    trace = integrate(costs, x0, solver, reference=np.tile(oracle.x, (n, 1)))

    final_x = trace.states[-1, 0]
    consensus = final_x.mean(axis=0)
    return DsvmReport(
        trace=trace,
        consensus=consensus,
        consensus_spread=float(np.max(np.abs(final_x - consensus))),
        oracle=oracle,
        distance_to_oracle=float(np.max(np.abs(consensus - oracle.x))),
        consensus_accuracy=evaluate(consensus, data),
        oracle_accuracy=evaluate(oracle.x, data),
    )


def dataset_from_csv(text: str) -> LabeledDataset:
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1].strip().lower() != "chi1,chi2,label":
        raise ValueError("dataset CSV must start with header 'chi1,chi2,label'")
    pts, labs = [], []
    for no, ln in lines[1:]:
        try:
            a, b, l = (float(v) for v in ln.split(","))
        except ValueError as err:
            raise ValueError(f"line {no}: {err}") from None
        if not np.isfinite([a, b]).all():
            raise ValueError(f"line {no}: coordinates must be finite, got {a!r}, {b!r}")
        pts.append((a, b))
        labs.append(l)
    return LabeledDataset(np.array(pts), np.array(labs))
