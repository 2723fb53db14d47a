"""Fixed-step integration of the gradient-tracking dynamics.

Per agent i the flow is

    dx_i/dt = -sum_j w_ij (g(x_i) - g(x_j)) - alpha * y_i
    dy_i/dt = -sum_j w_ij (g(y_i) - g(y_j)) + hess_i(x_i) dx_i/dt

with the tracker's gradient-derivative term realized through the Hessian
chain rule on the just-computed state derivative. That choice makes one
Euler step of the identity-link system agree exactly with the assembled
system matrix acting on the stacked state, and keeps the flow autonomous
within each switching interval.

Topology switches are aligned to step boundaries: the step size must divide
the switching period (it is shrunk to the nearest divisor with a warning
otherwise), so no integration step ever straddles a switch. A static
schedule (``SwitchingSchedule.static``) has one Laplacian for the whole run,
built once; its step map is then deterministic and autonomous, so a state
that one step leaves unchanged bit for bit stays so, and the member stops
at that exact fixed point with its remaining trace rows filled in.

Configs that differ only in alpha and the link level run in lock step as one
``SolverBatch``: the state gains a leading member axis, and one Laplacian
per switch and one derivative evaluation per stage serve every member. Costs
of constant curvature have their Hessians evaluated once per run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .cost import aggregate_hessian, global_cost, sum_gradient
from .graph import SwitchingSchedule, graph_at, laplacian
from .nonlinear import LinkNonlinearity, apply, identity

__all__ = [
    "MAX_SIZE",
    "MAX_STEPS",
    "SolverBatch",
    "SolverConfig",
    "Trace",
    "aligned_step",
    "derivative",
    "integrate",
    "conservation_residual",
    "agreement_ratio",
]

BLOWUP_THRESHOLD = 1e12

MAX_STEPS = 10**7  # most steps config validation lets a run take; fig2 takes 6e4
# most agents, data points or cost dimensions config validation lets a run
# ask for; the presets and the benchmark workloads ask for at most 200
MAX_SIZE = 10**4


def aligned_step(eta: float, period: float) -> float:
    """Largest step not exceeding eta that divides the switching period."""
    # at least one step per period; 0.0 when period / eta overflows
    return period / max(1.0, float(np.ceil(period / eta - 1e-9)))


@dataclass(frozen=True)
class SolverConfig:
    """Integration parameters for one run.

    ``y_init='gradient'`` starts the tracker at the local gradients, which
    zeroes the conserved offset between the tracker sum and the gradient sum
    so the tracker follows the gradient sum exactly; ``'zero'`` leaves the
    offset equal to minus the initial gradient sum and is provided for
    literal reproduction of zero-initialized runs. The conserved offset is
    measurable in the trace either way.
    """

    alpha: float
    eta: float
    t_end: float
    schedule: SwitchingSchedule
    g: LinkNonlinearity = field(default_factory=identity)
    method: str = "euler"
    y_init: str = "gradient"
    sample_stride: int = 1

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.method not in ("euler", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.y_init not in ("gradient", "zero"):
            raise ValueError(f"unknown y_init {self.y_init!r}")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be at least 1")

    def aligned_eta(self) -> float:
        """``aligned_step`` of eta, with a warning when it had to shrink."""
        period = self.schedule.switch_period
        eta = aligned_step(self.eta, period)
        if abs(eta - self.eta) > 1e-12 * self.eta:
            warnings.warn(
                f"eta={self.eta} does not divide the switching period {period}; "
                f"using eta={eta}",
                stacklevel=2,
            )
        return eta


@dataclass
class Trace:
    """Sampled trajectory plus derived diagnostics.

    ``states[r]`` is the stacked state [x, y] of shape (2, n, m) at
    ``times[r]``. Rows are recorded every ``sample_stride`` steps starting at
    t=0, and the last row is always the state after the last step taken,
    whether or not the stride divides the step count and including a step
    that diverged; every final value is therefore a ``[-1]`` read. The
    conserved-quantity residual measures drift of (sum_i y_i - sum_i grad f_i)
    from its initial value, which the exact flow keeps constant on
    weight-balanced graphs. ``max_abs_state`` is the largest state magnitude
    seen at any step, the quantity to compare against a domain-relative
    sector bound. ``eta`` is the step actually used (see
    ``SolverConfig.aligned_eta``) and ``steps`` the number of steps taken,
    the diverging one included.

    On a static schedule a member whose state a sampled step left unchanged,
    bit for bit, stops there: ``fixed_point_time`` is the time of that state,
    and its later rows are that state, as computing them would give. The
    counters say what was computed: ``derivative_evaluations`` (fewer than
    the stages of ``steps`` after a fixed point) and ``topology_switches``,
    the Laplacians built (one on a static schedule).
    """

    times: np.ndarray
    states: np.ndarray  # (rows, 2, n, m)
    cost: np.ndarray
    grad_sum_norm: np.ndarray
    consensus_error: np.ndarray
    conservation: np.ndarray
    lyapunov: np.ndarray | None
    status: str
    eta: float
    steps: int
    max_abs_state: float = 0.0
    derivative_evaluations: int = 0
    topology_switches: int = 0
    fixed_point_time: float | None = None

    def to_csv(self) -> str:
        rows, _, n, m = self.states.shape
        head = ["t"]
        head += [f"x_{i}_{j}" for i in range(n) for j in range(m)]
        head += [f"y_{i}_{j}" for i in range(n) for j in range(m)]
        head += ["cost", "grad_sum_norm", "consensus_error", "conservation_residual"]
        columns = [self.cost, self.grad_sum_norm, self.consensus_error, self.conservation]
        if self.lyapunov is not None:
            head.append("lyapunov")
            columns.append(self.lyapunov)
        table = np.column_stack([self.times, self.states.reshape(rows, -1), *columns])
        lines = [",".join(head)]
        lines += [",".join(format(v, ".17g") for v in row) for row in table]
        return "\n".join(lines) + "\n"


def derivative(
    S: np.ndarray,
    lap: np.ndarray,
    costs,
    alpha,
    g: LinkNonlinearity,
    rho=None,
    hessian: np.ndarray | None = None,
) -> np.ndarray:
    """dS for stacked states S = [X, Y] of shape (..., 2, n, m); the graph is frozen by the caller.

    Leading axes are batch members: ``alpha`` (a float or shape (B, 1, 1))
    and the link level ``rho`` (see ``nonlinear.apply``) broadcast over them.
    ``hessian``, the (n, m, m) stack of costs whose curvature is constant,
    stands in for evaluating the Hessians at X.
    """
    dS = lap @ apply(g, S, rho)
    dS[..., 0, :, :] -= alpha * S[..., 1, :, :]
    H = aggregate_hessian(costs, S[..., 0, :, :]) if hessian is None else hessian
    dS[..., 1, :, :] += (H @ dS[..., 0, :, :, None])[..., 0]
    return dS


@dataclass(frozen=True)
class SolverBatch:
    """Solver configs that one ``integrate`` call runs in lock step, one member each.

    Members may differ in ``alpha`` and in the link level ``g.rho`` only:
    they share the step, horizon, schedule object, method, tracker start,
    sample stride and link kind, so one Laplacian per switch and one
    derivative call per stage serve them all.
    """

    members: tuple[SolverConfig, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("a solver batch needs at least one member")
        first = self.members[0]
        shared = ("eta", "t_end", "method", "y_init", "sample_stride")
        for c in self.members[1:]:
            if (any(getattr(c, f) != getattr(first, f) for f in shared)
                    or c.schedule is not first.schedule
                    or (c.g.kind, c.g.limit) != (first.g.kind, first.g.limit)):
                raise ValueError("batch members may differ only in alpha and the link level rho")

    @property
    def method(self) -> str:
        return self.members[0].method


def integrate(
    costs,
    x0: np.ndarray,
    config: SolverConfig | SolverBatch,
    reference: np.ndarray | None = None,
) -> Trace | list[Trace]:
    """Run the hybrid dynamics from stacked initial state x0 (n rows).

    A ``SolverBatch`` of B members runs them in lock step on states of shape
    (B, 2, n, m) from the same x0 and returns one trace per member; a single
    ``SolverConfig`` is a batch of one and returns its trace. Each member's
    arithmetic is the same elementwise or per-matrix arithmetic as a run of
    its own, so its trace is bit-identical to that run's.

    A supplied ``reference`` optimizer turns on the Lyapunov column
    V = 0.5 ||[x; y] - [x*; 0]||^2. Divergence (a non-finite entry or one
    beyond 1e12 in either line) ends that member with status 'diverged'; its
    trace then ends on the state that diverged, and the others go on.
    """
    members = config.members if isinstance(config, SolverBatch) else (config,)
    first = members[0]
    X = np.array(x0, dtype=float)
    n, m = X.shape
    if len(costs) != n:
        raise ValueError("one cost handle per agent required")
    eta = first.aligned_eta()
    steps = int(round(first.t_end / eta))
    if steps == 0:
        raise ValueError(f"t_end={first.t_end:g} rounds to 0 steps of {eta:g}, so nothing would run")

    if first.y_init == "gradient":
        Y = np.stack([costs[i].gradient(X[i]) for i in range(n)])
    else:
        Y = np.zeros_like(X)

    offset0 = Y.sum(axis=0) - sum_gradient(costs, X)
    B = len(members)
    S = np.repeat(np.stack([X, Y])[None], B, axis=0)
    # constant curvature comes back as one (n, m, m) stack without the member
    # axis; it is evaluated here once instead of at every stage
    H = aggregate_hessian(costs, S[:, 0])
    hessian = H if H.ndim == 3 else None
    alpha = np.array([c.alpha for c in members]).reshape(B, 1, 1)
    rho = None if first.g.rho is None else np.array([c.g.rho for c in members]).reshape(B, 1, 1, 1)
    live = np.arange(B)  # the member of each row of S
    rows = [[] for _ in range(B)]  # (t, state); S is rebound by every step, never written in place
    ends = [("completed", steps)] * B
    # per member: steps computed, Laplacians built, and the time from which
    # the state is constant, as counted when it left the active set
    computed, built, settled = [steps] * B, [0] * B, [None] * B
    max_abs = np.zeros(B)
    peaks = np.zeros_like(S)  # the largest magnitude each entry of S has reached
    stride = first.sample_stride
    schedule = first.schedule
    # a static schedule gives every interval the same Laplacian, bit for bit,
    # and an autonomous step map (see the fixed-point test below)
    static = schedule.static
    interval = -1
    switches = 0
    L = None
    for k in range(steps):
        t = k * eta
        ix = 0 if static else schedule.interval_index(t)
        if ix != interval:
            L = laplacian(graph_at(schedule, t))
            interval, switches = ix, switches + 1
        sampled = k % stride == 0
        if sampled:
            for j, b in enumerate(live):
                rows[b].append((t, S[j]))
        before = S
        args = (L, costs, alpha, first.g, rho, hessian)
        if first.method == "euler":
            S = S + eta * derivative(S, *args)
        else:
            k1 = derivative(S, *args)
            k2 = derivative(S + 0.5 * eta * k1, *args)
            k3 = derivative(S + 0.5 * eta * k2, *args)
            k4 = derivative(S + eta * k3, *args)
            S = S + (eta / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        A = np.abs(S)
        gone = []  # the rows of S whose member ends with this step
        if A.max() <= BLOWUP_THRESHOLD:  # false on a NaN
            np.maximum(peaks, A, out=peaks)
        else:
            # test each line: a NaN in ay alone must end the member
            ax, ay = A.max(axis=(2, 3)).T
            seen = np.where(ay > ax, ay, ax)
            top = peaks.max(axis=(1, 2, 3))
            # the largest magnitude as Python's max(top, max(ax, ay)) takes it: never a NaN
            max_abs[live] = np.where(seen > top, seen, top)
            gone = list(np.flatnonzero(~((ax <= BLOWUP_THRESHOLD) & (ay <= BLOWUP_THRESHOLD))))
            for j in gone:
                rows[live[j]].append(((k + 1) * eta, S[j]))  # the step that diverged was taken
                ends[live[j]] = ("diverged", k + 1)
            peaks = np.maximum(peaks, A)
        if static and sampled:
            # a member whose step left its state unchanged, bit for bit, is at
            # a fixed point of its step map: every later state is this one, so
            # its remaining rows are filled in and it stops (never on a NaN)
            for j, b in enumerate(live):
                if j not in gone and np.array_equal(S[j], before[j]):
                    rows[b] += [(r * eta, S[j]) for r in range(k + stride, steps, stride)]
                    rows[b].append((steps * eta, S[j]))
                    max_abs[b], settled[b] = peaks[j].max(), t
                    gone.append(j)
        if not gone:
            continue
        for b in live[gone]:
            computed[b], built[b] = k + 1, switches
        keep = np.ones(len(live), dtype=bool)
        keep[gone] = False
        S, alpha, live, peaks = S[keep], alpha[keep], live[keep], peaks[keep]
        rho = None if rho is None else rho[keep]
        if not live.size:
            break
    max_abs[live] = peaks.max(axis=(1, 2, 3))
    for j, b in enumerate(live):
        rows[b].append((steps * eta, S[j]))
        built[b] = switches

    stages = 1 if first.method == "euler" else 4
    traces = [_trace(costs, rows[b], offset0, reference, *ends[b], eta, float(max_abs[b]),
                     stages * computed[b], built[b], settled[b])
              for b in range(B)]
    return traces if isinstance(config, SolverBatch) else traces[0]


def _trace(costs, rows, offset0, reference, status, steps, eta, max_abs,
           evaluations, switches, settled) -> Trace:
    """One member's trace: its sampled states plus the diagnostics of all rows at once."""
    states = np.array([S for _, S in rows])
    xs, ys = states[:, 0], states[:, 1]
    grad_sums = sum_gradient(costs, xs)
    lyapunov = None
    if reference is not None:
        dx = xs - reference
        lyapunov = 0.5 * (np.sum(dx * dx, axis=(1, 2)) + np.sum(ys * ys, axis=(1, 2)))
    return Trace(
        times=np.array([t for t, _ in rows]),
        states=states,
        cost=global_cost(costs, xs),
        grad_sum_norm=_norms(grad_sums),
        consensus_error=np.linalg.norm(xs - xs.mean(axis=1, keepdims=True), axis=2).max(axis=1),
        conservation=_norms((ys.sum(axis=1) - grad_sums) - offset0),
        lyapunov=lyapunov,
        status=status,
        eta=eta,
        steps=steps,
        max_abs_state=max_abs,
        derivative_evaluations=evaluations,
        topology_switches=switches,
        fixed_point_time=settled,
    )


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of v, each rounding as np.linalg.norm of that row alone."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def conservation_residual(trace: Trace) -> float:
    """Worst recorded drift of the conserved tracker-minus-gradient sum."""
    return float(trace.conservation.max()) if trace.conservation.size else 0.0


def agreement_ratio(trace: Trace) -> float:
    """Largest over the components of max_i |x_i| / min_i |x_i| at the final state.

    The links act on g(x_i) - g(x_j), so an equilibrium has equal g(x_i), not
    equal x_i: on quantized links agents agree only up to the sector ratio.
    1 is exact agreement, and a component that is 0 at some agents and not at
    others gives inf.
    """
    a = np.abs(trace.states[-1, 0])
    hi, lo = a.max(axis=0), a.min(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.where(hi == 0, 1.0, hi / lo).max())
