"""Fixed-step integration of the gradient-tracking dynamics.

Per agent i the flow is

    dx_i/dt = -sum_j w_ij (g(x_i) - g(x_j)) - alpha * y_i
    dy_i/dt = -sum_j w_ij (g(y_i) - g(y_j)) + hess_i(x_i) dx_i/dt

with the tracker's gradient-derivative term realized through the Hessian
chain rule on the just-computed state derivative. That choice makes one
Euler step of the identity-link system agree exactly with the assembled
system matrix acting on the stacked state, and keeps the flow autonomous
within each switching interval.

Topology switches are aligned to step boundaries: in ``permute`` mode the
step size must divide the switching period (it is shrunk to the nearest
divisor with a warning otherwise), so no integration step ever straddles a
switch; a ``fixed`` network never switches and takes eta as given. A static
schedule (``SwitchingSchedule.static``) has one Laplacian for the whole run,
built once; its step map is then deterministic and autonomous, so a state
that one step leaves unchanged bit for bit stays so, and the member stops
at that exact fixed point with its remaining trace rows filled in.

Configs that differ only in alpha and the link level run in lock step as one
``SolverBatch``: the state (2, B, n, m) gains a member axis after the line
axis, so the x lines of every member are one contiguous block and the y
lines another, and one Laplacian per switch and one derivative evaluation
per stage serve every member, whose alpha and link level the batch holds at
the shapes they multiply. The members' sampled rows share one array and
one diagnostics pass. Costs of constant curvature have their Hessians
evaluated once per run, and a stack of them whose off-diagonal entries are
all 0 is carried as its diagonal: an elementwise product in place of the
block product, with the same bits on finite states. On a diverging state
the block product's 0 * inf makes NaN and the diagonal form does not, so
such a run can end on inf where the block product ended on NaN.

A lone run spends its time in per-stage numpy dispatch more than in
arithmetic, so a stage enters no ``np.errstate``: ``integrate`` holds one
guard for its whole step loop (overflow, invalid values, and the log
quantizer's division by zero at an exact 0), and ``derivative`` runs
unguarded on the unguarded link map ``nonlinear.stage_apply`` and Hessian
``cost.stage_hessian``, whose lone rows take ``ndarray.dot``, the same
BLAS call as ``@`` with less dispatch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .cost import global_cost, stage_hessian, sum_gradient
from .graph import SwitchingSchedule, SwitchMode, graph_at, laplacian
from .nonlinear import LinkNonlinearity, identity
from .nonlinear import stage_apply as apply  # the step loop holds the divide guard

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


def aligned_step(eta: float, period: float, mode: SwitchMode) -> float:
    """eta itself on a ``fixed`` network, which never switches; in ``permute``
    mode the largest step not exceeding eta that divides the switching period."""
    if mode == SwitchMode.FIXED:
        return eta
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
        eta = aligned_step(self.eta, period, self.schedule.mode)
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
    weight-balanced graphs. ``max_abs_state`` is the largest magnitude of
    any entry that is not NaN, over the states after each step taken, the
    quantity to compare against a domain-relative sector bound. ``eta`` is
    the step actually used (see ``SolverConfig.aligned_eta``) and ``steps``
    the number of steps taken, the diverging one included.

    On a static schedule a member whose state a sampled step left unchanged,
    bit for bit, stops there: ``fixed_point_time`` is the time of that state,
    and its later rows are that state, as computing them would give. The
    counters say what was computed: ``derivative_evaluations`` (fewer than
    the stages of ``steps`` after a fixed point) and ``topology_switches``,
    the Laplacians built (one on a static schedule). A diverged trace also
    says when and where: ``divergence_time`` and ``divergence_entry``.
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

    @property
    def divergence_time(self) -> float | None:
        """The time of the state that diverged, the last row's; None unless the status is 'diverged'."""
        return float(self.times[-1]) if self.status == "diverged" else None

    @property
    def divergence_entry(self) -> str | None:
        """The ``trace.csv`` column, ``x_<node>_<component>`` or ``y_...``, where the run diverged.

        It is the entry of largest magnitude of the state that diverged, or
        its first NaN in C order (x before y, then node, then component);
        None unless the status is 'diverged'.
        """
        if self.status != "diverged":
            return None
        S = self.states[-1]
        nan = np.isnan(S)
        line, node, component = np.unravel_index((nan if nan.any() else np.abs(S)).argmax(), S.shape)
        return f"{'xy'[line]}_{node}_{component}"

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
    """dS for stacked states S = [X, Y] of shape (2, ..., n, m); the graph is frozen by the caller.

    Axes between the line axis and the agents are batch members: a batch of
    B states is (2, B, n, m), so X = S[0] and Y = S[1] are contiguous blocks.
    ``alpha`` is a float or an array that broadcasts against X, and the link
    level ``rho`` (see ``nonlinear.apply``) one that broadcasts against S;
    ``integrate`` gives a batch both at full shape, (B, n, m) and
    (2, B, n, m), which rounds the same as a broadcast and costs less.
    ``hessian``, the (n, m, m) stack of costs whose curvature is constant,
    stands in for evaluating the Hessians at X. Its (n, m) diagonal stands
    in for a stack whose off-diagonal entries are all 0: it adds
    ``diagonal * dX``, the block product's bits except where that product
    multiplies a zero coupling by an inf or NaN entry of dX into NaN.
    S is a float array, as ``integrate`` makes it, with one row per cost.

    A stage helper, unchecked and unguarded like ``cost.stage_hessian``: the
    link map is ``nonlinear.stage_apply``, so a log quantizer at an exact 0
    warns of log(0) and a smoothed-hinge curvature past |mu z| of about
    1420 of its cosh overflow, both harmless; ``integrate`` enters one
    ``np.errstate`` for its whole step loop instead of one per stage, and
    a direct caller guards itself.
    """
    dS = lap @ apply(g, S, rho)
    dX, dY = dS[0], dS[1]
    dX -= alpha * S[1]
    if hessian is None:
        hessian = stage_hessian(costs, S[0])
    if hessian.ndim == 2:
        dY += hessian * dX
    else:
        dY += (hessian @ dX[..., None])[..., 0]
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
    (2, B, n, m), line first, from the same x0 and returns one trace per
    member; a single ``SolverConfig`` is a batch of one and returns its
    trace. Each member's arithmetic is the same elementwise or per-matrix
    arithmetic as a run of its own, so its trace is bit-identical to that
    run's.

    Every member's sampled states go into one (B, R, 2, n, m) array, with
    R = (steps - 1) // sample_stride + 2 the rows of a member that takes
    every step: one write per sampled step records every live member (the
    state with its member axis swapped to the front), and a member that
    leaves has its remaining rows filled in one assignment. The diagnostics
    of all members' rows in use come from one pass, one ``sum_gradient`` and
    one ``global_cost`` call for the whole batch, and each trace is handed
    copies of its slices.

    A supplied ``reference`` optimizer turns on the Lyapunov column
    V = 0.5 ||[x; y] - [x*; 0]||^2. Divergence (a non-finite entry or one
    beyond 1e12 in either line) ends that member with status 'diverged'; its
    trace then ends on the state that diverged, and the others go on. The
    step loop and the diagnostics pass run under a local ``np.errstate``
    that silences overflow and invalid-value warnings, which a diverging
    state raises by the dozen; the step loop's also silences division by
    zero, the log quantizer's log(0) at an exact 0, so that no stage enters
    a guard of its own. numpy's global state is left as it was.
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
    S = np.repeat(np.stack([X, Y])[:, None], B, axis=1)
    # a lone member steps on its own (2, n, m) state S[:, 0], with its alpha
    # and link level as floats: the same bits with less broadcasting, and each
    # agent's Hessian evaluated on its lone (m,) row; a batch holds them at
    # the shapes they multiply, (B, n, m) and (2, B, n, m)
    lone = B == 1
    if lone:
        alpha, rho = first.alpha, first.g.rho
    else:
        alpha = _per_entry([c.alpha for c in members], (B, n, m))
        rho = None if first.g.rho is None else _per_entry([c.g.rho for c in members], S.shape)
    live = np.arange(B)  # the member of each row of S
    stride = first.sample_stride
    # every member's rows in one array: a row every stride steps from t = 0,
    # then the state after the last step taken, so a member that takes every
    # step fills all R of its rows
    R = (steps - 1) // stride + 2
    states = np.empty((B, R, 2, n, m))
    ends = [None] * B  # the Trace fields a member's exit sets
    peaks = np.zeros_like(S)  # the largest magnitude other than NaN each entry of S has reached
    stages = 1 if first.method == "euler" else 4
    schedule = first.schedule
    # a static schedule gives every interval the same Laplacian, bit for bit,
    # and an autonomous step map (see the fixed-point test below)
    static = schedule.static
    interval = -1
    switches = 0
    half, sixth = 0.5 * eta, eta / 6.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # constant curvature comes back as one (n, m, m) stack without the
        # member axis; it is evaluated here once instead of at every stage,
        # and carried as its diagonal when every off-diagonal entry is 0
        H = stage_hessian(costs, S[0])
        hessian = None
        if H.ndim == 3:
            uncoupled = (H[:, ~np.eye(m, dtype=bool)] == 0).all()  # false on a NaN
            hessian = np.diagonal(H, axis1=1, axis2=2).copy() if uncoupled else H
        for k in range(steps):
            t = k * eta
            ix = 0 if static else schedule.interval_index(t)
            if ix != interval:
                L = laplacian(graph_at(schedule, t))
                interval, switches = ix, switches + 1
                args = (L, costs, alpha, first.g, rho, hessian)
            sampled = k % stride == 0
            if sampled:
                states[live, k // stride] = S.swapaxes(0, 1)
            before = S
            s = S[:, 0] if lone else S
            k1 = derivative(s, *args)
            if first.method == "euler":
                s = s + eta * k1
            else:
                k2 = derivative(s + half * k1, *args)
                k3 = derivative(s + half * k2, *args)
                k4 = derivative(s + eta * k3, *args)
                s = s + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
            S = s[:, None] if lone else s
            A = np.abs(S)
            np.fmax(peaks, A, out=peaks)
            diverged = not A.max() <= BLOWUP_THRESHOLD  # true on a NaN
            if not (diverged or (static and sampled) or k == steps - 1):
                continue  # no member can leave on this step
            ending = {}  # row of S -> (status, steps taken, fixed-point time)
            if diverged:
                for j in np.flatnonzero(~(A.max(axis=(0, 2, 3)) <= BLOWUP_THRESHOLD)):
                    ending[j] = ("diverged", k + 1, None)  # the step that diverged was taken
            if static and sampled:
                # a member whose step left its state unchanged, bit for bit, is at
                # a fixed point of its step map: every later state is this one, so
                # its remaining rows are filled in and it stops (never on a NaN;
                # a member that also diverged leaves as diverged)
                for j in np.flatnonzero((S == before).all(axis=(0, 2, 3))):
                    ending.setdefault(j, ("completed", steps, t))
            if k == steps - 1:
                for j in range(len(live)):
                    ending.setdefault(j, ("completed", steps, None))
            if not ending:
                continue
            for j, (status, taken, settled) in ending.items():
                b = live[j]
                # its rows after this step's, up to and including its final row
                states[b, k // stride + 1:(taken - 1) // stride + 2] = S[:, j]
                ends[b] = dict(status=status, steps=taken, max_abs_state=float(peaks[:, j].max()),
                               derivative_evaluations=stages * (k + 1),
                               topology_switches=switches, fixed_point_time=settled)
            if len(ending) == len(live):
                break
            keep = np.ones(len(live), dtype=bool)
            keep[list(ending)] = False
            # np.compress keeps C order; fancy indexing on axis 1 would not,
            # and every later operation would walk strided lines
            S, peaks = np.compress(keep, S, axis=1), np.compress(keep, peaks, axis=1)
            alpha, live = alpha[keep], live[keep]
            rho = None if rho is None else np.compress(keep, rho, axis=1)
            args = (L, costs, alpha, first.g, rho, hessian)

    taken = np.array([end["steps"] for end in ends])
    used = (taken - 1) // stride + 2  # the rows of each member
    in_use = np.arange(R) < used[:, None]
    times = np.broadcast_to(np.arange(R) * stride * eta, (B, R))[in_use]
    times[np.cumsum(used) - 1] = taken * eta
    traces = _traces(costs, times, states[in_use], used, offset0, reference, eta, ends)
    return traces if isinstance(config, SolverBatch) else traces[0]


@np.errstate(over="ignore", invalid="ignore")  # a diverged member's rows hold inf and NaN
def _traces(costs, times, states, rows, offset0, reference, eta, ends) -> list[Trace]:
    """Each member's trace, from the diagnostics of every member's rows at once.

    ``times`` and ``states`` hold the rows of one member after another,
    ``rows[b]`` of them for member b, whose exit set ``ends[b]``. Every
    diagnostic is a row-wise product, so each row's values are the ones it
    would get alone; each trace owns copies of its slices.
    """
    xs, ys = states[:, 0], states[:, 1]
    grad_sums = sum_gradient(costs, xs)
    columns = {
        "times": times,
        "states": states,
        "cost": global_cost(costs, xs),
        "grad_sum_norm": _norms(grad_sums),
        "consensus_error": np.linalg.norm(xs - xs.mean(axis=1, keepdims=True), axis=2).max(axis=1),
        "conservation": _norms((ys.sum(axis=1) - grad_sums) - offset0),
        "lyapunov": None,
    }
    if reference is not None:
        dx = xs - reference
        columns["lyapunov"] = 0.5 * (np.sum(dx * dx, axis=(1, 2)) + np.sum(ys * ys, axis=(1, 2)))
    bounds = np.cumsum(rows) - rows
    return [Trace(**{name: None if v is None else v[a:a + r].copy() for name, v in columns.items()},
                  eta=eta, **end)
            for a, r, end in zip(bounds, rows, ends)]


def _per_entry(values, shape) -> np.ndarray:
    """A fresh C-ordered array of the given (..., B, n, m) shape whose b-th member slice is values[b]."""
    return np.broadcast_to(np.reshape(values, (-1, 1, 1)), shape).copy()


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
