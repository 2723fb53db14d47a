"""Weight-balanced multi-agent network topologies and their Laplacians.

Graphs are stored as dense weight matrices where ``weights[i, j]`` is the
weight on the link j -> i. Every generator enforces three structural
requirements: non-negative weights with zero diagonal, row sums strictly
below one, and weight balance (per-node in-sum equals out-sum). Connectivity
is checked structurally by reachability, not spectrally.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "WeightedGraph",
    "SwitchMode",
    "SwitchingSchedule",
    "make_khop_ring",
    "laplacian",
    "check_weight_balanced",
    "is_strongly_connected",
    "graph_at",
]

ROW_SUM_LIMIT = 1.0


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable weighted digraph on n nodes.

    ``weights[i, j]`` carries the weight of the link j -> i; the diagonal is
    zero. Validation happens on construction and the weight matrix is made
    read-only so instances can be shared freely.
    """

    n: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.n, self.n):
            raise ValueError(f"weight matrix shape {w.shape} does not match n={self.n}")
        if np.any(w < 0):
            raise ValueError("link weights must be non-negative")
        if np.any(np.diag(w) != 0):
            raise ValueError("self-loop weights must be zero")
        row_sums = w.sum(axis=1)
        if np.any(row_sums >= ROW_SUM_LIMIT):
            raise ValueError(
                f"row sums must stay below {ROW_SUM_LIMIT} (max found {row_sums.max():.6g})"
            )
        balanced, imbalance = check_weight_balanced(w)
        if not balanced:
            raise ValueError(f"graph is not weight-balanced (imbalance {imbalance:.3g})")
        if not is_strongly_connected(w):
            raise ValueError("graph is not strongly connected")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def row_sums(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    def permuted(self, perm: np.ndarray) -> "WeightedGraph":
        """Relabel nodes: node i of the result is node perm[i] of self.

        A relabelled valid graph is valid, so the checks do not run again.
        """
        p = np.asarray(perm)
        g = object.__new__(WeightedGraph)
        object.__setattr__(g, "n", self.n)
        object.__setattr__(g, "weights", self.weights[p][:, p])
        g.weights.flags.writeable = False
        return g


class SwitchMode(str, Enum):
    FIXED = "fixed"
    PERMUTE = "permute"


@dataclass(frozen=True)
class SwitchingSchedule:
    """Piecewise-constant topology schedule.

    In ``permute`` mode the node labels of ``base_graph`` are shuffled once
    per switching interval by a counter-based seeded stream, so the active
    graph at any time is random-access reproducible: identical
    (seed, period, t) always yields the identical weight matrix.
    """

    base_graph: WeightedGraph
    switch_period: float
    rng_seed: int = 0
    mode: SwitchMode = SwitchMode.FIXED

    def __post_init__(self):
        if self.switch_period <= 0:
            raise ValueError("switch_period must be positive")
        object.__setattr__(self, "mode", SwitchMode(self.mode))

    @property
    def static(self) -> bool:
        """Whether every interval gets the base weight matrix, bit for bit.

        True in ``fixed`` mode, and in ``permute`` mode when every off-diagonal
        base weight is equal (a uniform complete graph): every relabelling of
        such a matrix is the matrix itself.
        """
        if self.mode is SwitchMode.FIXED:
            return True
        w = self.base_graph.weights
        off = w[~np.eye(self.base_graph.n, dtype=bool)]
        return bool(np.all(off == off[:1]))

    def interval_index(self, t: float) -> int:
        # tiny slack keeps t = k*period on interval k despite float rounding
        return int(np.floor(t / self.switch_period + 1e-9))


def make_khop_ring(
    n: int, k: int, total_weight: float, directed: bool = False
) -> WeightedGraph:
    """Ring of n nodes where each node links to its k nearest neighbors per side.

    Every incident link gets weight ``total_weight / (2k)`` so each row sums
    to ``total_weight``, keeping the row-sum bound satisfied by construction.
    The ``directed`` variant (experimental) links each node only to its k
    clockwise successors with weight ``total_weight / k``; the circulant
    structure keeps it strongly connected and weight-balanced.

    Parameters
    ----------
    n : node count, at least 2.
    k : hop radius, 1 <= k <= (n-1)//2.
    total_weight : per-node row sum, in (0, 1).
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if not (0 < total_weight < 1):
        raise ValueError(f"total_weight must lie in (0, 1), got {total_weight}")
    if k < 1 or 2 * k > n - 1:
        raise ValueError(f"hop radius k={k} out of range for n={n} (need 1 <= k <= (n-1)//2)")
    w = np.zeros((n, n))
    if directed:
        per_link = total_weight / k
        for i in range(n):
            for s in range(1, k + 1):
                w[i, (i + s) % n] = per_link
    else:
        per_link = total_weight / (2 * k)
        for i in range(n):
            for s in range(1, k + 1):
                w[i, (i + s) % n] = per_link
                w[i, (i - s) % n] = per_link
    return WeightedGraph(n, w)


def laplacian(g: WeightedGraph | np.ndarray) -> np.ndarray:
    """Laplacian with off-diagonal entries w_ij and diagonal -sum_j w_ij.

    Rows sum to zero by construction; for weight-balanced graphs the columns
    do too. All eigenvalues lie in the closed left half-plane with a single
    zero for connected graphs.
    """
    w = g.weights if isinstance(g, WeightedGraph) else np.asarray(g, dtype=float)
    return w - np.diag(w.sum(axis=1))


def check_weight_balanced(g: WeightedGraph | np.ndarray) -> tuple[bool, float]:
    """Return (balanced to 1e-12?, max per-node |in-sum - out-sum|)."""
    w = g.weights if isinstance(g, WeightedGraph) else np.asarray(g, dtype=float)
    imbalance = float(np.max(np.abs(w.sum(axis=0) - w.sum(axis=1))))
    return imbalance <= 1e-12, imbalance


def is_strongly_connected(w: np.ndarray) -> bool:
    """Structural strong connectivity via forward and backward reachability."""
    adj = np.asarray(w) > 0
    return _reaches_all(adj) and _reaches_all(adj.T)


def _reaches_all(adj: np.ndarray) -> bool:
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in np.flatnonzero(adj[u]):
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return bool(seen.all())


def graph_at(schedule: SwitchingSchedule, t: float) -> WeightedGraph:
    """Active graph at time t >= 0 (deterministic in (seed, period, t))."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if schedule.mode is SwitchMode.FIXED:
        return schedule.base_graph
    idx = schedule.interval_index(t)
    rng = np.random.default_rng([schedule.rng_seed, idx])
    perm = rng.permutation(schedule.base_graph.n)
    return schedule.base_graph.permuted(perm)

