"""Local cost functions: value / gradient / Hessian per agent.

A cost model is a sequence of per-agent handles, each exposing ``value``,
``gradient`` and ``hessian`` at a point in R^m or at stacked rows of shape
(..., m). Every product is the per-row matrix-vector or dot product a lone
point makes, so each row's result is bit-identical to its own call.
Everything downstream (the dynamics engine, the spectral analyzer) consumes
only that interface.

The smoothed hinge and its slope L' are evaluated in a branchless form on
exp(-|mu z|), so the exponential never overflows; the exponential-loss
inaccuracy this guards against is a real failure mode at large margins. The
curvature has one expression, L''(t) = (mu / 4) / cosh(t / 2)^2 at t = mu z,
which equals mu e / (1 + e)^2 with e = exp(-|t|): even in t bit for bit and
accurate to a few ulp relative wherever it is a normal float, with no
cancellation at large positive t. cosh overflows to inf past |t| of about
1420, where L'' is then exactly 0; numpy reports that overflow as a
RuntimeWarning, so ``_slopes`` and ``aggregate_hessian`` evaluate it under
``np.errstate(over="ignore")``. The smoothed-hinge Hessian evaluates only
this curvature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "smoothed_hinge",
    "QuadraticCost",
    "SvmHingeCost",
    "aggregate_hessian",
    "infinity_norm",
    "global_cost",
    "sum_gradient",
]


def smoothed_hinge(z, mu: float):
    """Smoothed max(z, 0): L = log(1 + exp(mu z)) / mu, with L' and L''.

    Returns (L, L', L'') evaluated componentwise. L' is the logistic sigmoid
    of t = mu*z and L'' = (mu / 4) / cosh(t / 2)^2, which equals
    mu * L' * (1 - L'). L'' is even in t bit for bit, within 4 ulp of the
    exact value wherever that is a normal float and within (1 + mu) / 2
    subnormal steps below; NaN gives NaN and t = +-inf gives 0. Stable for
    |mu z| up to 1e6 and beyond; the smoothing gap L - max(z, 0) lies in
    (0, log 2 / mu].
    """
    if mu <= 0:
        raise ValueError("smoothing parameter mu must be positive")
    t = np.asarray(mu * np.asarray(z, dtype=float))
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    val = (np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))) / mu
    s, curv = _slopes(t, mu)
    if scalar:
        return float(val[0]), float(s[0]), float(curv[0])
    return val, s, curv


def _slopes(t: np.ndarray, mu: float):
    """L' and L'' of the smoothed hinge at t = mu * z, without L itself."""
    # 1 / (1 + exp(-t)) for t >= 0 and exp(t) / (1 + exp(t)) otherwise, NaN
    # included: each entry takes the same IEEE operations as under two
    # masked branches, so the bits are the same
    pos = t >= 0
    e = np.exp(np.where(pos, -t, t))
    with np.errstate(over="ignore"):
        curv = (0.25 * mu) * _sech2(0.5 * t)
    return np.where(pos, 1.0, e) / (1.0 + e), curv


def _sech2(h: np.ndarray) -> np.ndarray:
    """1 / cosh(h)^2, in place on h: (mu / 4) times this at h = t / 2 is the one L''.

    cosh overflows to inf past |h| of about 710, which gives exactly 0; the
    caller guards the RuntimeWarning numpy raises for that overflow.
    """
    np.cosh(h, out=h)
    return np.power(h, -2.0, out=h)


@dataclass(frozen=True)
class QuadraticCost:
    """f(x) = 0.5 (x - b)^T Q (x - b) with constant PD curvature Q."""

    Q: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if Q.shape != (b.size, b.size):
            raise ValueError("Q must be square with side len(b)")
        if not np.allclose(Q, Q.T):
            raise ValueError("Q must be symmetric")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.b.size

    def value(self, x: np.ndarray):
        """f at x of shape (m,) as a float, or at each row of x of shape (..., m)."""
        d = (np.asarray(x, dtype=float) - self.b)[..., None, :]
        return _lone(0.5 * (d @ self.Q @ d.swapaxes(-1, -2))[..., 0, 0])

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Q (x - b) at x of shape (m,), or at each row of x of shape (..., m)."""
        return (self.Q @ (np.asarray(x, dtype=float) - self.b)[..., None])[..., 0]

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Q, whatever x; it broadcasts against a stack of Hessians."""
        return self.Q


class SvmHingeCost:
    """Soft-margin classifier cost on one agent's data shard.

    Decision variable x = [w; nu] in R^m splits into the hyperplane normal w
    (on already feature-mapped points) and the bias nu. The cost is

        w.w  +  C * sum_j L(1 - l_j (w.chi_j - nu), mu)  +  eps_nu * nu^2

    with L the smoothed hinge. The tiny default bias regularizer keeps the
    Hessian positive-definite even on degenerate shards (single label, rank
    deficient features), where the plain cost has no curvature in nu.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray,
                 C: float = 1.0, mu: float = 2.0, eps_nu: float = 1e-6):
        features = np.atleast_2d(np.asarray(features, dtype=float))
        labels = np.asarray(labels, dtype=float).ravel()
        if features.shape[0] != labels.size:
            raise ValueError("one label per data point required")
        if labels.size and not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if C <= 0 or mu <= 0 or eps_nu < 0:
            raise ValueError("need C > 0, mu > 0, eps_nu >= 0")
        self.features = features
        self.labels = labels
        self.C = C
        self.mu = mu
        self.eps_nu = eps_nu
        self.m = features.shape[1] + 1
        # dz_j/dx = [-l_j chi_j; l_j], the margin Jacobian (z = 1 + U x, so
        # every margin is one product with it); for the Hessian, (mu / 2) U,
        # whose product is t / 2 - mu / 2, and the rows (C mu / 4) u_j (x) u_j,
        # so that sum_j C L''_j u_j u_j^T is one product with 1 / cosh(t_j / 2)^2;
        # and the Hessian of the regularizers w.w + eps_nu nu^2
        self.U = np.concatenate([-labels[:, None] * features, labels[:, None]], axis=1)
        self._halfmuU = (0.5 * mu) * self.U
        self._P = (0.25 * C * mu) * (self.U[:, :, None] * self.U[:, None, :]).reshape(
            labels.size, self.m * self.m)
        self._reg = np.diag(np.append(np.full(self.m - 1, 2.0), 2.0 * eps_nu))
        for arr in (features, labels, self.U, self._halfmuU, self._P, self._reg):
            arr.flags.writeable = False

    def _margins(self, x: np.ndarray) -> np.ndarray:
        # z = 1 + U x: one matrix-vector product per row of a stacked x, each
        # rounding as the product of a lone point does; one matrix product
        # with all rows could round differently
        z = np.matmul(self.U, x[..., None])[..., 0]
        z += 1.0
        return z

    def value(self, x: np.ndarray):
        """Cost at x of shape (m,) as a float, or at each row of x of shape (..., m)."""
        x = self._check(x)
        w, nu = x[..., None, :-1], x[..., -1]
        L, _, _ = smoothed_hinge(self._margins(x), self.mu)
        ww = (w @ w.swapaxes(-1, -2))[..., 0, 0]
        return _lone(ww + self.C * np.sum(L, axis=-1) + self.eps_nu * nu * nu)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Gradient at x of shape (m,), or at each row of x of shape (..., m)."""
        x = self._check(x)
        w, nu = x[..., :-1], x[..., -1:]
        _, s, _ = smoothed_hinge(self._margins(x), self.mu)
        gw = 2.0 * w + self.C * ((-self.labels * s)[..., None, :] @ self.features)[..., 0, :]
        gnu = self.C * (self.labels @ s[..., None]) + 2.0 * self.eps_nu * nu
        return np.concatenate([gw, gnu], axis=-1)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Hessian at x of shape (m,), or one per row of x of shape (..., m).

        Every row gets the same arithmetic as a lone point, so a row's
        Hessian is bit-identical to the one computed for it alone. Past
        |mu z| of about 1420 cosh overflows, harmlessly, with a RuntimeWarning
        that ``aggregate_hessian`` guards once for all agents.
        """
        x = self._check(x)
        # t / 2 = (mu / 2)(1 + U x): one matrix-vector product per row, as in
        # _margins, then one vector-matrix product per row with the P rows
        h = np.matmul(self._halfmuU, x[..., None])[..., 0]
        h += 0.5 * self.mu
        H = np.matmul(_sech2(h)[..., None, :], self._P).reshape(x.shape[:-1] + (self.m, self.m))
        H += self._reg
        return H

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not x.ndim or x.shape[-1] != self.m:
            raise ValueError(f"decision variable must have shape (..., {self.m}), got {x.shape}")
        return x


def _lone(v):
    """A float for the value at a lone point, the array of values for stacked rows."""
    return v if np.ndim(v) else float(v)


def aggregate_hessian(costs, x_stack: np.ndarray) -> np.ndarray:
    """Per-agent Hessians at stacked states of shape (..., n, m), shape (..., n, m, m).

    Each agent's handle is called once, on its rows of every stacked state,
    and its Hessians are joined into one C-ordered array, whatever layout the
    handle returns. A constant-curvature handle returns one (m, m) block
    whatever the rows, so for it the result is (n, m, m) and broadcasts over
    the leading axes. The smoothed-hinge curvature's cosh overflow, which
    gives exactly 0, is guarded here once for all agents.
    """
    X = np.asarray(x_stack, dtype=float)
    if X.ndim < 2:
        X = np.atleast_2d(X)
    n = len(costs)
    if X.shape[-2] != n:
        raise ValueError("one state row per agent required")
    with np.errstate(over="ignore"):
        H = np.concatenate([c.hessian(X[..., i, :]) for i, c in enumerate(costs)], axis=-2)
    # (..., n m, m) joined along the rows is (..., n, m, m); concatenate keeps
    # the stride order of its inputs, so a broadcast view (zero strides) would
    # give another layout, and another rounding in the matrix products
    return np.ascontiguousarray(H.reshape(H.shape[:-2] + (n, -1, H.shape[-1])))


def infinity_norm(H: np.ndarray) -> float:
    """Max absolute row sum over the (n, m, m) blocks: the curvature constant gamma."""
    return float(np.abs(H).sum(axis=2).max())


def global_cost(costs, x_stack: np.ndarray):
    """F(x) = sum_i f_i(x_i) at a state of shape (n, m), or at each state of shape (..., n, m)."""
    X = np.atleast_2d(np.asarray(x_stack, dtype=float))
    total = np.zeros(X.shape[:-2])
    for i, c in enumerate(costs):
        total += c.value(X[..., i, :])
    return _lone(total)


def sum_gradient(costs, x_stack: np.ndarray) -> np.ndarray:
    """sum_i grad f_i(x_i), the optimality residual tracked by the dynamics, per state of (..., n, m)."""
    X = np.atleast_2d(np.asarray(x_stack, dtype=float))
    out = np.zeros(X.shape[:-2] + X.shape[-1:])
    for i, c in enumerate(costs):
        out += c.gradient(X[..., i, :])
    return out
