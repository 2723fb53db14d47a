"""Linearized system matrix, eigenstructure checks, and step-size bounds.

The stacked dynamics linearize, at every operating instant, to

    d/dt [x; y] = A(alpha) [x; y],    A(alpha) = A(0) + alpha * D

where A(0) carries the gain-scaled network Laplacian and the Hessian-chain
coupling, and D the step-size blocks. Stability of the whole scheme reduces
to: the assembled matrix keeps exactly m zero eigenvalues (the consensus
directions) and every other eigenvalue strictly in the left half-plane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralReport",
    "StepSizeBounds",
    "assemble",
    "spectral_report",
    "laplacian_rates",
    "eigen_derivative_check",
    "matching_distance",
    "matching_excess",
    "step_size_bounds",
]


def assemble(
    lap: np.ndarray,
    H: np.ndarray,
    gains: np.ndarray | None,
    alpha: float,
) -> np.ndarray:
    """The 2nm-by-2nm system matrix [[LG, -alpha I], [B LG, LG - alpha B]].

    ``lap`` is the n-by-n Laplacian driving both the state and the tracker
    line; LG is its Kronecker lift to m components with the link gains on
    its columns. ``H`` holds the agents' m-by-m Hessians as one (n, m, m)
    array, B their block diagonal. ``gains`` is the length-nm diagonal of
    instantaneous link gains (None means unit gains). Every entry has the
    bits of the block sum A(0) + alpha * D, whose zero blocks turn -0 into
    +0; with unit gains it is the linear-link system matrix.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    if lap.shape != (n, n):
        raise ValueError("the Laplacian must be square")
    H = np.asarray(H, dtype=float)
    if H.ndim != 3 or H.shape[0] != n or H.shape[1] != H.shape[2]:
        raise ValueError(f"Hessian blocks must have shape (n, m, m), n={n}; got {H.shape}")
    m = H.shape[1]
    xi = np.ones(n * m) if gains is None else np.asarray(gains, dtype=float)
    if xi.shape != (n * m,):
        raise ValueError(f"gain vector must have length n*m={n*m}")

    LG = np.kron(lap, np.eye(m)) * xi[None, :]
    nm = n * m
    B = np.zeros((n, m, n, m))
    B[np.arange(n), :, np.arange(n), :] = H
    B = B.reshape(nm, nm)
    A = np.empty((2 * nm, 2 * nm))
    A[:nm, :nm] = LG + 0.0
    A[:nm, nm:] = -alpha * np.eye(nm) + 0.0
    A[nm:, :nm] = B @ LG + 0.0
    A[nm:, nm:] = LG - alpha * B
    return A


@dataclass(frozen=True)
class SpectralReport:
    """Eigenstructure verdict for one assembled system.

    ``stable`` means the zero eigenvalue count is exactly m and everything
    else decays.
    """

    zero_count: int
    max_nonzero_real: float
    m: int

    @property
    def stable(self) -> bool:
        return self.zero_count == self.m and self.max_nonzero_real < 0


def spectral_report(A: np.ndarray, m: int) -> SpectralReport:
    """Dense eigen-decomposition and stability verdict.

    The zero tolerance is 1e-8 * max|eigenvalue|, which separates the
    structural zeros from solver noise across fixture scales. The matrix is
    non-normal, so the general (balanced) dense solver is the right tool.
    """
    eigs = np.linalg.eigvals(A)
    scale = float(np.abs(eigs).max()) if eigs.size else 0.0
    near_zero = np.abs(eigs) <= 1e-8 * scale
    nonzero = eigs[~near_zero]
    max_re = float(nonzero.real.max()) if nonzero.size else float("-inf")
    return SpectralReport(int(near_zero.sum()), max_re, m)


def laplacian_rates(lap: np.ndarray) -> tuple[float, float]:
    """(slowest_decay, spectral_radius) of the unit-gain system matrix at alpha = 0.

    That matrix is block lower-triangular with the lifted Laplacian on both
    diagonal blocks, so its spectrum is the Laplacian spectrum (each
    eigenvalue repeated 2m times) and both values are read off the n-by-n
    Laplacian, with the same 1e-8 relative zero filter as ``spectral_report``.
    They feed the step-size bound formulas.
    """
    base = np.linalg.eigvals(lap)
    radius = float(np.abs(base).max())
    nonzero = base[np.abs(base) > 1e-8 * radius]
    slowest = float(np.abs(nonzero.real).min()) if nonzero.size else 0.0
    return slowest, radius


@dataclass(frozen=True)
class EigenDerivativeReport:
    """Zero-branch derivative check at alpha = 0.

    The reduced matrix is the 2m-by-2m projection of the step-size direction D
    onto the zero-eigenvector pair in the display convention (ones vectors, no
    normalization): block column one vanishes (to ``zero_block_norm``) and the
    nonzero block, of eigenvalues ``reduced_eigenvalues``, equals -sum_i hess_i
    for unit gains. The branch derivatives need the biorthonormalized pair;
    those are ``predicted`` and are compared against central finite
    differences of the actual spectrum (``max_rel_error``).
    """

    zero_block_norm: float
    reduced_eigenvalues: np.ndarray
    predicted: np.ndarray
    max_rel_error: float

    @property
    def ok(self) -> bool:
        return self.max_rel_error <= 1e-4 and self.zero_block_norm <= 1e-10


def eigen_derivative_check(
    lap: np.ndarray,
    H: np.ndarray,
    gains: np.ndarray,
) -> EigenDerivativeReport:
    """How the 2m-fold zero eigenvalue splits when the step size turns on.

    Exactly m eigenvalues stay pinned at zero for every alpha (the consensus
    kernel survives); the other m move with derivative equal to the spectrum
    of -(sum_i H_i D_i^{-1})(sum_i D_i^{-1})^{-1}, where D_i is agent i's
    diagonal gain block. For unit gains this is -(1/n) sum_i H_i. The check
    cross-validates that closed form against finite differences of the
    assembled spectrum, pairing the moving branches by averaging the two
    one-sided slopes.
    """
    n, m = H.shape[:2]
    xi = np.asarray(gains, dtype=float)

    # display-convention reduced matrix (unnormalized ones eigenvectors)
    ones = np.tile(np.eye(m), (n, 1))
    V = np.zeros((2 * n * m, 2 * m))
    V[:n * m, :m] = ones
    V[n * m:, m:] = ones
    A0 = assemble(lap, H, xi, 0.0)
    D = assemble(lap, H, xi, 1.0) - A0
    reduced = V.T @ D @ V
    zero_block_norm = float(np.abs(reduced[:, :m]).max())
    reduced_eigs = np.sort_complex(np.linalg.eigvals(reduced[m:, m:]))

    # biorthonormal closed form for the moving branches
    d_inv = 1.0 / xi.reshape(n, m)
    T = (H * d_inv[:, None, :]).sum(axis=0)
    S = np.diag(d_inv.sum(axis=0))
    predicted = np.sort_complex(np.linalg.eigvals(-T @ np.linalg.inv(S)))

    def one_sided(a):
        # direct block sum: the probe evaluates at signed alpha around zero
        eigs = np.linalg.eigvals(A0 + a * D)
        eigs = eigs[np.argsort(np.abs(eigs))]
        return np.sort_complex(eigs[m:2 * m] / a)

    fd = 0.5 * (one_sided(1e-6) + one_sided(-1e-6))
    rel = float(np.max(np.abs(fd - predicted) / np.maximum(np.abs(predicted), 1e-300)))
    return EigenDerivativeReport(zero_block_norm, reduced_eigs, predicted, rel)


def matching_distance(spec_a, spec_b) -> float:
    """Optimal matching distance between two eigenvalue multisets.

    min over pairings of the max displacement |a_i - b_{pi(i)}|, computed
    exactly as a bottleneck assignment: binary-search the answer over the
    sorted pairwise distances, testing feasibility with a maximum bipartite
    matching on the thresholded graph.
    """
    a = np.asarray(spec_a, dtype=complex).ravel()
    b = np.asarray(spec_b, dtype=complex).ravel()
    if a.size != b.size:
        raise ValueError("eigenvalue multisets must have equal cardinality")
    if a.size == 0:
        return 0.0
    dist = np.abs(a[:, None] - b[None, :])
    levels = np.unique(dist)
    lo, hi = 0, levels.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(dist <= levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def _has_perfect_matching(allowed: np.ndarray) -> bool:
    """Kuhn's augmenting-path matching on a boolean bipartite adjacency."""
    size = allowed.shape[0]
    match_of_right = np.full(size, -1)

    def try_assign(u, seen):
        for v in np.flatnonzero(allowed[u]):
            if not seen[v]:
                seen[v] = True
                if match_of_right[v] < 0 or try_assign(match_of_right[v], seen):
                    match_of_right[v] = u
                    return True
        return False

    for u in range(size):
        if not try_assign(u, np.zeros(size, dtype=bool)):
            return False
    return True


@dataclass(frozen=True)
class StepSizeBounds:
    """The three admissible step-size estimates plus their inputs.

    ``tight`` is min(kappa * slow / gamma, slow / (upper * gamma)): the
    closed-form bound from the determinant factorization (derived under equal
    state/tracker adjacency, which the one shared Laplacian guarantees).
    ``matching`` inverts the infinity-norm perturbation bound,
    ``spectral`` the spectral-norm variant. All three are positive whenever
    the inputs are; the matching and spectral forms are typically far more
    conservative than the tight one.
    """

    matching: float
    spectral: float
    tight: float
    kappa: float
    upper: float
    gamma: float
    slowest_decay: float
    spectral_radius: float
    n: int
    m: int

    def admissible(self, alpha: float) -> dict[str, bool]:
        return {
            "matching": alpha < self.matching,
            "spectral": alpha < self.spectral,
            "tight": alpha < self.tight,
        }


def step_size_bounds(
    kappa: float,
    upper: float,
    gamma: float,
    slowest_decay: float,
    spectral_radius: float,
    n: int,
    m: int,
) -> StepSizeBounds:
    """Evaluate all three step-size bound formulas.

    Inputs: sector bounds (kappa, upper), Hessian infinity norm gamma, and
    the slowest decay / spectral radius of the unit-gain alpha = 0 spectrum.
    """
    if min(kappa, upper, gamma, slowest_decay, spectral_radius) <= 0:
        raise ValueError("all bound inputs must be positive")
    if kappa > upper:
        raise ValueError("kappa must not exceed the upper sector bound")
    nm = n * m
    target = kappa * slowest_decay

    tight = min(kappa * slowest_decay / gamma, slowest_decay / (upper * gamma))

    # matching_excess rises strictly from 0 at alpha = 0: double hi past the
    # root of matching_excess = target, then bisect down to adjacent floats
    lo, hi = 0.0, 1.0
    while matching_excess(hi, upper, gamma, nm) < target:
        lo, hi = hi, 2.0 * hi
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if matching_excess(mid, upper, gamma, nm) < target:
            lo = mid
        else:
            hi = mid
    matching = mid

    try:
        spectral = (target ** nm) / (
            4 ** nm
            * upper ** (nm - 1)
            * (2 * spectral_radius + target) ** (nm - 1)
            * max(1.0, gamma)
        )
    except ArithmeticError:  # a power above does not convert to a float
        spectral = 0.0
    if not 0.0 < spectral < np.inf:
        # the same value as (t / 4) r^(nm - 1) / max(1, gamma), whose ratio
        # r = t / (4 upper (2 radius + t)) <= 1/8 underflows where the powers
        # above overflow (raising from nm = 512 on, as 4^nm does, or giving
        # a spurious 0 where the denominator's product overflows to inf)
        r = target / (4 * upper * (2 * spectral_radius + target))
        spectral = 0.25 * target * r ** (nm - 1) / max(1.0, gamma)

    return StepSizeBounds(matching, spectral, tight, kappa, upper, gamma,
                          slowest_decay, spectral_radius, n, m)


def matching_excess(alpha: float, upper: float, gamma: float, nm: int) -> float:
    """Infinity-norm perturbation estimate of the matching distance.

    The Elsner-type bound 4 * base^(1 - 1/nm) * pert^(1/nm) on the distance
    between the eigenvalues of the alpha = 0 system and the alpha system,
    with nm = n * m (agents times components). It is 0 at alpha = 0 and
    strictly increasing; ``StepSizeBounds.matching`` is the alpha where it
    reaches kappa * slowest_decay.
    """
    if gamma < 1:
        base = 2 * upper * (1 + gamma) + max(
            2 * upper + gamma * (2 * upper + alpha), 2 * upper + alpha)
        pert = alpha
    else:
        base = 4 * upper + gamma * (4 * upper + alpha)
        pert = alpha * gamma
    return 4.0 * base ** (1.0 - 1.0 / nm) * pert ** (1.0 / nm)
