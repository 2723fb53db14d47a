"""Link nonlinearity models and their sector bounds.

All shipped maps are odd, monotone non-decreasing, and never flip sign.
Sector bounds (kappa, K) certify kappa*|z| <= |g(z)| <= K*|z| on a stated
domain; ``strongly sign-preserving`` means kappa > 0, which is what separates
the logarithmic quantizer (exact consensus) from the uniform quantizer
(dead zone around zero, steady-state residual).

For the log quantizer two bound conventions are exposed. The ``linearized`` mode
returns the linearized pair (1 - rho/2, 1 + rho/2); the ``tight`` mode
returns (exp(-rho/2), exp(+rho/2)), which is the exact envelope of g(z)/z.
The linearized upper value undershoots the true envelope (exp(rho/2) >
1 + rho/2), so g(z)/z exceeds it on part of every decade; the lower
linearized value is a valid bound. ``gtflow verify`` checks every kind for
oddness, monotonicity and containment in its sector: the log quantizer
against its ``tight`` envelope, the uniform quantizer against (0, 2), and
that the log quantizer's linearized upper value is exceeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinkNonlinearity",
    "SectorBounds",
    "identity",
    "log_quantizer",
    "uniform_quantizer",
    "saturation",
    "apply",
    "stage_apply",
    "sector_bounds",
]

_KINDS = ("identity", "log_quantizer", "uniform_quantizer", "saturation")


@dataclass(frozen=True)
class LinkNonlinearity:
    """Descriptor of a scalar odd monotone map, applied componentwise."""

    kind: str
    rho: float | None = None
    limit: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.kind in ("log_quantizer", "uniform_quantizer"):
            if self.rho is None or self.rho <= 0:
                raise ValueError(f"{self.kind} needs a positive level rho")
        if self.kind == "saturation":
            if self.limit is None or self.limit <= 0:
                raise ValueError("saturation needs a positive limit")


def identity() -> LinkNonlinearity:
    return LinkNonlinearity("identity")


def log_quantizer(rho: float) -> LinkNonlinearity:
    return LinkNonlinearity("log_quantizer", rho=rho)


def uniform_quantizer(rho: float) -> LinkNonlinearity:
    return LinkNonlinearity("uniform_quantizer", rho=rho)


def saturation(limit: float) -> LinkNonlinearity:
    return LinkNonlinearity("saturation", limit=limit)


@dataclass(frozen=True)
class SectorBounds:
    """Certified sector kappa <= g(z)/z <= upper on the domain given to ``sector_bounds``."""

    kappa: float
    upper: float

    def __post_init__(self):
        if not (0 <= self.kappa <= self.upper):
            raise ValueError(f"need 0 <= kappa <= upper, got ({self.kappa}, {self.upper})")

    @property
    def strongly_sign_preserving(self) -> bool:
        return self.kappa > 0

    @property
    def ratio(self) -> float:
        """Sector-bound ratio upper/kappa (inf when not strongly sign-preserving)."""
        return self.upper / self.kappa if self.kappa > 0 else math.inf


@np.errstate(divide="ignore")  # as a decorator it costs half what a with block does
def apply(g: LinkNonlinearity, z, rho=None):
    """Evaluate g componentwise. Total on finite inputs; g(0) = 0 for every kind.

    ``rho`` replaces a quantizer's level ``g.rho``: an array that broadcasts
    against z, such as the full-shape (2, B, n, m) array a batch of B
    stacked states carries, gives each its own level with the same
    elementwise arithmetic. At an exact 0 the log quantizer takes log(0) =
    -inf, whose divide-by-zero RuntimeWarning this guards; ``stage_apply``
    is the same map without the guard, for ``engine.integrate``'s step loop,
    which holds one for the whole run.
    """
    return stage_apply(g, z, rho)


def stage_apply(g: LinkNonlinearity, z, rho=None):
    """``apply``, unguarded: a log quantizer at an exact 0 warns of log(0) unless the caller guards it."""
    x = np.asarray(z, dtype=float)  # a float array passes through as it is
    scalar = x.ndim == 0
    if scalar:
        x = x.reshape(1)
    rho = g.rho if rho is None else rho
    if g.kind == "identity":
        out = x.copy()
    elif g.kind == "log_quantizer":
        # sgn(z) exp(rho round(log|z| / rho)), ties to even, with the sign of z
        # copied on, so g(-0) = -0 and g is odd bit for bit; at 0, log gives
        # -inf and exp 0
        out = np.exp(rho * np.rint(np.log(np.abs(x)) / rho))
        np.copysign(out, x, out=out)
    elif g.kind == "uniform_quantizer":
        out = rho * np.rint(x / rho)
    else:  # saturation
        out = np.clip(x, -g.limit, g.limit)
    return float(out[0]) if scalar else out


def sector_bounds(
    g: LinkNonlinearity,
    domain: tuple[float, float] = (-math.inf, math.inf),
    mode: str = "linearized",
) -> SectorBounds:
    """Closed-form sector bounds per kind.

    ``mode`` selects the log-quantizer convention ('linearized' or 'tight'
    exponential); other kinds ignore it. Saturation bounds are
    domain-relative: clipping is not sector-bounded below on an unbounded
    domain.
    """
    lo, hi = domain
    if lo >= hi:
        raise ValueError("empty domain")
    if mode not in ("linearized", "tight"):
        raise ValueError(f"unknown sector mode {mode!r}")
    if g.kind == "identity":
        return SectorBounds(1.0, 1.0)
    if g.kind == "log_quantizer":
        if mode == "linearized":
            if g.rho >= 2:
                raise ValueError(
                    f"linearized lower bound 1 - rho/2 <= 0 for rho={g.rho}; "
                    "use mode='tight' for rho >= 2"
                )
            return SectorBounds(1 - g.rho / 2, 1 + g.rho / 2)
        return SectorBounds(math.exp(-g.rho / 2), math.exp(g.rho / 2))
    if g.kind == "uniform_quantizer":
        # ratio sup is 2 (approached just past the dead-zone edge rho/2)
        return SectorBounds(0.0, 2.0)
    extent = max(abs(lo), abs(hi))  # saturation
    if not math.isfinite(extent):
        raise ValueError("saturation sector bounds need a bounded domain")
    if extent <= g.limit:
        return SectorBounds(1.0, 1.0)
    return SectorBounds(g.limit / extent, 1.0)
