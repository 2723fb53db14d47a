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
1 + rho/2), so containment checks against ``linearized`` bounds report upper-side
violations by design; the lower linearized value is a valid bound.
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
    "sector_bounds",
    "verify_link_properties",
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
    """Certified sector kappa <= g(z)/z <= upper on the stated domain."""

    kappa: float
    upper: float
    domain: tuple[float, float] = (-math.inf, math.inf)
    strongly_sign_preserving: bool = True

    def __post_init__(self):
        if not (0 <= self.kappa <= self.upper):
            raise ValueError(f"need 0 <= kappa <= upper, got ({self.kappa}, {self.upper})")
        object.__setattr__(self, "strongly_sign_preserving", self.kappa > 0)

    @property
    def ratio(self) -> float:
        """Sector-bound ratio upper/kappa (inf when not strongly sign-preserving)."""
        return self.upper / self.kappa if self.kappa > 0 else math.inf


def apply(g: LinkNonlinearity, z, rho=None):
    """Evaluate g componentwise. Total on finite inputs; g(0) = 0 for every kind.

    ``rho`` replaces a quantizer's level ``g.rho``: an array that broadcasts
    against z, such as the full-shape (2, B, n, m) array a batch of B
    stacked states carries, gives each its own level with the same
    elementwise arithmetic.
    """
    x = np.asarray(z, dtype=float)  # a float array passes through as it is
    scalar = x.ndim == 0
    if scalar:
        x = x.reshape(1)
    rho = g.rho if rho is None else rho
    if g.kind == "identity":
        out = x.copy()
    elif g.kind == "log_quantizer":
        # sgn(z) exp(rho round(log|z| / rho)), ties to even, with the sign of z
        # copied on, so g(-0) = -0 and g is odd bit for bit
        out = _log_levels(x, rho)
        np.copysign(out, x, out=out)
    elif g.kind == "uniform_quantizer":
        out = rho * np.rint(x / rho)
    else:  # saturation
        out = np.clip(x, -g.limit, g.limit)
    return float(out[0]) if scalar else out


@np.errstate(divide="ignore")  # as a decorator it costs half what a with block does
def _log_levels(x: np.ndarray, rho) -> np.ndarray:
    """exp(rho round(log|x| / rho)); at 0, log gives -inf and exp 0."""
    return np.exp(rho * np.rint(np.log(np.abs(x)) / rho))


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
        return SectorBounds(1.0, 1.0, domain)
    if g.kind == "log_quantizer":
        if mode == "linearized":
            if g.rho >= 2:
                raise ValueError(
                    f"linearized lower bound 1 - rho/2 <= 0 for rho={g.rho}; "
                    "use mode='tight' for rho >= 2"
                )
            return SectorBounds(1 - g.rho / 2, 1 + g.rho / 2, domain)
        return SectorBounds(math.exp(-g.rho / 2), math.exp(g.rho / 2), domain)
    if g.kind == "uniform_quantizer":
        # ratio sup is 2 (approached just past the dead-zone edge rho/2)
        return SectorBounds(0.0, 2.0, domain)
    extent = max(abs(lo), abs(hi))  # saturation
    if not math.isfinite(extent):
        raise ValueError("saturation sector bounds need a bounded domain")
    if extent <= g.limit:
        return SectorBounds(1.0, 1.0, domain)
    return SectorBounds(g.limit / extent, 1.0, domain)


@dataclass
class LinkPropertyReport:
    """Randomized verification outcome for oddness/monotonicity/sector containment."""

    odd_ok: bool
    monotone_ok: bool
    sector_ok: bool
    worst_odd: tuple[float, float] = (0.0, 0.0)
    worst_monotone: tuple[float, float] = (0.0, 0.0)
    worst_sector: tuple[float, float] = (0.0, 0.0)

    @property
    def all_ok(self) -> bool:
        return self.odd_ok and self.monotone_ok and self.sector_ok

    def lines(self) -> list[str]:
        out = [
            f"odd: {'pass' if self.odd_ok else 'FAIL'}",
            f"monotone: {'pass' if self.monotone_ok else 'FAIL'}",
            f"sector: {'pass' if self.sector_ok else 'FAIL'}",
        ]
        if not self.odd_ok:
            out.append(f"worst odd violation at z={self.worst_odd[0]!r} (gap {self.worst_odd[1]:.3g})")
        if not self.monotone_ok:
            out.append(
                f"worst monotone violation at z={self.worst_monotone[0]!r} (drop {self.worst_monotone[1]:.3g})"
            )
        if not self.sector_ok:
            out.append(
                f"worst sector violation at z={self.worst_sector[0]!r} (ratio {self.worst_sector[1]:.6g})"
            )
        return out


def verify_link_properties(
    g: LinkNonlinearity,
    bounds: SectorBounds,
    samples: int = 2000,
    seed: int = 0,
) -> LinkPropertyReport:
    """Randomized check of oddness, monotonicity, and sector containment.

    Sampling is log-uniform in magnitude over the bounded part of the domain
    (falling back to 12 decades around 1 when unbounded), signed both ways.
    Each property holds to an absolute 1e-12. Failures are reported with the
    worst offending input, never raised; step discontinuities with upward
    jumps count as monotone.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    lo, hi = bounds.domain
    hi_mag = min(hi if math.isfinite(hi) else 1e6, 1e6)
    lo_mag = max(hi_mag * 1e-12, 1e-12)
    mags = np.exp(rng.uniform(np.log(lo_mag), np.log(hi_mag), size=samples))
    z = mags * rng.choice([-1.0, 1.0], size=samples)
    z = z[(z >= lo) & (z <= hi)]
    gz = apply(g, z)

    odd_gap = np.abs(apply(g, -z) + gz)
    odd_ok = bool(np.all(odd_gap <= 1e-12))
    io = int(np.argmax(odd_gap))

    zs = np.sort(z)
    gzs = apply(g, zs)
    drops = np.diff(gzs)
    mono_ok = bool(np.all(drops >= -1e-12))
    im = int(np.argmin(drops)) if drops.size else 0

    ratio = gz / z
    lo_viol = bounds.kappa - ratio
    hi_viol = ratio - bounds.upper
    viol = np.maximum(lo_viol, hi_viol)
    sector_ok = bool(np.all(viol <= 1e-12))
    iv = int(np.argmax(viol))

    return LinkPropertyReport(
        odd_ok,
        mono_ok,
        sector_ok,
        worst_odd=(float(z[io]), float(odd_gap[io])),
        worst_monotone=(float(zs[im]), float(drops[im])) if drops.size else (0.0, 0.0),
        worst_sector=(float(z[iv]), float(ratio[iv])),
    )
