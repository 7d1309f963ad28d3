"""Distribution fits for the Figure 3 reference curves.

The paper overlays three forms on the empirical degree distribution:

* power law            ``P(k) ~ k^(-a)``          (paper line: a = 1.5);
* truncated power law  ``P(k) ~ k^(-a) e^(-k/kc)`` (paper: a = 1.25,
  kc = 10³) — "does appear to better fit the tail";
* exponential          ``P(k) ~ e^(-k/kc)`` — "captures the tail roll off
  better but is still unable to capture the more complex characteristics".

Fits are least squares in log space over the empirical support (the same
visual criterion the paper uses), plus a discrete MLE for the pure power
law (Clauset-style) for robustness.  Each :class:`FitResult` carries its
log-space residual error so the paper's qualitative ranking — truncated PL
beats pure PL and exponential on the tail — is a testable assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import FitError
from .degree import DegreeDistribution

__all__ = [
    "FitResult",
    "fit_power_law",
    "fit_truncated_power_law",
    "fit_exponential",
    "power_law_mle",
    "compare_fits",
]


@dataclass
class FitResult:
    """A fitted functional form and its quality."""

    model: str
    params: dict[str, float]
    log_rss: float  # residual sum of squares in log10 space
    n_points: int
    predict: Callable[[np.ndarray], np.ndarray]

    @property
    def rms_log_error(self) -> float:
        """Root-mean-square error in log10 space (decades)."""
        return float(np.sqrt(self.log_rss / self.n_points)) if self.n_points else 0.0

    def tail_error(self, dist: DegreeDistribution, tail_fraction: float = 0.5) -> float:
        """RMS log error restricted to the top-degree tail."""
        k, p = _support(dist)
        cut = int(len(k) * (1 - tail_fraction))
        k_t, p_t = k[cut:], p[cut:]
        if len(k_t) == 0:
            return 0.0
        pred = np.maximum(self.predict(k_t), 1e-300)
        resid = np.log10(p_t) - np.log10(pred)
        return float(np.sqrt(np.mean(resid**2)))

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v:.4g}" for k, v in self.params.items())
        return f"FitResult({self.model}: {params}, rms={self.rms_log_error:.3f})"


def _support(dist: DegreeDistribution) -> tuple[np.ndarray, np.ndarray]:
    """(k, P(k)) over observed degrees with nonzero probability."""
    k = dist.degrees.astype(np.float64)
    p = dist.fractions
    good = (k >= 1) & (p > 0)
    k, p = k[good], p[good]
    if len(k) < 3:
        raise FitError(f"need at least 3 support points, have {len(k)}")
    return k, p


def _lstsq(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return coef


def fit_power_law(dist: DegreeDistribution) -> FitResult:
    """Least-squares ``log P = c - a log k``."""
    k, p = _support(dist)
    logk, logp = np.log10(k), np.log10(p)
    design = np.stack([np.ones_like(logk), -logk], axis=1)
    c, a = _lstsq(design, logp)
    pred = 10**c * k ** (-a)
    rss = float(np.sum((logp - np.log10(pred)) ** 2))

    def predict(kk: np.ndarray) -> np.ndarray:
        return 10**c * np.asarray(kk, dtype=float) ** (-a)

    return FitResult(
        model="power_law",
        params={"a": float(a), "c": float(c)},
        log_rss=rss,
        n_points=len(k),
        predict=predict,
    )


def fit_truncated_power_law(dist: DegreeDistribution) -> FitResult:
    """Least-squares ``log P = c - a log k - k/(kc ln 10)``.

    Linear in the unknowns with regressors ``(1, log k, k)``; the paper's
    form ``P(k) ~ k^-a e^(-k/kc)``.
    """
    k, p = _support(dist)
    logk, logp = np.log10(k), np.log10(p)
    design = np.stack([np.ones_like(logk), -logk, -k], axis=1)
    c, a, b = _lstsq(design, logp)
    # b = 1 / (kc * ln(10)) in log10 space
    if b <= 0:
        # tail bends upward: degenerate, fall back to pure power law shape
        kc = np.inf
    else:
        kc = 1.0 / (b * np.log(10.0))

    def predict(kk: np.ndarray) -> np.ndarray:
        kk = np.asarray(kk, dtype=float)
        out = 10**c * kk ** (-a)
        if np.isfinite(kc):
            out = out * np.exp(-kk / kc)
        return out

    pred = np.maximum(predict(k), 1e-300)
    rss = float(np.sum((logp - np.log10(pred)) ** 2))
    return FitResult(
        model="truncated_power_law",
        params={"a": float(a), "kc": float(kc), "c": float(c)},
        log_rss=rss,
        n_points=len(k),
        predict=predict,
    )


def fit_exponential(dist: DegreeDistribution) -> FitResult:
    """Least-squares ``log P = c - k/(kc ln 10)`` (paper's e^(-k/kc))."""
    k, p = _support(dist)
    logp = np.log10(p)
    design = np.stack([np.ones_like(k), -k], axis=1)
    c, b = _lstsq(design, logp)
    kc = 1.0 / (b * np.log(10.0)) if b > 0 else np.inf

    def predict(kk: np.ndarray) -> np.ndarray:
        kk = np.asarray(kk, dtype=float)
        if np.isfinite(kc):
            return 10**c * np.exp(-kk / kc)
        return np.full_like(kk, 10**c, dtype=float)

    pred = np.maximum(predict(k), 1e-300)
    rss = float(np.sum((logp - np.log10(pred)) ** 2))
    return FitResult(
        model="exponential",
        params={"kc": float(kc), "c": float(c)},
        log_rss=rss,
        n_points=len(k),
        predict=predict,
    )


def power_law_mle(degrees: np.ndarray, k_min: int = 1) -> float:
    """Discrete power-law MLE exponent (Clauset–Shalizi–Newman approx).

    ``a = 1 + n / Σ ln(k_i / (k_min - 0.5))`` over degrees ≥ k_min.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    tail = degrees[degrees >= k_min]
    if len(tail) < 2:
        raise FitError("too few observations for MLE")
    denom = np.sum(np.log(tail / (k_min - 0.5)))
    if denom <= 0:
        raise FitError("degenerate MLE denominator")
    return float(1.0 + len(tail) / denom)


def compare_fits(dist: DegreeDistribution) -> dict[str, FitResult]:
    """Fit all three Figure 3 forms; keys: ``power_law``,
    ``truncated_power_law``, ``exponential``."""
    return {
        "power_law": fit_power_law(dist),
        "truncated_power_law": fit_truncated_power_law(dist),
        "exponential": fit_exponential(dist),
    }
