"""Statistical helpers: aggregation, confidence intervals, and scaling-law fits.

The scaling fits are the quantitative heart of the reproduction: every
upper/lower-bound theorem predicts a growth law of the form
``T(n) ≈ c · n^a · (log n)^b``, and :func:`fit_power_log_law` recovers the
exponents from measured convergence times by linear regression in
log space.  Helper ratio checks (:func:`bounded_ratio`) test whether the
measured times stay within a constant factor of a candidate bound — the
"shape" criterion the E1 and E2 benchmarks assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ci95_halfwidth",
    "geometric_mean",
    "fit_power_law",
    "fit_power_log_law",
    "PowerLawFit",
    "PowerLogLawFit",
    "bounded_ratio",
    "ratio_series",
    "empirical_exponent",
]


def ci95_halfwidth(values: Sequence[float]) -> float:
    """Half-width of a normal-approximation 95% confidence interval for the mean."""
    arr = np.asarray(values, dtype=float)
    if arr.size <= 1:
        return 0.0
    return float(1.96 * arr.std(ddof=1) / math.sqrt(arr.size))


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("geometric mean of an empty sequence is undefined")
    if (arr <= 0).any():
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


@dataclass(frozen=True)
class PowerLawFit:
    """Result of fitting ``y = c * x^a`` by least squares in log-log space."""

    coefficient: float
    exponent: float
    r_squared: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the fitted law at ``x``."""
        return self.coefficient * np.asarray(x, dtype=float) ** self.exponent


@dataclass(frozen=True)
class PowerLogLawFit:
    """Result of fitting ``y = c * x^a * (ln x)^b`` with a fixed polynomial exponent ``a``.

    The polynomial exponent is fixed by the theorem being tested (1 for the
    undirected bounds, 2 for the directed ones) and the log exponent ``b``
    plus constant ``c`` are fitted — this is far better conditioned than
    fitting both exponents from the narrow size ranges a laptop can reach.
    """

    coefficient: float
    poly_exponent: float
    log_exponent: float
    r_squared: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the fitted law at ``x``."""
        arr = np.asarray(x, dtype=float)
        return self.coefficient * arr ** self.poly_exponent * np.log(arr) ** self.log_exponent


def _r_squared(y: np.ndarray, y_hat: np.ndarray) -> float:
    ss_res = float(np.sum((y - y_hat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def fit_power_law(x: Sequence[float], y: Sequence[float]) -> PowerLawFit:
    """Fit ``y = c * x^a`` by ordinary least squares on ``log y`` vs ``log x``."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size != ya.size or xa.size < 2:
        raise ValueError("need at least two (x, y) points of equal length")
    if (xa <= 0).any() or (ya <= 0).any():
        raise ValueError("power-law fitting requires strictly positive data")
    log_x = np.log(xa)
    log_y = np.log(ya)
    slope, intercept = np.polyfit(log_x, log_y, 1)
    fit = PowerLawFit(coefficient=float(np.exp(intercept)), exponent=float(slope), r_squared=0.0)
    r2 = _r_squared(log_y, np.log(fit.predict(xa)))
    return PowerLawFit(coefficient=fit.coefficient, exponent=fit.exponent, r_squared=r2)


def fit_power_log_law(
    x: Sequence[float], y: Sequence[float], poly_exponent: float = 1.0
) -> PowerLogLawFit:
    """Fit ``y = c * x^poly_exponent * (ln x)^b`` for the log exponent ``b`` and constant ``c``.

    Linear regression of ``log(y / x^poly_exponent)`` against ``log(ln x)``.
    All ``x`` must exceed 1 so that ``ln x > 0``.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.size != ya.size or xa.size < 2:
        raise ValueError("need at least two (x, y) points of equal length")
    if (xa <= 1).any() or (ya <= 0).any():
        raise ValueError("power-log fitting requires x > 1 and y > 0")
    reduced = np.log(ya) - poly_exponent * np.log(xa)
    log_log_x = np.log(np.log(xa))
    slope, intercept = np.polyfit(log_log_x, reduced, 1)
    fit = PowerLogLawFit(
        coefficient=float(np.exp(intercept)),
        poly_exponent=float(poly_exponent),
        log_exponent=float(slope),
        r_squared=0.0,
    )
    r2 = _r_squared(np.log(ya), np.log(fit.predict(xa)))
    return PowerLogLawFit(
        coefficient=fit.coefficient,
        poly_exponent=fit.poly_exponent,
        log_exponent=fit.log_exponent,
        r_squared=r2,
    )


def empirical_exponent(x: Sequence[float], y: Sequence[float]) -> float:
    """Shorthand for the fitted pure power-law exponent of ``y`` against ``x``."""
    return fit_power_law(x, y).exponent


def ratio_series(
    x: Sequence[float], y: Sequence[float], bound: Callable[[float], float]
) -> np.ndarray:
    """Return ``y_i / bound(x_i)`` for every data point (the constant-factor check)."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    denom = np.array([bound(v) for v in xa], dtype=float)
    if (denom <= 0).any():
        raise ValueError("bound function must be strictly positive on the data")
    return ya / denom


def bounded_ratio(
    x: Sequence[float],
    y: Sequence[float],
    bound: Callable[[float], float],
    spread_tolerance: float = 10.0,
) -> Tuple[bool, Dict[str, float]]:
    """Check whether ``y`` stays within a constant factor of ``bound(x)``.

    Returns ``(ok, info)`` where ``ok`` is True when the max/min spread of
    the ratios ``y / bound(x)`` is at most ``spread_tolerance`` — i.e. the
    measured series and the theoretical bound have the same shape up to a
    constant factor over the measured range.
    """
    ratios = ratio_series(x, y, bound)
    info = {
        "ratio_min": float(ratios.min()),
        "ratio_max": float(ratios.max()),
        "ratio_mean": float(ratios.mean()),
        "spread": float(ratios.max() / ratios.min()) if ratios.min() > 0 else float("inf"),
    }
    return info["spread"] <= spread_tolerance, info
