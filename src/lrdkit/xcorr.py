"""Scale-wise cross-correlation coefficients.

Two detrending schemes share one interface. The DCCA coefficient divides
the detrended covariance of two profiles, computed with the same two-sided
box split as the fluctuation analysis, by the product of the two detrended
fluctuations (Zebende 2011). The DMCA variant replaces the per-box line fit
with residuals against a centered moving average of odd window length,
evaluated only where the window fits entirely inside the series.

The covariance numerator may be negative, so the coefficient lives in
[-1, 1] and is never obtained from a square root.

Both coefficients are scale-free, so every estimate is taken of each series
scaled by an exact power of two (``series._unit_scaled``): ``x * 2**j``
gives the same coefficients as ``x``, and magnitudes such as 1e152 or
1e-165 neither overflow nor underflow. Covariances are scaled back to data
units with ``np.ldexp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dfa import _check_grid, _check_scale, _detrended_moments, _profile_values
from .errors import DegenerateScaleError, InvalidInputError
from .series import _integral, _unit_scaled, as_values

__all__ = [
    "DCCA_DEFAULT_SCALES",
    "DMCA_DEFAULT_WINDOWS",
    "METHODS",
    "ScaleCorrelogram",
    "dcca_covariance",
    "dcca_coefficient",
    "dmca_covariance",
    "dmca_coefficient",
    "scan_scales",
]

DCCA_DEFAULT_SCALES = np.arange(10, 251, 10)
DMCA_DEFAULT_WINDOWS = np.arange(11, 252, 10)
METHODS = ("dcca", "dmca")


@dataclass(frozen=True, eq=False)
class ScaleCorrelogram:
    """Coefficients over a scale grid, optionally with surrogate p-values.

    ``flagged`` marks grid points where a degenerate scale forced the
    p-value to one. ``surrogate_rho`` holds the surrogate ensemble behind
    the p-values, one row per surrogate pair, and stays ``None`` for plain
    scans.
    """

    method: str
    scales: np.ndarray
    rho: np.ndarray
    p_values: np.ndarray | None = None
    flagged: np.ndarray | None = None
    surrogate_rho: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise InvalidInputError(f"unknown method {self.method!r}")
        finite = self.rho[np.isfinite(self.rho)]
        if finite.size and float(np.abs(finite).max()) > 1.0 + 1e-9:
            raise InvalidInputError("coefficients must lie in [-1, 1]")


def _scaled_pair(x, y) -> tuple[np.ndarray, np.ndarray, int]:
    """The values of a valid pair, each series scaled by its exact power of
    two, and the exponent that takes their products back to data units.
    Degeneracy is left to the coefficients of the scaled values, so a
    series such as alternating values of +-1e300, whose variance passes the
    float range in data units, gives what its scaled copy gives."""
    xv = as_values(x, min_length=8)
    yv = as_values(y, min_length=8)
    if xv.size != yv.size:
        raise InvalidInputError(
            f"series lengths differ: {xv.size} vs {yv.size}"
        )
    (xv, ex), (yv, ey) = _unit_scaled(xv), _unit_scaled(yv)
    return xv, yv, int(ex[0] + ey[0])


def _check_window(window: int, n: int) -> None:
    if not _integral(window) or not 3 <= window <= n // 2:
        raise InvalidInputError(
            f"window must be an integer in [3, {n // 2}] for length {n}, got {window}"
        )
    if int(window) % 2 == 0:
        raise InvalidInputError(f"window must be odd, got {int(window)}")


def _coefficient(sxy, sxx, syy):
    """Correlation from detrended sums, NaN where a fluctuation vanishes."""
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = sxy / (np.sqrt(sxx) * np.sqrt(syy))
    # Rounding can carry an exactly (anti)correlated pair one ulp past ±1.
    return np.where((sxx > 0.0) & (syy > 0.0), np.clip(rho, -1.0, 1.0), np.nan)


def _at_scale(x, y, method: str, scale: int) -> tuple[float, float]:
    """Detrended covariance and coefficient, NaN if degenerate, at one scale."""
    xv, yv, exponent = _scaled_pair(x, y)
    (_check_scale if method == "dcca" else _check_window)(scale, xv.size)
    n, s = xv.size, int(scale)
    sxy, sxx, syy = _detrended_moments(
        _profile_values(xv)[None, :], _profile_values(yv)[None, :], np.array([s]), method
    )[:, 0, 0]
    count = 2 * (n // s) * s if method == "dcca" else n - s + 1
    with np.errstate(over="ignore"):
        covariance = np.ldexp(sxy / count, exponent)
    return float(covariance), float(_coefficient(sxy, sxx, syy))


def _nondegenerate(value: float, where: str) -> float:
    if math.isnan(value):
        raise DegenerateScaleError(f"zero fluctuation at {where}")
    return value


def dcca_covariance(x, y, scale: int) -> float:
    """Detrended covariance of two profiles at one box scale.

    The mean product of the two residual series pooled over all boxes.
    May be negative.
    """
    return _at_scale(x, y, "dcca", scale)[0]


def dmca_covariance(x, y, window: int) -> float:
    """Moving-average detrended covariance at one odd window length."""
    return _at_scale(x, y, "dmca", window)[0]


def dcca_coefficient(x, y, scale: int) -> float:
    """DCCA cross-correlation coefficient at one scale.

    Detrended covariance divided by the product of the two detrended
    fluctuations. Raises :class:`DegenerateScaleError` when either
    fluctuation vanishes.
    """
    return _nondegenerate(_at_scale(x, y, "dcca", scale)[1], f"scale {int(scale)}")


def dmca_coefficient(x, y, window: int) -> float:
    """DMCA cross-correlation coefficient at one odd window length."""
    return _nondegenerate(_at_scale(x, y, "dmca", window)[1], f"window {int(window)}")


def _validate_grid(scales, method: str, n: int) -> np.ndarray:
    if scales is None:
        default = DCCA_DEFAULT_SCALES if method == "dcca" else DMCA_DEFAULT_WINDOWS
        scales = default[default <= n // 2]
    return _check_grid(scales, n, _check_scale if method == "dcca" else _check_window)


def _coefficient_curves(xv: np.ndarray, yv: np.ndarray, grids: dict) -> list[np.ndarray]:
    """Coefficients over each method's validated grid for each row of ``xv``
    and ``yv``, NaN at degenerate points. The profiles are taken once for
    every method."""
    px, py = _profile_values(xv), _profile_values(yv)
    return [_coefficient(*_detrended_moments(px, py, grid, method)) for method, grid in grids.items()]


def scan_scales(x, y, method: str, scales=None) -> ScaleCorrelogram:
    """Coefficient curve over a grid of scales.

    Parameters
    ----------
    x, y : TimeSeries or array_like
        Equal-length series.
    method : {"dcca", "dmca"}
        Detrending scheme. DMCA grids must contain odd windows only.
    scales : array_like of int, optional
        Strictly increasing grid. Defaults to 10..250 step 10 for DCCA and
        11..251 step 10 for DMCA, without the scales above T // 2.

    Degenerate grid points propagate as :class:`DegenerateScaleError`.
    """
    if method not in METHODS:
        raise InvalidInputError(f"method must be one of {METHODS}, got {method!r}")
    xv, yv, _ = _scaled_pair(x, y)
    grid = _validate_grid(scales, method, xv.size)
    (rho,) = _coefficient_curves(xv[None, :], yv[None, :], {method: grid})[0]
    bad = np.isnan(rho)
    if bad.any():
        where = ", ".join(str(int(s)) for s in grid[bad])
        raise DegenerateScaleError(f"zero fluctuation at scales: {where}")
    return ScaleCorrelogram(method=method, scales=grid, rho=rho)
