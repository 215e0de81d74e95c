"""Core series container, profile construction, and long-run variance.

The profile of a series is the cumulative sum of its mean-centered values.
Autocovariances use the biased divisor (the full sample size at every lag),
which keeps the Bartlett-weighted long-run variance nonnegative for q = 0 and
matches the convention used throughout the statistics in this package.

The automatic bandwidth follows Lo (1991): the data-driven rule

    q* = floor( (3 T / 2)^(1/3) * (2 |rho1| / (1 - rho1^2))^(2/3) )

with rho1 the lag-1 sample autocorrelation, capped at T - 1.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateVarianceError, InvalidInputError, ToolkitError

__all__ = [
    "TimeSeries",
    "Profile",
    "HacVariance",
    "as_values",
    "build_profile",
    "autocovariance",
    "hac_variance",
    "auto_bandwidth",
    "auto_bandwidth_value",
]


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A labeled one-dimensional series with optional daily dates.

    Parameters
    ----------
    values : array_like
        Finite observations, converted to float64.
    label : str
        Free-form identifier used in reports and file output.
    dates : sequence of datetime.date, optional
        Observation dates, strictly increasing and one per value.
    meta : dict, optional
        Auxiliary information attached by transforms (clamp flags and the
        like). Never interpreted by the numerical routines.
    """

    values: np.ndarray
    label: str = ""
    dates: tuple[dt.date, ...] | None = None
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise InvalidInputError("series values must be one-dimensional")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError(
                f"series {self.label!r} contains non-finite values"
            )
        object.__setattr__(self, "values", values)
        if self.dates is not None:
            dates = tuple(self.dates)
            if len(dates) != values.size:
                raise InvalidInputError(
                    f"series {self.label!r} has {values.size} values but "
                    f"{len(dates)} dates"
                )
            if any(b <= a for a, b in zip(dates, dates[1:])):
                raise InvalidInputError(
                    f"series {self.label!r} dates must be strictly increasing"
                )
            object.__setattr__(self, "dates", dates)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class Profile:
    """Cumulative sum of mean-centered observations.

    The final entry is zero up to rounding because the centered values sum
    to zero by construction.
    """

    values: np.ndarray
    source_mean: float


@dataclass(frozen=True)
class HacVariance:
    """Bartlett-kernel heteroskedasticity and autocorrelation consistent
    variance.

    ``bandwidth == 0`` reduces the estimate to the plain autocovariance at
    lag zero, exactly.
    """

    long_run_variance: float
    bandwidth: int
    variance: float


def as_values(series, min_length: int = 1) -> np.ndarray:
    """Return the float array behind ``series``, validating finiteness.

    Accepts a :class:`TimeSeries` or any array-like. Raises
    :class:`InvalidInputError` when fewer than ``min_length`` observations
    are present.
    """
    if isinstance(series, TimeSeries):
        values = series.values
    else:
        values = np.asarray(series, dtype=float)
        if values.ndim != 1:
            raise InvalidInputError("series values must be one-dimensional")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("series contains non-finite values")
    if values.size < min_length:
        raise InvalidInputError(
            f"need at least {min_length} observations, got {values.size}"
        )
    return values


def build_profile(series) -> Profile:
    """Integrate a series into its profile.

    Subtracts the sample mean and cumulates. The last profile value must
    close at zero within rounding; a violation indicates numerically
    pathological input and raises :class:`ToolkitError`.
    """
    x = as_values(series, min_length=2)
    mean = float(x.mean())
    values = np.cumsum(x - mean)
    largest = float(np.abs(x).max())
    if abs(float(values[-1])) > 1e-9 * x.size * largest:
        raise ToolkitError("profile failed to close at zero")
    return Profile(values=values, source_mean=mean)


def _autocovariances(centered: np.ndarray, max_lag: int) -> np.ndarray:
    """Autocovariances at lags 0..max_lag of already centered rows.

    ``centered`` has shape (..., n); the result has shape (..., max_lag + 1).
    Every lag divides by the full length. Short bandwidths use direct row
    products; longer ones go through one FFT round trip along the rows.
    """
    n = centered.shape[-1]
    if max_lag <= 32:
        out = np.empty(centered.shape[:-1] + (max_lag + 1,))
        for k in range(max_lag + 1):
            out[..., k] = _row_dots(centered[..., : n - k], centered[..., k:])
        return out / n
    m = _fft_length(n + max_lag)
    spectrum = np.fft.rfft(centered, m, axis=-1)
    spectrum *= spectrum.conj()
    return np.fft.irfft(spectrum, m, axis=-1)[..., : max_lag + 1] / n


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows, with the rounding of a 1-D ``a @ b``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _fft_length(size: int) -> int:
    """Smallest 2^a 3^b 5^c at least ``size``; such FFTs are the fastest."""
    best = 1 << (size - 1).bit_length()
    odd = 1
    while odd < best:
        factor = odd
        while factor < best:
            best = min(best, factor << (-(-size // factor) - 1).bit_length())
            factor *= 3
        odd *= 5
    return best


def autocovariance(series, lag: int) -> float:
    """Sample autocovariance at a single lag, divisor equal to the length."""
    x = as_values(series, min_length=2)
    if not 0 <= lag < x.size:
        raise InvalidInputError(
            f"lag must lie in [0, {x.size - 1}], got {lag}"
        )
    centered = x - x.mean()
    if lag == 0:
        return float(centered @ centered) / x.size
    return float(centered[:-lag] @ centered[lag:]) / x.size


def _lo_bandwidth(n_obs: int, rho: np.ndarray) -> np.ndarray:
    """Lo's rule for lag-1 autocorrelations strictly inside (-1, 1)."""
    raw = (1.5 * n_obs) ** (1.0 / 3.0) * (2.0 * np.abs(rho) / (1.0 - rho * rho)) ** (2.0 / 3.0)
    return np.minimum(np.floor(raw), n_obs - 1).astype(np.int64)


def _auto_bandwidths(centered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Automatic bandwidth of each centered row of a (k, n) array, and a mask
    of the rows where it is undefined: zero or non-finite variance.
    Overflow and 0/0 here are expected; callers silence their warnings."""
    gamma = _autocovariances(centered, 1)
    rho = gamma[:, 1] / gamma[:, 0]
    defined = np.abs(rho) < 1.0
    bandwidth = np.zeros(rho.size, dtype=np.int64)
    bandwidth[defined] = _lo_bandwidth(centered.shape[1], rho[defined])
    return bandwidth, ~defined


def _long_run_variances(centered: np.ndarray, bandwidths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bartlett long-run variance and lag-0 autocovariance of each centered
    row of a (k, n) array, at the row's own bandwidth. Lag products run up
    to the largest bandwidth, and each row's weights are zero beyond its own."""
    max_lag = int(bandwidths.max())
    weights = np.maximum(1.0 - np.arange(1, max_lag + 1) / (bandwidths[:, None] + 1.0), 0.0)
    gamma = _autocovariances(centered, max_lag)
    return gamma[:, 0] + 2.0 * _row_dots(weights, gamma[:, 1:]), gamma[:, 0]


def _row_statistics(
    rows: np.ndarray, bandwidth: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rescaled range and rescaled variance of each row, as (k, 2), with the
    bandwidths and the mask of degenerate rows.

    ``rows`` has shape (k, n) and is overwritten: it is centered, then
    integrated into the profile, in place, so that direct lag products
    allocate no other (k, n) array. Each row gets Lo's automatic bandwidth,
    unless one ``bandwidth`` is given for all of them. A row is degenerate
    when its variance is zero or not finite, or its long-run variance is
    not positive and finite; its statistics are then meaningless.
    """
    k, n = rows.shape
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rows -= rows.mean(axis=1, keepdims=True)
        if bandwidth is None:
            bandwidths, degenerate = _auto_bandwidths(rows)
        else:
            bandwidths, degenerate = np.full(k, bandwidth, dtype=np.int64), np.zeros(k, dtype=bool)
        s2, _ = _long_run_variances(rows, bandwidths)
        profile = np.cumsum(rows, axis=1, out=rows)
        spread = profile.max(axis=1) - profile.min(axis=1)
        profile -= profile.mean(axis=1, keepdims=True)
        prof_var = _row_dots(profile, profile) / n
        statistics = np.stack([spread / np.sqrt(s2 * n), prof_var / (n * s2)], axis=1)
    # A zero or non-finite variance gives a zero or non-finite s2 too.
    degenerate |= ~(np.isfinite(s2) & (s2 > 0.0))
    return statistics, bandwidths, degenerate


def hac_variance(series, bandwidth: int) -> HacVariance:
    """Long-run variance with Bartlett weights over ``bandwidth`` lags.

    Raises
    ------
    InvalidInputError
        If the bandwidth falls outside [0, T - 1].
    DegenerateVarianceError
        If the weighted sum is zero, negative or not finite, e.g. for a
        constant series at any bandwidth.
    """
    x = as_values(series, min_length=2)
    if not 0 <= bandwidth < x.size:
        raise InvalidInputError(
            f"bandwidth must lie in [0, {x.size - 1}], got {bandwidth}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        s2, gamma0 = _long_run_variances((x - x.mean())[None, :], np.array([bandwidth]))
    if not (np.isfinite(s2[0]) and s2[0] > 0.0):
        raise DegenerateVarianceError(
            f"long-run variance {s2[0]:g} at bandwidth {bandwidth} is not positive and finite"
        )
    return HacVariance(long_run_variance=float(s2[0]), bandwidth=bandwidth, variance=float(gamma0[0]))


def auto_bandwidth_value(n_obs: int, lag1_autocorr: float) -> int:
    """Lo's automatic bandwidth from the length and lag-1 autocorrelation.

    Returns zero when the autocorrelation is zero and never exceeds
    ``n_obs - 1``.
    """
    if n_obs < 2:
        raise InvalidInputError("need at least 2 observations")
    rho = float(lag1_autocorr)
    if not abs(rho) < 1.0:
        raise InvalidInputError(
            f"lag-1 autocorrelation must lie strictly inside (-1, 1), got {rho:g}"
        )
    return int(_lo_bandwidth(n_obs, np.array([rho]))[0])


def auto_bandwidth(series) -> int:
    """Automatic Bartlett bandwidth for a series.

    Raises :class:`DegenerateVarianceError` for a constant series, whose
    lag-1 autocorrelation is undefined, and for one whose variance
    overflows.
    """
    x = as_values(series, min_length=2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bandwidth, undefined = _auto_bandwidths((x - x.mean())[None, :])
    if undefined[0]:
        raise DegenerateVarianceError("series has no finite nonzero variance, so no bandwidth")
    return int(bandwidth[0])
