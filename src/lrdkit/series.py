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
    """Autocovariances at lags 0..max_lag of an already centered array.

    Every lag divides by the full length. Short bandwidths use direct dot
    products; longer ones go through one FFT round trip.
    """
    n = centered.size
    if max_lag <= 32:
        out = np.empty(max_lag + 1)
        out[0] = centered @ centered
        for k in range(1, max_lag + 1):
            out[k] = centered[:-k] @ centered[k:]
        return out / n
    m = _fft_length(n + max_lag)
    spectrum = np.fft.rfft(centered, m)
    spectrum *= spectrum.conj()
    return np.fft.irfft(spectrum, m)[: max_lag + 1] / n


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


def _lo_bandwidth(n_obs: int, rho):
    """Lo's rule for lag-1 autocorrelations strictly inside (-1, 1): a float
    or an array. ``np.power`` rounds a float as it rounds an array entry."""
    raw = (1.5 * n_obs) ** (1.0 / 3.0) * np.power(2.0 * abs(rho) / (1.0 - rho * rho), 2.0 / 3.0)
    return np.minimum(np.floor(raw), n_obs - 1)


def _auto_bandwidth(centered: np.ndarray) -> tuple[int, bool]:
    """Automatic bandwidth of a centered array, and whether it is undefined."""
    gamma = _autocovariances(centered, 1)
    rho = gamma[1] / gamma[0]
    if not abs(rho) < 1.0:
        return 0, True
    return int(_lo_bandwidth(centered.size, rho)), False


def _long_run_variance(centered: np.ndarray, bandwidth: int) -> tuple[float, float]:
    """Bartlett long-run variance and lag-0 autocovariance of a centered array."""
    weights = 1.0 - np.arange(1, bandwidth + 1) / (bandwidth + 1.0)
    gamma = _autocovariances(centered, bandwidth)
    return gamma[0] + 2.0 * (weights @ gamma[1:]), gamma[0]


def _row_statistics(values: np.ndarray, bandwidth: int | None = None) -> tuple[np.ndarray, int, bool]:
    """Rescaled range and rescaled variance of one series, at Lo's automatic
    bandwidth unless one is given, with the bandwidth and whether the series
    is degenerate: its variance zero or not finite, or its long-run variance
    not positive and finite, so that its statistics are meaningless."""
    n = values.size
    degenerate = False
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        centered = values - values.mean()
        if bandwidth is None:
            bandwidth, degenerate = _auto_bandwidth(centered)
        s2, _ = _long_run_variance(centered, bandwidth)
        profile = np.cumsum(centered)
        spread = profile.max() - profile.min()
        profile -= profile.mean()
        prof_var = (profile @ profile) / n
        statistics = np.array([spread / np.sqrt(s2 * n), prof_var / (n * s2)])
    # A zero or non-finite variance gives a zero or non-finite s2 too.
    degenerate |= not (np.isfinite(s2) and s2 > 0.0)
    return statistics, bandwidth, degenerate


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
        s2, gamma0 = _long_run_variance(x - x.mean(), bandwidth)
    if not (np.isfinite(s2) and s2 > 0.0):
        raise DegenerateVarianceError(
            f"long-run variance {s2:g} at bandwidth {bandwidth} is not positive and finite"
        )
    return HacVariance(long_run_variance=float(s2), bandwidth=bandwidth, variance=float(gamma0))


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
    return int(_lo_bandwidth(n_obs, rho))


def auto_bandwidth(series) -> int:
    """Automatic Bartlett bandwidth for a series.

    Raises :class:`DegenerateVarianceError` for a constant series, whose
    lag-1 autocorrelation is undefined, and for one whose variance
    overflows.
    """
    x = as_values(series, min_length=2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bandwidth, undefined = _auto_bandwidth(x - x.mean())
    if undefined:
        raise DegenerateVarianceError("series has no finite nonzero variance, so no bandwidth")
    return bandwidth
