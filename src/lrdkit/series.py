"""Core series container, autocovariances and long-run variance.

Autocovariances use the biased divisor (the full sample size at every lag),
which keeps the Bartlett-weighted long-run variance nonnegative for q = 0 and
matches the convention used throughout the statistics in this package.

The automatic bandwidth follows Lo (1991): the data-driven rule

    q* = floor( (3 T / 2)^(1/3) * (2 |rho1| / (1 - rho1^2))^(2/3) )

with rho1 the lag-1 sample autocorrelation, capped at T - 1.
"""

from __future__ import annotations

import datetime as dt
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateVarianceError, InvalidInputError

__all__ = [
    "TimeSeries",
    "HacVariance",
    "as_values",
    "autocovariance",
    "hac_variance",
    "auto_bandwidth",
    "auto_bandwidth_value",
]

# The value budget of the stacked kernels (512 kB of floats): the bootstrap's
# stacks and slices, each stacked DFA call and each chunk of AAFT pairs.
STACK_VALUES = 1 << 16


def _increasing(dates) -> bool:
    """Whether each date is later than the one before it."""
    return all(map(operator.lt, dates, dates[1:]))


class _Dates(tuple):
    """Dates known to increase strictly: a :class:`TimeSeries` keeps its
    checked dates as one, and a source that makes dates in order or has
    checked them passes one, so the check runs once per tuple.

    ``cells`` holds the dates' CSV cells once made: a read-only (n, 11)
    ``uint8`` grid whose rows are each date's ``isoformat()`` and a comma.
    The column reader sets the grid it checked; ``finance.series_csv_text``
    makes it on the first write of any other tuple. So the dates of a tuple
    are turned into text at most once, however many files carry them. A
    slice is a plain tuple, which :class:`TimeSeries` checks and keeps as a
    new ``_Dates`` with no cells.
    """

    cells = None


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
            checked = isinstance(self.dates, _Dates)
            dates = self.dates if checked else _Dates(self.dates)
            if len(dates) != values.size:
                raise InvalidInputError(
                    f"series {self.label!r} has {values.size} values but "
                    f"{len(dates)} dates"
                )
            if not (checked or _increasing(dates)):
                raise InvalidInputError(
                    f"series {self.label!r} dates must be strictly increasing"
                )
            object.__setattr__(self, "dates", dates)

    def __len__(self) -> int:
        return int(self.values.size)


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


def _unit_scaled(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``values`` times ``2**-e`` along the last axis, and ``e`` with the
    last axis kept: the ``frexp`` exponent of each row's largest absolute
    value, so a nonzero row's largest value lies in [0.5, 1) and a zero row
    has e = 0. The scaling is exact unless it takes a value below the
    normal range, so scale-free statistics of the scaled rows are those of
    the rows, and their sums of squares neither overflow at 1e152 nor
    underflow at 1e-165."""
    exponents = np.frexp(np.abs(values).max(axis=-1, keepdims=True))[1]
    return np.ldexp(values, -exponents), exponents


def _integral(value) -> bool:
    """Whether ``value`` is a whole number; NaN, infinities and non-numbers
    are not."""
    try:
        return value == int(value)
    except (TypeError, ValueError, OverflowError):
        return False


def _as_int(value, name: str) -> int:
    """``value`` as an int, refused unless a whole number. A whole float
    such as 3.0 is taken as 3, as a scale grid entry is."""
    if not _integral(value):
        raise InvalidInputError(f"{name} must be an integer, got {value}")
    return int(value)


def _lag(value, n: int, name: str = "bandwidth") -> int:
    """``value`` as an int lag in [0, n - 1]: a single lag or a bandwidth."""
    if not _integral(value) or not 0 <= value < n:
        raise InvalidInputError(f"{name} must be an integer in [0, {n - 1}], got {value}")
    return int(value)


def _row_sums(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, *operands)`` for a form that sums each row
    over the operands' last axis, with every row summed as einsum sums it
    alone, whatever other rows share the call. Alone, einsum adds a row's
    parts of 8,192 values in order; in a batch it sums longer rows another
    way. So the last axis is taken 8,192 columns at a time and the parts
    are added in order: one call for rows of at most 8,192 values."""
    n = operands[0].shape[-1]
    if n <= 8192:
        return np.einsum(subscripts, *operands)
    total = np.einsum(subscripts, *(a[..., :8192] for a in operands))
    for start in range(8192, n, 8192):
        total += np.einsum(subscripts, *(a[..., start: start + 8192] for a in operands))
    return total


def _autocovariances(centered: np.ndarray, max_lag: int) -> np.ndarray:
    """Autocovariances at lags 0..max_lag of an already centered array, by
    direct dot products; every lag divides by the full length."""
    n = centered.size
    out = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        out[k] = centered[: n - k] @ centered[k:]
    return out / n


def autocovariance(series, lag: int) -> float:
    """Sample autocovariance at a single lag, divisor equal to the length."""
    x = as_values(series, min_length=2)
    lag = _lag(lag, x.size, "lag")
    centered = x - x.mean()
    return float(centered[: x.size - lag] @ centered[lag:]) / x.size


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
        If the bandwidth is not an integer in [0, T - 1].
    DegenerateVarianceError
        If the weighted sum is zero, negative or not finite, e.g. for a
        constant series at any bandwidth.
    """
    x = as_values(series, min_length=2)
    bandwidth = _lag(bandwidth, x.size)
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

    A lag count is scale-free, so it is taken of the series scaled by an
    exact power of two (:func:`_unit_scaled`), as the bootstrap takes it:
    ``x * 2**j`` gets the bandwidth of ``x``, and so do alternating values
    of +-1e308, whose variance overflows in data units. Raises
    :class:`DegenerateVarianceError` for a constant series, whose lag-1
    autocorrelation is undefined.
    """
    x = _unit_scaled(as_values(series, min_length=2))[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        bandwidth, undefined = _auto_bandwidth(x - x.mean())
    if undefined:
        raise DegenerateVarianceError("series has no finite nonzero variance, so no bandwidth")
    return bandwidth
