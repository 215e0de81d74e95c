"""Detrended fluctuation analysis with a two-sided box split.

The profile is cut into floor(T / s) non-overlapping boxes of length s from
the start and another floor(T / s) boxes counted backwards from the end, so
every scale uses 2 * floor(T / s) boxes in total. Each box is detrended by
an ordinary least squares line and the fluctuation function is the root mean
square of the residuals pooled over all boxes. The Hurst exponent is the
log-log slope of the fluctuation function over a grid of scales spaced a
tenth of a decade apart.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateScaleError, InvalidInputError
from .series import STACK_VALUES, _as_int, _integral, _row_sums, _unit_scaled, as_values

__all__ = [
    "DEFAULT_MIN_SCALE",
    "DEFAULT_MAX_SCALE",
    "FluctuationFunction",
    "HurstEstimate",
    "decade_scale_grid",
    "dfa_fluctuation",
    "fluctuation_function",
    "dfa_hurst",
]

DEFAULT_MIN_SCALE = 10
DEFAULT_MAX_SCALE = 500


@dataclass(frozen=True, eq=False)
class FluctuationFunction:
    """Fluctuation values over a grid of scales.

    ``boxes_per_scale[i]`` counts the boxes pooled at ``scales[i]``, which
    is twice the number of complete boxes that fit into the series.
    """

    scales: np.ndarray
    values: np.ndarray
    boxes_per_scale: np.ndarray


@dataclass(frozen=True, eq=False)
class HurstEstimate:
    """Result of the log-log fit of the fluctuation function.

    ``fluctuation`` keeps the scales and values that entered the fit, ready
    for plotting or CSV export.
    """

    h: float
    intercept: float
    r_squared: float
    fluctuation: FluctuationFunction


def decade_scale_grid(min_scale: int, max_scale: int, step: float = 0.1) -> np.ndarray:
    """Integer scales spaced ``step`` decades apart, duplicates removed.

    Walks exponents from log10(min_scale) upward while they do not exceed
    log10(max_scale) and floors 10**e at each step, capped at max_scale.
    Consecutive collisions collapse, so the result is strictly increasing
    and never passes max_scale. The bounds must be
    whole numbers (10.0 counts as 10), the step positive and finite, and
    the walk at most 10**6 exponents long.
    """
    min_scale = _as_int(min_scale, "minimum scale")
    max_scale = _as_int(max_scale, "maximum scale")
    if min_scale < 4:
        raise InvalidInputError(f"minimum scale must be at least 4, got {min_scale}")
    if max_scale < min_scale:
        raise InvalidInputError(
            f"maximum scale {max_scale} is below minimum scale {min_scale}"
        )
    if not 0 < step < math.inf:
        raise InvalidInputError(f"step must be positive and finite, got {step}")
    start = math.log10(min_scale)
    stop = math.log10(max_scale)
    if (stop + 1e-12 - start) / step > 10**6:
        raise InvalidInputError(
            f"a step of {step} decades from {min_scale} to {max_scale} walks more than 10**6 exponents"
        )
    scales: list[int] = []
    k = 0
    try:
        while True:
            exponent = start + k * step
            if exponent > stop + 1e-12:
                break
            raw = 10.0 ** exponent
            # The relative nudge absorbs 10**e landing just below an integer;
            # past 10**9 it exceeds 1, so the cap keeps it within max_scale.
            scale = min(int(math.floor(raw + 1e-9 * max(1.0, raw))), max_scale)
            if not scales or scale != scales[-1]:
                scales.append(scale)
            k += 1
        return np.asarray(scales, dtype=int)
    except OverflowError:
        raise InvalidInputError("scale grid holds an entry outside the 64-bit range") from None


def _profile_values(values: np.ndarray) -> np.ndarray:
    """Cumulative sum of the demeaned values along the last axis."""
    return np.cumsum(values - values.mean(axis=-1, keepdims=True), axis=-1)


def _check_scale(scale: int, n: int) -> None:
    if not _integral(scale) or not 4 <= scale <= n // 2:
        raise InvalidInputError(
            f"scale must be an integer in [4, {n // 2}] for length {n}, got {scale}"
        )


def _check_grid(scales, n: int, check=_check_scale) -> np.ndarray:
    """``scales`` as a strictly increasing integer array, each passing ``check``."""
    entries = np.asarray(scales)
    if entries.dtype.kind in "fO":
        # A direct int64 cast would truncate 10.5 to 10, wrap 1e30 and fail on NaN.
        for s in entries.flat:
            if not _integral(s):
                check(s, n)
        entries = [int(s) for s in entries.flat]
    try:
        grid = np.asarray(entries, dtype=np.int64)
    except OverflowError:
        raise InvalidInputError("scale grid holds an entry outside the 64-bit range") from None
    if grid.size == 0:
        raise InvalidInputError("scale grid is empty")
    if np.any(np.diff(grid) <= 0):
        raise InvalidInputError("scale grid must be strictly increasing")
    for s in grid:
        check(int(s), n)
    return grid


def _detrended_parts(profiles: np.ndarray, sums: np.ndarray | None, scale: int, work: np.ndarray):
    """Detrended values of each row at one scale, and their trend loadings.

    For boxes (``sums is None``) these are the box-centered values c of the
    two-sided split and c.t / |t| per box, t being the centered positions.
    Otherwise ``sums`` are the rows' cumulative sums with a leading zero,
    giving the residuals against the centered moving average of odd window
    ``scale`` directly, with no trend part. The values are written to the
    front of ``work``: 2 * profiles.size values for boxes, profiles.size
    for windows.
    """
    k, n = profiles.shape
    if sums is not None:
        half = (scale - 1) // 2
        c = work[: k * (n - 2 * half)].reshape(k, -1)
        np.subtract(sums[:, scale:], sums[:, :-scale], out=c)
        c /= scale
        return np.subtract(profiles[:, half: n - half], c, out=c), None
    n_boxes = n // scale
    used = n_boxes * scale
    boxes = np.concatenate(
        [profiles[:, :used].reshape(k, n_boxes, scale),
         profiles[:, n - used:].reshape(k, n_boxes, scale)],
        axis=1,
        out=work[: 2 * k * used].reshape(k, 2 * n_boxes, scale),
    )
    boxes -= (boxes @ np.full(scale, 1.0 / scale))[:, :, None]
    positions = np.arange(scale) - (scale - 1) / 2.0
    return boxes.reshape(k, -1), boxes @ (positions / math.sqrt(positions @ positions))


def _detrended_moments(px: np.ndarray, py: np.ndarray, grid: np.ndarray, method: str):
    """Per-scale detrended sums Sxy, Sxx and Syy of paired profile rows.

    ``px`` and ``py`` have shape (k, n) and ``grid`` is validated for
    ``method``: ``"dcca"`` fits a line per box of the two-sided split, as
    DFA does, and ``"dmca"`` subtracts a centered moving average built from
    one cumulative sum (Tsujimoto et al. 2016). Boxes are centered before
    the closed form c.c - t.t is applied, which keeps it accurate far from
    zero. The x and y rows are detrended as one (2k, n) block, halving the
    numpy calls per scale. Each matmul runs row by row and each sum is a
    :func:`series._row_sums` row, so every pair gets the sums it gives
    alone, in any batch and at any length. Returns the three stacked in
    that order, shape (3, k, grid.size); passing ``py is px`` computes Sxx
    alone, which is DFA's route. The large arrays are carved from one
    array of 3 m n + m values for the m stacked rows, which each call
    allocates and whose contents are never read before they are written.
    Every caller passes profiles of rows scaled by ``series._unit_scaled``,
    so the sums stay far inside the float range.
    """
    k, n = px.shape
    m = k if py is px else 2 * k
    work = np.empty(3 * m * n + m)
    # The per-scale values come first, then the stacked rows, then the sums.
    front = (2 if method == "dcca" else 1) * m * n
    stacked = work[front: front + m * n].reshape(m, n)
    rows = px if py is px else np.concatenate([px, py], out=stacked)
    sums = None
    if method == "dmca":
        # A constant shift leaves the residuals unchanged but keeps the
        # cumulative sums, and so their rounding, small.
        rows = np.subtract(rows, rows.mean(axis=1, keepdims=True), out=stacked)
        sums = work[front + m * n: front + m * (2 * n + 1)].reshape(m, n + 1)
        sums[:, 0] = 0.0
        sums[:, 1:] = rows
        np.cumsum(sums, axis=1, out=sums)
    moments = np.empty((3, k, grid.size))
    for j, s in enumerate(grid):
        c, t = _detrended_parts(rows, sums, int(s), work)
        total = squares = _row_sums("ki,ki->k", c, c)
        if t is not None:
            squares = total - _row_sums("kb,kb->k", t, t)
            # Below this share of the centered sum of squares the difference
            # is rounding of the two sums: the boxes are exactly linear.
            squares[squares <= 1e-12 * total] = 0.0
        if py is px:
            moments[:, :, j] = squares
            continue
        cross = _row_sums("ki,ki->k", c[:k], c[k:])
        if t is not None:
            cross -= _row_sums("kb,kb->k", t[:k], t[k:])
        moments[:, :, j] = (cross, squares[:k], squares[k:])
    return moments


def _fluctuation_rows(rows, grid: np.ndarray) -> np.ndarray:
    """Fluctuation values of equal-length rows over a checked ``grid``, as
    (len(rows), grid.size).

    ``rows`` is a sequence of 1-D arrays, detrended at most
    ``STACK_VALUES // n`` at a time in one :func:`_detrended_moments` call
    (at least one), whose work array holds about 3 * STACK_VALUES floats;
    that kernel sums each row as alone, so each row's values are those it
    gives alone in any chunk.
    Each row is scaled by the power of two that brings its largest
    absolute value into [0.5, 1) (``series._unit_scaled``), and its
    fluctuation values are scaled back. Both steps are exact, so
    ``F(x * 2**j) == F(x) * 2**j``, and the sums of squares of values near
    1e152 or 1e-165 neither overflow nor underflow. A value past the float
    range comes out as inf. Neither raises nor warns.
    """
    n = len(rows[0])
    step = max(1, STACK_VALUES // n)
    boxes = 2 * (n // grid)
    values = np.empty((len(rows), grid.size))
    for start in range(0, len(rows), step):
        scaled, exponents = _unit_scaled(np.stack(rows[start: start + step]))
        profiles = _profile_values(scaled)
        sxx = _detrended_moments(profiles, profiles, grid, "dcca")[1]
        with np.errstate(over="ignore"):
            values[start: start + len(scaled)] = np.ldexp(
                np.sqrt(np.maximum(sxx, 0.0) / (boxes * grid)), exponents
            )
    return values


def dfa_fluctuation(series, scale: int) -> float:
    """Root mean square detrended fluctuation at one scale.

    Zero only when the profile is exactly linear inside every box, which
    for real data means a constant series.
    """
    x = as_values(series, min_length=8)
    _check_scale(scale, x.size)
    return float(fluctuation_function(x, [int(scale)]).values[0])


def fluctuation_function(series, scales=None) -> FluctuationFunction:
    """Fluctuation values over a scale grid.

    With ``scales=None`` a default tenth-of-a-decade grid from 10 to
    min(500, T // 5) is used. Explicit grids must be strictly increasing
    integers inside [4, T // 2]. The series is scaled by an exact power of
    two while it is detrended, so magnitudes such as 1e152 or 1e-165 do
    not overflow or underflow the sums of squares.
    """
    x = as_values(series, min_length=8)
    n = x.size
    if scales is None:
        scales = decade_scale_grid(DEFAULT_MIN_SCALE, min(DEFAULT_MAX_SCALE, n // 5))
    scales = _check_grid(scales, n)
    return FluctuationFunction(
        scales=scales, values=_fluctuation_rows([x], scales)[0], boxes_per_scale=2 * (n // scales)
    )


def _hurst_grid(n: int, min_scale, max_scale) -> np.ndarray:
    """The scale grid :func:`dfa_hurst` fits over for n values."""
    min_scale = _as_int(min_scale, "minimum scale")
    if n < 5 * min_scale:
        raise InvalidInputError(
            f"need at least {5 * min_scale} observations for min_scale {min_scale}, got {n}"
        )
    if max_scale is None:
        max_scale = min(DEFAULT_MAX_SCALE, n // 5)
    grid = decade_scale_grid(min_scale, max_scale)
    if grid.size < 5:
        raise InvalidInputError(
            f"scale grid from {min_scale} to {max_scale} holds only {grid.size} scales, need 5"
        )
    return grid


def _hurst_fit(fluct: FluctuationFunction) -> HurstEstimate:
    """The log-log fit of ``fluct`` after dropping, with a warning, its
    scales of zero fluctuation or of one past the float range (inf); fewer
    than 5 left raise DegenerateScaleError."""
    usable = (fluct.values > 0.0) & (fluct.values < np.inf)
    if not np.all(usable):
        dropped = ", ".join(str(int(s)) for s in fluct.scales[~usable])
        warnings.warn(f"dropping zero-fluctuation scales: {dropped}")
        if int(usable.sum()) < 5:
            raise DegenerateScaleError(
                f"only {int(usable.sum())} scales with positive fluctuation, need 5"
            )
        fluct = FluctuationFunction(
            scales=fluct.scales[usable],
            values=fluct.values[usable],
            boxes_per_scale=fluct.boxes_per_scale[usable],
        )
    log_s = np.log10(fluct.scales.astype(float))
    log_f = np.log10(fluct.values)
    ls_centered = log_s - log_s.mean()
    slope = float((ls_centered @ log_f) / (ls_centered @ ls_centered))
    intercept = float(log_f.mean() - slope * log_s.mean())
    residuals = log_f - (intercept + slope * log_s)
    ss_res = float(residuals @ residuals)
    lf_centered = log_f - log_f.mean()
    ss_tot = float(lf_centered @ lf_centered)
    if ss_tot == 0.0:
        r_squared = 1.0 if ss_res == 0.0 else 0.0
    else:
        r_squared = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return HurstEstimate(h=slope, intercept=intercept, r_squared=r_squared, fluctuation=fluct)


def dfa_hurst(series, min_scale: int = DEFAULT_MIN_SCALE, max_scale: int | None = None) -> HurstEstimate:
    """Estimate the Hurst exponent from the fluctuation function slope.

    Parameters
    ----------
    series : TimeSeries or array_like
        At least ``5 * min_scale`` observations.
    min_scale, max_scale : int
        Grid bounds, whole numbers. ``max_scale`` defaults to
        min(500, T // 5).

    Raises
    ------
    InvalidInputError
        If a bound is not a whole number, the series is too short or the
        grid holds fewer than 5 scales.
    DegenerateScaleError
        If scales of zero (or, past the float range, infinite) fluctuation
        leave fewer than 5 usable points.
    """
    x = as_values(series, min_length=8)
    return _hurst_fit(fluctuation_function(x, _hurst_grid(x.size, min_scale, max_scale)))


def _panel_fluctuations(panel) -> list:
    """The fluctuation function :func:`dfa_hurst` fits for each series of
    ``panel`` at its default bounds, or the error it raises before the fit.

    Series of one length are detrended together by
    :func:`_fluctuation_rows`. Neither raises nor warns: ``_hurst_fit``
    gives each series' warnings and errors.
    """
    # Each length keeps the grid of its first series and the checked values
    # of its series by index.
    lengths, fluctuations = {}, [None] * len(panel)
    for index, series in enumerate(panel):
        try:
            values = as_values(series, min_length=8)
            grid = _hurst_grid(values.size, DEFAULT_MIN_SCALE, None)
        except InvalidInputError as error:
            fluctuations[index] = error
        else:
            lengths.setdefault(values.size, (grid, {}))[1][index] = values
    for n, (grid, members) in lengths.items():
        for index, values in zip(members, _fluctuation_rows(list(members.values()), grid)):
            fluctuations[index] = FluctuationFunction(
                scales=grid, values=values, boxes_per_scale=2 * (n // grid)
            )
    return fluctuations
