"""Amplitude-adjusted Fourier transform surrogates and significance tests.

A surrogate keeps the exact value multiset and approximately the power
spectrum of its source while destroying any cross-dependence with other
series (Theiler et al. 1992). Construction runs in three steps: reorder a
sorted Gaussian sample by the ranks of the data, randomize the phases of
its Fourier transform under Hermitian symmetry, then reorder the original
values by the ranks of the phase-randomized intermediate.

Significance of a coefficient curve is judged two-sided against an
ensemble of independent surrogate pairs, with an add-one p-value. Each
surrogate pair draws from a per-index substream of the seed, so the
ensemble is reproducible no matter how the loop is scheduled.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .series import STACK_VALUES, TimeSeries, _as_int, as_values
from .xcorr import METHODS, ScaleCorrelogram, _coefficient_curves, _scaled_pair, _validate_grid

__all__ = [
    "SurrogateConfig",
    "AverageCoefficient",
    "aaft_surrogate",
    "xcorr_significance",
    "average_coefficient",
]

MIN_SURROGATES = 100
# Every surrogate spawns a seed child of about 372 bytes before any work
# starts, so larger counts are refused before the spawn.
MAX_SURROGATES = 10**6


@dataclass(frozen=True)
class SurrogateConfig:
    """Ensemble parameters for surrogate-based p-values.

    Fewer than ``MIN_SURROGATES`` would make the reported p-values too coarse
    and are rejected, as are more than ``MAX_SURROGATES``, negative seeds and
    counts or seeds that are not whole numbers; 3.0 is taken as 3.
    """

    n_surrogates: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_surrogates", "seed"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if not MIN_SURROGATES <= self.n_surrogates <= MAX_SURROGATES:
            raise InvalidInputError(
                f"need {MIN_SURROGATES} to {MAX_SURROGATES} surrogates for p-values, got {self.n_surrogates}"
            )
        if self.seed < 0:
            raise InvalidInputError(f"seed must be non-negative, got {self.seed}")


class AverageCoefficient(NamedTuple):
    """Grid average of a coefficient curve with its surrogate p-value."""

    mean_rho: float
    std_rho: float
    p_value: float | None


def _phase_randomize(values: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Rotate the Fourier phases of each row, keeping its amplitude spectrum.

    ``phases`` holds one angle per rfft bin and row. The zero-frequency bin
    is untouched and, for even lengths, the Nyquist bin only flips sign so
    the inverse transform stays real.
    """
    n = values.shape[-1]
    # cos and sin give exp(1j * phases) without its complex temporaries.
    rotation = np.empty(phases.shape, dtype=complex)
    np.cos(phases, out=rotation.real)
    np.sin(phases, out=rotation.imag)
    rotation[..., 0] = 1.0
    if n % 2 == 0:
        rotation[..., -1] = np.where(phases[..., -1] < np.pi, 1.0, -1.0)
    spectrum = np.fft.rfft(values, axis=-1)
    spectrum *= rotation
    return np.fft.irfft(spectrum, n, axis=-1)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _draw(rng: np.random.Generator, gaussian: np.ndarray, phases: np.ndarray) -> None:
    """Fill the (m, n) ``gaussian`` and (m, n // 2 + 1) ``phases`` rows of
    m AAFT surrogates in place, row by row: a row's normals, then its phases."""
    for normals, angles in zip(gaussian, phases):
        rng.standard_normal(out=normals)
        rng.random(out=angles)
    phases *= 2.0 * np.pi


def _ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorting order of ``values`` and the sorted values, which every
    AAFT surrogate of ``values`` reuses."""
    return values.argsort(), np.sort(values)


def _aaft_values(ranks: tuple[np.ndarray, np.ndarray], gaussian: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """AAFT surrogates of the values behind ``ranks``, one row per row of
    (k, n) ``gaussian`` and (k, n // 2 + 1) ``phases``."""
    order, sorted_values = ranks
    ranked = np.empty_like(gaussian)
    ranked[:, order] = np.sort(gaussian, axis=1)
    positions = _phase_randomize(ranked, phases).argsort(axis=1)
    np.put_along_axis(ranked, positions, sorted_values[None, :], axis=1)
    return ranked


def aaft_surrogate(series, rng: np.random.Generator) -> TimeSeries:
    """One amplitude-adjusted Fourier transform surrogate.

    The output holds exactly the input's values in a new order, so its
    mean, variance, and every other marginal moment are preserved. Dates
    and label carry over unchanged.
    """
    values = as_values(series, min_length=8)
    gaussian, phases = np.empty((1, values.size)), np.empty((1, values.size // 2 + 1))
    _draw(rng, gaussian, phases)
    surrogate = _aaft_values(_ranks(values), gaussian, phases)[0]
    if isinstance(series, TimeSeries):
        return TimeSeries(surrogate, label=series.label, dates=series.dates)
    return TimeSeries(surrogate)


def xcorr_significance(
    x,
    y,
    method: str,
    scales=None,
    config: SurrogateConfig | None = None,
) -> ScaleCorrelogram:
    """Surrogate significance of a cross-correlation coefficient curve.

    Builds ``config.n_surrogates`` independent surrogate pairs, evaluates
    the coefficient curve on each, and attaches two-sided add-one p-values
    to the observed correlogram. A grid point where the observed
    coefficient is degenerate gets p = 1 and a flag instead of an error;
    degenerate surrogate values count as exceedances, which can only
    enlarge a p-value. Chunks of max(2, STACK_VALUES // (2 T)) pairs run on
    a thread pool with one worker per CPU this process may run on. Pair i
    always draws from child i of ``SeedSequence(config.seed)``, so neither
    the chunks nor the worker count change the result.
    """
    return _ensemble_significance(x, y, {method: scales}, config)[method]


def _ensemble_significance(x, y, grids: dict, config: SurrogateConfig | None = None) -> dict[str, ScaleCorrelogram]:
    """:func:`xcorr_significance` for each ``method: scales`` of ``grids``
    on one ensemble: each surrogate pair is built once and every method's
    curve is evaluated on it, so each result equals the one-method call."""
    for method in grids:
        if method not in METHODS:
            raise InvalidInputError(f"method must be one of {METHODS}, got {method!r}")
    if config is None:
        config = SurrogateConfig()
    # AAFT reorders the source values, so the surrogates of the scaled pair
    # are the scaled surrogates.
    xv, yv, _ = _scaled_pair(x, y)
    grids = {method: _validate_grid(scales, method, xv.size) for method, scales in grids.items()}
    observed = [rho for (rho,) in _coefficient_curves(xv[None, :], yv[None, :], grids)]
    flagged = [np.isnan(rho) for rho in observed]
    for grid, nan in zip(grids.values(), flagged):
        if nan.any():
            where = ", ".join(str(int(s)) for s in grid[nan])
            warnings.warn(f"degenerate scales forced p = 1 at: {where}")
    children = np.random.SeedSequence(config.seed).spawn(config.n_surrogates)
    x_ranks, y_ranks = _ranks(xv), _ranks(yv)
    # Each chunk stacks the x and y rows of ``step`` pairs, as many as the
    # value budget holds, in draw buffers of its own.
    step = max(2, STACK_VALUES // (2 * xv.size))

    def chunk_curves(start: int) -> list[np.ndarray]:
        pairs = children[start: start + step]
        # Row 0 holds the x draws, row 1 the y draws.
        gaussian = np.empty((2, len(pairs), xv.size))
        phases = np.empty((2, len(pairs), xv.size // 2 + 1))
        for i, child in enumerate(pairs):
            _draw(np.random.default_rng(child), gaussian[:, i], phases[:, i])
        return _coefficient_curves(
            _aaft_values(x_ranks, gaussian[0], phases[0]), _aaft_values(y_ranks, gaussian[1], phases[1]), grids
        )

    with ThreadPoolExecutor(max_workers=_cpu_count()) as pool:
        chunks = list(pool.map(chunk_curves, range(0, config.n_surrogates, step)))

    results = {}
    for (method, grid), rho, nan, rows in zip(grids.items(), observed, flagged, zip(*chunks)):
        surrogate_rho = np.vstack(rows)
        with np.errstate(invalid="ignore"):
            exceed = np.abs(surrogate_rho) >= np.abs(rho)[None, :]
        exceed |= np.isnan(surrogate_rho)
        p_values = (1.0 + exceed.sum(axis=0)) / (1.0 + config.n_surrogates)
        p_values[nan] = 1.0
        results[method] = ScaleCorrelogram(method, grid, rho, p_values, nan, surrogate_rho)
    return results


def average_coefficient(correlogram: ScaleCorrelogram) -> AverageCoefficient:
    """Mean and spread of a coefficient curve across its grid.

    The standard deviation is the population value over the grid points.
    When the correlogram carries a surrogate ensemble, the mean's two-sided
    p-value compares against the distribution of surrogate grid means;
    otherwise ``p_value`` is ``None``. Flagged grid points are excluded.
    """
    if correlogram.scales.size == 0:
        raise InvalidInputError("correlogram has an empty grid")
    if correlogram.flagged is not None:
        mask = ~correlogram.flagged
    else:
        mask = np.ones(correlogram.scales.size, dtype=bool)
    if not mask.any():
        raise InvalidInputError("every grid point is degenerate")
    observed = correlogram.rho[mask]
    mean_rho = float(observed.mean())
    std_rho = float(observed.std())
    if correlogram.surrogate_rho is None:
        return AverageCoefficient(mean_rho, std_rho, None)
    surrogate = correlogram.surrogate_rho[:, mask]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        surrogate_means = np.nanmean(surrogate, axis=1)
    with np.errstate(invalid="ignore"):
        exceed = np.abs(surrogate_means) >= abs(mean_rho)
    exceed |= np.isnan(surrogate_means)
    p_value = (1.0 + int(exceed.sum())) / (1.0 + surrogate.shape[0])
    return AverageCoefficient(mean_rho, std_rho, p_value)
