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
from .series import TimeSeries, as_values
from .xcorr import METHODS, ScaleCorrelogram, _coefficient_curve, _validate_grid, _validate_pair

__all__ = [
    "SurrogateConfig",
    "AverageCoefficient",
    "aaft_surrogate",
    "xcorr_significance",
    "average_coefficient",
]

MIN_SURROGATES = 100
# Surrogate pairs evaluated together. Larger chunks cost memory traffic
# and resident memory without saving time.
CHUNK_SIZE = 8


@dataclass(frozen=True)
class SurrogateConfig:
    """Ensemble parameters for surrogate-based p-values.

    Fewer than ``MIN_SURROGATES`` would make the reported p-values too coarse
    and are rejected, as are negative seeds.
    """

    n_surrogates: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_surrogates < MIN_SURROGATES:
            raise InvalidInputError(
                f"need at least {MIN_SURROGATES} surrogates for p-values, got {self.n_surrogates}"
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
    rotation = np.exp(1j * phases)
    rotation[..., 0] = 1.0
    if n % 2 == 0:
        rotation[..., -1] = np.where(phases[..., -1] < np.pi, 1.0, -1.0)
    return np.fft.irfft(np.fft.rfft(values, axis=-1) * rotation, n, axis=-1)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _draw(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gaussian sample and phases one AAFT surrogate of length n uses."""
    return rng.standard_normal(n), rng.uniform(0.0, 2.0 * np.pi, n // 2 + 1)


def _aaft_values(values: np.ndarray, gaussian: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """AAFT surrogates of ``values``, one row per row of (k, n) ``gaussian``
    and (k, n // 2 + 1) ``phases``."""
    ranked = np.empty_like(gaussian)
    ranked[:, values.argsort()] = np.sort(gaussian, axis=1)
    order = _phase_randomize(ranked, phases).argsort(axis=1)
    out = np.empty_like(ranked)
    np.put_along_axis(out, order, np.sort(values)[None, :], axis=1)
    return out


def aaft_surrogate(series, rng: np.random.Generator) -> TimeSeries:
    """One amplitude-adjusted Fourier transform surrogate.

    The output holds exactly the input's values in a new order, so its
    mean, variance, and every other marginal moment are preserved. Dates
    and label carry over unchanged.
    """
    values = as_values(series, min_length=8)
    gaussian, phases = _draw(rng, values.size)
    surrogate = _aaft_values(values, gaussian[None, :], phases[None, :])[0]
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
    enlarge a p-value. Pairs are evaluated ``CHUNK_SIZE`` at a time on a
    thread pool with one worker per CPU this process may run on. Pair i
    always draws from child i of ``SeedSequence(config.seed)``, so neither
    the chunks nor the worker count change the result.
    """
    if method not in METHODS:
        raise InvalidInputError(f"method must be one of {METHODS}, got {method!r}")
    if config is None:
        config = SurrogateConfig()
    xv, yv = _validate_pair(x, y)
    grid = _validate_grid(scales, method, xv.size)
    rho_observed = _coefficient_curve(xv[None, :], yv[None, :], method, grid)[0]
    flagged = np.isnan(rho_observed)
    if flagged.any():
        where = ", ".join(str(int(s)) for s in grid[flagged])
        warnings.warn(f"degenerate scales forced p = 1 at: {where}")

    children = np.random.SeedSequence(config.seed).spawn(config.n_surrogates)

    def chunk_rows(start: int) -> np.ndarray:
        rngs = map(np.random.default_rng, children[start: start + CHUNK_SIZE])
        draws = [_draw(rng, xv.size) + _draw(rng, yv.size) for rng in rngs]
        gx, phx, gy, phy = (np.stack(d) for d in zip(*draws))
        return _coefficient_curve(_aaft_values(xv, gx, phx), _aaft_values(yv, gy, phy), method, grid)

    with ThreadPoolExecutor(max_workers=_cpu_count()) as pool:
        rows = list(pool.map(chunk_rows, range(0, config.n_surrogates, CHUNK_SIZE)))
    surrogate_rho = np.vstack(rows)

    with np.errstate(invalid="ignore"):
        exceed = np.abs(surrogate_rho) >= np.abs(rho_observed)[None, :]
    exceed |= np.isnan(surrogate_rho)
    counts = exceed.sum(axis=0)
    p_values = (1.0 + counts) / (1.0 + config.n_surrogates)
    p_values[flagged] = 1.0
    return ScaleCorrelogram(
        method=method,
        scales=grid,
        rho=rho_observed,
        p_values=p_values,
        flagged=flagged,
        surrogate_rho=surrogate_rho,
    )


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
