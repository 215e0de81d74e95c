"""Fractional Gaussian noise synthesis by circulant embedding.

The autocovariance of fractional Gaussian noise with Hurst exponent H is

    gamma(k) = sigma^2 / 2 * (|k+1|^(2H) - 2|k|^(2H) + |k-1|^(2H)).

Embedding gamma(0..N) into a symmetric circulant of size 2N gives a
nonnegative spectrum, so samples with exactly this covariance come from
one FFT of suitably scaled complex normal draws (Davies and Harte 1987).
Tiny negative eigenvalues from rounding are clipped; anything beyond the
tolerance aborts instead of silently distorting the law.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ComputationAbortedError, InvalidInputError
from .series import TimeSeries, _as_int

__all__ = [
    "FgnSpec",
    "fgn_autocovariance",
    "generate_fgn",
    "generate_correlated_pair",
]

_EIGENVALUE_TOLERANCE = 1e-8


@dataclass(frozen=True)
class FgnSpec:
    """Parameters of one fractional Gaussian noise draw.

    ``h`` lies strictly inside (0, 1), ``length`` is an integer of at least
    16, ``seed`` is a non-negative integer, and ``sigma`` is the positive
    standard deviation of the marginals. A whole float such as 3.0 is taken
    as 3.
    """

    h: float
    length: int
    seed: int
    sigma: float = 1.0

    def __post_init__(self) -> None:
        for name in ("length", "seed"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        if not 0.0 < self.h < 1.0:
            raise InvalidInputError(
                f"hurst exponent must lie strictly inside (0, 1), got {self.h}"
            )
        if self.length < 16:
            raise InvalidInputError(
                f"length must be at least 16, got {self.length}"
            )
        # The embedding's spectrum sums 2 * length autocovariances of at most sigma^2.
        if not (self.sigma > 0.0 and math.isfinite(2.0 * self.length * self.sigma * self.sigma)):
            raise InvalidInputError(f"need sigma > 0 and 2 * length * sigma^2 finite, got {self.sigma}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be non-negative, got {self.seed}")


def fgn_autocovariance(h: float, lags, sigma: float = 1.0) -> np.ndarray:
    """Closed-form autocovariance of fractional Gaussian noise."""
    k = np.abs(np.asarray(lags, dtype=float))
    two_h = 2.0 * h
    return 0.5 * sigma * sigma * (
        (k + 1.0) ** two_h - 2.0 * k ** two_h + np.abs(k - 1.0) ** two_h
    )


@lru_cache(maxsize=32)
def _embedding_eigenvalues(h: float, length: int, sigma: float) -> np.ndarray:
    """Spectrum of the size 2 * length symmetric circulant embedding."""
    gamma = fgn_autocovariance(h, np.arange(length + 1), sigma)
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eigenvalues = np.fft.fft(row).real
    smallest = float(eigenvalues.min())
    if smallest < 0.0:
        if smallest < -_EIGENVALUE_TOLERANCE:
            raise ComputationAbortedError(
                f"circulant embedding is not nonnegative definite "
                f"(smallest eigenvalue {smallest:g})"
            )
        warnings.warn(
            f"clipping negative embedding eigenvalue {smallest:g} to zero"
        )
        eigenvalues = np.clip(eigenvalues, 0.0, None)
    eigenvalues.setflags(write=False)
    return eigenvalues


def _colored_sample(eigenvalues: np.ndarray, drivers: np.ndarray, length: int) -> np.ndarray:
    """Map complex standard normal drivers to one exact sample.

    ``drivers`` has independent real and imaginary N(0, 1) parts; the real
    part of the transformed spectrum carries the target covariance.
    """
    m = eigenvalues.size
    weighted = np.sqrt(eigenvalues / m) * drivers
    return np.fft.fft(weighted)[:length].real


def _draw_drivers(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def generate_fgn(spec: FgnSpec) -> TimeSeries:
    """Sample fractional Gaussian noise with the exact target covariance.

    Deterministic for a fixed spec: the same seed reproduces the identical
    series bit for bit.
    """
    eigenvalues = _embedding_eigenvalues(spec.h, spec.length, spec.sigma)
    rng = np.random.default_rng(spec.seed)
    drivers = _draw_drivers(rng, eigenvalues.size)
    values = _colored_sample(eigenvalues, drivers, spec.length)
    return TimeSeries(values, label=f"fgn-h{spec.h:g}-s{spec.seed}")


def generate_correlated_pair(
    h1: float,
    h2: float,
    rho: float,
    length: int,
    seed: int,
    sigma: float = 1.0,
) -> tuple[TimeSeries, TimeSeries]:
    """Two fractional Gaussian noises with correlated Gaussian drivers.

    The second driver vector is ``rho`` times the first plus
    ``sqrt(1 - rho^2)`` times an independent draw, and each driver is then
    colored to its own Hurst exponent. With ``h1 == h2`` the pointwise
    correlation of the pair is ``rho``; for differing exponents the mixing
    happens at the driver level and the attained cross-correlation is only
    approximate. ``rho`` of exactly one collapses the pair onto a single
    driver, so equal exponents then give identical series.
    """
    if not -1.0 <= rho <= 1.0:
        raise InvalidInputError(f"rho must lie in [-1, 1], got {rho}")
    spec_x = FgnSpec(h=h1, length=length, seed=seed, sigma=sigma)
    spec_y = FgnSpec(h=h2, length=length, seed=seed, sigma=sigma)
    length, seed = spec_x.length, spec_x.seed
    eig_x = _embedding_eigenvalues(spec_x.h, length, sigma)
    eig_y = _embedding_eigenvalues(spec_y.h, length, sigma)
    child_x, child_y = np.random.SeedSequence(seed).spawn(2)
    drivers_x = _draw_drivers(np.random.default_rng(child_x), eig_x.size)
    independent = _draw_drivers(np.random.default_rng(child_y), eig_y.size)
    drivers_y = rho * drivers_x + math.sqrt(1.0 - rho * rho) * independent
    x = _colored_sample(eig_x, drivers_x, length)
    y = _colored_sample(eig_y, drivers_y, length)
    return (
        TimeSeries(x, label=f"fgn-pair-x-h{h1:g}-s{seed}"),
        TimeSeries(y, label=f"fgn-pair-y-h{h2:g}-s{seed}"),
    )
