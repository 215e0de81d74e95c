"""Long-range dependence test statistics and their bootstrap inference.

Two statistics built on the profile and a Bartlett long-run variance:

* rescaled range: the profile's range divided by S * sqrt(T), after Lo
  (1991) with the automatic bandwidth,
* rescaled variance: the profile's population variance divided by T * S^2.

Asymptotic critical values are deliberately not used. Significance comes
from a moving-block bootstrap that permutes non-overlapping blocks of the
observations, which destroys dependence beyond the block length while
keeping the short-range structure, and recomputes the bandwidth and the
statistic on every surrogate. The p-value is one-sided against the upper
tail with an add-one correction, so it never reaches zero.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    ComputationAbortedError,
    DegenerateVarianceError,
    InvalidInputError,
)
from .series import (
    _autocovariances,
    _long_run_variance,
    as_values,
    auto_bandwidth_value,
)

__all__ = [
    "TEST_KINDS",
    "LrdTestResult",
    "rescaled_range_statistic",
    "rescaled_variance_statistic",
    "block_bootstrap_test",
    "bootstrap_lrd_tests",
]

TEST_KINDS = ("rescaled_range", "rescaled_variance")


@dataclass(frozen=True)
class LrdTestResult:
    """One statistic with its bootstrap context.

    ``n_redraws`` counts surrogates that were discarded for a degenerate
    variance and drawn again.
    """

    statistic: float
    bandwidth: int
    p_value: float
    n_surrogates: int
    block_size: int
    test_kind: str
    n_redraws: int = 0


def _check_bandwidth(bandwidth: int, n: int) -> None:
    if not 0 <= bandwidth < n:
        raise InvalidInputError(
            f"bandwidth must lie in [0, {n - 1}], got {bandwidth}"
        )


def _statistic_pair(values: np.ndarray, bandwidth: int) -> tuple[float, float]:
    """Rescaled range and rescaled variance at a given bandwidth."""
    n = values.size
    centered = values - values.mean()
    s2, gamma0 = _long_run_variance(centered, bandwidth)
    if gamma0 == 0.0:
        raise DegenerateVarianceError("constant series has no variance")
    if s2 <= 0.0:
        raise DegenerateVarianceError(
            f"long-run variance {s2:g} at bandwidth {bandwidth} is not positive"
        )
    profile = np.cumsum(centered)
    spread = float(profile.max() - profile.min())
    prof_centered = profile - profile.mean()
    prof_var = float(prof_centered @ prof_centered) / n
    return spread / math.sqrt(s2 * n), prof_var / (n * s2)


def _auto_bandwidth_raw(values: np.ndarray) -> int:
    centered = values - values.mean()
    gamma = _autocovariances(centered, 1)
    if gamma[0] == 0.0:
        raise DegenerateVarianceError("constant series has no defined bandwidth")
    return auto_bandwidth_value(values.size, gamma[1] / gamma[0])


def rescaled_range_statistic(series, bandwidth: int) -> float:
    """Modified rescaled range: profile range over S * sqrt(T)."""
    values = as_values(series, min_length=2)
    _check_bandwidth(bandwidth, values.size)
    return _statistic_pair(values, bandwidth)[0]


def rescaled_variance_statistic(series, bandwidth: int) -> float:
    """Rescaled variance: population variance of the profile over T * S^2."""
    values = as_values(series, min_length=2)
    _check_bandwidth(bandwidth, values.size)
    return _statistic_pair(values, bandwidth)[1]


def _permute_blocks(values: np.ndarray, block_size: int, rng: np.random.Generator) -> np.ndarray:
    """Permute complete non-overlapping blocks, keeping the tail in place."""
    n_blocks = values.size // block_size
    used = n_blocks * block_size
    blocks = values[:used].reshape(n_blocks, block_size)
    permuted = blocks[rng.permutation(n_blocks)].ravel()
    if used == values.size:
        return permuted
    return np.concatenate([permuted, values[used:]])


def bootstrap_lrd_tests(
    series,
    block_size: int = 25,
    n_surrogates: int = 1000,
    seed: int = 0,
    n_jobs: int = 1,
) -> dict[str, LrdTestResult]:
    """Run both statistics against one shared block-bootstrap ensemble.

    Every surrogate permutes the complete blocks, recomputes the automatic
    bandwidth, and evaluates both statistics. Surrogate draws come from
    per-index substreams of ``seed``, so results do not depend on the
    number of worker threads. A surrogate with nonpositive long-run
    variance is redrawn; more than ``10 * n_surrogates`` redraws in total
    abort the run.

    Returns a dict keyed by test kind.
    """
    values = as_values(series, min_length=2)
    n = values.size
    if block_size < 1:
        raise InvalidInputError(f"block size must be positive, got {block_size}")
    if n < 2 * block_size:
        raise InvalidInputError(
            f"need at least {2 * block_size} observations for block size {block_size}, got {n}"
        )
    if n_surrogates < 1:
        raise InvalidInputError("need at least one surrogate")
    if n_jobs < 1:
        raise InvalidInputError("n_jobs must be positive")
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")

    bandwidth = _auto_bandwidth_raw(values)
    observed = _statistic_pair(values, bandwidth)

    children = np.random.SeedSequence(seed).spawn(n_surrogates)
    redraw_budget = 10 * n_surrogates

    def one_surrogate(index: int) -> tuple[float, float, int]:
        rng = np.random.default_rng(children[index])
        redraws = 0
        while True:
            surrogate = _permute_blocks(values, block_size, rng)
            try:
                q = _auto_bandwidth_raw(surrogate)
                v_stat, m_stat = _statistic_pair(surrogate, q)
                return v_stat, m_stat, redraws
            except DegenerateVarianceError:
                redraws += 1
                if redraws > redraw_budget:
                    raise ComputationAbortedError(
                        f"surrogate {index} exceeded {redraw_budget} redraws"
                    ) from None

    if n_jobs == 1:
        draws = [one_surrogate(i) for i in range(n_surrogates)]
    else:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            chunk = max(1, n_surrogates // (4 * n_jobs))
            draws = list(pool.map(one_surrogate, range(n_surrogates), chunksize=chunk))

    total_redraws = sum(d[2] for d in draws)
    if total_redraws > redraw_budget:
        raise ComputationAbortedError(
            f"{total_redraws} surrogate redraws exceeded the budget of {redraw_budget}"
        )

    surrogate_stats = np.asarray([(d[0], d[1]) for d in draws])
    results: dict[str, LrdTestResult] = {}
    for column, kind in enumerate(TEST_KINDS):
        exceed = int(np.sum(surrogate_stats[:, column] >= observed[column]))
        results[kind] = LrdTestResult(
            statistic=observed[column],
            bandwidth=bandwidth,
            p_value=(1.0 + exceed) / (1.0 + n_surrogates),
            n_surrogates=n_surrogates,
            block_size=block_size,
            test_kind=kind,
            n_redraws=total_redraws,
        )
    return results


def block_bootstrap_test(
    series,
    test_kind: str,
    block_size: int = 25,
    n_surrogates: int = 1000,
    seed: int = 0,
    n_jobs: int = 1,
) -> LrdTestResult:
    """Block-bootstrap significance test for one statistic.

    ``test_kind`` selects ``"rescaled_range"`` or ``"rescaled_variance"``.
    See :func:`bootstrap_lrd_tests` for the ensemble contract; with equal
    arguments both entry points give identical numbers.
    """
    if test_kind not in TEST_KINDS:
        raise InvalidInputError(
            f"test kind must be one of {TEST_KINDS}, got {test_kind!r}"
        )
    results = bootstrap_lrd_tests(
        series,
        block_size=block_size,
        n_surrogates=n_surrogates,
        seed=seed,
        n_jobs=n_jobs,
    )
    return results[test_kind]
