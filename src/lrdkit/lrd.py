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

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ComputationAbortedError,
    DegenerateVarianceError,
    InvalidInputError,
)
from .series import _row_statistics, as_values

__all__ = [
    "TEST_KINDS",
    "LrdTestResult",
    "rescaled_range_statistic",
    "rescaled_variance_statistic",
    "block_bootstrap_test",
    "bootstrap_lrd_tests",
]

TEST_KINDS = ("rescaled_range", "rescaled_variance")

# Surrogates per call of the statistics kernel. Larger chunks lose to
# memory traffic, smaller ones to per-call overhead.
CHUNK_SIZE = 64


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


def _observed(values: np.ndarray, bandwidth: int | None = None) -> tuple[np.ndarray, int]:
    """Both statistics of one series, and its bandwidth (automatic if None)."""
    statistics, bandwidths, degenerate = _row_statistics(values[None, :].copy(), bandwidth)
    if degenerate[0]:
        raise DegenerateVarianceError(
            "series variance is zero or not finite, or its long-run variance is not positive"
        )
    return statistics[0], int(bandwidths[0])


def rescaled_range_statistic(series, bandwidth: int) -> float:
    """Modified rescaled range: profile range over S * sqrt(T)."""
    values = as_values(series, min_length=2)
    _check_bandwidth(bandwidth, values.size)
    return float(_observed(values, bandwidth)[0][0])


def rescaled_variance_statistic(series, bandwidth: int) -> float:
    """Rescaled variance: population variance of the profile over T * S^2."""
    values = as_values(series, min_length=2)
    _check_bandwidth(bandwidth, values.size)
    return float(_observed(values, bandwidth)[0][1])


def _permute_blocks(values: np.ndarray, block_size: int, rng: np.random.Generator) -> np.ndarray:
    """Permute complete non-overlapping blocks, keeping the tail in place."""
    n_blocks = values.size // block_size
    used = n_blocks * block_size
    blocks = values[:used].reshape(n_blocks, block_size)
    permuted = blocks[rng.permutation(n_blocks)].ravel()
    if used == values.size:
        return permuted
    return np.concatenate([permuted, values[used:]])


@functools.lru_cache(maxsize=1)
def _block_orders(seed: int, n_surrogates: int, n_blocks: int) -> np.ndarray:
    """Read-only (n_surrogates, n_blocks) block orders: row i is the first
    permutation drawn from child i of ``SeedSequence(seed)``.

    Only the last key is kept: a panel of equal-length series tested with
    one seed draws the orders once.
    """
    children = np.random.SeedSequence(seed).spawn(n_surrogates)
    orders = np.empty((n_surrogates, n_blocks), dtype=np.int32)
    for row, child in zip(orders, children):
        row[:] = np.random.default_rng(child).permutation(n_blocks)
    orders.flags.writeable = False
    return orders


def _ensemble(
    values: np.ndarray, block_size: int, n_surrogates: int, seed: int
) -> tuple[np.ndarray, int]:
    """Statistics of every surrogate as (n_surrogates, 2), and the redraws."""
    n = values.size
    n_blocks = n // block_size
    used = n_blocks * block_size
    blocks = values[:used].reshape(n_blocks, block_size)
    orders = _block_orders(seed, n_surrogates, n_blocks)
    redraw_budget = 10 * n_surrogates

    def redraw(index: int) -> tuple[np.ndarray, int]:
        """Statistics of surrogate ``index`` after its first draw proved
        degenerate: continue its own generator past that permutation."""
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        rng.permutation(n_blocks)
        redraws = 1
        while True:
            surrogate = _permute_blocks(values, block_size, rng)
            statistics, _, degenerate = _row_statistics(surrogate[None, :])
            if not degenerate[0]:
                return statistics[0], redraws
            redraws += 1
            if redraws > redraw_budget:
                raise ComputationAbortedError(
                    f"surrogate {index} exceeded {redraw_budget} redraws"
                )

    def chunk(start: int) -> tuple[np.ndarray, int]:
        order = orders[start: start + CHUNK_SIZE]
        rows = blocks[order].reshape(len(order), used)
        if used < n:
            rows = np.hstack([rows, np.broadcast_to(values[used:], (len(order), n - used))])
        pairs, _, degenerate = _row_statistics(rows)
        redraws = 0
        for row in np.flatnonzero(degenerate):
            pairs[row], count = redraw(start + int(row))
            redraws += count
        return pairs, redraws

    chunks = [chunk(start) for start in range(0, n_surrogates, CHUNK_SIZE)]
    total_redraws = sum(count for _, count in chunks)
    if total_redraws > redraw_budget:
        raise ComputationAbortedError(
            f"{total_redraws} surrogate redraws exceeded the budget of {redraw_budget}"
        )
    return np.vstack([pairs for pairs, _ in chunks]), total_redraws


def bootstrap_lrd_tests(
    series,
    block_size: int = 25,
    n_surrogates: int = 1000,
    seed: int = 0,
) -> dict[str, LrdTestResult]:
    """Run both statistics against one shared block-bootstrap ensemble.

    Every surrogate permutes the complete blocks, recomputes the automatic
    bandwidth, and evaluates both statistics. Surrogate i takes its block
    order from child i of ``SeedSequence(seed)``, so results do not depend
    on the ``CHUNK_SIZE`` surrogates evaluated together. A surrogate with a
    degenerate variance is redrawn from its own child generator; more than
    ``10 * n_surrogates`` redraws in total abort the run.

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
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")

    observed, bandwidth = _observed(values)
    surrogate_stats, total_redraws = _ensemble(values, block_size, n_surrogates, seed)
    results: dict[str, LrdTestResult] = {}
    for column, kind in enumerate(TEST_KINDS):
        exceed = int(np.sum(surrogate_stats[:, column] >= observed[column]))
        results[kind] = LrdTestResult(
            statistic=float(observed[column]),
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
        series, block_size=block_size, n_surrogates=n_surrogates, seed=seed
    )
    return results[test_kind]
