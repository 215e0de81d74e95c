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
from .series import _lo_bandwidth, _row_statistics, as_values

__all__ = [
    "TEST_KINDS",
    "LrdTestResult",
    "rescaled_range_statistic",
    "rescaled_variance_statistic",
    "block_bootstrap_test",
    "bootstrap_lrd_tests",
]

TEST_KINDS = ("rescaled_range", "rescaled_variance")

# Entries of the largest (B + 1)^2 table of block-pair products (8 MB), and
# per slice of surrogates: (k, B + 1) block quantities stay below the
# allocator's mmap threshold; (k, T) surrogate rows need longer slices.
TABLE_ENTRIES, TABLE_SLICE, ROW_SLICE = 1 << 20, 1 << 13, 1 << 16


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


def _observed(values: np.ndarray, bandwidth: int | None = None) -> tuple[np.ndarray, int]:
    """Both statistics of one series, and its bandwidth (automatic if None)."""
    if bandwidth is not None and not 0 <= bandwidth < values.size:
        raise InvalidInputError(f"bandwidth must lie in [0, {values.size - 1}], got {bandwidth}")
    statistics, bandwidth, degenerate = _row_statistics(values, bandwidth)
    if degenerate:
        raise DegenerateVarianceError(
            "series variance is zero or not finite, or its long-run variance is not positive"
        )
    return statistics, bandwidth


def rescaled_range_statistic(series, bandwidth: int) -> float:
    """Modified rescaled range: profile range over S * sqrt(T)."""
    return float(_observed(as_values(series, min_length=2), bandwidth)[0][0])


def rescaled_variance_statistic(series, bandwidth: int) -> float:
    """Rescaled variance: population variance of the profile over T * S^2."""
    return float(_observed(as_values(series, min_length=2), bandwidth)[0][1])


@functools.lru_cache(maxsize=1)
def _block_orders(seed: int, n_surrogates: int, n_blocks: int) -> np.ndarray:
    """Read-only (n_surrogates, n_blocks) block orders: row i is the first
    permutation drawn from child i of ``SeedSequence(seed)``.

    Only the last key is kept: a panel of equal-length series tested with
    one seed draws the orders once. They are int16 below 32768 blocks, half
    the size of int32; ``slots`` widens each slice it evaluates.
    """
    children = np.random.SeedSequence(seed).spawn(n_surrogates)
    dtype = np.int16 if n_blocks < 32768 else np.int32
    orders = np.empty((n_surrogates, n_blocks), dtype=dtype)
    for row, child in zip(orders, children):
        row[:] = np.random.default_rng(child).permutation(n_blocks)
    orders.flags.writeable = False
    return orders


def _block_kernel(values: np.ndarray, block_size: int):
    """Statistics of block-bootstrap surrogates from per-block tables.

    The centred series is cut into B complete blocks, the rows of X, and the
    tail, zero-padded to row B, which stays last in every surrogate. The
    variance and the products within a block do not depend on the order.
    The Bartlett-weighted products between the blocks in slots j and j + m
    sum to F_m[o_j, o_{j+m}], with F_m = X A_m X^T and A_m[i, i'] =
    w(m b + i' - i): one (B + 1)^2 table per bandwidth q and m <= ceil(q / b).
    Lo's lag-1 product pairs the last and first values of adjacent blocks.
    The profile is the running total of the block sums plus each block's own
    partial sums, whose extremes and moments are tabled. Past
    ``TABLE_ENTRIES``, all of these come from the gathered surrogate rows
    instead. Returns a function of (k, B) block orders that gives, as arrays,
    what ``series._row_statistics`` gives for each surrogate. With tables, a
    row rounds the same whatever other rows it is evaluated with.
    """
    n, b = values.size, block_size
    n_blocks = n // b
    blocks = np.zeros((n_blocks + 1, b))
    blocks.flat[:n] = values - values.mean()
    lengths = np.full(n_blocks + 1, float(b))
    lengths[-1] = n - n_blocks * b
    partial = np.cumsum(blocks, axis=1)
    real = np.arange(b) < lengths[:, None]
    means = np.where(real, partial, 0.0).sum(axis=1) / np.maximum(lengths, 1.0)
    spread_ss = np.sum(np.where(real, partial - means[:, None], 0.0) ** 2)
    # Profile offsets within each block, from the block's end.
    sums = partial[:, -1]
    peaks, troughs, means = partial.max(axis=1) - sums, partial.min(axis=1) - sums, means - sums
    gamma0 = np.sum(blocks * blocks)
    lag1_within = np.sum(blocks[:, :-1] * blocks[:, 1:])
    tabled = (n_blocks + 1) ** 2 <= TABLE_ENTRIES
    step = max(1, TABLE_SLICE // (n_blocks + 1) if tabled else ROW_SLICE // blocks.size)

    def slots(orders: np.ndarray) -> np.ndarray:
        """(k, B + 1) block indices by slot; the tail is last."""
        o = np.empty((len(orders), n_blocks + 1), dtype=np.intp)
        o[:, :-1], o[:, -1] = orders, n_blocks
        return o

    def order_free(o: np.ndarray) -> tuple:
        """Lag-1 products, profile range and profile sum of squares of each row."""
        lag1 = np.einsum("kj,kj->k", np.take(blocks[:, -1], o)[:, :-1], np.take(blocks[:, 0], o)[:, 1:])
        ends = np.cumsum(np.take(sums, o), axis=1)
        spread = (ends + np.take(peaks, o)).max(axis=1) - (ends + np.take(troughs, o)).min(axis=1)
        centres = ends + np.take(means, o)
        centres -= np.einsum("kj,j->k", centres, lengths)[:, None] / n
        return lag1_within + lag1, spread, spread_ss + np.einsum("kj,kj,j->k", centres, centres, lengths)

    def from_rows(o: np.ndarray) -> tuple:
        """As ``order_free``, from the gathered surrogate rows."""
        x = np.take(blocks, o, axis=0).reshape(len(o), -1)[:, :n]
        profile = np.cumsum(x, axis=1)
        spread = profile.max(axis=1) - profile.min(axis=1)
        profile -= profile.mean(axis=1, keepdims=True)
        return np.einsum("kt,kt->k", x[:, :-1], x[:, 1:]), spread, np.einsum("kt,kt->k", profile, profile)

    def kernel(orders: np.ndarray):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            parts = [(order_free if tabled else from_rows)(slots(orders[start: start + step]))
                     for start in range(0, len(orders), step)]
            lag1, spread, prof_var = map(np.concatenate, zip(*parts))
            rho = lag1 / gamma0
            degenerate = ~(np.abs(rho) < 1.0)
            bandwidths = np.where(degenerate, 0, _lo_bandwidth(n, rho)).astype(np.int64)
            cross = np.empty(len(orders))
            for q in np.unique(bandwidths):
                group = np.flatnonzero(bandwidths == q)
                slices = np.array_split(group, range(step, group.size, step))
                if not tabled:
                    weights = 1.0 - np.arange(1, q + 1) / (q + 1.0)
                    for rows in slices:
                        x = np.take(blocks, slots(orders[rows]), axis=0).reshape(len(rows), -1)
                        cross[rows] = sum((w * np.einsum("kt,kt->k", x[:, :-lag], x[:, lag:])
                                           for lag, w in enumerate(weights, 1)), np.zeros(len(rows)))
                    continue
                lag = b * np.arange(-(-q // b) + 1)[:, None, None] + np.arange(b) - np.arange(b)[:, None]
                weighted = blocks @ np.where(lag > 0, np.maximum(1.0 - lag / (q + 1.0), 0.0), 0.0)
                cross[group] = np.sum(weighted[0] * blocks)
                for m in range(1, len(weighted)):
                    table = (weighted[m] @ blocks.T).ravel()
                    for rows in slices:
                        o = slots(orders[rows])
                        cross[rows] += np.take(table, o[:, :-m] * (n_blocks + 1) + o[:, m:]).sum(axis=1)
                    del table  # before the next one is built: at most one is held
            s2 = (gamma0 + 2.0 * cross) / n
            statistics = np.stack([spread / np.sqrt(s2 * n), prof_var / (n * n * s2)], axis=1)
        return statistics, bandwidths, degenerate | ~(np.isfinite(s2) & (s2 > 0.0))

    return kernel


def _ensemble(kernel, n_blocks: int, n_surrogates: int, seed: int) -> tuple[np.ndarray, int]:
    """Statistics of every surrogate as (n_surrogates, 2), and the redraws."""
    statistics, _, degenerate = kernel(_block_orders(seed, n_surrogates, n_blocks))
    redraw_budget = 10 * n_surrogates
    redraws = 0
    for index in np.flatnonzero(degenerate):
        # Continue surrogate ``index``'s own generator past its first draw.
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(int(index),)))
        rng.permutation(n_blocks)
        while degenerate[index]:
            redraws += 1
            if redraws > redraw_budget:
                raise ComputationAbortedError(f"redraws exceeded the budget of {redraw_budget}")
            pairs, _, again = kernel(rng.permutation(n_blocks)[None, :])
            statistics[index], degenerate[index] = pairs[0], again[0]
    return statistics, redraws


def bootstrap_lrd_tests(
    series,
    block_size: int = 25,
    n_surrogates: int = 1000,
    seed: int = 0,
) -> dict[str, LrdTestResult]:
    """Run both statistics against one shared block-bootstrap ensemble.

    Every surrogate permutes the complete blocks, recomputes the automatic
    bandwidth, and evaluates both statistics. Surrogate i takes its block
    order from child i of ``SeedSequence(seed)`` and is evaluated from per-
    block tables (``_block_kernel``) in O(B (q / b + 1)) for B blocks and
    bandwidth q. A surrogate with a degenerate variance is redrawn from its
    own child generator; more than ``10 * n_surrogates`` redraws in total
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
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")

    observed, bandwidth = _observed(values)
    kernel = _block_kernel(values, block_size)
    surrogate_stats, total_redraws = _ensemble(kernel, n // block_size, n_surrogates, seed)
    # The series in its own order ties the observed statistics, but the
    # kernel rounds it differently: a surrogate reaching either value counts.
    threshold = np.fmin(observed, kernel(np.arange(n // block_size)[None, :])[0][0])
    results: dict[str, LrdTestResult] = {}
    for column, kind in enumerate(TEST_KINDS):
        exceed = int(np.sum(surrogate_stats[:, column] >= threshold[column]))
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
