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
from .series import _as_int, _lag, _lo_bandwidth, _row_statistics, _row_sums, _unit_scaled, as_values
from .surrogates import MAX_SURROGATES

__all__ = [
    "TEST_KINDS",
    "LrdTestResult",
    "rescaled_range_statistic",
    "rescaled_variance_statistic",
    "bootstrap_lrd_tests",
]

TEST_KINDS = ("rescaled_range", "rescaled_variance")

# Entries of the largest (B + 1)^2 table of block-pair products (8 MB), past
# which the pairs are multiplied, and per slice of surrogates: with tables,
# (k, B + 1) block quantities stay below the allocator's mmap threshold;
# without, the (k, B + 1, b) blocks of the multiplied pairs are held to 512 kB.
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
    """Both statistics of one series, and its bandwidth (automatic if None).

    Both are scale-free, so they are taken of the series scaled by an exact
    power of two (``series._unit_scaled``): the same for ``x * 2**j`` as for
    ``x``, and finite at magnitudes such as 1e152 or 1e-165. A series whose
    mean overflows in data units, as alternating values of +-1e308 do, is
    still refused as degenerate, as ``hac_variance`` refuses it.
    """
    bandwidth = None if bandwidth is None else _lag(bandwidth, values.size)
    statistics, bandwidth, degenerate = _row_statistics(_unit_scaled(values)[0], bandwidth)
    with np.errstate(over="ignore", invalid="ignore"):
        degenerate |= not np.isfinite(values.mean())
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
    w(m b + i' - i), for each bandwidth q and m <= ceil(q / b). Up to
    ``TABLE_ENTRIES``, F_m is one (B + 1)^2 table and each surrogate looks up
    its B entries; past it, each surrogate multiplies its B pairs, rows o_j
    of X A_m against rows o_{j+m} of X. Lo's lag-1 product pairs the last
    and first values of adjacent blocks. The profile is the running total of
    the block sums plus each block's own partial sums, whose extremes and
    moments are tabled. Returns a function of (k, B) block orders that gives,
    as arrays, what ``series._row_statistics`` gives for each surrogate.
    Every row is summed alone (``series._row_sums``), so a row rounds the
    same whatever other rows it is evaluated with, at any B. With
    ``own=True`` the series' own order is evaluated too, as a last row of
    the last slice, sharing the ensemble's tables.
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

    def slots(orders: np.ndarray, own: bool = False) -> np.ndarray:
        """(k, B + 1) block indices by slot, with the series' own order as
        one more row if ``own``; the tail is last."""
        o = np.empty((len(orders) + own, n_blocks + 1), dtype=np.intp)
        o[: len(orders), :-1], o[:, -1] = orders, n_blocks
        if own:
            o[-1, :-1] = np.arange(n_blocks)
        return o

    def order_free(o: np.ndarray) -> tuple:
        """Lag-1 products, profile range and profile sum of squares of each row."""
        lag1 = _row_sums("kj,kj->k", np.take(blocks[:, -1], o)[:, :-1], np.take(blocks[:, 0], o)[:, 1:])
        ends = np.cumsum(np.take(sums, o), axis=1)
        spread = (ends + np.take(peaks, o)).max(axis=1) - (ends + np.take(troughs, o)).min(axis=1)
        centres = ends + np.take(means, o)
        centres -= _row_sums("kj,j->k", centres, lengths)[:, None] / n
        return lag1_within + lag1, spread, spread_ss + _row_sums("kj,kj,j->k", centres, centres, lengths)

    def kernel(orders: np.ndarray, own: bool = False):
        k = len(orders)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            parts = [order_free(slots(orders[start: start + step], own and start + step >= k))
                     for start in range(0, k, step)]
            lag1, spread, prof_var = map(np.concatenate, zip(*parts))
            rho = lag1 / gamma0
            degenerate = ~(np.abs(rho) < 1.0)
            bandwidths = np.where(degenerate, 0, _lo_bandwidth(n, rho)).astype(np.int64)
            cross = np.empty(k + own)
            for q in np.unique(bandwidths):
                group = np.flatnonzero(bandwidths == q)
                slices = np.array_split(group, range(step, group.size, step))
                lag = b * np.arange(-(-q // b) + 1)[:, None, None] + np.arange(b) - np.arange(b)[:, None]
                weighted = blocks @ np.where(lag > 0, np.maximum(1.0 - lag / (q + 1.0), 0.0), 0.0)
                cross[group] = np.sum(weighted[0] * blocks)
                for m in range(1, len(weighted)):
                    table = (weighted[m] @ blocks.T).ravel() if tabled else None
                    for rows in slices:
                        # Row k, the own order, is last in its slice.
                        mine = own and bool(rows[-1] == k)
                        o = slots(orders[rows[: rows.size - mine]], mine)
                        if tabled:
                            pairs = np.take(table, o[:, :-m] * (n_blocks + 1) + o[:, m:])
                        else:
                            pairs = np.take(weighted[m], o[:, :-m], axis=0) * np.take(blocks, o[:, m:], axis=0)
                        cross[rows] += pairs.reshape(len(rows), -1).sum(axis=1)
                    del table  # before the next one is built: at most one is held
            s2 = (gamma0 + 2.0 * cross) / n
            statistics = np.stack([spread / np.sqrt(s2 * n), prof_var / (n * n * s2)], axis=1)
        return statistics, bandwidths, degenerate | ~(np.isfinite(s2) & (s2 > 0.0))

    return kernel


def _ensemble(kernel, n_blocks: int, n_surrogates: int, seed: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Statistics of every surrogate as (n_surrogates, 2), the redraws, and
    the statistics of the series in its own order, from the same call."""
    statistics, _, degenerate = kernel(_block_orders(seed, n_surrogates, n_blocks), own=True)
    own, statistics, degenerate = statistics[-1], statistics[:-1], degenerate[:-1]
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
    return statistics, redraws, own


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
    block quantities (``_block_kernel``) in O(B (q / b + 1)) for B blocks
    and bandwidth q, times b past the pair tables. A surrogate with a
    degenerate variance is redrawn from its own child generator; more than
    ``10 * n_surrogates`` redraws in total abort the run. At most
    ``MAX_SURROGATES`` surrogates and 2**28 block orders in all are drawn.
    The series and its surrogates are evaluated scaled by an exact power of
    two (``series._unit_scaled``), so ``x * 2**j`` gives the same results as
    ``x`` and magnitudes such as 1e152 or 1e-165 neither overflow nor
    underflow; ``_observed`` still refuses a series whose mean overflows.

    Returns a dict keyed by test kind.
    """
    block_size = _as_int(block_size, "block size")
    n_surrogates = _as_int(n_surrogates, "surrogate count")
    seed = _as_int(seed, "seed")
    values = as_values(series, min_length=2)
    n = values.size
    if block_size < 1:
        raise InvalidInputError(f"block size must be positive, got {block_size}")
    if n < 2 * block_size:
        raise InvalidInputError(
            f"need at least {2 * block_size} observations for block size {block_size}, got {n}"
        )
    if not 1 <= n_surrogates <= MAX_SURROGATES:
        raise InvalidInputError(f"need 1 to {MAX_SURROGATES} surrogates, got {n_surrogates}")
    if n_surrogates * (n // block_size) > 1 << 28:  # 512 MiB of int16 block orders
        raise InvalidInputError(f"{n_surrogates} surrogates of {n // block_size} blocks pass 2**28 block orders")
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")

    observed, bandwidth = _observed(values)
    kernel = _block_kernel(_unit_scaled(values)[0], block_size)
    surrogate_stats, total_redraws, own = _ensemble(kernel, n // block_size, n_surrogates, seed)
    # The series in its own order ties the observed statistics, but the
    # kernel rounds it differently: a surrogate reaching either value counts.
    threshold = np.fmin(observed, own)
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
