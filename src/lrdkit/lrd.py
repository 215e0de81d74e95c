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
    ToolkitError,
)
from .series import STACK_VALUES, _as_int, _lag, _lo_bandwidth, _row_statistics, _unit_scaled, as_values
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
# which the pairs are multiplied. STACK_VALUES bounds each (B + 1, k, S)
# order-free quantity of S series and k rows, as far as slices of at least
# two rows and 8 values per slot allow, the S n values of one stack's tables
# and the S (k + 1) values of each of its results, and per series the
# (k, B + 1, b) blocks of the multiplied pairs. Looked-up pairs take an
# eighth of it, so that their (k, B + 1) index arrays stay below the
# allocator's mmap threshold.
TABLE_ENTRIES = 1 << 20


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
    ``x``, and finite at magnitudes such as 1e152, 1e-165 or alternating
    values of +-1e308, whose mean overflows in data units. Only a zero or
    non-finite long-run variance of the scaled series is refused.
    """
    bandwidth = None if bandwidth is None else _lag(bandwidth, values.size)
    statistics, bandwidth, degenerate = _row_statistics(_unit_scaled(values)[0], bandwidth)
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

    Only the last key is kept: ``_panel_tests`` evaluates the series of one
    length together, so a panel tested with one seed draws the orders once
    per length. They are int16 below 32768 blocks, half the size of int32;
    ``slots`` widens each slice it evaluates.
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

    ``values`` is one series, or an (S, n) stack of series of one length,
    which share the block orders. Each series is centred and cut into B
    complete blocks, the rows of X, and the tail, zero-padded to row B,
    which stays last in every surrogate. The variance and the products
    within a block do not depend on the order. The Bartlett-weighted
    products between the blocks in slots j and j + m sum to
    F_m[o_j, o_{j+m}], with F_m = X A_m X^T and A_m[i, i'] = w(m b + i' - i),
    for each bandwidth q and m <= ceil(q / b). Up to ``TABLE_ENTRIES``, F_m
    is one (B + 1)^2 table and each surrogate looks up its B entries; past
    it, each surrogate multiplies its B pairs, rows o_j of X A_m against
    rows o_{j+m} of X. Lo's lag-1 product pairs the last and first values of
    adjacent blocks. The profile is the running total of the block sums
    plus each block's own partial sums, whose extremes and moments are
    tabled. These order-free parts are evaluated for the whole stack at
    once: each slice of ``STACK_VALUES // (S (B + 1))`` rows, but at least
    two and at least 8 / S, builds its slots once, copies them slot-major
    and gathers from six slot-major (B + 1, S) per-block tables, so one
    gathered row holds a block's value for every series. The floor of 8
    values per gathered slot keeps the reductions along the slots off rows
    of two or four values on long series of small blocks, where each slot
    costs a step of numpy's outer loop; the budget gives most shapes wider
    slices anyway. The running totals along the slots are taken on a complex
    view of each slice, two columns per add, and an odd last column alone:
    numpy adds the real and imaginary parts apart, so every column gets the
    sums it gets alone, and the two adds of a step do not wait on each
    other. The cross products depend on each series' bandwidths and pair
    tables, so they run series by series, reading the slots C-ordered and
    holding at most one table. Returns a function of (k, B) block orders
    that gives, as arrays with the stack's leading axis, what
    ``series._row_statistics`` gives for each series and surrogate, and as
    row k for the series' own order, which joins the last slice and shares
    the ensemble's tables. Each
    per-series, per-surrogate sum adds its slots in slot order, in every
    stack and slice, as every slice holds at least two rows. So a row
    rounds the same whatever other rows and series it is evaluated with, at
    any B: each series of a stack gets what it gets alone, and a redraw,
    one order row with the own order, what it would get in the ensemble.
    """
    stack = values.reshape(-1, values.shape[-1])
    n_series, n = stack.shape
    b = block_size
    n_blocks = n // b
    blocks = np.zeros((n_series, n_blocks + 1, b))
    blocks.reshape(n_series, -1)[:, :n] = stack - stack.mean(axis=1, keepdims=True)
    lengths = np.full(n_blocks + 1, float(b))
    lengths[-1] = n - n_blocks * b
    partial = np.cumsum(blocks, axis=2)
    real = np.arange(b) < lengths[:, None]
    means = np.where(real, partial, 0.0).sum(axis=2) / np.maximum(lengths, 1.0)
    spread_ss = (np.where(real, partial - means[..., None], 0.0) ** 2).reshape(n_series, -1).sum(axis=1)
    # Per-block tables, slot-major (B + 1, S): the last and first values, the
    # sums, and the profile offsets within each block, from the block's end.
    sums = partial[..., -1]
    lasts, firsts, sums, peaks, troughs, means = (np.ascontiguousarray(table.T) for table in (
        blocks[..., -1], blocks[..., 0], sums, partial.max(axis=2) - sums, partial.min(axis=2) - sums, means - sums))
    gamma0 = (blocks * blocks).reshape(n_series, -1).sum(axis=1)
    lag1_within = (blocks[..., :-1] * blocks[..., 1:]).reshape(n_series, -1).sum(axis=1)
    tabled = (n_blocks + 1) ** 2 <= TABLE_ENTRIES
    step = max(2, -(-8 // n_series), STACK_VALUES // (n_series * (n_blocks + 1)))
    cross_step = max(1, (STACK_VALUES >> 3) // (n_blocks + 1) if tabled else STACK_VALUES // blocks[0].size)

    def slots(orders: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """C-ordered (len(rows), B + 1) block indices by slot of the given
        ascending ``rows`` of the orders, where row k = len(orders) is the
        series' own order; the tail is last."""
        o = np.empty((len(rows), n_blocks + 1), dtype=np.intp)
        theirs = rows[rows < len(orders)]
        o[len(theirs):, :-1] = np.arange(n_blocks)
        o[: len(theirs), :-1], o[:, -1] = orders[theirs], n_blocks
        return o

    def order_free(orders: np.ndarray, rows: np.ndarray, work: np.ndarray) -> tuple:
        """Lag-1 products, profile range and profile sum of squares of each
        series and row of ``slots(orders, rows)``, as (S, len(rows)) arrays.
        The gathered tables go to two (B + 1, len(rows), S) blocks carved
        from ``work``, one array that every slice of a kernel call reuses,
        so each gathered element is one block's value for every series. Each
        (row, series) sum adds its slots in slot order, as einsum adds along
        the leading axis of at least two rows, and as cumsum adds each
        column, two columns to a complex element."""
        o = np.ascontiguousarray(slots(orders, rows).T)
        size = o.size * n_series
        ends, other = (work[i * size: (i + 1) * size].reshape(o.shape + (n_series,)) for i in range(2))

        def gather(table, out):
            return np.take(table, o, axis=0, out=out, mode="clip")

        lag1 = np.einsum("jks,jks->ks", gather(lasts, ends)[:-1], gather(firsts, other)[1:])
        totals, block_sums = (part.reshape(len(o), -1) for part in (ends, gather(sums, other)))
        even = totals.shape[1] & -2
        np.cumsum(block_sums[:, :even].view(np.complex128), axis=0, out=totals[:, :even].view(np.complex128))
        np.cumsum(block_sums[:, even:], axis=0, out=totals[:, even:])
        spread = np.add(ends, gather(peaks, other), out=other).max(axis=0)
        spread -= np.add(ends, gather(troughs, other), out=other).min(axis=0)
        centres = np.add(ends, gather(means, other), out=other)
        centres -= np.einsum("jks,j->ks", centres, lengths) / n
        prof_ss = np.einsum("jks,jks,j->ks", centres, centres, lengths)
        return tuple(part.T for part in (lag1_within + lag1, spread, spread_ss + prof_ss))

    def cross_products(x: np.ndarray, orders: np.ndarray, bandwidths: np.ndarray) -> np.ndarray:
        """Each row's Bartlett-weighted products between the blocks X = ``x``
        of one series, at that series' ``bandwidths``."""
        cross = np.empty(len(orders) + 1)
        for q in np.unique(bandwidths):
            group = np.flatnonzero(bandwidths == q)
            slices = np.array_split(group, range(cross_step, group.size, cross_step))
            lag = b * np.arange(-(-q // b) + 1)[:, None, None] + np.arange(b) - np.arange(b)[:, None]
            weights = np.where(lag > 0, np.maximum(1.0 - lag / (q + 1.0), 0.0), 0.0)
            cross[group] = np.sum((x @ weights[0]) * x)
            for m in range(1, len(weights)):
                # One lag's X A_m at a time: about n values, not n per lag.
                weighted = x @ weights[m]
                table = (weighted @ x.T).ravel() if tabled else None
                for rows in slices:
                    o = slots(orders, rows)
                    if tabled:
                        index = o[:, :-m] * (n_blocks + 1)
                        index += o[:, m:]
                        pairs = np.take(table, index)
                    else:
                        pairs = np.take(weighted, o[:, :-m], axis=0) * np.take(x, o[:, m:], axis=0)
                    cross[rows] += pairs.reshape(len(rows), -1).sum(axis=1)
                del table  # before the next one is built: at most one is held
        return cross

    def kernel(orders: np.ndarray):
        k = len(orders)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # Slices of ``step`` rows; the last takes row k too, up to step + 1.
            work = np.empty(2 * n_series * (min(step, k) + 1) * (n_blocks + 1))
            parts = [order_free(orders, rows, work) for rows in np.array_split(np.arange(k + 1), range(step, k, step))]
            lag1, spread, prof_var = (np.concatenate(part, axis=1) for part in zip(*parts))
            rho = lag1 / gamma0[:, None]
            degenerate = ~(np.abs(rho) < 1.0)
            bandwidths = np.where(degenerate, 0, _lo_bandwidth(n, rho)).astype(np.int64)
            cross = np.stack([cross_products(x, orders, row) for x, row in zip(blocks, bandwidths)])
            s2 = (gamma0[:, None] + 2.0 * cross) / n
            statistics = np.stack([spread / np.sqrt(s2 * n), prof_var / (n * n * s2)], axis=-1)
        degenerate |= ~(np.isfinite(s2) & (s2 > 0.0))
        shape = values.shape[:-1] + (k + 1,)
        return statistics.reshape(shape + (2,)), bandwidths.reshape(shape), degenerate.reshape(shape)

    return kernel


def _ensemble(kernel, n_blocks: int, n_surrogates: int, seed: int,
              evaluated: tuple) -> tuple[np.ndarray, int, np.ndarray]:
    """Statistics of every surrogate as (n_surrogates, 2), the redraws, and
    the statistics of the series in its own order. ``evaluated`` is the
    series' statistics and degenerate flags from a kernel call over the
    block orders and its own order. Redraws run on ``kernel``, a kernel of
    the series alone."""
    statistics, degenerate = evaluated
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


def _checked(series, block_size: int, n_surrogates: int, seed: int) -> np.ndarray:
    """The values of ``series`` once the bootstrap's checks of it and of
    the whole-number parameters pass; raises the first that fails. At most
    ``MAX_SURROGATES`` surrogates and 2**28 block orders in all."""
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
    return values


def _panel_tests(panel, block_size: int, n_surrogates: int, seed: int) -> list:
    """What :func:`bootstrap_lrd_tests` gives for each series of ``panel``:
    its results, or the ``ToolkitError`` it raises. Raises none itself.

    Series of one length share their block orders, drawn once, and one
    ``_block_kernel`` stack holds up to ``STACK_VALUES // max(n, k + 1)`` of
    them for k surrogates (at least one), which bounds its tables and its
    per-surrogate results as its slices bound its gathers. Its one call
    gives every surrogate and, as the last row, each series in its own
    order. Every row adds its slots in slot order, so each series gets what
    it gets alone; a series with degenerate surrogates redraws them on a
    kernel of its own.
    """
    try:
        block_size = _as_int(block_size, "block size")
        n_surrogates = _as_int(n_surrogates, "surrogate count")
        seed = _as_int(seed, "seed")
    except InvalidInputError as error:
        return [error] * len(panel)
    outcomes, lengths = [], {}
    for series in panel:
        try:
            values = _checked(series, block_size, n_surrogates, seed)
            outcomes.append(_observed(values))
        except ToolkitError as error:
            outcomes.append(error)
        else:
            lengths.setdefault(values.size, []).append((len(outcomes) - 1, values))
    for n, members in lengths.items():
        n_blocks = n // block_size
        orders = _block_orders(seed, n_surrogates, n_blocks)
        width = max(1, STACK_VALUES // max(n, n_surrogates + 1))
        for start in range(0, len(members), width):
            indices, rows = zip(*members[start: start + width])
            stack = _unit_scaled(np.stack(rows))[0]
            statistics, _, degenerate = _block_kernel(stack, block_size)(orders)
            for row, index in enumerate(indices):
                alone = _block_kernel(stack[row], block_size) if degenerate[row, :-1].any() else None
                try:
                    ensemble = _ensemble(alone, n_blocks, n_surrogates, seed, (statistics[row], degenerate[row]))
                except ComputationAbortedError as error:
                    outcomes[index] = error
                else:
                    observed, bandwidth = outcomes[index]
                    outcomes[index] = _results(observed, bandwidth, *ensemble, block_size)
    return outcomes


def _results(observed, bandwidth: int, surrogate_stats, redraws: int, own, block_size: int) -> dict:
    """Both tests' results from the observed statistics and the ensemble."""
    n_surrogates = len(surrogate_stats)
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
            n_redraws=redraws,
        )
    return results


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
    ``x`` and magnitudes such as 1e152, 1e-165 or +-1e308 neither overflow
    nor underflow.
    This is the one-series case of ``_panel_tests``, which evaluates the
    series of one length together and gives each the results it gets here.

    Returns a dict keyed by test kind.
    """
    (outcome,) = _panel_tests([series], block_size, n_surrogates, seed)
    if isinstance(outcome, ToolkitError):
        raise outcome
    return outcome
