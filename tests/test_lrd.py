import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lrdkit.lrd as lrd
from lrdkit.errors import (
    ComputationAbortedError,
    DegenerateVarianceError,
    InvalidInputError,
)
from lrdkit.lrd import (
    TEST_KINDS,
    bootstrap_lrd_tests,
    rescaled_range_statistic,
    rescaled_variance_statistic,
)
from lrdkit.series import _row_statistics, auto_bandwidth

from conftest import IID_SIZE_SEEDS
from oracles import m_stat_naive, permute_blocks, v_stat_naive


def scripted_kernel(script):
    """Stand-in for ``lrd._block_kernel``: evaluation i, by any kernel it
    made, gives every order row of every series the value ``script[i]`` for
    both statistics, or marks every row degenerate for None. Its results
    take the real kernel's shapes: ``values.shape[:-1] + (k + 1,)``, the
    k order rows and the series' own order."""
    calls = iter(script)

    def block_kernel(values, block_size):
        def kernel(orders):
            value = next(calls)
            shape = values.shape[:-1] + (len(orders) + 1,)
            statistics = np.full(shape + (2,), np.nan if value is None else value)
            return statistics, np.zeros(shape, dtype=np.int64), np.full(shape, value is None)

        return kernel

    return block_kernel


def observed_one(values, bandwidth=None):
    """Stand-in for ``lrd._row_statistics``: both statistics are 1."""
    return np.ones(2), 0, False


def ar1(phi, n, seed):
    shocks = np.random.default_rng(seed).standard_normal(n)
    x = np.empty(n)
    x[0] = shocks[0]
    for t in range(1, n):
        x[t] = phi * x[t - 1] + shocks[t]
    return x


def serial_ensemble(values, block_size, n_surrogates, seed, second_draw=()):
    """Surrogate statistics one at a time through the public functions, and
    the surrogate bandwidths. Surrogates in ``second_draw`` use the second
    permutation of their generator, as after one redraw."""
    children = np.random.SeedSequence(seed).spawn(n_surrogates)
    stats, bandwidths = np.empty((n_surrogates, 2)), []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        surrogate = permute_blocks(values, block_size, rng)
        if i in second_draw:
            surrogate = permute_blocks(values, block_size, rng)
        q = auto_bandwidth(surrogate)
        stats[i] = rescaled_range_statistic(surrogate, q), rescaled_variance_statistic(surrogate, q)
        bandwidths.append(q)
    return stats, bandwidths


def kernel_ensemble(values, block_size, n_surrogates, seed):
    """``lrd._ensemble`` on the kernel call that ``lrd._panel_tests`` makes
    for a series: its block orders and its own order in one call, with its
    redraws on the same kernel of the series alone."""
    kernel = lrd._block_kernel(values, block_size)
    n_blocks = values.size // block_size
    statistics, _, degenerate = kernel(lrd._block_orders(seed, n_surrogates, n_blocks))
    return lrd._ensemble(kernel, n_blocks, n_surrogates, seed, (statistics, degenerate))


def ks_against_uniform(p_values):
    p = np.sort(np.asarray(p_values))
    n = p.size
    grid = np.arange(1, n + 1) / n
    return max(np.max(grid - p), np.max(p - (grid - 1.0 / n)))


class TestStatistics:
    def test_rescaled_range_hand_value(self):
        stat = rescaled_range_statistic([1.0, 2.0, 3.0], 0)
        assert stat == pytest.approx(0.70711, abs=1e-5)
        assert stat == pytest.approx(v_stat_naive([1.0, 2.0, 3.0], 0), rel=1e-12)

    def test_rescaled_variance_hand_value(self):
        stat = rescaled_variance_statistic([1.0, 2.0, 3.0], 0)
        assert stat == pytest.approx(0.11111, abs=1e-5)
        assert stat == pytest.approx(m_stat_naive([1.0, 2.0, 3.0], 0), rel=1e-12)

    def test_matches_naive_on_random_data(self):
        rng = np.random.default_rng(20)
        for q in (0, 1, 5, 19):
            x = rng.standard_normal(120)
            assert rescaled_range_statistic(x, q) == pytest.approx(
                v_stat_naive(x, q), rel=1e-10
            )
            assert rescaled_variance_statistic(x, q) == pytest.approx(
                m_stat_naive(x, q), rel=1e-10
            )

    def test_affine_invariance(self):
        x = np.random.default_rng(21).standard_normal(200)
        y = 3.0 * x - 2.0
        assert rescaled_range_statistic(y, 7) == pytest.approx(
            rescaled_range_statistic(x, 7), rel=1e-10
        )
        assert rescaled_variance_statistic(y, 7) == pytest.approx(
            rescaled_variance_statistic(x, 7), rel=1e-10
        )

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            rescaled_range_statistic([4.0] * 50, 0)

    def test_bandwidth_out_of_range(self):
        x = np.random.default_rng(22).standard_normal(30)
        with pytest.raises(InvalidInputError):
            rescaled_range_statistic(x, -1)
        with pytest.raises(InvalidInputError):
            rescaled_variance_statistic(x, 30)


class TestPermuteBlocks:
    """The reference surrogates that the ensemble tests compare with."""

    def test_blocks_move_as_units_and_tail_stays(self):
        values = np.arange(10.0)
        rng = np.random.default_rng(3)
        original_blocks = {(0.0, 1.0, 2.0), (3.0, 4.0, 5.0), (6.0, 7.0, 8.0)}
        seen_orders = set()
        for _ in range(20):
            permuted = permute_blocks(values, 3, rng)
            assert permuted[-1] == 9.0
            triples = {tuple(permuted[i : i + 3]) for i in (0, 3, 6)}
            assert triples == original_blocks
            seen_orders.add(tuple(permuted[:9]))
        assert len(seen_orders) > 1

    def test_multiset_preserved(self):
        values = np.random.default_rng(4).standard_normal(57)
        permuted = permute_blocks(values, 10, np.random.default_rng(5))
        assert sorted(permuted.tolist()) == sorted(values.tolist())
        assert np.array_equal(permuted[50:], values[50:])

    def test_seed_determinism(self):
        values = np.random.default_rng(6).standard_normal(40)
        a = permute_blocks(values, 7, np.random.default_rng(8))
        b = permute_blocks(values, 7, np.random.default_rng(8))
        assert np.array_equal(a, b)


class TestBootstrap:
    def test_results_are_deterministic(self):
        x = np.random.default_rng(30).standard_normal(300)
        first = bootstrap_lrd_tests(x, n_surrogates=64, seed=11)
        second = bootstrap_lrd_tests(x, n_surrogates=64, seed=11)
        assert first == second

    def test_p_value_bounds_and_fields(self):
        x = np.random.default_rng(32).standard_normal(300)
        results = bootstrap_lrd_tests(x, n_surrogates=64, seed=13)
        assert set(results) == {"rescaled_range", "rescaled_variance"}
        for kind, result in results.items():
            assert result.test_kind == kind
            assert result.n_surrogates == 64
            assert result.block_size == 25
            assert result.n_redraws == 0
            assert 1.0 / 65.0 <= result.p_value <= 1.0

    def test_series_shorter_than_two_blocks(self):
        x = np.random.default_rng(35).standard_normal(49)
        with pytest.raises(InvalidInputError):
            bootstrap_lrd_tests(x, n_surrogates=10)

    def test_parameter_validation(self):
        x = np.random.default_rng(36).standard_normal(100)
        with pytest.raises(InvalidInputError):
            bootstrap_lrd_tests(x, block_size=0, n_surrogates=10)
        with pytest.raises(InvalidInputError):
            bootstrap_lrd_tests(x, n_surrogates=0)
        with pytest.raises(InvalidInputError):
            bootstrap_lrd_tests(x, n_surrogates=10, seed=-1)

    @pytest.mark.parametrize(
        "length, block_size, n_surrogates",
        # Past MAX_SURROGATES; past 2**28 block orders, within it.
        [(100, 25, 10**6 + 1), (2100, 1, 200_000)],
    )
    def test_surrogate_limits_checked_before_any_draw(self, no_ensemble, length, block_size, n_surrogates):
        x = np.random.default_rng(36).standard_normal(length)
        with pytest.raises(InvalidInputError, match="surrogates"):
            bootstrap_lrd_tests(x, block_size=block_size, n_surrogates=n_surrogates)

    def test_degenerate_surrogates_are_redrawn(self, monkeypatch):
        x = np.random.default_rng(37).standard_normal(60)
        monkeypatch.setattr(lrd, "_row_statistics", observed_one)
        # The first evaluation also gives the series in its own order.
        monkeypatch.setattr(lrd, "_block_kernel", scripted_kernel([None, None, None, 0.5]))
        results = bootstrap_lrd_tests(x, n_surrogates=1, seed=0)
        assert results["rescaled_range"].n_redraws == 3
        assert results["rescaled_variance"].n_redraws == 3
        assert results["rescaled_range"].statistic == 1.0
        assert results["rescaled_range"].p_value == 0.5

    def test_persistent_degeneracy_aborts(self, monkeypatch):
        x = np.random.default_rng(38).standard_normal(60)
        monkeypatch.setattr(lrd, "_row_statistics", observed_one)
        monkeypatch.setattr(lrd, "_block_kernel", scripted_kernel(itertools.repeat(None)))
        with pytest.raises(ComputationAbortedError):
            bootstrap_lrd_tests(x, n_surrogates=2, seed=0)

    def test_values_whose_mean_overflows_match_their_scaled_copy(self):
        # The mean of alternating +-1e308 overflows in data units, but
        # degeneracy is judged on the scaled series alone, so it gets its
        # scaled copy's results.
        x = np.array([1e308, -1e308] * 150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = bootstrap_lrd_tests(x, n_surrogates=50)
        assert results == bootstrap_lrd_tests(np.ldexp(x, -1024), n_surrogates=50)
        assert all(np.isfinite(result.statistic) for result in results.values())


class TestPowerOfTwoScaling:
    """The bootstrap evaluates the series scaled by an exact power of two,
    so its results do not depend on the magnitude of the series."""

    # An AR(1) series whose smallest |x| stays a normal double at x * 2**-1000.
    X = ar1(0.6, 400, seed=41)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @example(j=-1000)
    @example(j=1000)
    @given(j=st.integers(-1000, 1000))
    def test_results_are_identical_at_every_power_of_two(self, j):
        assert np.abs(self.X).min() > 2.0 ** -20
        expected = bootstrap_lrd_tests(self.X, n_surrogates=64, seed=9)
        assert bootstrap_lrd_tests(np.ldexp(self.X, j), n_surrogates=64, seed=9) == expected

    @pytest.mark.parametrize("magnitude", [1e152, 1e-165])
    def test_extreme_magnitudes_give_finite_results(self, magnitude):
        # At 1e152 the profile variance overflowed to inf; at 1e-165 the
        # series variance underflowed and the run was refused.
        x = np.random.default_rng(42).standard_normal(2500)
        expected = bootstrap_lrd_tests(x, n_surrogates=50, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = bootstrap_lrd_tests(x * magnitude, n_surrogates=50, seed=5)
        for kind in TEST_KINDS:
            assert np.isfinite(results[kind].statistic)
            assert results[kind].statistic == pytest.approx(expected[kind].statistic, rel=1e-13)
            assert results[kind].p_value == expected[kind].p_value
            assert results[kind].bandwidth == expected[kind].bandwidth


class TestChunkedEnsemble:
    """The ensemble against the public single-series functions. T = 1013
    leaves a 13-value tail after the blocks of 25."""

    @pytest.mark.parametrize("phi", [0.0, 0.85])
    def test_matches_one_surrogate_at_a_time(self, phi):
        values = ar1(phi, 1013, seed=40)
        stats, redraws, _ = kernel_ensemble(values, 25, 150, 17)
        expected, bandwidths = serial_ensemble(values, 25, 150, 17)
        np.testing.assert_allclose(stats, expected, rtol=1e-12, atol=0)
        assert redraws == 0
        if phi > 0:
            # Bandwidths on both sides of 32 lags, as persistent series give
            # them: cross products one and several blocks apart.
            assert min(bandwidths) <= 32 < max(bandwidths)

        q = auto_bandwidth(values)
        observed = (rescaled_range_statistic(values, q), rescaled_variance_statistic(values, q))
        results = bootstrap_lrd_tests(values, n_surrogates=150, seed=17)
        for column, kind in enumerate(TEST_KINDS):
            exceed = int(np.sum(expected[:, column] >= observed[column]))
            assert results[kind].p_value == (1.0 + exceed) / 151.0
            assert results[kind].bandwidth == q
            assert results[kind].statistic == pytest.approx(observed[column], rel=1e-12)

    def test_degenerate_row_mid_chunk_redrawn_from_its_generator(self, monkeypatch):
        values = ar1(0.5, 1013, seed=41)
        expected, _ = serial_ensemble(values, 25, 150, 17, second_draw={101})
        real = lrd._block_kernel

        def degenerate_row_101_of_first_call(values, block_size):
            kernel, calls = real(values, block_size), []

            def forced(orders):
                statistics, bandwidths, degenerate = kernel(orders)
                calls.append(len(orders))
                if len(calls) == 1:
                    degenerate[101] = True
                return statistics, bandwidths, degenerate

            return forced

        monkeypatch.setattr(lrd, "_block_kernel", degenerate_row_101_of_first_call)
        stats, redraws, _ = kernel_ensemble(values, 25, 150, 17)
        assert redraws == 1
        np.testing.assert_allclose(stats, expected, rtol=1e-12, atol=0)

    def test_block_orders_cached_read_only(self):
        first = lrd._block_orders(5, 10, 7)
        assert lrd._block_orders(5, 10, 7) is first
        assert not first.flags.writeable
        assert first.dtype.itemsize <= 4
        children = np.random.SeedSequence(5).spawn(10)
        assert np.array_equal(first, [np.random.default_rng(c).permutation(7) for c in children])

    @pytest.mark.parametrize("n_blocks, dtype", [(100, np.int16), (32767, np.int16), (32768, np.int32)])
    def test_block_orders_are_int16_below_32768_blocks(self, n_blocks, dtype):
        orders = lrd._block_orders(11, 3, n_blocks)
        assert orders.dtype == dtype
        children = np.random.SeedSequence(11).spawn(3)
        wide = np.array([np.random.default_rng(c).permutation(n_blocks) for c in children], dtype=np.int32)
        assert np.array_equal(orders, wide)


def row_kernel(values, block_size, orders):
    """What the block kernel returns, one surrogate at a time through
    ``series._row_statistics``."""
    n_blocks = values.size // block_size
    blocks = values[: n_blocks * block_size].reshape(n_blocks, block_size)
    tail = values[n_blocks * block_size:]
    rows = [_row_statistics(np.concatenate([blocks[order].ravel(), tail])) for order in orders]
    return np.array([r[0] for r in rows]), np.array([r[1] for r in rows]), np.array([r[2] for r in rows])


class TestBlockKernel:
    @pytest.mark.parametrize("n, block_size, phi, tabled", [
        (1013, 25, 0.0, True),  # 13-value tail; near-white surrogates get q = 0
        (1013, 25, 0.97, True),  # q >= b: products two and more blocks apart
        (1000, 25, 0.9, True),  # no tail
        (1013, 1, 0.5, True),
        (1013, 2, 0.9, True),
        (2101, 2, 0.9, False),  # more than 1023 blocks: block pairs multiplied
        (1100, 1, 0.3, False),
        (2101, 2, 0.0, False),
        (26000, 25, 0.97, False),  # q >= 2b, multiplied
    ])
    def test_matches_row_statistics(self, n, block_size, phi, tabled):
        values = ar1(phi, n, seed=n + block_size)
        n_blocks = n // block_size
        assert ((n_blocks + 1) ** 2 <= lrd.TABLE_ENTRIES) == tabled
        orders = lrd._block_orders(3, 150, n_blocks)
        kernel = lrd._block_kernel(values, block_size)
        full = kernel(orders)
        stats, bandwidths, degenerate = (part[:-1] for part in full)
        expected, expected_bandwidths, expected_degenerate = row_kernel(values, block_size, orders)
        np.testing.assert_allclose(stats, expected, rtol=1e-12, atol=0)
        assert np.array_equal(bandwidths, expected_bandwidths)
        assert not degenerate.any() and not expected_degenerate.any()
        observed = _row_statistics(values)[0]
        assert np.array_equal(np.sum(stats >= observed, axis=0), np.sum(expected >= observed, axis=0))
        if phi == 0.0:
            assert 0 in bandwidths
        if phi == 0.97:
            assert bandwidths.min() >= block_size
        # A redraw evaluates one order row with the own order, rounded as in
        # the ensemble, so a surrogate in the series' own order ties exactly.
        for row in (bandwidths.argmin(), bandwidths.argmax()):
            single, single_bandwidths, _ = kernel(orders[row: row + 1])
            assert np.array_equal(single[0], stats[row])
            assert single_bandwidths[0] == bandwidths[row]
            assert np.array_equal(single[1], full[0][-1]) and single_bandwidths[1] == full[1][-1]

    @pytest.mark.parametrize("n_blocks", [100, 8191, 8192, 10000])
    def test_own_order_rounds_as_alone(self, n_blocks):
        # Every call also evaluates the series' own order, as the last row of
        # its last slice. Every row adds its slots in slot order, in a slice
        # of many rows as in a one-row call, whose one slice holds its row
        # and the own order; so at any number of blocks the own row rounds
        # alike in every call, and as the own order given as an order row.
        block_size = 25 if n_blocks == 100 else 1
        for seed in range(3):
            values = ar1(0.5, n_blocks * block_size + block_size // 2, seed=seed)
            kernel = lrd._block_kernel(values, block_size)
            orders = lrd._block_orders(seed, 12, n_blocks)
            stats, bandwidths, degenerate = kernel(orders)
            alone = kernel(np.arange(n_blocks)[None, :])
            for i in (0, 1):
                assert np.array_equal(stats[-1], alone[0][i])
                assert bandwidths[-1] == alone[1][i] and degenerate[-1] == alone[2][i]
            fewer = kernel(orders[:5])
            assert np.array_equal(stats[:5], fewer[0][:-1]) and np.array_equal(stats[-1], fewer[0][-1])
            assert np.array_equal(bandwidths[:5], fewer[1][:-1]) and bandwidths[-1] == fewer[1][-1]

    def test_each_row_rounds_as_alone_past_8191_blocks(self):
        # At 10,000 blocks of one value each order-free row sums 10,001
        # slots, a long run that einsum, given it alone, would reduce in
        # another order than slot by slot.
        values = ar1(0.5, 10000, seed=6)
        kernel = lrd._block_kernel(values, 1)
        orders = lrd._block_orders(6, 12, 10000)
        stats, bandwidths, degenerate = kernel(orders)
        for i in range(len(orders)):
            alone = kernel(orders[i: i + 1])
            assert np.array_equal(alone[0][0], stats[i])
            assert alone[1][0] == bandwidths[i] and alone[2][0] == degenerate[i]

    @pytest.mark.parametrize("n, block_size", [(2500, 25), (10000, 1)])
    def test_slices_of_two_rows_round_as_wider_slices(self, monkeypatch, n, block_size):
        # A budget of one value leaves a stack of eight series the floor of
        # two rows per slice, which 8 values per slot would not set; one
        # row of one series would be a contiguous run of slots that einsum
        # reduces in another order than slot by slot. Alone, each series
        # takes wider slices.
        stack = np.stack([ar1(0.1 * i, n, seed=8 + i) for i in range(8)])
        orders = lrd._block_orders(8, 12, n // block_size)
        expected = [lrd._block_kernel(values, block_size)(orders) for values in stack]
        monkeypatch.setattr(lrd, "STACK_VALUES", 1)
        for row, values in enumerate(stack):
            for got, want in zip(lrd._block_kernel(stack, block_size)(orders), expected[row]):
                assert np.array_equal(got[row], want)

    @pytest.mark.parametrize("n_series, n_orders", [
        (3, 12),  # slices of 5, 5 and 3 rows: 15, 15 and 9 columns
        (5, 9),  # 5 and 5 rows: 25 and 25 columns
        (1, 10),  # the floor's 8 rows, then 3: an even slice and an odd last one
    ])
    def test_running_totals_at_odd_widths_round_as_alone(self, monkeypatch, n_series, n_orders):
        # The running totals run two columns to a complex add, and an odd
        # last column alone. With a budget of five rows per slice, each
        # series must get the rows of its lone kernel, one slice wide.
        stack = np.stack([ar1(0.2 * i, 1013, seed=9 + i) for i in range(n_series)])
        orders = lrd._block_orders(9, n_orders, 40)
        expected = [lrd._block_kernel(values, 25)(orders) for values in stack]
        monkeypatch.setattr(lrd, "STACK_VALUES", 5 * n_series * 41)
        stacked = lrd._block_kernel(stack, 25)(orders)
        for row in range(n_series):
            for got, want in zip(stacked, expected[row]):
                assert np.array_equal(got[row], want)

    def test_slice_floor_memory_stays_bounded(self):
        # 26,000 one-value blocks of one series: the budget gives no row,
        # so the floor of 8 values per slot sets slices of 8 rows, 9 with
        # the own order. Its two gathers and the slot array with its
        # slot-major copy take 36 values per block; a floor of 16 takes 68.
        values = ar1(0.0, 26000, seed=45)
        orders = lrd._block_orders(3, 200, 26000)
        kernel = lrd._block_kernel(values, 1)
        tracemalloc.start()
        try:
            kernel(orders)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 8 * 26001

    @pytest.mark.parametrize("n, block_size", [(1013, 25), (2101, 2)])
    def test_redraw_rows_equal_their_ensemble_rows(self, n, block_size):
        # A redraw is a call of one order row on a kernel of one series,
        # whose one slice holds that row and the own order: two rows, which
        # einsum adds slot by slot as it does the stacked slices. Every
        # surrogate and the own order of every series of the stack (123
        # rows) must round there as in the ensemble.
        panel = np.stack([ar1(phi, n, seed=70 + i) for i, phi in enumerate((0.0, 0.5, 0.9))])
        stack = lrd._unit_scaled(panel)[0]
        n_blocks = n // block_size
        orders = lrd._block_orders(7, 40, n_blocks)
        stacked = lrd._block_kernel(stack, block_size)(orders)
        for row, values in enumerate(stack):
            kernel = lrd._block_kernel(values, block_size)
            for i, order in enumerate([*orders, np.arange(n_blocks)]):
                for got, alone in zip(stacked, kernel(order[None, :])):
                    assert np.array_equal(got[row, i], alone[0])

    def test_zero_bandwidths_on_multiplied_blocks(self):
        # 1026 blocks of 25 at the default block size: slices of two
        # surrogates whose block pairs are multiplied, most of them with q = 0.
        values = ar1(0.0, 25650, seed=4)
        expected, bandwidths = serial_ensemble(values, 25, 40, 3)
        assert bandwidths.count(0) > 20
        results = bootstrap_lrd_tests(values, n_surrogates=40, seed=3)
        for column, kind in enumerate(TEST_KINDS):
            exceed = int(np.sum(expected[:, column] >= results[kind].statistic))
            assert results[kind].p_value == (1.0 + exceed) / 41.0

    @pytest.mark.parametrize("n, block_size", [(2500, 1), (2047, 2), (25650, 25)])
    def test_memory_stays_bounded(self, n, block_size):
        # Multiplied block pairs of the most and of the longest blocks, and
        # the largest table.
        values = ar1(0.9, n, seed=45)
        lrd._block_orders.cache_clear()
        tracemalloc.start()
        try:
            bootstrap_lrd_tests(values, block_size=block_size, n_surrogates=1000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_lag_products_memory_stays_bounded(self):
        # One-value blocks of a persistent series: bandwidths past 100 lags,
        # each with its own X A_m per lag. This run peaks near 8.6 MiB; with
        # the products held for every lag at once it took 36.6 MiB.
        values = ar1(0.9, 26000, seed=45)
        lrd._block_orders.cache_clear()
        tracemalloc.start()
        try:
            bootstrap_lrd_tests(values, block_size=1, n_surrogates=10, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_surrogate_in_the_original_order_ties(self):
        # Two blocks and a tail: about half the surrogates are the series
        # itself, which the kernel evaluates a few ulps below the observed
        # statistics for this seed.
        values = ar1(0.3, 60, seed=41)
        identity = lrd._block_orders(9, 200, 2)[:, 0] == 0
        stats, _, _ = kernel_ensemble(values, 25, 200, 9)
        results = bootstrap_lrd_tests(values, n_surrogates=200, seed=9)
        for column, kind in enumerate(TEST_KINDS):
            exceed = identity.sum() + np.sum(stats[~identity, column] >= results[kind].statistic)
            assert results[kind].p_value == (1.0 + exceed) / 201.0


class TestNullDistribution:
    def test_p_values_near_uniform_on_iid_noise(self, iid_bootstrap_pvalues):
        for kind in ("rescaled_range", "rescaled_variance"):
            p = iid_bootstrap_pvalues[kind]
            assert p.size == IID_SIZE_SEEDS
            assert ks_against_uniform(p) < 0.15


class TestPanelTests:
    """``lrd._panel_tests`` evaluates the series of one length in stacks;
    each series must get what ``bootstrap_lrd_tests`` gives it alone."""

    @staticmethod
    def panel(lengths, seed=50):
        return [ar1(0.3 + 0.15 * (i % 4), n, seed=seed + i) for i, n in enumerate(lengths)]

    @pytest.mark.parametrize("stack_values", [lrd.STACK_VALUES, 1, 3 * 2100])
    def test_each_series_as_alone(self, monkeypatch, stack_values):
        # The default stacks every series of a length; one value per stack
        # gives stacks of one series and slices of eight rows, the floor; 6,300
        # values split the 2,100-point series into stacks of three.
        panel = self.panel([600, 2100, 600, 2100, 2100, 2100, 2100, 1013])
        monkeypatch.setattr(lrd, "STACK_VALUES", stack_values)
        outcomes = lrd._panel_tests(panel, 25, 60, 8)
        monkeypatch.undo()
        for x, outcome in zip(panel, outcomes):
            assert outcome == bootstrap_lrd_tests(x, n_surrogates=60, seed=8)

    @pytest.mark.parametrize("n, block_size", [(1013, 25), (2101, 2), (10000, 1), (26000, 1)])
    def test_stacked_kernel_rows_equal_lone_kernels(self, n, block_size):
        # Tabled pairs; multiplied pairs; rows of 10,001 slots, past the
        # 8,192 values that einsum sums alone in one part; and 26,001 slots,
        # where the budget gives no row per slice and the floor of 8 values
        # per slot sets the slicing: three rows stacked, eight alone.
        stack = np.stack(self.panel([n] * 3))
        orders = lrd._block_orders(6, 12, n // block_size)
        stacked = lrd._block_kernel(stack, block_size)(orders)
        assert [a.shape[:2] for a in stacked] == [(3, 13)] * 3
        for row, values in enumerate(stack):
            kernel = lrd._block_kernel(values, block_size)
            for got, expected in zip(stacked, kernel(orders)):
                assert np.array_equal(got[row], expected)
            # One surrogate at a time, as a redraw evaluates it, and the own order.
            for i, order in [(0, orders[0]), (7, orders[7]), (12, np.arange(n // block_size))]:
                for got, expected in zip(stacked, kernel(order[None, :])):
                    assert np.array_equal(got[row, i], expected[0])
                    assert np.array_equal(got[row, -1], expected[1])

    def test_block_orders_drawn_once_per_length(self):
        # The orders cache keeps one key, so taking the series in turn drew
        # them again at every change of length.
        panel = self.panel([600, 5000, 600, 5000])
        lrd._block_orders.cache_clear()
        lrd._panel_tests(panel, 25, 100, 3)
        assert lrd._block_orders.cache_info().misses == 2

    def test_errors_take_their_series_place(self):
        noise = self.panel([400, 400, 40])
        panel = [noise[0], np.full(400, 2.0), noise[1], noise[2], [1.0, np.nan, 2.0]]
        outcomes = lrd._panel_tests(panel, 25, 50, 4)
        for index in (0, 2):
            assert outcomes[index] == bootstrap_lrd_tests(panel[index], n_surrogates=50, seed=4)
        for index in (1, 3, 4):
            with pytest.raises(type(outcomes[index]), match=re.escape(str(outcomes[index]))):
                bootstrap_lrd_tests(panel[index], n_surrogates=50, seed=4)
        assert isinstance(outcomes[1], DegenerateVarianceError)
        assert all(isinstance(outcomes[i], InvalidInputError) for i in (3, 4))

    def test_invalid_parameter_fails_every_series(self):
        outcomes = lrd._panel_tests(self.panel([300, 400]), 2.5, 50, 4)
        assert [str(error) for error in outcomes] == ["block size must be an integer, got 2.5"] * 2

    def test_degenerate_surrogates_in_a_stack_redrawn_as_alone(self, monkeypatch):
        # Every surrogate of the second series is forced degenerate in the
        # ensemble call, stacked or alone. Each is redrawn from its own
        # generator on a kernel of that series alone, as in the lone run.
        panel = self.panel([1013, 1013, 1013])
        second = lrd._unit_scaled(panel[1])[0]
        real = lrd._block_kernel

        def forced(values, block_size):
            kernel = real(values, block_size)
            match = np.array([np.array_equal(row, second) for row in values.reshape(-1, values.shape[-1])])

            def call(orders):
                statistics, bandwidths, degenerate = kernel(orders)
                if len(orders) > 1:
                    degenerate.reshape(match.size, -1)[match, : len(orders)] = True
                return statistics, bandwidths, degenerate

            return call

        monkeypatch.setattr(lrd, "_block_kernel", forced)
        outcomes = lrd._panel_tests(panel, 25, 40, 6)
        alone = bootstrap_lrd_tests(panel[1], n_surrogates=40, seed=6)
        monkeypatch.undo()
        assert outcomes[1]["rescaled_range"].n_redraws == 40
        assert outcomes[1] == alone
        expected, _ = serial_ensemble(panel[1], 25, 40, 6, second_draw=set(range(40)))
        for column, kind in enumerate(TEST_KINDS):
            exceed = int(np.sum(expected[:, column] >= outcomes[1][kind].statistic))
            assert outcomes[1][kind].p_value == (1.0 + exceed) / 41.0
        for index in (0, 2):
            assert outcomes[index] == bootstrap_lrd_tests(panel[index], n_surrogates=40, seed=6)

    @pytest.mark.parametrize("n_series, n, block_size, n_surrogates", [
        (24, 2500, 25, 1000),  # the benchmark panel's shape
        (4, 25650, 25, 1000),  # multiplied block pairs; stacks of two series
        (4, 25650, 1, 100),  # 25,650 one-value blocks; stacks of two series, slices of four rows
    ])
    def test_memory_stays_bounded(self, n_series, n, block_size, n_surrogates):
        panel = [ar1(0.0 if block_size == 1 else 0.9, n, seed=60 + i) for i in range(n_series)]
        lrd._block_orders.cache_clear()
        tracemalloc.start()
        try:
            outcomes = lrd._panel_tests(panel, block_size, n_surrogates, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not any(isinstance(outcome, Exception) for outcome in outcomes)
        assert peak <= 16 * 2**20

    def test_large_ensemble_memory_stays_that_of_one_series(self):
        # A stack's per-surrogate results come from the same budget as its
        # tables: 24 short series at 10^5 surrogates run one at a time and
        # peak near one series' run, not 24 times it.
        panel = self.panel([50] * 24)
        lrd._block_orders(3, 100_000, 10)  # drawn before tracing, shared by both runs
        peaks, outcomes = [], []
        for members in (panel[:1], panel):
            tracemalloc.start()
            try:
                outcomes.append(lrd._panel_tests(members, 5, 100_000, 3))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert outcomes[1][0] == outcomes[0][0]
        assert peaks[1] <= 2 * peaks[0]
