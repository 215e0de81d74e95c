import itertools
import tracemalloc

import numpy as np
import pytest

import lrdkit.lrd as lrd
from lrdkit.errors import (
    ComputationAbortedError,
    DegenerateVarianceError,
    InvalidInputError,
)
from lrdkit.lrd import (
    TEST_KINDS,
    block_bootstrap_test,
    bootstrap_lrd_tests,
    rescaled_range_statistic,
    rescaled_variance_statistic,
)
from lrdkit.series import _row_statistics, auto_bandwidth

from conftest import IID_SIZE_SEEDS
from oracles import m_stat_naive, permute_blocks, v_stat_naive


def scripted_kernel(script):
    """Stand-in for ``lrd._block_kernel``: evaluation i gives every order row
    the value ``script[i]`` for both statistics, or marks every row
    degenerate for None."""
    calls = iter(script)

    def kernel(orders):
        value = next(calls)
        k = len(orders)
        statistics = np.full((k, 2), np.nan if value is None else value)
        return statistics, np.zeros(k, dtype=np.int64), np.full(k, value is None)

    return lambda values, block_size: kernel


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

    def test_single_kind_entry_point_matches(self):
        x = np.random.default_rng(33).standard_normal(300)
        both = bootstrap_lrd_tests(x, n_surrogates=50, seed=14)
        for kind in ("rescaled_range", "rescaled_variance"):
            single = block_bootstrap_test(x, kind, n_surrogates=50, seed=14)
            assert single == both[kind]

    def test_unknown_kind_rejected(self):
        x = np.random.default_rng(34).standard_normal(300)
        with pytest.raises(InvalidInputError):
            block_bootstrap_test(x, "median_shift", n_surrogates=10)

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

    def test_degenerate_surrogates_are_redrawn(self, monkeypatch):
        x = np.random.default_rng(37).standard_normal(60)
        monkeypatch.setattr(lrd, "_row_statistics", observed_one)
        # The last evaluation is the series in its own order.
        monkeypatch.setattr(lrd, "_block_kernel", scripted_kernel([None, None, None, 0.5, None]))
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

    def test_overflowing_variance_is_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            bootstrap_lrd_tests(np.array([1e308, -1e308] * 150), n_surrogates=10)


class TestChunkedEnsemble:
    """The ensemble against the public single-series functions. T = 1013
    leaves a 13-value tail after the blocks of 25."""

    @pytest.mark.parametrize("phi", [0.0, 0.85])
    def test_matches_one_surrogate_at_a_time(self, phi):
        values = ar1(phi, 1013, seed=40)
        stats, redraws = lrd._ensemble(lrd._block_kernel(values, 25), 40, 150, 17)
        expected, bandwidths = serial_ensemble(values, 25, 150, 17)
        np.testing.assert_allclose(stats, expected, rtol=1e-12, atol=0)
        assert redraws == 0
        if phi > 0:
            # The reference takes both the direct and the FFT route.
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
        stats, redraws = lrd._ensemble(lrd._block_kernel(values, 25), 40, 150, 17)
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
        (2101, 2, 0.9, False),  # more than 1023 blocks: gathered rows
        (1100, 1, 0.3, False),
        (2101, 2, 0.0, False),
    ])
    def test_matches_row_statistics(self, n, block_size, phi, tabled):
        values = ar1(phi, n, seed=n + block_size)
        n_blocks = n // block_size
        assert ((n_blocks + 1) ** 2 <= lrd.TABLE_ENTRIES) == tabled
        orders = lrd._block_orders(3, 150, n_blocks)
        kernel = lrd._block_kernel(values, block_size)
        stats, bandwidths, degenerate = kernel(orders)
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
        # A redraw evaluates one order row on its own, rounded as in the
        # ensemble, so a surrogate in the series' own order ties exactly.
        for row in (bandwidths.argmin(), bandwidths.argmax()):
            single, single_bandwidths, _ = kernel(orders[row: row + 1])
            assert np.array_equal(single[0], stats[row])
            assert single_bandwidths[0] == bandwidths[row]

    def test_zero_bandwidths_on_gathered_rows(self):
        # 1026 blocks of 25 at the default block size: slices of two gathered
        # rows, most of them with q = 0.
        values = ar1(0.0, 25650, seed=4)
        expected, bandwidths = serial_ensemble(values, 25, 40, 3)
        assert bandwidths.count(0) > 20
        results = bootstrap_lrd_tests(values, n_surrogates=40, seed=3)
        for column, kind in enumerate(TEST_KINDS):
            exceed = int(np.sum(expected[:, column] >= results[kind].statistic))
            assert results[kind].p_value == (1.0 + exceed) / 41.0

    @pytest.mark.parametrize("n, block_size", [(2500, 1), (2047, 2)])
    def test_memory_stays_bounded(self, n, block_size):
        # Gathered rows of the longest surrogates, and the largest table.
        values = ar1(0.9, n, seed=45)
        lrd._block_orders.cache_clear()
        tracemalloc.start()
        try:
            bootstrap_lrd_tests(values, block_size=block_size, n_surrogates=1000, seed=3)
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
        stats, _ = lrd._ensemble(lrd._block_kernel(values, 25), 2, 200, 9)
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
