import itertools

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
from lrdkit.series import auto_bandwidth

from conftest import IID_SIZE_SEEDS
from oracles import m_stat_naive, v_stat_naive


def scripted_statistics(script):
    """Stand-in for the statistics kernel: call i gives every row the value
    ``script[i]`` for both statistics, or marks every row degenerate for None."""
    calls = iter(script)

    def kernel(rows, bandwidth=None):
        value = next(calls)
        k = rows.shape[0]
        statistics = np.full((k, 2), np.nan if value is None else value)
        return statistics, np.zeros(k, dtype=np.int64), np.full(k, value is None)

    return kernel


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
        surrogate = lrd._permute_blocks(values, block_size, rng)
        if i in second_draw:
            surrogate = lrd._permute_blocks(values, block_size, rng)
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
    def test_blocks_move_as_units_and_tail_stays(self):
        values = np.arange(10.0)
        rng = np.random.default_rng(3)
        original_blocks = {(0.0, 1.0, 2.0), (3.0, 4.0, 5.0), (6.0, 7.0, 8.0)}
        seen_orders = set()
        for _ in range(20):
            permuted = lrd._permute_blocks(values, 3, rng)
            assert permuted[-1] == 9.0
            triples = {tuple(permuted[i : i + 3]) for i in (0, 3, 6)}
            assert triples == original_blocks
            seen_orders.add(tuple(permuted[:9]))
        assert len(seen_orders) > 1

    def test_multiset_preserved(self):
        values = np.random.default_rng(4).standard_normal(57)
        permuted = lrd._permute_blocks(values, 10, np.random.default_rng(5))
        assert sorted(permuted.tolist()) == sorted(values.tolist())
        assert np.array_equal(permuted[50:], values[50:])

    def test_seed_determinism(self):
        values = np.random.default_rng(6).standard_normal(40)
        a = lrd._permute_blocks(values, 7, np.random.default_rng(8))
        b = lrd._permute_blocks(values, 7, np.random.default_rng(8))
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
        script = [1.0, None, None, None, 0.5]
        monkeypatch.setattr(lrd, "_row_statistics", scripted_statistics(script))
        results = bootstrap_lrd_tests(x, n_surrogates=1, seed=0)
        assert results["rescaled_range"].n_redraws == 3
        assert results["rescaled_variance"].n_redraws == 3
        assert results["rescaled_range"].statistic == 1.0
        assert results["rescaled_range"].p_value == 0.5

    def test_persistent_degeneracy_aborts(self, monkeypatch):
        x = np.random.default_rng(38).standard_normal(60)
        script = itertools.chain([1.0], itertools.repeat(None))
        monkeypatch.setattr(lrd, "_row_statistics", scripted_statistics(script))
        with pytest.raises(ComputationAbortedError):
            bootstrap_lrd_tests(x, n_surrogates=2, seed=0)

    def test_overflowing_variance_is_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            bootstrap_lrd_tests(np.array([1e308, -1e308] * 150), n_surrogates=10)


class TestChunkedEnsemble:
    """150 surrogates span two full chunks and a partial one; T = 1013 leaves
    a 13-value tail after the blocks of 25."""

    @pytest.mark.parametrize("phi", [0.0, 0.85])
    def test_matches_one_surrogate_at_a_time(self, phi):
        values = ar1(phi, 1013, seed=40)
        stats, redraws = lrd._ensemble(values, 25, 150, 17)
        expected, bandwidths = serial_ensemble(values, 25, 150, 17)
        np.testing.assert_allclose(stats, expected, rtol=1e-12, atol=0)
        assert redraws == 0
        if phi > 0:
            # Each chunk's largest bandwidth exceeds 32, so the FFT route
            # serves rows whose own bandwidth would take direct products.
            assert min(bandwidths) <= 32 < max(bandwidths[128:])

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
        expected, _ = serial_ensemble(values, 25, 150, 17, second_draw={64 + 37})
        real = lrd._row_statistics
        chunks = []

        def degenerate_row_37_of_chunk_2(rows, bandwidth=None):
            statistics, bandwidths, degenerate = real(rows, bandwidth)
            if rows.shape[0] == lrd.CHUNK_SIZE:
                chunks.append(rows)
                degenerate[37] |= len(chunks) == 2
            return statistics, bandwidths, degenerate

        monkeypatch.setattr(lrd, "_row_statistics", degenerate_row_37_of_chunk_2)
        stats, redraws = lrd._ensemble(values, 25, 150, 17)
        assert redraws == 1
        np.testing.assert_allclose(stats, expected, rtol=1e-12, atol=0)

    def test_block_orders_cached_read_only(self):
        first = lrd._block_orders(5, 10, 7)
        assert lrd._block_orders(5, 10, 7) is first
        assert not first.flags.writeable
        assert first.dtype.itemsize <= 4
        children = np.random.SeedSequence(5).spawn(10)
        assert np.array_equal(first, [np.random.default_rng(c).permutation(7) for c in children])


class TestNullDistribution:
    def test_p_values_near_uniform_on_iid_noise(self, iid_bootstrap_pvalues):
        for kind in ("rescaled_range", "rescaled_variance"):
            p = iid_bootstrap_pvalues[kind]
            assert p.size == IID_SIZE_SEEDS
            assert ks_against_uniform(p) < 0.15
