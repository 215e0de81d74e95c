import numpy as np
import pytest

import lrdkit.lrd as lrd
from lrdkit.errors import (
    ComputationAbortedError,
    DegenerateVarianceError,
    InvalidInputError,
)
from lrdkit.lrd import (
    block_bootstrap_test,
    bootstrap_lrd_tests,
    rescaled_range_statistic,
    rescaled_variance_statistic,
)

from conftest import IID_SIZE_SEEDS
from oracles import m_stat_naive, v_stat_naive


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

    def test_thread_count_does_not_change_results(self):
        x = np.random.default_rng(31).standard_normal(300)
        serial = bootstrap_lrd_tests(x, n_surrogates=64, seed=12, n_jobs=1)
        threaded = bootstrap_lrd_tests(x, n_surrogates=64, seed=12, n_jobs=4)
        assert serial == threaded

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
            bootstrap_lrd_tests(x, n_surrogates=10, n_jobs=0)
        with pytest.raises(InvalidInputError):
            bootstrap_lrd_tests(x, n_surrogates=10, seed=-1)

    def test_degenerate_surrogates_are_redrawn(self, monkeypatch):
        x = np.random.default_rng(37).standard_normal(60)
        calls = {"n": 0}

        def flaky_pair(values, bandwidth):
            calls["n"] += 1
            if calls["n"] == 1:
                return 1.0, 1.0
            if calls["n"] <= 4:
                raise DegenerateVarianceError("forced")
            return 0.5, 0.5

        monkeypatch.setattr(lrd, "_statistic_pair", flaky_pair)
        results = bootstrap_lrd_tests(x, n_surrogates=1, seed=0)
        assert results["rescaled_range"].n_redraws == 3
        assert results["rescaled_variance"].n_redraws == 3
        assert results["rescaled_range"].statistic == 1.0
        assert results["rescaled_range"].p_value == 0.5

    def test_persistent_degeneracy_aborts(self, monkeypatch):
        x = np.random.default_rng(38).standard_normal(60)
        calls = {"n": 0}

        def broken_pair(values, bandwidth):
            calls["n"] += 1
            if calls["n"] == 1:
                return 1.0, 1.0
            raise DegenerateVarianceError("forced")

        monkeypatch.setattr(lrd, "_statistic_pair", broken_pair)
        with pytest.raises(ComputationAbortedError):
            bootstrap_lrd_tests(x, n_surrogates=2, seed=0)


class TestNullDistribution:
    def test_p_values_near_uniform_on_iid_noise(self, iid_bootstrap_pvalues):
        for kind in ("rescaled_range", "rescaled_variance"):
            p = iid_bootstrap_pvalues[kind]
            assert p.size == IID_SIZE_SEEDS
            assert ks_against_uniform(p) < 0.15
