import datetime
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import lrdkit as lk
from lrdkit import surrogates
from lrdkit.errors import InvalidInputError
from lrdkit.series import TimeSeries, autocovariance
from lrdkit.surrogates import (
    CHUNK_SIZE,
    AverageCoefficient,
    SurrogateConfig,
    _phase_randomize,
    aaft_surrogate,
    average_coefficient,
    xcorr_significance,
)
from lrdkit.xcorr import ScaleCorrelogram, scan_scales


def kinked_step_series():
    return np.concatenate([np.ones(32), np.full(32, 2.0)])


class TestPhaseRandomize:
    @pytest.mark.parametrize("n", [63, 64])
    def test_amplitude_spectrum_preserved(self, n):
        x = np.random.default_rng(50).standard_normal(n)
        phases = np.random.default_rng(51).uniform(0.0, 2.0 * np.pi, n // 2 + 1)
        out = _phase_randomize(x, phases)
        assert out.shape == (n,)
        assert np.allclose(
            np.abs(np.fft.rfft(out)), np.abs(np.fft.rfft(x)), atol=1e-9
        )

    def test_mean_preserved(self):
        x = np.random.default_rng(52).standard_normal(100) + 5.0
        phases = np.random.default_rng(53).uniform(0.0, 2.0 * np.pi, 51)
        out = _phase_randomize(x, phases)
        assert out.mean() == pytest.approx(x.mean(), abs=1e-9)


class TestAaftSurrogate:
    def test_value_multiset_exact(self):
        x = np.random.default_rng(54).standard_normal(200)
        surrogate = aaft_surrogate(x, np.random.default_rng(55))
        assert sorted(surrogate.values.tolist()) == sorted(x.tolist())
        assert not np.array_equal(surrogate.values, x)

    def test_label_and_dates_carry_over(self):
        dates = tuple(datetime.date(2020, 1, d) for d in range(1, 9))
        series = TimeSeries(np.arange(8.0), label="probe", dates=dates)
        surrogate = aaft_surrogate(series, np.random.default_rng(56))
        assert surrogate.label == "probe"
        assert surrogate.dates == dates

    def test_lag1_autocorrelation_approximately_preserved(self):
        series = lk.generate_fgn(lk.FgnSpec(h=0.9, length=4096, seed=7))
        observed = autocovariance(series, 1) / autocovariance(series, 0)
        rng = np.random.default_rng(123)
        for _ in range(20):
            surrogate = aaft_surrogate(series, rng)
            value = autocovariance(surrogate, 1) / autocovariance(surrogate, 0)
            assert value == pytest.approx(observed, abs=0.1)

    def test_destroys_cross_correlation(self):
        x, y = lk.generate_correlated_pair(0.8, 0.8, 0.9, 4096, seed=3)
        rng = np.random.default_rng(9)
        sizes = []
        for _ in range(30):
            sx = aaft_surrogate(x, rng)
            sy = aaft_surrogate(y, rng)
            sizes.append(abs(np.corrcoef(sx.values, sy.values)[0, 1]))
        assert np.mean(sizes) < 0.05

    def test_too_short_input(self):
        with pytest.raises(InvalidInputError):
            aaft_surrogate(np.arange(7.0), np.random.default_rng(0))


class TestXcorrSignificance:
    def test_identical_series_maximally_significant(self):
        series = lk.generate_fgn(lk.FgnSpec(h=0.7, length=1024, seed=5))
        config = SurrogateConfig(n_surrogates=100, seed=2)
        result = xcorr_significance(series, series, "dcca", [10, 50, 100], config)
        assert np.allclose(result.rho, 1.0, atol=1e-12)
        assert np.all(result.p_values == 1.0 / 101.0)
        assert not result.flagged.any()
        assert result.surrogate_rho.shape == (100, 3)
        summary = average_coefficient(result)
        assert summary.mean_rho == pytest.approx(1.0, abs=1e-12)
        assert summary.p_value == 1.0 / 101.0

    def test_p_value_bounds(self):
        x, y = lk.generate_correlated_pair(0.7, 0.7, 0.3, 512, seed=6)
        config = SurrogateConfig(n_surrogates=100, seed=3)
        result = xcorr_significance(x, y, "dcca", [10, 40], config)
        assert np.all(result.p_values >= 1.0 / 101.0)
        assert np.all(result.p_values <= 1.0)

    def test_pool_has_one_worker_per_available_cpu(self, monkeypatch):
        sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        x, y = lk.generate_correlated_pair(0.7, 0.7, 0.5, 256, seed=8)
        monkeypatch.setattr(surrogates, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(surrogates.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        xcorr_significance(x, y, "dcca", [10], SurrogateConfig(n_surrogates=100))
        assert sizes == [3]
        monkeypatch.delattr(surrogates.os, "sched_getaffinity")
        monkeypatch.setattr(surrogates.os, "cpu_count", lambda: None)
        assert surrogates._cpu_count() == 1

    def test_thread_count_does_not_change_results(self, monkeypatch):
        x, y = lk.generate_correlated_pair(0.7, 0.7, 0.5, 512, seed=8)
        config = SurrogateConfig(n_surrogates=100, seed=5)
        monkeypatch.setattr(surrogates, "_cpu_count", lambda: 1)
        serial = xcorr_significance(x, y, "dcca", [10, 30], config)
        monkeypatch.setattr(surrogates, "_cpu_count", lambda: 4)
        threaded = xcorr_significance(x, y, "dcca", [10, 30], config)
        assert np.array_equal(serial.rho, threaded.rho)
        assert np.array_equal(serial.p_values, threaded.p_values)
        assert np.array_equal(serial.surrogate_rho, threaded.surrogate_rho)

    @pytest.mark.parametrize("method", ["dcca", "dmca"])
    def test_chunks_match_one_pair_at_a_time(self, method):
        # 101 is not a multiple of the chunk size, so the last chunk is short.
        assert 101 % CHUNK_SIZE != 0
        x, y = lk.generate_correlated_pair(0.8, 0.6, 0.4, 300, seed=12)
        grid = [10, 40, 70] if method == "dcca" else [11, 41, 71]
        result = xcorr_significance(
            x, y, method, grid, SurrogateConfig(n_surrogates=101, seed=6)
        )
        children = np.random.SeedSequence(6).spawn(101)
        for i, child in enumerate(children):
            rng = np.random.default_rng(child)
            sx = aaft_surrogate(x, rng)
            sy = aaft_surrogate(y, rng)
            expected = scan_scales(sx, sy, method, grid).rho
            assert np.allclose(result.surrogate_rho[i], expected, rtol=0.0, atol=1e-12)

    def test_degenerate_scale_flagged_not_fatal(self):
        x = kinked_step_series()
        y = np.random.default_rng(57).standard_normal(64)
        config = SurrogateConfig(n_surrogates=100, seed=4)
        with pytest.warns(UserWarning, match="32"):
            result = xcorr_significance(x, y, "dcca", [5, 32], config)
        assert not result.flagged[0]
        assert result.flagged[1]
        assert np.isnan(result.rho[1])
        assert result.p_values[1] == 1.0
        assert np.isfinite(result.rho[0])

        summary = average_coefficient(result)
        assert summary.mean_rho == result.rho[0]
        assert summary.std_rho == 0.0

    def test_unknown_method(self):
        x = np.random.default_rng(58).standard_normal(64)
        with pytest.raises(InvalidInputError):
            xcorr_significance(x, x, "pearson", [10])


class TestAverageCoefficient:
    def test_population_moments(self):
        correlogram = ScaleCorrelogram(
            method="dcca",
            scales=np.array([10, 20, 30]),
            rho=np.array([0.2, 0.4, 0.6]),
        )
        summary = average_coefficient(correlogram)
        assert summary == AverageCoefficient(
            pytest.approx(0.4), pytest.approx(np.sqrt(0.08 / 3.0)), None
        )

    def test_scan_result_has_no_p_value(self):
        rng = np.random.default_rng(59)
        result = scan_scales(rng.standard_normal(600), rng.standard_normal(600), "dcca")
        summary = average_coefficient(result)
        assert summary.p_value is None

    def test_constant_curve(self):
        correlogram = ScaleCorrelogram(
            method="dmca",
            scales=np.array([11, 21]),
            rho=np.ones(2),
        )
        summary = average_coefficient(correlogram)
        assert summary.mean_rho == 1.0
        assert summary.std_rho == 0.0

    def test_empty_grid_rejected(self):
        correlogram = ScaleCorrelogram(
            method="dcca", scales=np.array([], dtype=int), rho=np.array([])
        )
        with pytest.raises(InvalidInputError):
            average_coefficient(correlogram)

    def test_fully_degenerate_rejected(self):
        correlogram = ScaleCorrelogram(
            method="dcca",
            scales=np.array([10]),
            rho=np.array([np.nan]),
            flagged=np.array([True]),
        )
        with pytest.raises(InvalidInputError):
            average_coefficient(correlogram)


class TestSurrogateConfig:
    def test_defaults(self):
        config = SurrogateConfig()
        assert config.n_surrogates == 1000
        assert config.seed == 0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SurrogateConfig(n_surrogates=99)
        with pytest.raises(InvalidInputError):
            SurrogateConfig(seed=-1)
