import datetime
import threading
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import lrdkit as lk
from lrdkit import surrogates
from lrdkit.cli import main
from lrdkit.errors import InvalidInputError
from lrdkit.series import TimeSeries, autocovariance
from lrdkit.surrogates import (
    AverageCoefficient,
    SurrogateConfig,
    _ensemble_significance,
    _phase_randomize,
    aaft_surrogate,
    average_coefficient,
    xcorr_significance,
)
from lrdkit.xcorr import ScaleCorrelogram, scan_scales


def kinked_step_series():
    return np.concatenate([np.ones(32), np.full(32, 2.0)])


def chunk_pairs(monkeypatch, pairs: int, n: int) -> int:
    """Set the value budget to chunks of ``pairs`` pairs of n-point series,
    one x and one y row each; returns ``pairs``."""
    monkeypatch.setattr(surrogates, "STACK_VALUES", 2 * pairs * n)
    return pairs


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

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_ensemble_matches_single_method_calls(self, monkeypatch, cpus):
        # 101 is not a multiple of the chunk size, so the last chunk is short.
        assert 101 % chunk_pairs(monkeypatch, 16, 300) != 0
        monkeypatch.setattr(surrogates, "_cpu_count", lambda: cpus)
        x, y = lk.generate_correlated_pair(0.8, 0.6, 0.4, 300, seed=13)
        config = SurrogateConfig(n_surrogates=101, seed=9)
        grids = {"dcca": [10, 40, 70], "dmca": [11, 41, 71]}
        shared = _ensemble_significance(x, y, grids, config)
        assert list(shared) == ["dcca", "dmca"]
        for method, grid in grids.items():
            alone = xcorr_significance(x, y, method, grid, config)
            assert shared[method].method == method
            for field in ("scales", "rho", "p_values", "flagged", "surrogate_rho"):
                assert np.array_equal(getattr(shared[method], field), getattr(alone, field)), field

    def test_both_methods_build_each_surrogate_once(self, monkeypatch, tmp_path, capsys):
        calls = []
        aaft_values = surrogates._aaft_values

        def counting_aaft(*args):
            calls.append(args[1].shape[0])
            return aaft_values(*args)

        monkeypatch.setattr(surrogates, "_aaft_values", counting_aaft)
        pairs = chunk_pairs(monkeypatch, 16, 300)
        x, y = lk.generate_correlated_pair(0.8, 0.6, 0.4, 300, seed=14)
        dates = tuple(datetime.date(2010, 1, 1) + datetime.timedelta(days=i) for i in range(300))
        lk.write_series_csv(TimeSeries(x.values, dates=dates), tmp_path / "x.csv")
        lk.write_series_csv(TimeSeries(y.values, dates=dates), tmp_path / "y.csv")
        code = main(["xcorr", str(tmp_path / "x.csv"), str(tmp_path / "y.csv"),
                     "--method", "both", "--surrogates", "101"])
        assert code == 0, capsys.readouterr().err
        chunks = -(-101 // pairs)
        assert len(calls) == 2 * chunks
        assert sum(calls) == 2 * 101

    def test_draws_are_rows_of_one_buffer_pair_per_chunk_freed_on_return(self, monkeypatch):
        # A freed chunk's buffer id is reused, so buffers are told apart by
        # identity while they are alive, through weakrefs.
        buffers, draws, lock = {"gaussian": [], "phases": []}, [], threading.Lock()
        draw = surrogates._draw

        def slot(kind, rows):
            # The buffer index and the pair's row of it.
            buffer = rows.base
            assert rows.shape == buffer.shape[::2] and rows.strides == buffer.strides[::2]
            refs = buffers[kind]
            index = next((i for i, ref in enumerate(refs) if ref() is buffer), len(refs))
            if index == len(refs):
                refs.append(weakref.ref(buffer))
            return index, (rows.ctypes.data - buffer.ctypes.data) // buffer.strides[1]

        def recording_draw(rng, gaussian, phases):
            with lock:
                draws.append((slot("gaussian", gaussian), slot("phases", phases)))
            return draw(rng, gaussian, phases)

        monkeypatch.setattr(surrogates, "_draw", recording_draw)
        monkeypatch.setattr(surrogates, "_cpu_count", lambda: 2)
        pairs = chunk_pairs(monkeypatch, 16, 512)
        x, y = lk.generate_correlated_pair(0.7, 0.7, 0.5, 512, seed=8)
        xcorr_significance(x, y, "dcca", [10, 30], SurrogateConfig(n_surrogates=100))
        chunks = -(-100 // pairs)
        assert len(draws) == 100
        assert len(buffers["gaussian"]) == len(buffers["phases"]) == chunks
        # Each chunk's pairs fill the rows of its one normal buffer and the
        # same rows of its one phase buffer.
        rows = {}
        for (chunk, row), phase_slot in draws:
            assert phase_slot == (chunk, row)
            rows.setdefault(chunk, []).append(row)
        assert sorted(len(taken) for taken in rows.values()) == [100 % pairs] + [pairs] * (chunks - 1)
        assert all(sorted(taken) == list(range(len(taken))) for taken in rows.values())
        assert all(ref() is None for refs in buffers.values() for ref in refs)

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        # 101 leaves a short last chunk of 1, 2 or 5 pairs; a chunk of 2 pairs
        # is what the budget gives series longer than 16,384 points.
        x, y = lk.generate_correlated_pair(0.8, 0.6, 0.4, 512, seed=15)
        config = SurrogateConfig(n_surrogates=101, seed=11)
        grids = {"dcca": [10, 40, 120], "dmca": [11, 41, 121]}
        runs = []
        for chunk_size in (2, 3, 8, 16):
            chunk_pairs(monkeypatch, chunk_size, 512)
            for cpus in (1, 2):
                monkeypatch.setattr(surrogates, "_cpu_count", lambda: cpus)
                result = _ensemble_significance(x, y, grids, config)
                runs.append(np.stack([result[method].surrogate_rho for method in grids]))
        assert all(np.array_equal(run, runs[0]) for run in runs[1:])

    def test_memory_stays_bounded(self, monkeypatch):
        # Chunks of 20,000-point pairs hold two pairs, the budget's floor:
        # the ensemble peaks near 9.5 MiB, and took 69.4 MiB with chunks of
        # 16 pairs.
        monkeypatch.setattr(surrogates, "_cpu_count", lambda: 2)
        x, y = lk.generate_correlated_pair(0.8, 0.6, 0.4, 20_000, seed=17)
        grids = {"dcca": None, "dmca": None}
        tracemalloc.start()
        try:
            _ensemble_significance(x, y, grids, SurrogateConfig(n_surrogates=100, seed=13))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_buffered_draws_match_stacked_draws(self, monkeypatch, cpus):
        # The ensemble as built before the per-thread draw buffers: a list of
        # per-pair draws, stacked per chunk, and the source's ranks per chunk.
        def aaft(values, gaussian, phases):
            ranked = np.empty_like(gaussian)
            ranked[:, values.argsort()] = np.sort(gaussian, axis=1)
            order = _phase_randomize(ranked, phases).argsort(axis=1)
            out = np.empty_like(ranked)
            np.put_along_axis(out, order, np.sort(values)[None, :], axis=1)
            return out

        def draw(rng, n):
            return rng.standard_normal(n), rng.uniform(0.0, 2.0 * np.pi, n // 2 + 1)

        x, y = lk.generate_correlated_pair(0.8, 0.6, 0.4, 512, seed=16)
        xv, yv = x.values, y.values
        grids = {"dcca": np.array([10, 40, 120]), "dmca": np.array([11, 41, 121])}
        # 101 pairs: full chunks, then a short one.
        pairs = chunk_pairs(monkeypatch, 16, 512)
        assert 101 % pairs > 1
        children = np.random.SeedSequence(12).spawn(101)
        chunks = []
        for start in range(0, 101, pairs):
            rngs = map(np.random.default_rng, children[start: start + pairs])
            draws = [draw(rng, xv.size) + draw(rng, yv.size) for rng in rngs]
            gx, phx, gy, phy = (np.stack(d) for d in zip(*draws))
            chunks.append(surrogates._coefficient_curves(aaft(xv, gx, phx), aaft(yv, gy, phy), grids))
        monkeypatch.setattr(surrogates, "_cpu_count", lambda: cpus)
        result = _ensemble_significance(x, y, grids, SurrogateConfig(n_surrogates=101, seed=12))
        for method, rows in zip(grids, zip(*chunks)):
            assert np.array_equal(result[method].surrogate_rho, np.vstack(rows)), method

    @pytest.mark.parametrize("method", ["dcca", "dmca"])
    def test_chunks_match_one_pair_at_a_time(self, monkeypatch, method):
        # 101 is not a multiple of the chunk size, so the last chunk is short.
        assert 101 % chunk_pairs(monkeypatch, 16, 300) != 0
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

    def test_degenerate_scale_warns_before_the_ensemble(self, monkeypatch):
        calls = []
        monkeypatch.setattr(surrogates, "_aaft_values", lambda *args: calls.append(args))
        x = kinked_step_series()
        y = np.random.default_rng(57).standard_normal(64)
        # DMCA comes first and is not degenerate; the DCCA warning still precedes any build.
        grids = {"dmca": [5, 31], "dcca": [5, 32]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UserWarning, match="32"):
                _ensemble_significance(x, y, grids, SurrogateConfig(n_surrogates=100, seed=4))
        assert calls == []

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

    def test_count_past_the_limit_rejected(self, no_ensemble):
        with pytest.raises(InvalidInputError, match="100 to 1000000 surrogates"):
            SurrogateConfig(n_surrogates=10**6 + 1)
