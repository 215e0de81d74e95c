import math
import tracemalloc
import warnings

import numpy as np
import pytest

import lrdkit as lk
from lrdkit.dfa import (
    DEFAULT_MIN_SCALE,
    _panel_fluctuations,
    decade_scale_grid,
    dfa_fluctuation,
    dfa_hurst,
    fluctuation_function,
)
from lrdkit.errors import DegenerateScaleError, InvalidInputError

from oracles import dfa_fluct_naive

SAWTOOTH_F4 = 0.4472135954999579


def uncapped_grid(min_scale, max_scale, step=0.1):
    """The decade walk of decade_scale_grid with no cap at max_scale."""
    scales, stop, k = [], math.log10(max_scale), 0
    while (exponent := math.log10(min_scale) + k * step) <= stop + 1e-12:
        raw = 10.0 ** exponent
        scale = int(math.floor(raw + 1e-9 * max(1.0, raw)))
        if not scales or scale != scales[-1]:
            scales.append(scale)
        k += 1
    return scales


class TestScaleGrid:
    def test_default_grid_values(self):
        expected = [10, 12, 15, 19, 25, 31, 39, 50, 63, 79,
                    100, 125, 158, 199, 251, 316, 398]
        assert decade_scale_grid(10, 500).tolist() == expected

    def test_grid_stops_at_max_scale(self):
        grid = decade_scale_grid(10, 100)
        assert grid[-1] == 100
        assert grid[0] == 10

    def test_duplicates_collapse(self):
        grid = decade_scale_grid(4, 12, step=0.05)
        assert grid[0] == 4
        assert np.all(np.diff(grid) > 0)

    def test_minimum_scale_boundary(self):
        with pytest.raises(InvalidInputError):
            decade_scale_grid(3, 100)

    def test_decreasing_bounds_rejected(self):
        with pytest.raises(InvalidInputError):
            decade_scale_grid(20, 10)

    @pytest.mark.parametrize(
        "args, kwargs, match",
        [
            ((10, 100), {"step": 1e-300}, "more than 10\\*\\*6 exponents"),
            ((10, 10), {"step": 1e-300}, "more than 10\\*\\*6 exponents"),
            ((float("nan"), 100), {}, "minimum scale must be an integer"),
            ((10.5, 100), {}, "minimum scale must be an integer"),
            ((10, 100), {"step": float("nan")}, "step must be positive and finite"),
            ((10, 100), {"step": float("inf")}, "step must be positive and finite"),
            ((10, 100), {"step": 0.0}, "step must be positive and finite"),
            ((10, float("inf")), {}, "maximum scale must be an integer"),
            ((10, 10**400), {}, "outside the 64-bit range"),
            ((2**63, 2**63), {}, "outside the 64-bit range"),
        ],
        ids=["tiny-step", "tiny-step-one-scale", "nan-min", "fractional-min", "nan-step",
             "inf-step", "zero-step", "inf-max", "max-past-float", "max-past-int64"],
    )
    def test_bad_bounds_and_steps_refused(self, args, kwargs, match):
        with pytest.raises(InvalidInputError, match=match):
            decade_scale_grid(*args, **kwargs)

    def test_whole_float_bounds_run_as_ints(self):
        assert decade_scale_grid(10.0, 500.0).tolist() == decade_scale_grid(10, 500).tolist()

    @pytest.mark.parametrize(
        "bounds, tail",
        [
            ((10, 10**12), [794328235518, 10**12]),
            ((10**12, 10**12), [10**12]),
            ((999_999_999, 999_999_999), [999_999_999]),
            ((2**63 - 1, 2**63 - 1), [2**63 - 1]),
        ],
        ids=["1e12", "1e12-alone", "just-below-1e9-alone", "int64-max-alone"],
    )
    def test_large_scales_capped_at_max_scale(self, bounds, tail):
        grid = decade_scale_grid(*bounds)
        assert grid[-len(tail):].tolist() == tail
        assert grid.max() <= bounds[1]
        assert np.all(np.diff(grid) > 0)

    def test_cap_never_binds_up_to_1e8(self):
        # Up to 10**8 the nudge stays below 1, so every grid equals the walk
        # without the cap: no DFA scale, and so no fit, moves.
        tops = sorted(set(range(4, 3000)) | {int(m) for m in np.geomspace(3000, 10**8, 3000)})
        for top in tops:
            for bottom in (4, DEFAULT_MIN_SCALE):
                if top >= bottom:
                    assert decade_scale_grid(bottom, top).tolist() == uncapped_grid(bottom, top)
        for n in (1000, 2500, 8192):
            x = np.random.default_rng(n).standard_normal(n)
            expected = uncapped_grid(DEFAULT_MIN_SCALE, min(500, n // 5))
            assert fluctuation_function(x).scales.tolist() == expected
            assert dfa_hurst(x).fluctuation.scales.tolist() == expected


class TestFluctuation:
    def test_sawtooth_hand_value(self):
        x = [1.0, -1.0] * 4
        assert dfa_fluctuation(x, 4) == pytest.approx(SAWTOOTH_F4, rel=1e-12)
        assert dfa_fluctuation(x, 4) == pytest.approx(
            dfa_fluct_naive(x, 4), rel=1e-12
        )

    def test_constant_series_is_zero(self):
        assert dfa_fluctuation([3.0] * 64, 8) == 0.0

    def test_matches_naive_on_random_data(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            n = int(rng.integers(100, 400))
            x = rng.standard_normal(n)
            scale = int(rng.integers(4, n // 2 + 1))
            assert dfa_fluctuation(x, scale) == pytest.approx(
                dfa_fluct_naive(x, scale), rel=1e-9
            )

    def test_scale_out_of_range(self):
        x = np.arange(40.0)
        with pytest.raises(InvalidInputError):
            dfa_fluctuation(x, 3)
        with pytest.raises(InvalidInputError):
            dfa_fluctuation(x, 21)

    def test_scaling_ratio_tracks_hurst(self):
        ratios = []
        for seed in range(20):
            series = lk.generate_fgn(lk.FgnSpec(h=0.8, length=8192, seed=seed))
            ratios.append(
                math.log10(dfa_fluctuation(series, 100) / dfa_fluctuation(series, 10))
            )
        assert np.mean(ratios) == pytest.approx(0.8, abs=0.1)


class TestFluctuationFunction:
    def test_boxes_per_scale(self):
        x = np.random.default_rng(11).standard_normal(100)
        result = fluctuation_function(x, [4, 10, 25])
        assert result.boxes_per_scale.tolist() == [50, 20, 8]

    def test_default_grid_respects_length(self):
        x = np.random.default_rng(12).standard_normal(200)
        result = fluctuation_function(x)
        assert result.scales[0] == DEFAULT_MIN_SCALE
        assert result.scales[-1] <= 40

    def test_non_increasing_grid_rejected(self):
        x = np.random.default_rng(13).standard_normal(100)
        with pytest.raises(InvalidInputError):
            fluctuation_function(x, [10, 10, 20])

    def test_empty_grid_rejected(self):
        x = np.random.default_rng(14).standard_normal(100)
        with pytest.raises(InvalidInputError):
            fluctuation_function(x, [])

    @pytest.mark.parametrize("entry", [10.5, float("nan")])
    def test_non_integer_entry_rejected(self, entry):
        # Converting the grid to integers first ran 10.5 as 10 and raised a
        # bare ValueError on NaN.
        x = np.random.default_rng(15).standard_normal(600)
        with pytest.raises(InvalidInputError, match=f"scale must be an integer in .4, 300. for length 600, got {entry}"):
            fluctuation_function(x, [entry, 20])

    def test_integral_float_entries_accepted(self):
        x = np.random.default_rng(16).standard_normal(600)
        result = fluctuation_function(x, [10.0, 20.0])
        expected = fluctuation_function(x, [10, 20])
        assert result.scales.tolist() == [10, 20]
        assert np.array_equal(result.values, expected.values)


class TestHurst:
    def test_recovers_white_noise_exponent(self):
        estimates = [
            dfa_hurst(np.random.default_rng(seed).standard_normal(4096)).h
            for seed in range(10)
        ]
        assert np.mean(estimates) == pytest.approx(0.5, abs=0.05)

    def test_cumulated_noise_gains_about_one(self):
        shifts = []
        for seed in range(5):
            x = np.random.default_rng(100 + seed).standard_normal(4096)
            shifts.append(dfa_hurst(np.cumsum(x)).h - dfa_hurst(x).h)
        assert 0.85 <= np.mean(shifts) <= 1.15

    def test_affine_invariance(self):
        x = np.random.default_rng(15).standard_normal(1024)
        base = dfa_hurst(x)
        shifted = dfa_hurst(5.0 * x - 7.0)
        assert shifted.h == pytest.approx(base.h, abs=1e-10)

    def test_doubling_shifts_intercept_by_log2(self):
        x = np.random.default_rng(16).standard_normal(1024)
        base = dfa_hurst(x)
        doubled = dfa_hurst(2.0 * x)
        assert doubled.h == pytest.approx(base.h, abs=1e-10)
        assert doubled.intercept - base.intercept == pytest.approx(
            math.log10(2.0), abs=1e-10
        )

    def test_r_squared_high_for_clean_scaling(self):
        series = lk.generate_fgn(lk.FgnSpec(h=0.7, length=8192, seed=0))
        estimate = dfa_hurst(series)
        assert 0.98 <= estimate.r_squared <= 1.0
        assert estimate.fluctuation.scales.size >= 5

    def test_too_short_series(self):
        with pytest.raises(InvalidInputError):
            dfa_hurst(np.random.default_rng(17).standard_normal(49))

    def test_narrow_grid_rejected(self):
        x = np.random.default_rng(18).standard_normal(200)
        with pytest.raises(InvalidInputError):
            dfa_hurst(x, min_scale=10, max_scale=15)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"min_scale": 10.5}, "minimum scale must be an integer, got 10.5"),
            ({"max_scale": float("inf")}, "maximum scale must be an integer, got inf"),
        ],
        ids=["fractional-min", "inf-max"],
    )
    def test_fractional_or_infinite_bounds_refused(self, kwargs, match):
        # min_scale=10.5 used to fit from scale 10 without a word.
        x = np.random.default_rng(18).standard_normal(1000)
        with pytest.raises(InvalidInputError, match=match):
            dfa_hurst(x, **kwargs)

    def test_whole_float_bounds_fit_as_ints(self):
        x = np.random.default_rng(18).standard_normal(1000)
        assert dfa_hurst(x, min_scale=10.0, max_scale=150.0).h == dfa_hurst(x, max_scale=150).h

    def test_constant_series_degenerate(self):
        with pytest.warns(UserWarning):
            with pytest.raises(DegenerateScaleError):
                dfa_hurst([2.0] * 400)


class TestPowerOfTwoScaling:
    """Each row is scaled by a power of two before it is detrended, so its
    sums of squares stay in range and the scaling itself rounds nothing."""

    @pytest.mark.parametrize("j", [-1000, -550, -1, 1, 37, 500, 1000])
    def test_fluctuation_scales_exactly(self, j):
        x = np.random.default_rng(19).standard_normal(2500)
        base = fluctuation_function(x).values
        assert np.array_equal(fluctuation_function(np.ldexp(x, j)).values, np.ldexp(base, j))

    @pytest.mark.parametrize("magnitude", [1e152, 1e-165])
    def test_extreme_magnitudes_fit(self, magnitude):
        # The moment sums overflowed at 1e152 and underflowed at 1e-165, and
        # their scales were dropped as zero fluctuation.
        x = np.random.default_rng(20).standard_normal(2500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate = dfa_hurst(x * magnitude)
        assert estimate.fluctuation.scales.size == 17
        assert estimate.h == pytest.approx(dfa_hurst(x).h, abs=1e-12)

    def test_fluctuation_past_the_float_range_is_dropped(self):
        x = np.random.default_rng(21).standard_normal(2500)
        x *= 1.7e308 / np.abs(x).max()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fluct = fluctuation_function(x)
            estimate = dfa_hurst(x)
        overflowing = ", ".join(str(s) for s in fluct.scales[np.isinf(fluct.values)])
        assert overflowing
        assert [str(w.message) for w in caught] == [f"dropping zero-fluctuation scales: {overflowing}"]
        assert np.all(np.isfinite(estimate.fluctuation.values)) and math.isfinite(estimate.h)


class TestPanelFluctuations:
    LENGTHS = (130, 600, 2500, 5000, 10000)

    def test_each_series_as_alone(self):
        # Two series of each length: rows of 5,000 and 10,000 points hold
        # more than 8,192 values per scale in a batch of two.
        rng = np.random.default_rng(22)
        panel = [rng.standard_normal(n) * rng.uniform(0.1, 10.0) for n in self.LENGTHS for _ in range(2)]
        fluctuations = _panel_fluctuations(panel)
        for x, fluct in zip(panel, fluctuations):
            alone = dfa_hurst(x).fluctuation
            assert np.array_equal(fluct.scales, alone.scales)
            assert np.array_equal(fluct.values, alone.values)
            assert np.array_equal(fluct.boxes_per_scale, alone.boxes_per_scale)

    def test_series_dfa_hurst_refuses_get_its_error(self):
        rng = np.random.default_rng(23)
        panel = [rng.standard_normal(7), rng.standard_normal(49), rng.standard_normal(129), [2.0] * 400]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fluctuations = _panel_fluctuations(panel)
        for x, error in zip(panel[:3], fluctuations):
            assert isinstance(error, InvalidInputError)
            with pytest.raises(InvalidInputError) as alone:
                dfa_hurst(x)
            assert str(error) == str(alone.value)
        assert not np.any(fluctuations[3].values)

    def test_memory_stays_bounded(self):
        # 200 series of 20,000 points are 32 MB of input; the stage detrends
        # a few rows at a time, so its own peak does not grow with the panel.
        panel = [np.random.default_rng(seed).standard_normal(20_000) for seed in range(200)]
        tracemalloc.start()
        try:
            fluctuations = _panel_fluctuations(panel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(fluctuations) == 200
        assert peak <= 8 * 2**20
