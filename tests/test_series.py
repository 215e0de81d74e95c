import datetime as dt

import numpy as np
import pytest

from lrdkit.errors import DegenerateVarianceError, InvalidInputError
from lrdkit.series import (
    TimeSeries,
    _autocovariances,
    as_values,
    auto_bandwidth,
    auto_bandwidth_value,
    autocovariance,
    build_profile,
    hac_variance,
)

from oracles import autocov_naive, hac_naive, optimal_q_naive


class TestTimeSeries:
    def test_values_become_float64(self):
        series = TimeSeries([1, 2, 3], label="ints")
        assert series.values.dtype == np.float64
        assert len(series) == 3

    def test_rejects_two_dimensional(self):
        with pytest.raises(InvalidInputError):
            TimeSeries(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            TimeSeries([1.0, np.nan, 2.0])
        with pytest.raises(InvalidInputError):
            TimeSeries([1.0, np.inf])

    def test_dates_length_must_match(self):
        with pytest.raises(InvalidInputError):
            TimeSeries([1.0, 2.0], dates=[dt.date(2020, 1, 1)])

    def test_dates_must_increase(self):
        days = [dt.date(2020, 1, 2), dt.date(2020, 1, 1)]
        with pytest.raises(InvalidInputError):
            TimeSeries([1.0, 2.0], dates=days)

    def test_dates_coerced_to_tuple(self):
        days = [dt.date(2020, 1, 1), dt.date(2020, 1, 2)]
        series = TimeSeries([1.0, 2.0], dates=days)
        assert isinstance(series.dates, tuple)


class TestAsValues:
    def test_accepts_plain_arrays(self):
        values = as_values([1.0, 2.0, 3.0])
        assert values.tolist() == [1.0, 2.0, 3.0]

    def test_min_length_enforced(self):
        with pytest.raises(InvalidInputError):
            as_values([1.0], min_length=2)

    def test_rejects_nan_in_arrays(self):
        with pytest.raises(InvalidInputError):
            as_values([1.0, np.nan])


class TestProfile:
    def test_hand_profile(self):
        profile = build_profile([1.0, 2.0, 3.0])
        assert profile.values.tolist() == [-1.0, -1.0, 0.0]
        assert profile.source_mean == 2.0

    def test_two_point_profile(self):
        profile = build_profile([2.0, 0.0])
        assert profile.values.tolist() == [1.0, 0.0]

    def test_constant_series_profile_is_zero(self):
        profile = build_profile([5.0, 5.0, 5.0, 5.0])
        assert profile.values.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_closure_on_random_data(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000) * 100
        profile = build_profile(x)
        assert abs(profile.values[-1]) < 1e-9 * 1000 * np.abs(x).max()

    def test_too_short(self):
        with pytest.raises(InvalidInputError):
            build_profile([1.0])


class TestAutocovariance:
    def test_lag_zero_is_population_variance(self):
        assert autocovariance([1.0, 2.0, 3.0], 0) == pytest.approx(2.0 / 3.0)

    def test_constant_series_has_zero_variance(self):
        assert autocovariance([4.0, 4.0, 4.0], 0) == 0.0

    def test_alternating_lag_one(self):
        assert autocovariance([1.0, -1.0, 1.0, -1.0], 1) == pytest.approx(-0.75)

    def test_lag_out_of_range(self):
        with pytest.raises(InvalidInputError):
            autocovariance([1.0, 2.0, 3.0], 3)
        with pytest.raises(InvalidInputError):
            autocovariance([1.0, 2.0, 3.0], -1)

    def test_matches_naive_on_random_data(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(200)
        for lag in (0, 1, 7, 50):
            assert autocovariance(x, lag) == pytest.approx(
                autocov_naive(x, lag), rel=1e-12
            )

    def test_fft_branch_matches_direct_branch(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(80, 2000))
            x = rng.standard_normal(n)
            centered = x - x.mean()
            max_lag = int(rng.integers(33, min(n - 1, 300)))
            via_fft = _autocovariances(centered, max_lag)
            direct = np.array(
                [float(centered[: n - k] @ centered[k:]) / n for k in range(max_lag + 1)]
            )
            np.testing.assert_allclose(via_fft, direct, rtol=1e-9, atol=1e-12)


class TestHacVariance:
    def test_bandwidth_zero_reduces_to_variance(self):
        result = hac_variance([1.0, 2.0, 3.0], 0)
        assert result.long_run_variance == pytest.approx(2.0 / 3.0)
        assert result.variance == pytest.approx(2.0 / 3.0)
        assert result.bandwidth == 0

    def test_alternating_hand_value(self):
        result = hac_variance([1.0, -1.0, 1.0, -1.0], 1)
        assert result.long_run_variance == pytest.approx(0.25)

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            hac_variance([3.0, 3.0, 3.0, 3.0], 0)

    def test_bandwidth_out_of_range(self):
        with pytest.raises(InvalidInputError):
            hac_variance([1.0, 2.0, 3.0], 3)

    def test_matches_naive(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(300)
        for q in (0, 1, 5, 40):
            assert hac_variance(x, q).long_run_variance == pytest.approx(
                hac_naive(x, q), rel=1e-10
            )


class TestAutoBandwidth:
    def test_hand_fixture(self):
        assert auto_bandwidth_value(2516, 0.5) == 18

    def test_zero_autocorrelation(self):
        assert auto_bandwidth_value(100, 0.0) == 0

    def test_unit_autocorrelation_rejected(self):
        with pytest.raises(InvalidInputError):
            auto_bandwidth_value(100, 1.0)
        with pytest.raises(InvalidInputError):
            auto_bandwidth_value(100, -1.0)
        with pytest.raises(InvalidInputError):
            auto_bandwidth_value(100, float("nan"))

    def test_capped_at_length_minus_one(self):
        assert auto_bandwidth_value(10, 0.999) == 9

    def test_matches_naive_formula(self):
        for n, rho in ((100, 0.3), (2516, 0.5), (5000, -0.7), (64, 0.95)):
            assert auto_bandwidth_value(n, rho) == optimal_q_naive(n, rho)

    def test_negative_autocorrelation_symmetric(self):
        assert auto_bandwidth_value(2516, -0.5) == auto_bandwidth_value(2516, 0.5)

    def test_series_entry_point(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(500)
        centered = x - x.mean()
        rho1 = float(centered[:-1] @ centered[1:]) / float(centered @ centered)
        assert auto_bandwidth(x) == auto_bandwidth_value(500, rho1)

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            auto_bandwidth([2.0, 2.0, 2.0])

    def test_overflowing_variance_degenerate(self):
        x = np.array([1e308, -1e308] * 150)
        with pytest.raises(DegenerateVarianceError):
            auto_bandwidth(x)
        with pytest.raises(DegenerateVarianceError):
            hac_variance(x, 3)

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(400)
        q = auto_bandwidth(x)
        assert auto_bandwidth(3.5 * x + 11.0) == q
        assert auto_bandwidth(-2.0 * x + 1.0) == q
