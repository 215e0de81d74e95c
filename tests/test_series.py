import datetime as dt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lrdkit as lk
from lrdkit.errors import DegenerateVarianceError, InvalidInputError
from lrdkit.finance import OhlcvBars, log_transform
from lrdkit.series import (
    TimeSeries,
    _row_sums,
    as_values,
    auto_bandwidth,
    auto_bandwidth_value,
    autocovariance,
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

    @pytest.mark.parametrize("days", [(1, 1), (1, 2, 2), (1, 3, 2)])
    def test_repeated_or_late_dates_rejected(self, days):
        dates = [dt.date(2020, 1, day) for day in days]
        with pytest.raises(InvalidInputError, match="dates must be strictly increasing"):
            TimeSeries(np.ones(len(dates)), dates=dates)

    def test_dates_coerced_to_tuple(self):
        days = [dt.date(2020, 1, 1), dt.date(2020, 1, 2)]
        series = TimeSeries([1.0, 2.0], dates=days)
        assert isinstance(series.dates, tuple)

    def test_unordered_dates_from_any_caller_raise(self):
        days = (dt.date(2020, 1, 1), dt.date(2020, 1, 3), dt.date(2020, 1, 2))
        checked = TimeSeries([1.0, 2.0, 3.0], dates=sorted(days)).dates
        bars = OhlcvBars(days, *(np.ones(3) for _ in range(5)))
        for dates in (
            days, list(days), iter(days), checked[::-1], tuple(reversed(checked)),
            bars.dates, checked[:1] + checked[2:] + checked[1:2],
        ):
            with pytest.raises(InvalidInputError, match="strictly increasing"):
                TimeSeries([1.0, 2.0, 3.0], dates=dates)

    def test_checked_dates_are_kept_as_they_are(self):
        series = TimeSeries([1.0, 2.0], dates=[dt.date(2020, 1, 1), dt.date(2020, 1, 2)])
        assert TimeSeries([3.0, 4.0], dates=series.dates).dates is series.dates
        assert log_transform(series).dates is series.dates
        with pytest.raises(InvalidInputError, match="2 values but 1 dates"):
            TimeSeries([1.0, 2.0], dates=series.dates[:1])


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
        for q in (0, 1, 5, 33, 40, 299):
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
        # hac_variance returns data units, so it still refuses a series
        # whose variance overflows there.
        x = np.array([1e308, -1e308] * 150)
        with pytest.raises(DegenerateVarianceError):
            hac_variance(x, 3)

    def test_overflowing_variance_gets_the_scaled_copys_bandwidth(self):
        # A lag count is scale-free: the bandwidth is taken of the scaled
        # series, so an overflowing data-unit variance refuses nothing.
        x = np.array([1e308, -1e308] * 150)
        assert auto_bandwidth(x) == auto_bandwidth(np.ldexp(x, -1024)) == 299

    @settings(max_examples=20, deadline=None, derandomize=True)
    @example(h=0.9, seed=0, j=1000)
    @example(h=0.5, seed=1, j=-1000)
    @given(h=st.floats(0.3, 0.95), seed=st.integers(0, 2**20), j=st.integers(-1000, 1000))
    def test_agrees_with_the_bootstrap_at_every_power_of_two(self, h, seed, j):
        x = lk.generate_fgn(lk.FgnSpec(h=h, length=300, seed=seed)).values
        # Keep every value a normal double at x * 2**-1000, so the copy is exact.
        assume(np.abs(x).min() > 2.0 ** -20)
        expected = lk.bootstrap_lrd_tests(x, n_surrogates=1)["rescaled_range"].bandwidth
        assert auto_bandwidth(np.ldexp(x, j)) == expected

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(400)
        q = auto_bandwidth(x)
        assert auto_bandwidth(3.5 * x + 11.0) == q
        assert auto_bandwidth(-2.0 * x + 1.0) == q


def _noise(n=200):
    return np.random.default_rng(6).standard_normal(n)


# Each integer parameter of the numeric API: a call that passes it, and a
# value it accepts. Arrays come back as lists, so that repr compares them
# exactly.
INTEGER_PARAMETERS = {
    "autocovariance-lag": (lambda v: autocovariance(_noise(), v), 2),
    "hac_variance-bandwidth": (lambda v: hac_variance(_noise(), v), 3),
    "rescaled_range_statistic-bandwidth": (lambda v: lk.rescaled_range_statistic(_noise(), v), 3),
    "rescaled_variance_statistic-bandwidth": (lambda v: lk.rescaled_variance_statistic(_noise(), v), 3),
    "bootstrap_lrd_tests-block_size": (lambda v: lk.bootstrap_lrd_tests(_noise(), block_size=v, n_surrogates=10), 25),
    "bootstrap_lrd_tests-n_surrogates": (lambda v: lk.bootstrap_lrd_tests(_noise(), n_surrogates=v), 10),
    "bootstrap_lrd_tests-seed": (lambda v: lk.bootstrap_lrd_tests(_noise(), n_surrogates=10, seed=v), 1),
    "FgnSpec-length": (lambda v: lk.generate_fgn(lk.FgnSpec(0.7, v, 1)).values.tolist(), 20),
    "FgnSpec-seed": (lambda v: lk.generate_fgn(lk.FgnSpec(0.7, 20, v)).values.tolist(), 1),
    "SurrogateConfig-n_surrogates": (
        lambda v: lk.xcorr_significance(_noise(), _noise()[::-1], "dcca", config=lk.SurrogateConfig(v, 1)).p_values.tolist(),
        100,
    ),
    "SurrogateConfig-seed": (
        lambda v: lk.xcorr_significance(_noise(), _noise()[::-1], "dcca", config=lk.SurrogateConfig(100, v)).p_values.tolist(),
        1,
    ),
}


@pytest.mark.parametrize("name", INTEGER_PARAMETERS)
def test_integer_parameter_refuses_non_integers_and_takes_whole_floats(name):
    call, whole = INTEGER_PARAMETERS[name]
    for value in (whole + 0.5, float("nan"), float("inf"), str(whole)):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            call(value)
    assert repr(call(float(whole))) == repr(call(whole))


class TestRowSums:
    FORMS = ("ki,ki->k", "kj,j->k", "kj,kj,j->k")
    SUBSETS = (slice(0, 1), slice(1, 4), slice(None, None, 2), slice(5, 0, -2))

    @staticmethod
    def operands(form, n, strided):
        """Six rows per two-axis operand and one weight row, as the kernels
        pass them; strided rows are views of a gathered table, as
        ``np.take(...)[:, :-1]`` gives."""
        rng = np.random.default_rng(n)
        if strided:
            table = rng.standard_normal(97) * 1e3 + 7.0
            a, b = (np.take(table, rng.integers(0, 97, size=(6, n + 1)))[:, :-1] for _ in range(2))
            assert not a.flags.c_contiguous
        else:
            a, b = rng.standard_normal((2, 6, n)) * 1e3 + 7.0
        weights = rng.uniform(0.5, 2.0, n)
        return {"ki,ki->k": (a, b), "kj,j->k": (a, weights), "kj,kj,j->k": (a, b, weights)}[form]

    @staticmethod
    def rows(operands, index):
        return [x[index] if x.ndim == 2 else x for x in operands]

    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 16384, 16385, 24577])
    @pytest.mark.parametrize("form", FORMS)
    def test_each_row_is_summed_as_alone_in_any_batch(self, form, n, strided):
        operands = self.operands(form, n, strided)
        sums = _row_sums(form, *operands)
        alone = [np.einsum(form, *self.rows(operands, slice(i, i + 1)))[0] for i in range(6)]
        assert sums.tolist() == alone
        for subset in self.SUBSETS:
            assert _row_sums(form, *self.rows(operands, subset)).tolist() == sums[subset].tolist()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @example(n=8191, series=2, rows=3, strided=False, seed=0)
    @example(n=8192, series=3, rows=2, strided=True, seed=1)
    @example(n=8193, series=2, rows=2, strided=False, seed=2)
    @example(n=16385, series=2, rows=3, strided=True, seed=3)
    @given(
        n=st.sampled_from([1, 2, 101, 8191, 8192, 8193, 16384, 16385]),
        series=st.integers(1, 4),
        rows=st.integers(1, 4),
        strided=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_stacked_rows_are_summed_as_their_one_row_calls(self, n, series, rows, strided, seed):
        # The bootstrap sums (S, k, B + 1) stacks of gathered block values
        # over their last axis; each (s, i) row must get its lone sum.
        rng = np.random.default_rng(seed)
        if strided:
            table = rng.standard_normal(97) * 1e3 + 7.0
            a, b = (np.take(table, rng.integers(0, 97, size=(series, rows, n + 1)))[..., :-1] for _ in range(2))
        else:
            a, b = rng.standard_normal((2, series, rows, n)) * 1e3 + 7.0
        weights = rng.uniform(0.5, 2.0, n)
        for stacked, form, operands in [
            ("skj,skj->sk", "kj,kj->k", (a, b)),
            ("skj,j->sk", "kj,j->k", (a, weights)),
            ("skj,skj,j->sk", "kj,kj,j->k", (a, b, weights)),
        ]:
            sums = _row_sums(stacked, *operands)
            assert sums.shape == (series, rows)
            for s, i in np.ndindex(series, rows):
                alone = _row_sums(form, *(x[s, i: i + 1] if x.ndim == 3 else x for x in operands))
                assert sums[s, i].tolist() == alone[0].tolist()
