import datetime as dt
import math

import numpy as np
import pytest

from lrdkit.errors import (
    DegenerateOverlapError,
    InvalidBarError,
    InvalidInputError,
)
from lrdkit.finance import (
    OhlcvBar,
    TrendsSegment,
    chain_segments,
    format_float,
    garman_klass,
    log_transform,
    read_series_csv,
    write_series_csv,
)
from lrdkit.series import TimeSeries


def make_bar(date=dt.date(2020, 1, 2), o=100.0, h=110.0, low=95.0, c=105.0, v=1000.0):
    return OhlcvBar(date=date, open=o, high=h, low=low, close=c, volume=v)


def daily_segment(start, values):
    values = np.asarray(values, dtype=float)
    end = start + dt.timedelta(days=values.size - 1)
    return TrendsSegment(start_date=start, end_date=end, values=values)


class TestGarmanKlass:
    def test_flat_bar_is_zero(self):
        bar = make_bar(o=50.0, h=50.0, low=50.0, c=50.0)
        assert garman_klass(bar) == 0.0

    def test_pure_range_bar(self):
        bar = make_bar(o=100.0, h=110.0, low=100.0, c=100.0)
        assert garman_klass(bar) == pytest.approx(0.0045420, abs=1e-6)

    def test_mixed_bar(self):
        assert garman_klass(make_bar()) == pytest.approx(0.0098268, abs=1e-6)

    def test_price_scale_invariance(self):
        scale = 3.7
        scaled = make_bar(o=100.0 * scale, h=110.0 * scale, low=95.0 * scale, c=105.0 * scale)
        assert garman_klass(scaled) == pytest.approx(garman_klass(make_bar()), abs=1e-12)


class TestOhlcvBar:
    def test_zero_volume_allowed(self):
        assert make_bar(v=0.0).volume == 0.0

    def test_invalid_bars_rejected(self):
        with pytest.raises(InvalidBarError):
            make_bar(o=-1.0)
        with pytest.raises(InvalidBarError):
            make_bar(low=0.0)
        with pytest.raises(InvalidBarError):
            make_bar(h=104.0)
        with pytest.raises(InvalidBarError):
            make_bar(low=101.0)
        with pytest.raises(InvalidBarError):
            make_bar(v=-5.0)
        with pytest.raises(InvalidBarError):
            make_bar(c=math.inf)

    @pytest.mark.parametrize("field", ["o", "h", "low", "c", "v"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_fields_rejected(self, field, value):
        message = "volume must be nonnegative" if field == "v" else "positive and finite"
        with pytest.raises(InvalidBarError, match=message):
            make_bar(**{field: value})


class TestTrendsSegment:
    def test_span_must_match_values(self):
        with pytest.raises(InvalidInputError):
            TrendsSegment(
                start_date=dt.date(2020, 1, 1),
                end_date=dt.date(2020, 1, 3),
                values=np.array([1.0, 2.0]),
            )

    def test_band_and_finiteness(self):
        start = dt.date(2020, 1, 1)
        with pytest.raises(InvalidInputError):
            daily_segment(start, [50.0, 101.0])
        with pytest.raises(InvalidInputError):
            daily_segment(start, [-0.5, 10.0])
        with pytest.raises(InvalidInputError):
            daily_segment(start, [np.nan, 10.0])

    def test_end_before_start(self):
        with pytest.raises(InvalidInputError):
            TrendsSegment(
                start_date=dt.date(2020, 1, 5),
                end_date=dt.date(2020, 1, 1),
                values=np.array([]),
            )

    def test_from_timeseries_roundtrip(self):
        dates = tuple(dt.date(2020, 3, d) for d in range(1, 6))
        series = TimeSeries(np.arange(5.0), dates=dates)
        segment = TrendsSegment.from_timeseries(series)
        assert segment.start_date == dates[0]
        assert segment.end_date == dates[-1]
        assert np.array_equal(segment.values, series.values)
        assert len(segment) == 5

    def test_from_timeseries_rejects_gaps(self):
        dates = (dt.date(2020, 3, 1), dt.date(2020, 3, 2), dt.date(2020, 3, 4))
        series = TimeSeries(np.arange(3.0), dates=dates)
        with pytest.raises(InvalidInputError):
            TrendsSegment.from_timeseries(series)

    def test_from_timeseries_requires_dates(self):
        with pytest.raises(InvalidInputError):
            TrendsSegment.from_timeseries(TimeSeries(np.arange(3.0)))


class TestLogTransform:
    def test_exact_values(self):
        out = log_transform(np.array([1.0, math.e, math.e ** 2]))
        assert np.allclose(out.values, [0.0, 1.0, 2.0], rtol=1e-12)
        assert out.meta["clamped_indices"] == []

    def test_default_floor_clamps_zeros(self):
        out = log_transform(np.array([0.0, 1.0, 10.0]))
        assert out.meta["floor"] == pytest.approx(1e-3)
        assert out.meta["clamped_indices"] == [0]
        assert out.values[0] == pytest.approx(math.log(1e-3))
        assert out.values[1] == pytest.approx(0.0)

    def test_explicit_floor(self):
        out = log_transform(np.array([0.1, 1.0]), floor=0.5)
        assert out.values[0] == pytest.approx(math.log(0.5))
        assert out.meta["clamped_indices"] == [0]

    def test_label(self):
        labeled = log_transform(TimeSeries(np.ones(3), label="volume"))
        assert labeled.label == "log(volume)"
        assert log_transform(np.ones(3)).label == "log"

    def test_log_variance_is_twice_log_volatility(self):
        variance = np.random.default_rng(60).uniform(0.5, 4.0, size=50)
        log_var = log_transform(variance)
        log_vol = log_transform(np.sqrt(variance))
        assert np.allclose(log_var.values, 2.0 * log_vol.values, rtol=1e-12)

    def test_rejects_hopeless_input(self):
        with pytest.raises(InvalidInputError):
            log_transform(np.array([0.0, -1.0]))
        with pytest.raises(InvalidInputError):
            log_transform(np.array([1.0, 2.0]), floor=0.0)
        with pytest.raises(InvalidInputError):
            log_transform(np.array([], dtype=float))


class TestChainSegments:
    def test_two_level_toy_chain(self):
        first = daily_segment(dt.date(2020, 1, 1), [10.0] * 10)
        second = daily_segment(dt.date(2020, 1, 6), [20.0] * 10)
        chained = chain_segments([first, second], overlap_days=5)
        assert chained.label == "chained"
        assert np.allclose(chained.values, 10.0)
        assert chained.values.size == 15
        assert chained.dates[0] == dt.date(2020, 1, 1)
        assert chained.dates[-1] == dt.date(2020, 1, 15)

    def test_single_segment_passthrough(self):
        segment = daily_segment(dt.date(2020, 1, 1), np.linspace(5.0, 9.0, 8))
        chained = chain_segments([segment], overlap_days=3)
        assert np.array_equal(chained.values, segment.values)
        assert chained.dates == tuple(
            dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(8)
        )

    def test_rescaling_composes_across_three_segments(self):
        first = daily_segment(dt.date(2020, 1, 1), [20.0] * 10)
        second = daily_segment(dt.date(2020, 1, 8), [40.0] * 10)
        third = daily_segment(dt.date(2020, 1, 15), [80.0] * 10)
        chained = chain_segments([first, second, third], overlap_days=3)
        assert np.allclose(chained.values, 20.0)
        assert chained.values.size == 24

    def test_scale_equivariance(self):
        rng = np.random.default_rng(61)
        first = daily_segment(dt.date(2020, 1, 1), rng.uniform(20.0, 80.0, 12))
        second = daily_segment(dt.date(2020, 1, 9), rng.uniform(20.0, 80.0, 12))
        base = chain_segments([first, second], overlap_days=4)
        halved = chain_segments(
            [
                daily_segment(first.start_date, first.values * 0.5),
                daily_segment(second.start_date, second.values * 0.5),
            ],
            overlap_days=4,
        )
        assert np.allclose(halved.values, 0.5 * base.values, rtol=1e-12)

    def test_error_paths(self):
        first = daily_segment(dt.date(2020, 1, 1), [10.0] * 10)
        inside = daily_segment(dt.date(2020, 1, 2), [10.0] * 5)
        with pytest.raises(InvalidInputError):
            chain_segments([first, inside], overlap_days=2)
        disjoint = daily_segment(dt.date(2020, 2, 1), [10.0] * 5)
        with pytest.raises(InvalidInputError):
            chain_segments([first, disjoint], overlap_days=2)
        barely = daily_segment(dt.date(2020, 1, 9), [10.0] * 10)
        with pytest.raises(InvalidInputError):
            chain_segments([first, barely], overlap_days=5)
        with pytest.raises(InvalidInputError):
            chain_segments([], overlap_days=5)
        with pytest.raises(InvalidInputError):
            chain_segments([first], overlap_days=0)

    def test_zero_overlap_mean_degenerate(self):
        first = daily_segment(dt.date(2020, 1, 1), [10.0] * 10)
        second = daily_segment(
            dt.date(2020, 1, 6), [0.0] * 5 + [20.0] * 5
        )
        with pytest.raises(DegenerateOverlapError):
            chain_segments([first, second], overlap_days=5)


class TestCsv:
    def test_round_trip_preserves_floats(self, tmp_path):
        dates = tuple(dt.date(2021, 6, d) for d in range(1, 5))
        values = np.array([0.1, 1.0 / 3.0, 1.2345678901234567e-17, 100.0])
        series = TimeSeries(values, dates=dates)
        target = tmp_path / "interest.csv"
        write_series_csv(series, target)
        back = read_series_csv(target, "trends")
        assert np.array_equal(back.values, values)
        assert back.dates == dates
        assert back.label == "interest"

    def test_blank_rows_skipped(self, tmp_path):
        target = tmp_path / "gappy.csv"
        target.write_text("date,value\n2021-01-01,5\n\n2021-01-02,6\n")
        series = read_series_csv(target, "trends")
        assert series.values.tolist() == [5.0, 6.0]

    def test_header_mismatch_points_at_line_one(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("day,value\n2021-01-01,5\n")
        with pytest.raises(InvalidInputError, match=":1"):
            read_series_csv(target, "trends")

    def test_bad_value_points_at_row(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("date,value\n2021-01-01,5\n2021-01-02,oops\n")
        with pytest.raises(InvalidInputError, match=":3"):
            read_series_csv(target, "trends")

    def test_non_increasing_dates_rejected(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("date,value\n2021-01-02,5\n2021-01-02,6\n")
        with pytest.raises(InvalidInputError, match=":3"):
            read_series_csv(target, "trends")

    @pytest.mark.parametrize("date", ["20210101", "2021-W01-1", "2021-1-01"])
    def test_only_year_month_day_dates(self, tmp_path, date):
        target = tmp_path / "bad.csv"
        target.write_text(f"date,value\n{date},5\n")
        with pytest.raises(InvalidInputError, match=":2: invalid ISO date"):
            read_series_csv(target, "trends")

    def test_non_utf8_byte_names_the_file(self, tmp_path):
        target = tmp_path / "latin1.csv"
        target.write_bytes(b"date,value\n2004-01-01,1\xff\n")
        with pytest.raises(InvalidInputError, match="latin1.csv: not UTF-8 text"):
            read_series_csv(target, "trends")

    def test_wrong_field_count(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text("date,value\n2021-01-01,5,7\n")
        with pytest.raises(InvalidInputError, match=":2"):
            read_series_csv(target, "trends")

    def test_empty_and_header_only_files(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(InvalidInputError, match="empty"):
            read_series_csv(empty, "trends")
        header_only = tmp_path / "header.csv"
        header_only.write_text("date,value\n")
        with pytest.raises(InvalidInputError, match="no data rows"):
            read_series_csv(header_only, "trends")

    def test_ohlcv_parsing(self, tmp_path):
        target = tmp_path / "prices.csv"
        target.write_text(
            "date,open,high,low,close,volume\n"
            "2021-01-04,100,110,95,105,1200\n"
            "2021-01-05,105,106,99,100,900\n"
        )
        bars = read_series_csv(target, "ohlcv")
        assert len(bars) == 2
        assert bars[0].high == 110.0
        assert bars[1].date == dt.date(2021, 1, 5)

    def test_ohlcv_bad_bar_points_at_row(self, tmp_path):
        target = tmp_path / "prices.csv"
        target.write_text(
            "date,open,high,low,close,volume\n"
            "2021-01-04,100,104,95,105,1200\n"
        )
        with pytest.raises(InvalidBarError, match=":2"):
            read_series_csv(target, "ohlcv")

    def test_unknown_schema(self, tmp_path):
        with pytest.raises(InvalidInputError):
            read_series_csv(tmp_path / "whatever.csv", "bars")

    def test_write_requires_dates(self, tmp_path):
        with pytest.raises(InvalidInputError):
            write_series_csv(TimeSeries(np.ones(3)), tmp_path / "out.csv")


class TestFormatFloat:
    @pytest.mark.parametrize(
        "value", [0.1, 1.0 / 3.0, 1e-300, -2.5, 0.0, 12345.678901234567]
    )
    def test_round_trips(self, value):
        assert float(format_float(value)) == value
