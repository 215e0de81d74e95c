import datetime as dt
import math
import subprocess
import sys
import warnings
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrdkit import finance
from lrdkit.errors import (
    DegenerateOverlapError,
    InvalidBarError,
    InvalidInputError,
)
from lrdkit.finance import (
    OHLCV_HEADER,
    OhlcvBar,
    OhlcvBars,
    TrendsSegment,
    chain_segments,
    format_float,
    garman_klass,
    log_transform,
    read_series_csv,
    series_csv_text,
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


def bars_of(rows):
    """OhlcvBars on consecutive days from (open, high, low, close, volume) rows."""
    dates = tuple(dt.date(2004, 1, 1) + dt.timedelta(days=i) for i in range(len(rows)))
    return OhlcvBars(dates, *(np.array(column) for column in zip(*rows)))


# Every positive finite price, subnormals among them.
PRICES = st.floats(min_value=math.ulp(0.0), max_value=sys.float_info.max)


def price_quads(draw, kind):
    """Low, two inner prices and high of one bar of the given kind."""
    if kind == "flat":
        return [draw(PRICES)] * 4
    if kind == "cents":
        # Daily ranges of a few percent, where np.log and math.log disagree
        # on about one ratio in sixty.
        base = draw(st.integers(min_value=100, max_value=10**7))
        moves = draw(st.lists(st.integers(0, base // 20), min_size=4, max_size=4))
        return sorted((base + move) / 100 for move in moves)
    return sorted(draw(st.lists(PRICES, min_size=4, max_size=4)))


@st.composite
def bar_columns(draw):
    """Valid bars: flat, with cent-rounded prices, or with any positive
    finite prices, so a price ratio can overflow or underflow."""
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        low, first, second, high = price_quads(draw, draw(st.sampled_from(["flat", "cents", "extreme"])))
        open_, close = draw(st.permutations([first, second]))
        rows.append((open_, high, low, close, draw(st.floats(min_value=0.0, max_value=1e12))))
    return bars_of(rows)


class TestGarmanKlassColumns:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(bars=bar_columns())
    @example(bars=bars_of([(50.0, 50.0, 50.0, 50.0, 0.0)]))
    @example(bars=bars_of([(1.0, math.nextafter(1.0, 2.0), 1.0, 1.0, 1.0), (1e-150, 1e150, 1e-150, 1e150, 1.0)]))
    # Ratios that underflow to 0 and overflow to inf; then subnormal prices
    # with a subnormal close over open and overflowing highs over lows.
    @example(bars=bars_of([(1e200, 1e200, 1e-200, 1e-200, 1.0), (1e-300, 1e300, 1e-300, 1e300, 1.0)]))
    @example(bars=bars_of([(1.0, 1.0, 5e-324, 1e-310, 1.0), (1e-300, 1e10, 1e-300, 1e-300, 1.0)]))
    def test_equals_each_bar_bit_for_bit(self, bars):
        columns = garman_klass(bars)
        per_bar = np.array([garman_klass(bar) for bar in bars])
        assert columns.view(np.int64).tolist() == per_bar.view(np.int64).tolist()

    def test_flat_bars_are_exactly_zero(self):
        bars = bars_of([(p, p, p, p, 0.0) for p in (0.01, 1.0, 123.45, 1e150)])
        assert garman_klass(bars).tolist() == [0.0] * 4

    @pytest.mark.parametrize(
        "row",
        [(1e200, 1e200, 1e-200, 1e-200, 1.0), (1e-300, 1e300, 1e-300, 1e300, 1.0)],
        ids=["close over open underflows", "both ratios overflow"],
    )
    def test_ratio_outside_the_floats_gives_the_log_difference(self, row):
        open_, high, low, close, _ = row
        expected = (
            0.5 * (math.log(high) - math.log(low)) ** 2
            - (2 * math.log(2) - 1) * (math.log(close) - math.log(open_)) ** 2
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert garman_klass(bars_of([row])).tolist() == [expected]
            assert garman_klass(bars_of([row])[0]) == expected

    @pytest.mark.parametrize("libm", [True, False], ids=["reversed np.log", "math.log map"])
    @pytest.mark.parametrize("n_bars", [1, 7, 5000])
    def test_both_log_routes_equal_each_bar_bit_for_bit(self, monkeypatch, libm, n_bars):
        # Each route alone must give math.log's bits, so the other is made to fail.
        monkeypatch.setattr(finance, "_reversed_log_is_libm", lambda: libm)
        unused = "_map_log" if libm else "_reversed_log"
        monkeypatch.setattr(finance, unused, lambda values: pytest.fail(f"{unused} ran"))
        rng = np.random.default_rng(n_bars)
        base = rng.integers(100, 10**6, n_bars)
        moves = rng.integers(0, base[:, None] // 20 + 1, (n_bars, 4))
        low, first, second, high = np.sort(base[:, None] + moves, axis=1).T / 100
        bars = bars_of(list(zip(first, high, low, second, np.ones(n_bars))))
        per_bar = np.array([garman_klass(bar) for bar in bars])
        assert garman_klass(bars).view(np.int64).tolist() == per_bar.view(np.int64).tolist()

    def test_route_check_catches_a_one_ulp_miss(self, monkeypatch):
        def off_by_an_ulp(values):
            logs = finance._map_log(values)
            logs[500] = np.nextafter(logs[500], np.inf)
            return logs

        check = finance._reversed_log_is_libm.__wrapped__
        monkeypatch.setattr(finance, "_reversed_log", finance._map_log)
        assert check()
        monkeypatch.setattr(finance, "_reversed_log", off_by_an_ulp)
        assert not check()

    def test_import_runs_no_route_check(self):
        code = (
            "import lrdkit.cli, lrdkit.finance as f;"
            "print(f._reversed_log_is_libm.cache_info().misses)"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (result.returncode, result.stdout, result.stderr) == (0, "0\n", "")


class TestOhlcvBars:
    TEXT = (
        "date,open,high,low,close,volume\n"
        "2021-01-04,100,110,95,105,1200\n"
        "2021-01-05,105,106,99,100,900\n"
        "2021-01-06,100,100,100,100,0\n"
    )

    @pytest.fixture(params=["\n", "\r\n"], ids=["column path", "row loop"])
    def bars(self, request, tmp_path):
        target = tmp_path / "prices.csv"
        target.write_bytes(self.TEXT.replace("\n", request.param).encode())
        return read_series_csv(target, "ohlcv")

    def test_is_a_sequence_of_bars(self, bars):
        assert isinstance(bars, OhlcvBars) and isinstance(bars, Sequence)
        assert len(bars) == 3
        assert bars[0].high == 110.0
        assert bars[-1] == OhlcvBar(dt.date(2021, 1, 6), 100.0, 100.0, 100.0, 100.0, 0.0)
        assert [bar.close for bar in bars] == [105.0, 100.0, 100.0]
        assert list(bars[1:]) == [bars[1], bars[2]]
        with pytest.raises(IndexError):
            bars[3]

    def test_columns_are_the_bars(self, bars):
        assert bars.dates == tuple(dt.date(2021, 1, d) for d in (4, 5, 6))
        assert bars.volume.tolist() == [1200.0, 900.0, 0.0]

    @pytest.mark.parametrize("name", OHLCV_HEADER[1:])
    def test_columns_refuse_assignment(self, bars, name):
        with pytest.raises(ValueError):
            getattr(bars, name)[0] = 1.0


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
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
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

    def test_default_floor_stays_positive_below_subnormal_products(self):
        # 5e-324 * 1e-3 underflows to 0; the floor stays at 5e-324 instead.
        out = log_transform(np.array([0.0, 5e-324, 1e-320, 2.0]))
        assert out.meta["floor"] == math.ulp(0.0) == 5e-324
        assert out.meta["clamped_indices"] == [0]
        assert np.all(np.isfinite(out.values))
        assert out.values[0] == out.values[1] == math.log(5e-324)
        # A smallest value of 1e-320 gives 1e-323, which does not underflow.
        assert log_transform(np.array([0.0, 1e-320])).meta["floor"] == 1e-320 * 1e-3

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
        assert chained.dates == tuple(
            dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(24)
        )

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

    @pytest.mark.parametrize("overlap_days", [2.5, 5.5, float("nan")])
    def test_fractional_overlap_refused(self, overlap_days):
        # Two 10-day segments sharing 5 days: 2.5 used to chain them, and
        # 5.5 failed only on the overlap count.
        first = daily_segment(dt.date(2020, 1, 1), [10.0] * 10)
        second = daily_segment(dt.date(2020, 1, 6), [20.0] * 10)
        with pytest.raises(InvalidInputError, match="overlap_days must be an integer"):
            chain_segments([first, second], overlap_days)

    def test_whole_float_overlap_runs_as_int(self):
        first = daily_segment(dt.date(2020, 1, 1), [10.0] * 10)
        second = daily_segment(dt.date(2020, 1, 6), [20.0] * 10)
        chained = chain_segments([first, second], 3.0)
        expected = chain_segments([first, second], 3)
        assert np.array_equal(chained.values, expected.values)
        assert chained.dates == expected.dates

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


@st.composite
def dated_values(draw):
    """Finite floats on strictly increasing dates."""
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30))
    date, dates = draw(st.dates(max_value=dt.date(9000, 1, 1))), []
    for _ in values:
        dates.append(date)
        date += dt.timedelta(days=draw(st.integers(min_value=1, max_value=40)))
    return tuple(dates), values


@st.composite
def whole_range_dated_values(draw):
    """Finite floats, possibly none, on strictly increasing dates anywhere
    from 0001-01-01 to 9999-12-31."""
    dates = sorted(draw(st.lists(st.dates(), unique=True, max_size=30)))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(floats, min_size=len(dates), max_size=len(dates)))
    return tuple(dates), values


class TestSeriesCsvText:
    @pytest.mark.parametrize(("value", "text"), [
        (-0.0, "-0"),
        (5e-324, "4.9406564584124654e-324"),
        (1.0 / 3.0, "0.33333333333333331"),
        (1e16, "10000000000000000"),
        (sys.float_info.max, "1.7976931348623157e+308"),
        (1e-300, "1e-300"),
        (123.0, "123"),
    ])
    def test_pinned_bytes(self, value, text):
        series = TimeSeries([2.5, value], dates=(dt.date(2004, 1, 1), dt.date(2004, 1, 3)))
        assert series_csv_text(series) == f"date,value\n2004-01-01,2.5\n2004-01-03,{text}\n"

    def test_edge_dates(self):
        dates = (
            dt.date(1, 1, 1), dt.date(999, 12, 31), dt.date(1900, 2, 28),
            dt.date(1900, 3, 1), dt.date(2000, 2, 29), dt.date(9999, 12, 31),
        )
        series = TimeSeries([0.1, -2.0, 3.0, 4.5, 1e300, 6.0], dates=dates)
        assert series_csv_text(series) == (
            "date,value\n0001-01-01,0.10000000000000001\n0999-12-31,-2\n1900-02-28,3\n"
            "1900-03-01,4.5\n2000-02-29,1.0000000000000001e+300\n9999-12-31,6\n"
        )

    def test_one_row_and_no_rows(self):
        one = TimeSeries([2.5], dates=(dt.date(2004, 1, 1),))
        assert series_csv_text(one) == "date,value\n2004-01-01,2.5\n"
        assert series_csv_text(TimeSeries([], dates=())) == "date,value\n"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=whole_range_dated_values())
    def test_equals_per_row_isoformat_and_format_float(self, data):
        dates, values = data
        expected = "date,value\n" + "".join(
            f"{d.isoformat()},{format_float(v)}\n" for d, v in zip(dates, values)
        )
        assert series_csv_text(TimeSeries(values, dates=dates)) == expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=dated_values())
    def test_round_trip_is_bit_identical(self, tmp_path_factory, data):
        dates, values = data
        target = tmp_path_factory.getbasetemp() / "round_trip.csv"
        write_series_csv(TimeSeries(values, dates=dates), target)
        back = read_series_csv(target, "trends")
        assert back.dates == dates
        assert back.values.view(np.int64).tolist() == np.array(values).view(np.int64).tolist()

    @staticmethod
    def expected_text(dates, values):
        return "date,value\n" + "".join(
            f"{d.isoformat()},{format(float(v), '.17g')}\n" for d, v in zip(dates, values)
        )

    @staticmethod
    def daily_dates(n):
        return tuple(dt.date(2004, 1, 1) + dt.timedelta(days=i) for i in range(n))

    @pytest.mark.parametrize(("value", "text"), [
        # Exact half-way products round to the even 17th digit.
        (1 + 2**-17, "1.0000076293945312"),
        (1 + 3 * 2**-17, "1.0000228881835938"),
        (0.0005059242248535156, "0.00050592422485351562"),
        (730678256517785.375, "730678256517785.38"),
        (1142104108052209.25, "1142104108052209.2"),
        (-1000 - 2**-10, "-1000.0009765625"),
        (2.5, "2.5"),
        (0.09999999999999999, "0.099999999999999992"),
    ])
    def test_half_way_and_pinned_fixed_notation(self, value, text):
        assert format(value, ".17g") == text
        series = TimeSeries([value], dates=(dt.date(2004, 1, 1),))
        assert series_csv_text(series) == f"date,value\n2004-01-01,{text}\n"

    def test_neighbours_of_the_fixed_notation_edges(self):
        values = []
        for edge in (float(f"1e{p}") for p in range(-4, 17)):
            up = down = edge
            values.append(edge)
            for _ in range(3):
                up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
                values += [up, down]
        values += [-v for v in values]
        assert 0.09999999999999999 in values
        dates = self.daily_dates(len(values))
        assert series_csv_text(TimeSeries(values, dates=dates)) == self.expected_text(dates, values)

    @pytest.mark.parametrize("value", [
        0.0, -0.0, 5e-324, -2.2250738585072009e-308, 9.9999999999999991e-05,
        -1e-100, 1e16, -1.2345678901234567e17, 1e300, -sys.float_info.max,
    ])
    def test_each_fallback_class_among_fixed_values(self, value):
        values = [1.5, value, -0.25]
        dates = self.daily_dates(3)
        assert series_csv_text(TimeSeries(values, dates=dates)) == self.expected_text(dates, values)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1000, 3000))
    def test_every_exponent_mixed_with_fallback_values(self, seed, n):
        rng = np.random.default_rng(seed)
        exponents = rng.integers(-4, 16, n)
        values = rng.uniform(1.0, 10.0, n) * 10.0 ** exponents * rng.choice([-1.0, 1.0], n)
        # Short mantissas and exact integers give trailing zeros to strip.
        values[::7] = np.round(values[::7], 2)
        values[1::11] = np.trunc(values[1::11])
        fallback = [0.0, -0.0, 5e-324, 1e-5, -3e-200, 1e16, 2.5e17, -1e300]
        where = rng.choice(n, len(fallback), replace=False)
        values[where] = fallback
        dates = self.daily_dates(n)
        assert set(range(-4, 16)) <= {math.floor(math.log10(abs(v))) for v in values if 1e-4 <= abs(v) < 1e16}
        assert series_csv_text(TimeSeries(values, dates=dates)) == self.expected_text(dates, values)


class TestDateCells:
    """The CSV cells of a date tuple are made at most once: the column
    reader keeps the grid it checked, and any other ``_Dates`` keeps the
    cells of its first write."""

    EDGES = (
        dt.date(1, 1, 1), dt.date(999, 12, 31), dt.date(1900, 2, 28),
        dt.date(2000, 2, 29), dt.date(9999, 12, 31),
    )

    def test_built_dates_write_isoformat_once(self):
        series = TimeSeries([1.0, -2.5, 3.0, 0.125, 7.0], dates=self.EDGES)
        assert series.dates.cells is None
        first = series_csv_text(series)
        assert first == "date,value\n" + "".join(
            f"{d.isoformat()},{format_float(v)}\n" for d, v in zip(self.EDGES, series.values)
        )
        cells = series.dates.cells
        assert cells.shape == (5, 11) and not cells.flags.writeable
        assert cells.tobytes() == "".join(f"{d.isoformat()}," for d in self.EDGES).encode()
        assert series_csv_text(series) == first
        assert series.dates.cells is cells

    def test_slice_of_read_dates_writes_its_own(self, tmp_path):
        dates = tuple(dt.date(2020, 2, 26) + dt.timedelta(days=i) for i in range(6))
        target = tmp_path / "read.csv"
        target.write_text("date,value\n" + "".join(f"{d},{i}\n" for i, d in enumerate(dates)))
        read = read_series_csv(target, "trends")
        assert read.dates.cells is not None
        part = TimeSeries(read.values[2:5], dates=read.dates[2:5])
        assert type(read.dates[2:5]) is tuple
        assert series_csv_text(part) == "date,value\n2020-02-28,2\n2020-02-29,3\n2020-03-01,4\n"
        assert part.dates.cells is not read.dates.cells

    @pytest.mark.parametrize("schema", ["trends", "ohlcv"])
    def test_crlf_copy_writes_the_plain_bytes(self, tmp_path, schema):
        dates = self.EDGES[:2] + tuple(dt.date(2000, 2, 27) + dt.timedelta(days=i) for i in range(4))
        if schema == "trends":
            text = "date,value\n" + "".join(f"{d},{i / 3}\n" for i, d in enumerate(dates))
        else:
            text = ",".join(OHLCV_HEADER) + "\n" + "".join(f"{d},10,12,9,11,{i}\n" for i, d in enumerate(dates))
        plain, crlf = tmp_path / "plain.csv", tmp_path / "crlf.csv"
        plain.write_text(text)
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        columns, rows = (read_series_csv(path, schema) for path in (plain, crlf))
        # The plain file keeps the reader's cells; the row loop makes none.
        assert columns.dates.cells is not None and rows.dates.cells is None
        if schema == "ohlcv":
            columns, rows = (TimeSeries(bars.volume, dates=bars.dates) for bars in (columns, rows))
        assert series_csv_text(rows) == series_csv_text(columns)
        assert rows.dates.cells.tobytes() == columns.dates.cells.tobytes()


class TestFormatFloat:
    @pytest.mark.parametrize(
        "value", [0.1, 1.0 / 3.0, 1e-300, -2.5, 0.0, 12345.678901234567]
    )
    def test_round_trips(self, value):
        assert float(format_float(value)) == value
