"""The column-wise CSV reader against the csv.reader row loop.

``read_series_csv`` parses plain files a column at a time and hands every
other file, and every file that fails a check, to the row loop. On any
text both routes must agree: the same series or bars, bit for bit, or the
same exception with the same message.
"""

import csv
import datetime as dt
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from lrdkit import finance
from lrdkit.errors import InvalidBarError, InvalidInputError, ToolkitError
from lrdkit.finance import read_series_csv

DATE_ODDITIES = [
    "20040105",
    "2004-02-30",
    "2004-1-05",
    "2004-W01-1",
    "２００４-01-05",
    "2004-01-٥",
    " 2004-01-05",
    "2004-01-05 ",
    "",
]
# Texts float() reads, and texts it rejects or reads as non-finite.
NUMBER_ODDITIES = ["1_000", " 5 ", "\t7", "+3", "-0", "１２", "٣", ".5", "1e-400"]
VALUE_ODDITIES = ["1e400", "inf", "-inf", "nan", "abc", "", " ", "0x10", "1__0"]
BLANK_LINES = ["", ",", " , ", "\t", ",,,,,"]
# Each text mixes valid rows with blank lines and at most one of these.
ODDITIES = [
    "odd date", "repeat", "count", "quote", "pad", "bad value", "bad bar", "crlf", "header",
]


def float_texts(min_value=-1e300, max_value=1e300):
    number = st.floats(min_value=min_value, max_value=max_value)
    return st.one_of(
        number.map(repr),
        number.map(lambda x: format(x, ".17g")),
        st.integers(min_value=0, max_value=10**6).map(str),
        st.sampled_from(NUMBER_ODDITIES),
    )


@st.composite
def bar_fields(draw):
    """Open, high, low and close texts in a valid order, and a volume."""
    low, first, second, high = sorted(draw(st.lists(
        st.floats(min_value=0.01, max_value=1e4), min_size=4, max_size=4)))
    open_, close = draw(st.permutations([first, second]))
    volume = draw(float_texts(min_value=0.0, max_value=1e9) | st.sampled_from(["0", "-0"]))
    return [repr(open_), repr(high), repr(low), repr(close), volume]


@st.composite
def bad_bar_fields(draw):
    """Bar texts with a swapped pair of prices, a low or a volume below
    zero, or a non-finite field."""
    fields = draw(bar_fields())
    fault = draw(st.sampled_from(["swap", "low", "volume", "non-finite"]))
    if fault == "swap":
        i, j = draw(st.permutations(range(4)))[:2]
        fields[i], fields[j] = fields[j], fields[i]
    elif fault == "low":
        fields[2] = draw(st.sampled_from(["0", "-0", "-1"]))
    elif fault == "volume":
        fields[4] = draw(st.sampled_from(["-1", "-1e-300"]))
    else:
        fields[draw(st.integers(0, 4))] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    return fields


@st.composite
def csv_texts(draw, schema):
    """A header and rows, joined by newlines."""
    oddity = draw(st.none() | st.sampled_from(ODDITIES))
    header = ",".join(finance.TRENDS_HEADER if schema == "trends" else finance.OHLCV_HEADER)
    header = draw(st.sampled_from([header, header.title(), header.replace(",", " , ")]))
    if oddity == "header":
        header = draw(st.sampled_from(["day,value", "date", "", "date,value,extra"]))
    fields = float_texts().map(lambda v: [v]) if schema == "trends" else bar_fields()
    kinds = ["row", "row", "blank"] + ([oddity] * 2 if oddity else [])
    date = dt.date(2004, 1, 1) + dt.timedelta(days=draw(st.integers(0, 5000)))
    lines = [header]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(BLANK_LINES)))
            continue
        if kind != "repeat":
            date += dt.timedelta(days=draw(st.integers(min_value=1, max_value=3)))
        row = [date.isoformat(), *draw(fields)]
        if kind == "odd date":
            row[0] = draw(st.sampled_from(DATE_ODDITIES))
        elif kind == "count":
            row = row[:-1] if draw(st.booleans()) else [*row, "1"]
        elif kind == "quote":
            row[-1] = f'"{row[-1]}"'
        elif kind == "pad":
            row = [f" {field} " for field in row]
        elif kind == "bad value":
            row[draw(st.integers(1, len(row) - 1))] = draw(st.sampled_from(VALUE_ODDITIES))
        elif kind == "bad bar" and schema == "ohlcv":
            row[1:] = draw(bad_bar_fields())
        lines.append(",".join(row))
    newline = "\r\n" if oddity == "crlf" else "\n"
    return newline.join(lines) + draw(st.sampled_from(["", newline, newline * 2]))


def outcome(path, schema):
    """The read as comparable plain data, or the exception and message."""
    try:
        result = read_series_csv(path, schema)
    except ToolkitError as error:
        return type(error), str(error)
    if schema == "trends":
        return result.label, result.dates, result.values.view(np.int64).tolist()
    return [
        (bar.date, *(float.hex(getattr(bar, name)) for name in finance.OHLCV_HEADER[1:]))
        for bar in result
    ]


def row_loop_only(text, expected):
    return None


@pytest.fixture(scope="module")
def target(tmp_path_factory):
    return tmp_path_factory.mktemp("paths") / "generated.csv"


def assert_routes_agree(target, text, schema):
    target.write_bytes(text.encode("utf-8"))
    expected = finance.TRENDS_HEADER if schema == "trends" else finance.OHLCV_HEADER
    event("column path" if finance._read_columns(text, expected) else "row loop")
    both = outcome(target, schema)
    with mock.patch.object(finance, "_read_columns", row_loop_only):
        rows = outcome(target, schema)
    assert both == rows


def with_examples(texts):
    def decorate(test):
        for text in texts:
            test = example(text=text)(test)
        return test
    return decorate


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=csv_texts("trends"))
@with_examples([
    "date,value\n2004-01-01,1_000\n2004-01-02, 5 \n2004-01-03,１２\n",
    "date,value\n2004-01-01, 5\n2004-01-02,1_000\n\n\n",
    "date,value\n2004-01-01, 5\n\n2004-01-02,1_000\n",
    "date,value\n2004-01-01, 5\n,\n2004-01-02,1_000\n",
    "date,value\n2004-01-01,5\n,\n\n2004-01-01,6\n",
    "date,value\n2004-01-01,1,2004-01-02\n3\n",
    "date,value\n2004-01-01,5\n2004-01-02,inf\n",
    "date,value\n2004-01-01,nan\n",
    "date,value\n20040105,5\n",
    "date,value\n2004-02-30,5\n",
])
def test_trends_routes_agree(target, text):
    assert_routes_agree(target, text, "trends")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=csv_texts("ohlcv"))
@with_examples(
    "date,open,high,low,close,volume\n2004-01-01,2,3,1,2.5,0\n" + bad
    for bad in [
        "2004-01-02,2,3,2.5,2,1\n",
        "2004-01-02,2,1.5,1,2,1\n",
        "2004-01-02,2,3,0,2,1\n",
        "2004-01-02,2,3,1,2,-1\n",
        "2004-01-02,2,3,1,nan,1\n",
        "2004-01-02,2,3,1,2,inf\n",
        "2004-01-02,2,-inf,1,2,1\n",
        "2004-01-02,2,3,1,0,1\n",
        "2004-01-02,2,3,-1,2,1\n",
        "2004-01-01,2,3,1,2,1\n",
        "2004-01-02,2,3,1,2,1\n\n\n",
        "\n2004-01-02,2,3,1,2,1\n",
        ",\n2004-01-02,2,3,1,2,1\n",
    ]
)
def test_ohlcv_routes_agree(target, text):
    assert_routes_agree(target, text, "ohlcv")


class TestRoutes:
    PLAIN = "date,value\n2004-01-01, 5\n2004-01-02,1_000\n"

    def read_plain(self, target, text):
        """Read ``text``, which holds the values of ``PLAIN``, and return how
        often the row loop ran."""
        target.write_text(text)
        with mock.patch.object(finance, "_read_rows", wraps=finance._read_rows) as rows:
            series = read_series_csv(target, "trends")
        assert series.values.tolist() == [5.0, 1000.0]
        assert series.dates == (dt.date(2004, 1, 1), dt.date(2004, 1, 2))
        return rows.call_count

    def test_plain_file_takes_the_column_path(self, tmp_path):
        assert self.read_plain(tmp_path / "plain.csv", self.PLAIN) == 0

    def test_trailing_empty_lines_stay_on_the_column_path(self, tmp_path):
        assert self.read_plain(tmp_path / "plain.csv", self.PLAIN + "\n\n") == 0

    @pytest.mark.parametrize("blank", ["", ","], ids=["empty", "comma"])
    def test_blank_line_mid_file_takes_the_row_loop(self, tmp_path, blank):
        text = self.PLAIN.replace("\n2004-01-02", f"\n{blank}\n2004-01-02")
        assert self.read_plain(tmp_path / "blank.csv", text) == 1

    def test_plain_bars_take_the_column_path(self, tmp_path):
        target = tmp_path / "prices.csv"
        target.write_text(
            "date,open,high,low,close,volume\n"
            "2021-01-04,100,110,95,105,1200\n"
            "2021-01-05,105,106,99,100,0\n"
        )
        with mock.patch.object(finance, "_read_rows", side_effect=AssertionError):
            bars = read_series_csv(target, "ohlcv")
        assert [(b.open, b.high, b.low, b.close, b.volume) for b in bars] == [
            (100.0, 110.0, 95.0, 105.0, 1200.0), (105.0, 106.0, 99.0, 100.0, 0.0)]

    def test_plain_file_is_parsed_in_one_pass(self, tmp_path):
        target = tmp_path / "plain.csv"
        target.write_text("date,value\n2004-01-01,5\n2004-01-02,6\n")
        with mock.patch.object(finance, "_read_columns", wraps=finance._read_columns) as columns:
            read_series_csv(target, "trends")
        assert columns.call_count == 1

    @pytest.mark.parametrize("text", [
        'date,value\n2004-01-01,"5"\n2004-01-02,6\n',
        "date,value\r\n2004-01-01,5\r\n2004-01-02,6\r\n",
    ])
    def test_quoted_or_crlf_file_takes_the_row_loop(self, tmp_path, text):
        target = tmp_path / "odd.csv"
        target.write_bytes(text.encode("utf-8"))
        assert finance._read_columns(text, finance.TRENDS_HEADER) is None
        assert read_series_csv(target, "trends").values.tolist() == [5.0, 6.0]

    def test_failing_check_falls_back_to_the_row_loop(self, tmp_path):
        target = tmp_path / "prices.csv"
        target.write_text(
            "date,open,high,low,close,volume\n"
            "2021-01-04,100,110,95,105,1200\n"
            "2021-01-05,100,104,95,105,1200\n"
        )
        with mock.patch.object(finance, "_read_rows", wraps=finance._read_rows) as rows:
            with pytest.raises(InvalidBarError, match=":3: .*low <= open, close <= high"):
                read_series_csv(target, "ohlcv")
        assert rows.call_count == 1

    def test_field_over_the_csv_limit_is_an_input_error(self, tmp_path):
        target = tmp_path / "wide.csv"
        target.write_text("date,value\n2004-01-01," + " " * 200_000 + "5\n")
        with pytest.raises(InvalidInputError, match="wide.csv: field larger than field limit"):
            read_series_csv(target, "trends")


GOOD_BAR = {"open": 100.0, "high": 110.0, "low": 95.0, "close": 105.0, "volume": 1200.0}
BAR_FAULTS = [
    *((name, value, "prices must be positive and finite")
      for name in ("open", "high", "low", "close")
      for value in (math.nan, math.inf, -math.inf, 0.0, -1.0)),
    *(("volume", value, "volume must be nonnegative")
      for value in (math.nan, math.inf, -math.inf, -1.0)),
    ("low", 101.0, "bar violates low <= open, close <= high"),
    ("high", 104.0, "bar violates low <= open, close <= high"),
]


def read_plain_and_crlf(target, text, schema):
    """The outcome of reading ``text`` as it is, with no calendar cached
    and then with its own calendar cached, and with CRLF line ends, from
    the same path, so the three messages can be compared."""
    finance._calendar.cache_clear()
    outcomes = []
    for newline in ("\n", "\n", "\r\n"):
        target.write_bytes(text.replace("\n", newline).encode("utf-8"))
        outcomes.append(outcome(target, schema))
    return outcomes


class TestSameErrorOnEveryRoute:
    """A bad bar, a bad value, a date out of order and a bad header give the
    same class, message and row through ``OhlcvBar``, a plain file read
    with and without its calendar cached, and its CRLF copy."""

    HEADER = ",".join(finance.OHLCV_HEADER) + "\n"
    FIRST_ROW = "2004-01-01,100,110,95,105,1200\n"

    @pytest.mark.parametrize("name, value, message", BAR_FAULTS)
    def test_bad_bar(self, target, name, value, message):
        date = dt.date(2004, 1, 2)
        bar = {**GOOD_BAR, name: value}
        with pytest.raises(InvalidBarError) as error:
            finance.OhlcvBar(date, **bar)
        assert str(error.value) == f"{date}: {message}"
        text = self.HEADER + self.FIRST_ROW + f"{date},{','.join(map(repr, bar.values()))}\n"
        if math.isfinite(value):
            expected = InvalidBarError, f"{target}:3: {date}: {message}"
        else:
            expected = InvalidInputError, f"{target}:3: non-finite {name} field {repr(value)!r}"
        assert read_plain_and_crlf(target, text, "ohlcv") == [expected] * 3

    @pytest.mark.parametrize("value", VALUE_ODDITIES)
    def test_bad_value(self, target, value):
        text = "date,value\n2004-01-01,5\n2004-01-02," + value + "\n2004-01-03,6\n"
        kind = "non-numeric" if value in ("abc", "", " ", "0x10", "1__0") else "non-finite"
        expected = InvalidInputError, f"{target}:3: {kind} value field {value!r}"
        assert read_plain_and_crlf(target, text, "trends") == [expected] * 3

    def test_bars_out_of_order(self, target):
        text = self.HEADER + "2004-01-02,100,110,95,105,1200\n" + self.FIRST_ROW
        expected = InvalidInputError, f"{target}:3: date 2004-01-01 does not increase past 2004-01-02"
        assert read_plain_and_crlf(target, text, "ohlcv") == [expected] * 3

    @pytest.mark.parametrize("text, message", [
        ("", ": empty file"),
        ("date,value\n", ": no data rows"),
        ("day,value\n2004-01-01,5\n", ":1: expected header 'date,value', got 'day,value'"),
        (" Date ,value\n2004-01-01,5\n2004-01-01,6\n", ":3: date 2004-01-01 does not increase past 2004-01-01"),
    ])
    def test_header(self, target, text, message):
        expected = InvalidInputError, f"{target}{message}"
        assert read_plain_and_crlf(target, text, "trends") == [expected] * 3

    def test_header_field_over_the_csv_limit(self, target):
        text = "date," + "v" * (csv.field_size_limit() + 1) + "\n2004-01-01,5\n"
        expected = InvalidInputError, f"{target}: field larger than field limit ({csv.field_size_limit()})"
        assert read_plain_and_crlf(target, text, "trends") == [expected] * 3

    @pytest.mark.parametrize("name, value", [fault[:2] for fault in BAR_FAULTS])
    def test_columns_agree_with_each_bar(self, name, value):
        columns = [np.array([GOOD_BAR[field], value if field == name else GOOD_BAR[field]])
                   for field in finance.OHLCV_HEADER[1:]]
        assert finance._valid_bars(*columns).tolist() == [True, False]


class TestCalendarCache:
    """The column reader checks a date column once for the files read after
    it that share it, and gives them one ``_Dates``."""

    DATES = [dt.date(2004, 1, 1) + dt.timedelta(days=i) for i in range(40) if i % 7 not in (5, 6)]

    @staticmethod
    def write(path, dates, values):
        path.write_text("date,value\n" + "".join(f"{d},{v!r}\n" for d, v in zip(dates, np.asarray(values).tolist())))
        return path

    def test_files_sharing_a_calendar_share_its_dates(self, tmp_path):
        rng = np.random.default_rng(1)
        paths = [self.write(tmp_path / f"s{i}.csv", self.DATES, rng.normal(size=len(self.DATES))) for i in range(3)]
        alone = []
        for path in paths:
            finance._calendar.cache_clear()
            alone.append(outcome(path, "trends"))
        finance._calendar.cache_clear()
        shared = [read_series_csv(path, "trends") for path in paths]
        assert all(series.dates is shared[0].dates for series in shared)
        assert shared[0].dates.cells.tobytes() == "".join(f"{d}," for d in self.DATES).encode()
        assert [outcome(path, "trends") for path in paths] == alone
        assert finance._calendar.cache_info().hits >= 5

    @pytest.mark.parametrize("row, date, message", [
        (12, "2004-01-13", None),  # still increasing: the file's own calendar
        (12, "2004-01-12", "date 2004-01-12 does not increase past 2004-01-12"),
        (12, "2004-02-30", "invalid ISO date '2004-02-30'"),
        (28, "2004-2-09", "invalid ISO date '2004-2-09'"),
    ])
    def test_calendar_one_date_off_the_cached_one(self, tmp_path, row, date, message):
        values = np.arange(len(self.DATES), dtype=float)
        self.write(tmp_path / "cached.csv", self.DATES, values)
        texts = [d.isoformat() for d in self.DATES]
        texts[row - 2] = date
        changed = self.write(tmp_path / "changed.csv", texts, values)
        finance._calendar.cache_clear()
        alone = outcome(changed, "trends")
        read_series_csv(tmp_path / "cached.csv", "trends")
        assert outcome(changed, "trends") == alone
        if message is None:
            assert alone[1][row - 2] == dt.date.fromisoformat(date) != self.DATES[row - 2]
        else:
            assert alone == (InvalidInputError, f"{changed}:{row}: {message}")
