"""The column-wise CSV reader against the csv.reader row loop.

``read_series_csv`` parses plain files a column at a time and hands every
other file, and every file that fails a check, to the row loop. On any
text both routes must agree: the same series or bars, bit for bit, or the
same exception with the same message.
"""

import datetime as dt
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
    ]
)
def test_ohlcv_routes_agree(target, text):
    assert_routes_agree(target, text, "ohlcv")


class TestRoutes:
    def test_plain_file_takes_the_column_path(self, tmp_path):
        target = tmp_path / "plain.csv"
        target.write_text("date,value\n2004-01-01, 5\n\n2004-01-02,1_000\n,\n")
        with mock.patch.object(finance, "_read_rows", side_effect=AssertionError):
            series = read_series_csv(target, "trends")
        assert series.values.tolist() == [5.0, 1000.0]
        assert series.dates == (dt.date(2004, 1, 1), dt.date(2004, 1, 2))

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
        with mock.patch.object(finance, "_parse_columns", wraps=finance._parse_columns) as parse:
            read_series_csv(target, "trends")
        assert parse.call_count == 1

    @pytest.mark.parametrize("text", [
        'date,value\n2004-01-01,"5"\n2004-01-02,6\n',
        "date,value\r\n2004-01-01,5\r\n2004-01-02,6\r\n",
    ])
    def test_quoted_or_crlf_file_takes_the_row_loop(self, tmp_path, text):
        target = tmp_path / "odd.csv"
        target.write_bytes(text.encode("utf-8"))
        with mock.patch.object(finance, "_parse_columns", side_effect=AssertionError):
            series = read_series_csv(target, "trends")
        assert series.values.tolist() == [5.0, 6.0]

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
