"""Volatility proxies, log transforms, segment chaining, and CSV I/O.

The range-based variance proxy follows Garman and Klass (1980):

    var_hat = (ln(high / low))^2 / 2 - (2 ln 2 - 1) * (ln(close / open))^2.

It can dip at or below zero on rare bars, so logs are taken only after
clamping at a small positive floor, with the clamped positions flagged.

Segment chaining rescales overlapping pieces onto a common level: each new
segment is multiplied by the ratio of overlap means against the already
chained values, so the ratios compose multiplicatively and the overlap
region keeps the earlier segment's values.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateOverlapError,
    InvalidBarError,
    InvalidInputError,
)
from .series import TimeSeries

__all__ = [
    "OhlcvBar",
    "TrendsSegment",
    "garman_klass",
    "log_transform",
    "chain_segments",
    "read_series_csv",
    "series_csv_text",
    "write_series_csv",
    "format_float",
]

TRENDS_HEADER = ("date", "value")
OHLCV_HEADER = ("date", "open", "high", "low", "close", "volume")
_GK_COEFF = 2.0 * math.log(2.0) - 1.0
# The bytes of a date and its comma; a 0 stands for any ASCII digit.
_DATE_SHAPE = np.frombuffer(b"0000-00-00,", dtype=np.uint8)


@dataclass(frozen=True)
class OhlcvBar:
    """One daily price bar with volume.

    Prices must be positive and ordered low <= open, close <= high;
    volume must be nonnegative.
    """

    date: dt.date
    open: float
    high: float
    low: float
    close: float
    volume: float

    def __post_init__(self) -> None:
        # Comparison chains, false on NaN, pass every valid bar; the checks
        # below name what an invalid bar violates.
        low, high = self.low, self.high
        if (
            0.0 < low <= self.open <= high < math.inf
            and low <= self.close <= high
            and 0.0 <= self.volume < math.inf
        ):
            return
        prices = (self.open, self.high, self.low, self.close)
        if not all(math.isfinite(p) and p > 0.0 for p in prices):
            raise InvalidBarError(f"{self.date}: prices must be positive and finite")
        if self.low > min(self.open, self.close) or self.high < max(self.open, self.close):
            raise InvalidBarError(
                f"{self.date}: bar violates low <= open, close <= high"
            )
        if not math.isfinite(self.volume) or self.volume < 0.0:
            raise InvalidBarError(f"{self.date}: volume must be nonnegative")


@dataclass(frozen=True, eq=False)
class TrendsSegment:
    """A contiguous daily run of search-interest values in [0, 100]."""

    start_date: dt.date
    end_date: dt.date
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        expected = (self.end_date - self.start_date).days + 1
        if expected < 1:
            raise InvalidInputError(
                f"segment ends {self.end_date} before it starts {self.start_date}"
            )
        if values.size != expected:
            raise InvalidInputError(
                f"segment {self.start_date}..{self.end_date} spans {expected} days "
                f"but holds {values.size} values"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("segment contains non-finite values")
        if values.min() < 0.0 or values.max() > 100.0:
            raise InvalidInputError("segment values must lie in [0, 100]")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_timeseries(cls, series: TimeSeries) -> "TrendsSegment":
        """Build a segment from a dated series with gap-free daily coverage."""
        if series.dates is None:
            raise InvalidInputError(f"series {series.label!r} has no dates")
        deltas = [
            (b - a).days for a, b in zip(series.dates, series.dates[1:])
        ]
        if any(d != 1 for d in deltas):
            raise InvalidInputError(
                f"series {series.label!r} is not daily-contiguous"
            )
        return cls(
            start_date=series.dates[0],
            end_date=series.dates[-1],
            values=series.values,
        )

    def __len__(self) -> int:
        return int(self.values.size)


def garman_klass(bar: OhlcvBar) -> float:
    """Garman-Klass daily variance proxy for one bar.

    Exactly zero on a flat bar; occasionally negative when the open-close
    move dominates the high-low range.
    """
    high_low = math.log(bar.high / bar.low)
    close_open = math.log(bar.close / bar.open)
    return 0.5 * high_low * high_low - _GK_COEFF * close_open * close_open


def log_transform(series, floor: float | None = None) -> TimeSeries:
    """Natural log of a series, clamped below at a positive floor.

    The default floor is the smallest positive value times 1e-3. Values
    below the floor, including zeros and negatives, map to ln(floor) and
    their indices are recorded in the output's ``meta`` under
    ``"clamped_indices"``. A series without any positive value has no
    floor to anchor and is rejected.
    """
    if not isinstance(series, TimeSeries):
        series = TimeSeries(series)
    values = series.values
    if values.size == 0:
        raise InvalidInputError("cannot log-transform an empty series")
    positive = values[values > 0.0]
    if positive.size == 0:
        raise InvalidInputError("no positive values to anchor the clamp floor")
    if floor is None:
        floor = float(positive.min()) * 1e-3
    elif not (math.isfinite(floor) and floor > 0.0):
        raise InvalidInputError(f"floor must be positive, got {floor}")
    clamped = values < floor
    out = np.log(np.maximum(values, floor))
    label = f"log({series.label})" if series.label else "log"
    meta = {
        "floor": float(floor),
        "clamped_indices": [int(i) for i in np.nonzero(clamped)[0]],
    }
    return TimeSeries(out, label=label, dates=series.dates, meta=meta)


def chain_segments(segments, overlap_days: int) -> TimeSeries:
    """Chain overlapping segments onto the first segment's level.

    Each consecutive pair must share at least ``overlap_days`` calendar
    days. The later segment is multiplied by the mean of the already
    chained values over the overlap divided by its own overlap mean, and
    only its dates beyond the chained range are appended, so overlap
    values always come from the earlier segment.

    Raises
    ------
    InvalidInputError
        On a date gap, insufficient overlap, or a segment that does not
        extend the chained range.
    DegenerateOverlapError
        When a later segment's overlap mean is zero.
    """
    segments = list(segments)
    if not segments:
        raise InvalidInputError("no segments to chain")
    if overlap_days < 1:
        raise InvalidInputError(f"overlap_days must be positive, got {overlap_days}")
    first = segments[0]
    chained = list(first.values)
    dates = [
        first.start_date + dt.timedelta(days=i) for i in range(len(first))
    ]
    current_end = first.end_date
    for position, segment in enumerate(segments[1:], start=2):
        if segment.end_date <= current_end:
            raise InvalidInputError(
                f"segment {position} does not extend past {current_end}"
            )
        overlap = (current_end - segment.start_date).days + 1
        if overlap <= 0:
            raise InvalidInputError(
                f"gap between {current_end} and segment {position} "
                f"starting {segment.start_date}"
            )
        if overlap < overlap_days:
            raise InvalidInputError(
                f"segment {position} overlaps only {overlap} days, "
                f"need {overlap_days}"
            )
        earlier_mean = float(np.mean(chained[-overlap:]))
        later_mean = float(np.mean(segment.values[:overlap]))
        if later_mean == 0.0:
            raise DegenerateOverlapError(
                f"segment {position} has zero mean over its overlap"
            )
        scaled = segment.values * (earlier_mean / later_mean)
        chained.extend(scaled[overlap:])
        dates.extend(
            segment.start_date + dt.timedelta(days=i)
            for i in range(overlap, len(segment))
        )
        current_end = segment.end_date
    return TimeSeries(np.asarray(chained), label="chained", dates=dates)


def format_float(value: float) -> str:
    """Render a float with 17 significant digits, enough to round-trip."""
    return format(float(value), ".17g")


def _parse_date(text: str, where: str) -> dt.date:
    """A ``YYYY-MM-DD`` date; ``fromisoformat`` takes more forms from 3.11 on."""
    date = text.strip()
    try:
        if len(date) == 10 and date[4] == date[7] == "-":
            return dt.date.fromisoformat(date)
    except ValueError:
        pass
    raise InvalidInputError(f"{where}: invalid ISO date {text!r}")


def _parse_float(text: str, where: str, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InvalidInputError(
            f"{where}: non-numeric {column} field {text!r}"
        ) from None
    if not math.isfinite(value):
        raise InvalidInputError(f"{where}: non-finite {column} field {text!r}")
    return value


def _parse_columns(body: str, expected: tuple[str, ...]):
    """The dates and float columns of the data lines of a plain file, or
    None if any line would fail a check of the row loop."""
    body = body.removesuffix("\n")
    width = len(expected)
    if not body:
        return None
    # Commas and newlines are single bytes in UTF-8, so counting them on the
    # encoded text counts the fields of every line.
    raw = np.frombuffer(body.encode("utf-8"), dtype=np.uint8)
    ends = np.append(np.flatnonzero(raw == ord("\n")), raw.size)
    commas = np.searchsorted(np.flatnonzero(raw == ord(",")), ends)
    if (
        np.any(np.diff(commas, prepend=0) != width - 1)
        or np.diff(ends, prepend=-1).max() > csv.field_size_limit()
    ):
        return None
    fields = body.replace("\n", ",").split(",")
    date_texts = fields[::width]
    # The dates joined by commas fill rows of 11 bytes ending in a comma
    # exactly when each has 10 characters. A non-ASCII character puts bytes
    # above 127 into a digit, dash or comma slot. fromisoformat then checks
    # the calendar.
    shape = (",".join(date_texts) + ",").encode("utf-8")
    if len(shape) != _DATE_SHAPE.size * len(date_texts):
        return None
    grid = np.frombuffer(shape, dtype=np.uint8).reshape(-1, _DATE_SHAPE.size)
    digit = _DATE_SHAPE == ord("0")
    if not np.all(np.where(digit, grid - _DATE_SHAPE < 10, grid == _DATE_SHAPE)):
        return None
    try:
        dates = list(map(dt.date.fromisoformat, date_texts))
        columns = [np.array(fields[i::width], dtype=float) for i in range(1, width)]
    except ValueError:
        return None
    ordinals = np.fromiter(map(dt.date.toordinal, dates), dtype=np.int64, count=len(dates))
    if np.any(np.diff(ordinals) <= 0) or not np.isfinite(columns).all():
        return None
    if expected == OHLCV_HEADER:
        open_, high, low, close, volume = columns
        # A positive low bounds the other three prices away from zero.
        if not (
            np.all(low > 0.0)
            and np.all(low <= np.minimum(open_, close))
            and np.all(high >= np.maximum(open_, close))
            and np.all(volume >= 0.0)
        ):
            return None
    return dates, columns


def _read_columns(text: str, expected: tuple[str, ...]):
    """Column-wise parse of a plain file, or None to leave it to the row loop.

    A file is plain when it holds no quote, carriage return or NUL and no
    line longer than the csv field size limit: splitting it on newlines and
    commas then gives exactly the rows ``csv.reader`` gives.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    header, _, body = text.partition("\n")
    if (
        len(header) > csv.field_size_limit()
        or tuple(h.strip().lower() for h in header.split(",")) != expected
    ):
        return None
    parsed = _parse_columns(body, expected)
    if parsed is None:
        # Blank lines, of commas and whitespace only, are skipped.
        lines = body.split("\n")
        kept = [line for line in lines if line.replace(",", "").strip()]
        if len(kept) < len(lines):
            parsed = _parse_columns("\n".join(kept), expected)
    return parsed


def _read_rows(text: str, expected: tuple[str, ...], path: Path):
    """Row-by-row parse with ``csv.reader`` into dates and float columns,
    reporting the first violation with its row number."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise InvalidInputError(f"{path}: empty file") from None
    normalized = tuple(h.strip().lower() for h in header)
    if normalized != expected:
        raise InvalidInputError(
            f"{path}:1: expected header {','.join(expected)!r}, "
            f"got {','.join(header)!r}"
        )
    dates, rows = [], []
    for row_number, row in enumerate(reader, start=2):
        if not row or all(not field.strip() for field in row):
            continue
        where = f"{path}:{row_number}"
        if len(row) != len(expected):
            raise InvalidInputError(
                f"{where}: expected {len(expected)} fields, got {len(row)}"
            )
        date = _parse_date(row[0], where)
        if dates and date <= dates[-1]:
            raise InvalidInputError(
                f"{where}: date {date} does not increase past {dates[-1]}"
            )
        fields = [
            _parse_float(row[i], where, name)
            for i, name in enumerate(expected[1:], start=1)
        ]
        if expected == OHLCV_HEADER:
            try:
                OhlcvBar(date, *fields)
            except InvalidBarError as error:
                raise InvalidBarError(f"{where}: {error}") from None
        dates.append(date)
        rows.append(fields)
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    return dates, [np.array(column) for column in zip(*rows)]


def read_series_csv(path, schema: str):
    """Read a CSV file in one of the two supported schemas.

    ``schema="trends"`` expects a ``date,value`` header and returns a
    :class:`TimeSeries` labeled by the file stem. The same layout carries
    any dated series, so values outside [0, 100] are accepted here; the
    band is enforced when a segment enters the chaining step.

    ``schema="ohlcv"`` expects ``date,open,high,low,close,volume`` and
    returns a list of :class:`OhlcvBar`.

    Violations are reported with the offending row number. Plain files are
    parsed a column at a time; any other file, and any file that fails a
    check, goes through the ``csv.reader`` row loop, which accepts exactly
    the same files and reports the first violation.
    """
    if schema not in ("trends", "ohlcv"):
        raise InvalidInputError(f"unknown schema {schema!r}")
    path = Path(path)
    try:
        # Decoded without newline translation, as csv.reader needs it.
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: not UTF-8 text") from None
    expected = TRENDS_HEADER if schema == "trends" else OHLCV_HEADER
    try:
        dates, columns = _read_columns(text, expected) or _read_rows(text, expected, path)
    except csv.Error as error:
        raise InvalidInputError(f"{path}: {error}") from None
    if schema == "trends":
        return TimeSeries(columns[0], label=path.stem, dates=dates)
    return list(map(OhlcvBar, dates, *(column.tolist() for column in columns)))


def series_csv_text(series: TimeSeries) -> str:
    """A dated series as ``date,value`` CSV text with full precision."""
    if series.dates is None:
        raise InvalidInputError(
            f"series {series.label!r} has no dates to write"
        )
    lines = [",".join(TRENDS_HEADER)]
    lines.extend(
        f"{date.isoformat()},{format_float(value)}"
        for date, value in zip(series.dates, series.values)
    )
    return "\n".join(lines) + "\n"


def write_series_csv(series: TimeSeries, path) -> None:
    """Write :func:`series_csv_text` of a dated series to ``path``."""
    Path(path).write_text(series_csv_text(series), encoding="utf-8")
