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
import functools
import io
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateOverlapError,
    InvalidBarError,
    InvalidInputError,
)
from .series import TimeSeries, _as_int, _Dates, _increasing

__all__ = [
    "OhlcvBar",
    "OhlcvBars",
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
# The normal positive floats; a price ratio outside them has overflowed or
# lost precision.
_NORMAL_MIN = sys.float_info.min
_NORMAL_MAX = sys.float_info.max
# The bytes of a date and its comma; a 0 stands for any ASCII digit. A
# byte minus its shape byte, as uint8, is below the bound exactly when it
# is a digit in a digit slot or the shape's own byte elsewhere.
_DATE_SHAPE = np.frombuffer(b"0000-00-00,", dtype=np.uint8)
_DATE_BOUND = np.where(_DATE_SHAPE == ord("0"), 10, 1).astype(np.uint8)
# The widest %.17g text: a sign, 17 digits, a point and an exponent e-308.
_VALUE_WIDTH = 24
# 10**p for p in 0..22, each an exact double.
_POW10 = np.array([float(10**p) for p in range(23)])
# The two ASCII digits of 0..99, tens first in memory, as one uint16 each;
# then the point before NUL and before a minus sign.
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16)
_POINT_SIGN = np.frombuffer(b".\0.-", dtype=np.uint16)
# Row n keeps the first n cells of a value and clears the rest.
_KEEP = np.tri(_VALUE_WIDTH + 1, _VALUE_WIDTH, -1, dtype=np.uint8) * np.uint8(255)


def _fixed_cells(k: int) -> list[int]:
    """The bytes of a value printed in fixed notation with decimal exponent
    k in [-4, 15], as columns of the rows _fixed_notation lays out: 0 holds
    '0', 1-17 the 17 digits, 18 the point, 19 the sign and 20 NUL."""
    if k < 0:
        # 0.000ddd: "0." and -k - 1 zeros before the digits.
        body = [0, 18] + [0] * (-k - 1) + list(range(1, 18))
    else:
        body = list(range(1, k + 2)) + [18] + list(range(k + 2, 18))
    return [19] + body + [20] * (_VALUE_WIDTH - 1 - len(body))


_FIXED_CELLS = np.array([_fixed_cells(k) for k in range(-4, 16)])


def _valid_bars(open_, high, low, close, volume):
    """Whether bars have finite prices with 0 < low <= open, close <= high
    and a finite nonnegative volume; false on NaN. Takes floats or arrays."""
    return (
        (0.0 < low) & (low <= open_) & (open_ <= high) & (low <= close) & (close <= high)
        & (high < math.inf) & (0.0 <= volume) & (volume < math.inf)
    )


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
        if _valid_bars(self.open, self.high, self.low, self.close, self.volume):
            return
        # Each price alone as a flat bar, then the prices with a valid volume,
        # name the first rule an invalid bar breaks.
        prices = (self.open, self.high, self.low, self.close)
        if not all(_valid_bars(p, p, p, p, 0.0) for p in prices):
            raise InvalidBarError(f"{self.date}: prices must be positive and finite")
        if not _valid_bars(*prices, 0.0):
            raise InvalidBarError(
                f"{self.date}: bar violates low <= open, close <= high"
            )
        raise InvalidBarError(f"{self.date}: volume must be nonnegative")


@dataclass(frozen=True, eq=False)
class OhlcvBars(Sequence):
    """Validated bars as dates and read-only float columns; an index builds an OhlcvBar."""

    dates: tuple[dt.date, ...]
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    def __len__(self) -> int:
        return len(self.dates)

    def __getitem__(self, index):
        columns = [getattr(self, name)[index] for name in OHLCV_HEADER[1:]]
        if isinstance(index, slice):
            return OhlcvBars(self.dates[index], *columns)
        return OhlcvBar(self.dates[index], *map(float, columns))


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


def _reversed_log(values: np.ndarray) -> np.ndarray:
    """``np.log`` of values read back to front, which numpy runs through its
    strided scalar loop, a call of the C library's ``log`` per value."""
    return np.log(values[::-1])[::-1]


def _map_log(values: np.ndarray) -> np.ndarray:
    """``math.log`` of each value, one Python call per value."""
    return np.array(list(map(math.log, values.tolist())))


@functools.cache
def _reversed_log_is_libm() -> bool:
    """Whether :func:`_reversed_log` gives ``math.log``'s bits on 1,000
    cent-rounded price ratios. A vectorised log misses some of them: with
    numpy 2.4's AVX-512 kernel, contiguous ``np.log`` and ``np.log``
    reversed on both sides each miss 32. Run on first use, not at import."""
    cents = 10_000 + 37 * np.arange(1000)
    ratios = (cents / 100) / ((cents - np.arange(1000) % 97 - 1) / 100)
    return _reversed_log(ratios).tobytes() == _map_log(ratios).tobytes()


def _log_each(values: np.ndarray) -> np.ndarray:
    """``math.log`` of each positive finite value, bit for bit.

    Contiguous ``np.log`` can differ from it in the last bit, as numpy's
    SIMD kernels do on a few percent of cent-rounded price ratios. Read
    back to front, ``np.log`` calls the C library's ``log``, as ``math.log``
    does; where :func:`_reversed_log_is_libm` finds otherwise, each value
    goes through ``math.log`` instead.
    """
    return _reversed_log(values) if _reversed_log_is_libm() else _map_log(values)


def _log_ratio(top: float, bottom: float) -> float:
    """``math.log(top / bottom)`` of two positive finite prices, or
    ``log(top) - log(bottom)`` where the ratio is not a normal float."""
    ratio = top / bottom
    if _NORMAL_MIN <= ratio <= _NORMAL_MAX:
        return math.log(ratio)
    return math.log(top) - math.log(bottom)


def _log_ratios(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """:func:`_log_ratio` of each pair of prices, bit for bit."""
    with np.errstate(over="ignore", under="ignore"):
        ratios = top / bottom
    odd = (ratios < _NORMAL_MIN) | (ratios > _NORMAL_MAX)
    if not odd.any():
        return _log_each(ratios)
    ratios[odd] = 1.0
    logs = _log_each(ratios)
    logs[odd] = _log_each(top[odd]) - _log_each(bottom[odd])
    return logs


def garman_klass(bar: OhlcvBar | OhlcvBars) -> float | np.ndarray:
    """Garman-Klass daily variance proxy of one :class:`OhlcvBar`, or the
    array of them for :class:`OhlcvBars`, equal to it bar for bar.

    Each log ratio is ``math.log`` of the price ratio (through
    :func:`_log_each` for columns), or the difference of the two prices'
    logs where the ratio is not a normal float, having overflowed or
    underflowed, so every valid bar gives a finite proxy. Exactly zero on
    a flat bar; occasionally negative when the open-close move dominates
    the high-low range.
    """
    log_ratio = _log_ratios if isinstance(bar, OhlcvBars) else _log_ratio
    high_low = log_ratio(bar.high, bar.low)
    close_open = log_ratio(bar.close, bar.open)
    return 0.5 * high_low * high_low - _GK_COEFF * close_open * close_open


def log_transform(series, floor: float | None = None) -> TimeSeries:
    """Natural log of a series, clamped below at a positive floor.

    The default floor is the smallest positive value times 1e-3, or the
    smallest subnormal, 5e-324, where that product underflows to zero.
    Values below the floor, including zeros and negatives, map to
    ln(floor) and their indices are recorded in the output's ``meta`` under
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
        floor = max(float(positive.min()) * 1e-3, math.ulp(0.0))
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
        On a date gap, insufficient overlap, a segment that does not
        extend the chained range, or an ``overlap_days`` that is not a
        whole number (3.0 counts as 3).
    DegenerateOverlapError
        When a later segment's overlap mean is zero.
    """
    segments = list(segments)
    if not segments:
        raise InvalidInputError("no segments to chain")
    overlap_days = _as_int(overlap_days, "overlap_days")
    if overlap_days < 1:
        raise InvalidInputError(f"overlap_days must be positive, got {overlap_days}")
    first = segments[0]
    chained = list(first.values)
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
        current_end = segment.end_date
    # Each segment is daily-contiguous and extends the last without a gap.
    dates = (np.datetime64(first.start_date, "D") + np.arange(len(chained))).tolist()
    return TimeSeries(np.asarray(chained), label="chained", dates=_Dates(dates))


def format_float(value: float) -> str:
    """Render a float with 17 significant digits, enough to round-trip."""
    return format(float(value), ".17g")


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``hi, lo`` with ``hi`` the rounded product and ``hi + lo == a * b``
    exactly (Dekker 1971), barring overflow and underflow; each factor is
    split in halves of 26 bits by Veltkamp's 2**27 + 1."""
    hi = a * b
    a_big = a * 134217729.0
    a_hi = a_big - (a_big - a)
    a_lo = a - a_hi
    b_big = b * 134217729.0
    b_hi = b_big - (b_big - b)
    b_lo = b - b_hi
    lo = a_hi * b_hi - hi + a_hi * b_lo + a_lo * b_hi + a_lo * b_lo
    return hi, lo


def _fixed_notation(values: np.ndarray) -> np.ndarray:
    """``format(v, ".17g")`` of values with 1e-4 <= |v| < 1e16 as ASCII,
    one NUL-padded row of ``_VALUE_WIDTH`` bytes per value.

    These print in fixed notation with decimal exponent K in [-4, 15].
    D = |v| * 10**(16 - K) rounded half to even, the 17 digits %.17g
    rounds to, comes from the exact product hi + lo of two doubles, since
    10**p is exact for p <= 22. K starts at floor(log10|v|) and moves by
    one where hi + lo lies outside [1e16, 1e17). hi is then an even integer
    above 2**53, so hi + rint(lo) rounds the product half to even, as
    %.17g does.
    """
    magnitude = np.abs(values)
    k = np.floor(np.log10(magnitude)).astype(np.intp)
    hi, lo = _two_product(magnitude, _POW10[16 - k])
    # log10 can round across a power of ten, and hi alone can too (as for
    # 0.09999999999999999), so the exact sum decides.
    shift = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))).astype(np.intp)
    shift -= (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    if shift.any():
        k += shift
        hi, lo = _two_product(magnitude, _POW10[16 - k])
    # No product rounds up to 1e17: the doubles below 10**(K + 1) stay at
    # least 8.7 units of the 17th digit away from it.
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # Pairs of bytes: the leading digit after a '0', the other 16 digits,
    # then the point and the sign, then NUL; _fixed_cells names them.
    pairs = np.zeros((values.size, 11), dtype=np.uint16)
    for column in range(8, 0, -1):
        rest = digits // 100
        pairs[:, column] = _PAIRS[digits - rest * 100]
        digits = rest
    pairs[:, 0] = _PAIRS[digits]
    pairs[:, 9] = _POINT_SIGN[np.signbit(values).astype(np.intp)]
    rows = pairs.view(np.uint8)
    # The last nonzero digit; the cells up to it, or up to the units digit.
    last = 16 - np.argmax(rows[:, 17:0:-1] != ord("0"), axis=1)
    length = np.where(k < 0, 3 - k + last, np.where(last > k, last + 3, k + 2))
    cells = np.empty((values.size, _VALUE_WIDTH), dtype=np.uint8)
    for exponent in np.flatnonzero(np.bincount(k + 4)) - 4:
        group = np.flatnonzero(k == exponent)
        cells[group] = rows[group][:, _FIXED_CELLS[exponent + 4]]
    cells &= _KEEP.take(length, axis=0)
    return cells


def _format_values(values: np.ndarray) -> np.ndarray:
    """``format(v, ".17g")`` of each value as ASCII, one NUL-padded row of
    ``_VALUE_WIDTH`` bytes per value: :func:`_fixed_notation` for
    1e-4 <= |v| < 1e16, and Python's %.17g, in one call, for every other
    value, zero and subnormals among them."""
    magnitude = np.abs(values)
    fixed = (magnitude >= 1e-4) & (magnitude < 1e16)
    if fixed.all():
        return _fixed_notation(values)
    cells = np.empty((values.size, _VALUE_WIDTH), dtype=np.uint8)
    cells[fixed] = _fixed_notation(values[fixed])
    other = values[~fixed]
    # Left-justified in _VALUE_WIDTH cells, then the padding cleared.
    text = (f"%-{_VALUE_WIDTH}.17g" * other.size % tuple(other.tolist())).encode("ascii")
    padded = np.frombuffer(text, dtype=np.uint8).reshape(-1, _VALUE_WIDTH)
    cells[~fixed] = np.where(padded == ord(" "), 0, padded)
    return cells


def _date_cells(dates) -> np.ndarray:
    """The CSV cells of dates: an (n, 11) ``uint8`` grid whose rows are each
    date's ``isoformat()`` and a comma.

    Year, month and day come from the date ordinals by integer arithmetic
    (Hinnant's civil-from-days): 400-year eras of 146,097 days from
    0000-03-01, in years that start with March, so a leap day is the last
    day of its year. The century, year, month and day digits are then four
    gathers of ``_PAIRS``.
    """
    # Days since 0000-03-01, which is ordinal -305; ordinal 1 is 0001-01-01.
    days = np.fromiter(map(dt.date.toordinal, dates), np.int64, len(dates)) + 305
    era, day = np.divmod(days, 146097)
    year = (day - day // 1460 + day // 36524 - day // 146096) // 365
    day -= 365 * year + year // 4 - year // 100
    month = (5 * day + 2) // 153  # 0 for March
    day -= (153 * month + 2) // 5 - 1
    month = np.where(month < 10, month + 3, month - 9)
    year += 400 * era + (month <= 2)
    cells = np.empty((len(dates), _DATE_SHAPE.size), dtype=np.uint8)
    cells[:] = _DATE_SHAPE
    for column, value in ((0, year // 100), (2, year % 100), (5, month), (8, day)):
        pair = _PAIRS[value].view(np.uint8)
        cells[:, column], cells[:, column + 1] = pair[::2], pair[1::2]
    return cells


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


@functools.lru_cache(maxsize=1)
def _calendar(shape: bytes) -> _Dates | None:
    """The checked dates of a file's date column, given as its date cells
    joined by commas with a trailing comma, or None when a check fails.

    The cells fill rows of 11 bytes ending in a comma exactly when each has
    10 characters, and a non-ASCII character puts bytes above 127 into a
    digit, dash or comma slot. fromisoformat then checks the calendar, so
    each row is its date's isoformat() and a comma; the dates must
    increase. The ``_Dates`` carries that grid of rows as its ``cells``.

    Only the last calendar is kept: the files of a panel, or the bars of
    one market, share their trading days, so the next file with the same
    date column skips every check and shares the ``_Dates``.
    """
    if len(shape) % _DATE_SHAPE.size:
        return None
    grid = np.frombuffer(shape, dtype=np.uint8).reshape(-1, _DATE_SHAPE.size)
    if not (grid - _DATE_SHAPE < _DATE_BOUND).all():
        return None
    try:
        dates = _Dates(map(dt.date.fromisoformat, shape[:-1].decode("ascii").split(",")))
    except ValueError:
        return None
    if not _increasing(dates):
        return None
    dates.cells = grid
    return dates


def _read_columns(text: str, expected: tuple[str, ...]):
    """Column-wise parse of the data lines of a plain file whose header
    matched, or None to leave it to the row loop: on a line that would fail
    one of its checks, and on a blank line before the last data line. The
    dates come from :func:`_calendar`, checked once for every file with the
    same date column, as a ``_Dates`` carrying the grid of its date cells.

    A file is plain when it holds no quote, carriage return or NUL and no
    line longer than the csv field size limit: splitting it on newlines and
    commas then gives exactly the rows ``csv.reader`` gives.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    body = text.partition("\n")[2].rstrip("\n")
    width = len(expected)
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
    dates = _calendar((",".join(fields[::width]) + ",").encode("utf-8"))
    if dates is None:
        return None
    try:
        columns = [np.array(fields[i::width], dtype=float) for i in range(1, width)]
    except ValueError:
        return None
    if not all(np.isfinite(column).all() for column in columns):
        return None
    if expected == OHLCV_HEADER and not np.all(_valid_bars(*columns)):
        return None
    return dates, columns


def _read_rows(reader, expected: tuple[str, ...], path: Path):
    """Row-by-row parse of the data rows left in a ``csv.reader`` into
    dates and float columns, reporting the first violation with its row
    number."""
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
    return _Dates(dates), [np.array(column) for column in zip(*rows)]


def read_series_csv(path, schema: str):
    """Read a CSV file in one of the two supported schemas.

    ``schema="trends"`` expects a ``date,value`` header and returns a
    :class:`TimeSeries` labeled by the file stem. The same layout carries
    any dated series, so values outside [0, 100] are accepted here; the
    band is enforced when a segment enters the chaining step.

    ``schema="ohlcv"`` expects ``date,open,high,low,close,volume`` and
    returns :class:`OhlcvBars`, a read-only sequence over the validated
    columns that builds an :class:`OhlcvBar` only when one is indexed.

    Violations are reported with the offending row number. A ``csv.reader``
    checks the header. Plain files are then parsed a column at a time; any
    other file, and any file that fails a check, goes through the row loop,
    which continues that reader, accepts exactly the same files and reports
    the first violation. The column route checks a date column once for
    consecutive files that share it, as a panel's files do, and gives them
    one ``_Dates``; a file whose values fail still reaches the row loop.
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
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise InvalidInputError(f"{path}: empty file")
        if tuple(h.strip().lower() for h in header) != expected:
            raise InvalidInputError(
                f"{path}:1: expected header {','.join(expected)!r}, "
                f"got {','.join(header)!r}"
            )
        dates, columns = _read_columns(text, expected) or _read_rows(reader, expected, path)
    except csv.Error as error:
        raise InvalidInputError(f"{path}: {error}") from None
    # Both parsers check that the dates increase and pass them as _Dates.
    if schema == "trends":
        return TimeSeries(columns[0], label=path.stem, dates=dates)
    for column in columns:
        column.flags.writeable = False
    return OhlcvBars(dates, *columns)


def series_csv_text(series: TimeSeries) -> str:
    """A dated series as ``date,value`` CSV text with full precision.

    Each row is the date's ``isoformat`` and the value as
    :func:`format_float` renders it. Every row is laid out in one byte
    grid: the date cells, the value's bytes from ``_format_values`` and a
    newline, with NUL in unused cells, which the text leaves out. The date
    cells are the ``cells`` of the series' ``_Dates``: the grid the column
    reader checked, or one that :func:`_date_cells` makes on the tuple's
    first write and keeps, read-only, for the next.
    """
    dates = series.dates
    if dates is None:
        raise InvalidInputError(f"series {series.label!r} has no dates to write")
    if dates.cells is None:
        dates.cells = _date_cells(dates)
        dates.cells.flags.writeable = False
    date_width = _DATE_SHAPE.size
    grid = np.empty((len(dates), date_width + _VALUE_WIDTH + 1), dtype=np.uint8)
    grid[:, :date_width] = dates.cells
    grid[:, date_width:-1] = _format_values(series.values)
    grid[:, -1] = ord("\n")
    return ",".join(TRENDS_HEADER) + "\n" + grid[grid != 0].tobytes().decode("ascii")


def write_series_csv(series: TimeSeries, path) -> None:
    """Write :func:`series_csv_text` of a dated series to ``path``."""
    Path(path).write_text(series_csv_text(series), encoding="utf-8")
