"""Command line interface.

Subcommands cover the full pipeline: ``synth`` writes fractional Gaussian
noise as a dated CSV, ``volatility`` turns OHLCV bars into log-variance
and log-volume series, ``chain`` stitches overlapping segments, ``lrdtest``
runs the long-range dependence tests plus the Hurst estimate, and
``xcorr`` scans cross-correlation coefficients with surrogate p-values.

Defaults can come from a ``key = value`` config file; explicit flags win.
Exit codes: 0 on success, 1 on an analysis or I/O error, 2 on bad usage.
All output is deterministic for a fixed seed, whatever the number of CPUs
that xcorr's surrogate ensemble runs on, and ``xcorr --method both`` runs
both methods on one ensemble. Files are renamed into place only once every
output of a run is written.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime as dt
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .dfa import dfa_hurst
from .errors import InvalidInputError, ToolkitError
from .finance import (
    TrendsSegment,
    _parse_date,
    chain_segments,
    format_float,
    garman_klass,
    log_transform,
    read_series_csv,
    series_csv_text,
    write_series_csv,
)
from .lrd import bootstrap_lrd_tests
from .series import TimeSeries
from .surrogates import (
    MAX_SURROGATES, MIN_SURROGATES, SurrogateConfig, _ensemble_significance, average_coefficient
)
from .synth import FgnSpec, generate_fgn

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = 1


class UsageError(Exception):
    """Bad flag or config combination, mapped to exit code 2."""


def _in_open_interval(text: str, what: str, high: float = 1.0) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {what} {text!r}") from None
    if not 0.0 < value < high:
        raise argparse.ArgumentTypeError(f"{what} must lie strictly inside (0, {high:g}), got {text}")
    return value


def _int_at_least(text: str, minimum: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {what} {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"{what} must be at least {minimum}, got {text}")
    return value


_hurst_argument = functools.partial(_in_open_interval, what="hurst exponent")
_level_argument = functools.partial(_in_open_interval, what="significance level")
_floor_argument = functools.partial(_in_open_interval, what="floor", high=math.inf)
_sigma_argument = functools.partial(_in_open_interval, what="sigma", high=math.inf)
_length_argument = functools.partial(_int_at_least, minimum=16, what="length")
_positive_int = functools.partial(_int_at_least, minimum=1, what="integer")
_seed_argument = functools.partial(_int_at_least, minimum=0, what="seed")


def _date_argument(text: str) -> dt.date:
    try:
        return _parse_date(text, "")
    except InvalidInputError:
        raise argparse.ArgumentTypeError(f"invalid ISO date {text!r}") from None


def _grid_argument(text: str) -> range:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must look like start:stop:step, got {text!r}")
    try:
        start, stop, step = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid fields must be integers, got {text!r}") from None
    if step < 1 or stop < start:
        raise argparse.ArgumentTypeError(f"grid {text!r} is empty or decreasing")
    return range(start, stop + 1, step)


def _format_argument(text: str) -> str:
    value = text.strip().lower()
    if value not in ("csv", "json"):
        raise argparse.ArgumentTypeError(f"format must be csv or json, got {text!r}")
    return value


class Option(NamedTuple):
    """A ``--flag`` that a config file can also set, as ``key = value``."""

    parse: Callable[[str], object]
    default: object
    help: str


OPTIONS = {
    "seed": Option(_seed_argument, 0, "random seed (default 0)"),
    "surrogates": Option(_positive_int, 1000, "surrogates per test (default 1000)"),
    "block_size": Option(_positive_int, 25, "bootstrap block length (default 25)"),
    "level": Option(_level_argument, 0.10, "significance level (default 0.10)"),
    "grid": Option(_grid_argument, None, "scales as start:stop:step"),
    "format": Option(_format_argument, "json", "csv or json (default json)"),
    "floor": Option(_floor_argument, None, "explicit clamp floor"),
    "overlap_days": Option(_positive_int, 1, "days consecutive segments must share (default 1)"),
    "sigma": Option(_sigma_argument, 1.0, "standard deviation (default 1.0)"),
    "start_date": Option(_date_argument, dt.date(2004, 1, 1), "first date (default 2004-01-01)"),
    "out": Option(str, None, "output path (default: stdout)"),
}


def _load_config(path: str | None, allowed: tuple[str, ...]) -> dict[str, str]:
    if path is None:
        return {}
    config: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        raise UsageError(f"cannot read config file {path}: {error}") from None
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{line_number}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in allowed:
            raise UsageError(f"{path}:{line_number}: unknown key {key!r}")
        config[key] = value.strip()
    return config


def _resolve_options(args) -> None:
    """Set each of the subcommand's ``OPTIONS`` not given as a flag to its
    config value, checked by the flag's own validator, else its default.
    A surrogate count past ``MAX_SURROGATES`` is refused before any work."""
    config = _load_config(args.config, args.options)
    for key in args.options:
        if getattr(args, key) is not None:
            continue
        option = OPTIONS[key]
        value = option.default
        if key in config:
            try:
                value = option.parse(config[key])
            except (ValueError, argparse.ArgumentTypeError) as error:
                raise UsageError(f"config key {key!r}: {error}") from None
        setattr(args, key, value)
    if getattr(args, "surrogates", 0) > MAX_SURROGATES:
        raise UsageError(f"at most {MAX_SURROGATES} surrogates, got {args.surrogates}")


def _emit(outputs: dict) -> None:
    """Write every output of a run: ``{path: text}``, where ``None`` or
    ``"-"`` is stdout and a text may also be a function that writes a file
    to the path it is given.

    A target that is missing or a regular file is written to a temp file
    beside the file a symlink resolves to, and the temp files are renamed
    into place only once all are written. A failure deletes the temp files
    not yet renamed, so a run that fails before its first rename leaves no
    output. Any other target, such as a device, a FIFO or ``/dev/stdout``,
    is written directly after the renames, and stdout is written last.
    """
    staged, direct = {}, {}
    try:
        for path, text in outputs.items():
            if path in (None, "-"):
                continue
            # realpath("") is the working directory, and "new/" names one.
            if not path or path.endswith(os.sep) or os.path.isdir(path):
                raise ToolkitError(f"cannot write {path}: Is a directory")
            # A /dev path such as /dev/stdout may resolve to a file the caller
            # holds open, which must be written in place, not replaced.
            if os.path.exists(path) and not os.path.isfile(path) or path.startswith("/dev/"):
                direct[path] = text
                continue
            real = os.path.realpath(path)
            staged[real] = temp = f"{real}.{os.getpid()}.tmp"
            _write(temp, text, path)
            if os.path.isfile(real):
                os.chmod(temp, os.stat(real).st_mode & 0o7777)
        for real, temp in staged.items():
            os.replace(temp, real)
    except BaseException:
        for temp in staged.values():
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise
    for path, text in direct.items():
        _write(path, text, path)
    for path, text in outputs.items():
        if path in (None, "-"):
            sys.stdout.write(text)


def _write(target: str, text, path: str) -> None:
    """Write ``text`` to ``target``; an error names the output ``path``."""
    try:
        if callable(text):
            text(target)
        else:
            Path(target).write_text(text, encoding="utf-8")
    except OSError as error:
        raise ToolkitError(f"cannot write {path}: {error.strerror or error}") from None


def _json_document(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _csv_text(rows: list[dict]) -> str:
    """CSV with the keys of the first row as header; floats keep full precision."""
    lines = [",".join(rows[0])]
    lines.extend(
        ",".join(format_float(v) if isinstance(v, float) else str(v) for v in row.values())
        for row in rows
    )
    return "\n".join(lines) + "\n"


def cmd_lrdtest(args) -> dict:
    # Every input is read before the first bootstrap, and every file is
    # written after the last series succeeds, so a failing run writes nothing.
    panel = [read_series_csv(path, "trends") for path in args.inputs]
    if args.fluctuation_out is not None:
        labels = [series.label for series in panel]
        for label in labels:
            if labels.count(label) > 1:
                raise ToolkitError(f"inputs share the label {label!r}; their fluctuation files collide")
    rows = []
    fluctuation_files = {}
    for series in panel:
        tests = bootstrap_lrd_tests(
            series,
            block_size=args.block_size,
            n_surrogates=args.surrogates,
            seed=args.seed,
        )
        hurst = dfa_hurst(series)
        if args.fluctuation_out is not None:
            fluct = hurst.fluctuation
            fluctuation_files[f"{args.fluctuation_out}_{series.label}.csv"] = _csv_text([
                {"scale": int(s), "fluctuation": v}
                for s, v in zip(fluct.scales, fluct.values)
            ])
        rescaled_range = tests["rescaled_range"]
        rescaled_variance = tests["rescaled_variance"]
        rows.append(
            {
                "label": series.label,
                "n_obs": len(series),
                "rescaled_range_stat": rescaled_range.statistic,
                "rescaled_range_p": rescaled_range.p_value,
                "rescaled_variance_stat": rescaled_variance.statistic,
                "rescaled_variance_p": rescaled_variance.p_value,
                "bandwidth": rescaled_range.bandwidth,
                "hurst_dfa": hurst.h,
            }
        )

    if args.format == "json":
        document = {
            "schema_version": SCHEMA_VERSION,
            "command": "lrdtest",
            "seed": args.seed,
            "n_surrogates": args.surrogates,
            "block_size": args.block_size,
            "results": rows,
        }
        report = _json_document(document)
    else:
        report = _csv_text(rows)
    return {**fluctuation_files, args.out: report}


def _align_by_date(x: TimeSeries, y: TimeSeries) -> tuple[TimeSeries, TimeSeries]:
    common = sorted(set(x.dates) & set(y.dates))
    if len(common) < 2:
        raise ToolkitError("series share fewer than 2 dates")
    x_map = dict(zip(x.dates, x.values))
    y_map = dict(zip(y.dates, y.values))
    x_aligned = TimeSeries(
        np.asarray([x_map[d] for d in common]), label=x.label, dates=common
    )
    y_aligned = TimeSeries(
        np.asarray([y_map[d] for d in common]), label=y.label, dates=common
    )
    return x_aligned, y_aligned


def _sign_label(summaries: dict[str, object], level: float) -> str:
    significant = [
        (s.p_value, s.mean_rho)
        for s in summaries.values()
        if s.p_value is not None and s.p_value < level
    ]
    if not significant:
        return "0"
    _, mean_rho = min(significant)
    if mean_rho > 0:
        return "+"
    if mean_rho < 0:
        return "-"
    return "0"


def cmd_xcorr(args) -> dict:
    methods = ("dcca", "dmca") if args.method == "both" else (args.method,)
    if args.grid is not None and len(methods) > 1:
        raise UsageError("--grid requires a single --method, not both")
    if args.surrogates < MIN_SURROGATES:
        raise UsageError(f"xcorr needs at least {MIN_SURROGATES} surrogates, got {args.surrogates}")

    x_series = read_series_csv(args.x, "trends")
    y_series = read_series_csv(args.y, "trends")
    x_aligned, y_aligned = _align_by_date(x_series, y_series)

    # For n aligned points, a strictly increasing integer grid has its first
    # out-of-range scale among its first n // 2 + 1, so only those are built.
    grid = None if args.grid is None else args.grid[: len(x_aligned) // 2 + 1]
    grids = {method: grid for method in methods}
    surrogate_config = SurrogateConfig(n_surrogates=args.surrogates, seed=args.seed)
    correlograms = _ensemble_significance(x_aligned, y_aligned, grids, surrogate_config)
    reports, summaries, csv_rows = {}, {}, []
    for method, correlogram in correlograms.items():
        summary = average_coefficient(correlogram)
        scales = [int(s) for s in correlogram.scales]
        rho = [float(r) for r in correlogram.rho]
        p_values = [float(p) for p in correlogram.p_values]
        masked = [float(r) for r in np.where(correlogram.p_values < args.level, correlogram.rho, 0.0)]
        reports[method] = {
            "scales": scales,
            "rho": rho,
            "p_values": p_values,
            "rho_masked": masked,
            "summary": {
                "mean_rho": float(summary.mean_rho),
                "std_rho": float(summary.std_rho),
                "p_value": float(summary.p_value),
                "significant": bool(summary.p_value < args.level),
            },
        }
        summaries[method] = summary
        csv_rows.extend(
            {"method": method, "scale": scale, "rho": r, "p_value": p, "rho_masked": m}
            for scale, r, p, m in zip(scales, rho, p_values, masked)
        )

    if args.format == "csv":
        return {args.out: _csv_text(csv_rows)}
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": "xcorr",
        "inputs": {"x": x_series.label, "y": y_series.label},
        "n_obs": len(x_aligned),
        "seed": args.seed,
        "n_surrogates": args.surrogates,
        "level": args.level,
        "results": reports,
        "sign": _sign_label(summaries, args.level),
    }
    return {args.out: _json_document(document)}


def cmd_volatility(args) -> dict:
    if args.out is None:
        raise UsageError("volatility requires --out PREFIX for its two files")

    bars = read_series_csv(args.input, "ohlcv")
    stem = Path(args.input).stem
    variance = TimeSeries(garman_klass(bars), label=f"{stem}-variance", dates=bars.dates)
    volume = TimeSeries(bars.volume, label=f"{stem}-volume", dates=bars.dates)
    log_variance = log_transform(variance, floor=args.floor)
    log_volume = log_transform(volume, floor=args.floor)

    variance_path = f"{args.out}_log_variance.csv"
    volume_path = f"{args.out}_log_volume.csv"

    document = {
        "schema_version": SCHEMA_VERSION,
        "command": "volatility",
        "input": str(args.input),
        "n_bars": len(bars),
        "outputs": {"log_variance": variance_path, "log_volume": volume_path},
        "clamped": {
            "log_variance": log_variance.meta["clamped_indices"],
            "log_volume": log_volume.meta["clamped_indices"],
        },
        "floor": {
            "log_variance": log_variance.meta["floor"],
            "log_volume": log_volume.meta["floor"],
        },
    }
    return {
        variance_path: functools.partial(write_series_csv, log_variance),
        volume_path: functools.partial(write_series_csv, log_volume),
        None: _json_document(document),
    }


def cmd_chain(args) -> dict:
    segments = [
        TrendsSegment.from_timeseries(read_series_csv(path, "trends"))
        for path in args.segments
    ]
    chained = chain_segments(segments, args.overlap_days)
    return {args.out: series_csv_text(chained)}


def cmd_synth(args) -> dict:
    try:
        args.start_date + dt.timedelta(days=args.length - 1)
    except OverflowError:
        raise UsageError(
            f"{args.length} days from {args.start_date} pass the last representable date"
        ) from None
    dates = (np.datetime64(args.start_date, "D") + np.arange(args.length)).tolist()
    spec = FgnSpec(h=args.hurst, length=args.length, seed=args.seed, sigma=args.sigma)
    series = generate_fgn(spec)
    return {args.out: series_csv_text(TimeSeries(series.values, dates=dates))}


def _add_options(parser: argparse.ArgumentParser, handler, *keys: str) -> None:
    """Add ``--config`` and one ``--flag`` per ``OPTIONS`` key; the keys are
    also the subcommand's config-file whitelist."""
    parser.add_argument("--config", help="key = value file with defaults")
    for key in keys:
        option = OPTIONS[key]
        parser.add_argument(
            "--" + key.replace("_", "-"), dest=key, type=option.parse, help=option.help
        )
    parser.set_defaults(handler=handler, options=keys)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse starts a new namespace."""
    parser = argparse.ArgumentParser(
        prog="lrdkit",
        description="Long-range dependence and scale-wise cross-correlation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lrdtest = sub.add_parser(
        "lrdtest",
        help="rescaled range and rescaled variance tests plus the Hurst estimate",
    )
    lrdtest.add_argument("inputs", nargs="+", help="date,value CSV files")
    lrdtest.add_argument(
        "--fluctuation-out",
        dest="fluctuation_out",
        help="prefix for per-series scale,fluctuation CSV files",
    )
    _add_options(lrdtest, cmd_lrdtest, "seed", "surrogates", "block_size", "format", "out")

    xcorr = sub.add_parser(
        "xcorr", help="scale-wise cross-correlation with surrogate p-values"
    )
    xcorr.add_argument("x", help="first date,value CSV file")
    xcorr.add_argument("y", help="second date,value CSV file")
    xcorr.add_argument("--method", choices=("dcca", "dmca", "both"), default="both")
    _add_options(xcorr, cmd_xcorr, "grid", "seed", "surrogates", "level", "format", "out")

    volatility = sub.add_parser(
        "volatility", help="Garman-Klass log-variance and log-volume series"
    )
    volatility.add_argument("input", help="date,open,high,low,close,volume CSV file")
    _add_options(volatility, cmd_volatility, "floor", "out")

    chain = sub.add_parser("chain", help="chain overlapping segments onto one level")
    chain.add_argument("segments", nargs="+", help="date,value CSV files in order")
    _add_options(chain, cmd_chain, "overlap_days", "out")

    synth = sub.add_parser("synth", help="write fractional Gaussian noise as CSV")
    synth.add_argument("--hurst", type=_hurst_argument, required=True)
    synth.add_argument("--length", type=_length_argument, required=True)
    _add_options(synth, cmd_synth, "seed", "sigma", "start_date", "out")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve_options(args)
        _emit(args.handler(args))
    except UsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return 2
    except (ToolkitError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
