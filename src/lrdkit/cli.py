"""Command line interface.

Subcommands cover the full pipeline: ``synth`` writes fractional Gaussian
noise as a dated CSV, ``volatility`` turns OHLCV bars into log-variance
and log-volume series, ``chain`` stitches overlapping segments, ``lrdtest``
runs the long-range dependence tests plus the Hurst estimate, and
``xcorr`` scans cross-correlation coefficients with surrogate p-values.

Defaults can come from a ``key = value`` config file; explicit flags win.
Exit codes: 0 on success, 1 on an analysis or I/O error, 2 on bad usage.
All output is deterministic for a fixed seed, whatever the number of CPUs
that xcorr's surrogate ensemble runs on.
"""

from __future__ import annotations

import argparse
import datetime as dt
import functools
import json
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
from .surrogates import MIN_SURROGATES, SurrogateConfig, average_coefficient, xcorr_significance
from .synth import FgnSpec, generate_fgn

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = 1


class UsageError(Exception):
    """Bad flag or config combination, mapped to exit code 2."""


def _in_unit_interval(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {what} {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"{what} must lie strictly inside (0, 1), got {text}")
    return value


def _int_at_least(text: str, minimum: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {what} {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"{what} must be at least {minimum}, got {text}")
    return value


_hurst_argument = functools.partial(_in_unit_interval, what="hurst exponent")
_level_argument = functools.partial(_in_unit_interval, what="significance level")
_length_argument = functools.partial(_int_at_least, minimum=16, what="length")
_positive_int = functools.partial(_int_at_least, minimum=1, what="integer")
_seed_argument = functools.partial(_int_at_least, minimum=0, what="seed")


def _date_argument(text: str) -> dt.date:
    try:
        return _parse_date(text, "")
    except InvalidInputError:
        raise argparse.ArgumentTypeError(f"invalid ISO date {text!r}") from None


def _grid_argument(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must look like start:stop:step, got {text!r}")
    try:
        start, stop, step = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid fields must be integers, got {text!r}") from None
    if step < 1 or stop < start:
        raise argparse.ArgumentTypeError(f"grid {text!r} is empty or decreasing")
    return np.arange(start, stop + 1, step)


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
    "floor": Option(float, None, "explicit clamp floor"),
    "overlap_days": Option(_positive_int, 1, "days consecutive segments must share (default 1)"),
    "sigma": Option(float, 1.0, "standard deviation (default 1.0)"),
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
    config value, checked by the flag's own validator, else its default."""
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


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


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


def cmd_lrdtest(args) -> int:
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

    for path, text in fluctuation_files.items():
        _emit(text, path)
    if args.format == "json":
        document = {
            "schema_version": SCHEMA_VERSION,
            "command": "lrdtest",
            "seed": args.seed,
            "n_surrogates": args.surrogates,
            "block_size": args.block_size,
            "results": rows,
        }
        _emit(_json_document(document), args.out)
    else:
        _emit(_csv_text(rows), args.out)
    return 0


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


def cmd_xcorr(args) -> int:
    methods = ("dcca", "dmca") if args.method == "both" else (args.method,)
    if args.grid is not None and len(methods) > 1:
        raise UsageError("--grid requires a single --method, not both")
    if args.surrogates < MIN_SURROGATES:
        raise UsageError(f"xcorr needs at least {MIN_SURROGATES} surrogates, got {args.surrogates}")

    x_series = read_series_csv(args.x, "trends")
    y_series = read_series_csv(args.y, "trends")
    x_aligned, y_aligned = _align_by_date(x_series, y_series)

    surrogate_config = SurrogateConfig(n_surrogates=args.surrogates, seed=args.seed)
    reports = {}
    summaries = {}
    for method in methods:
        correlogram = xcorr_significance(
            x_aligned, y_aligned, method, scales=args.grid, config=surrogate_config
        )
        summary = average_coefficient(correlogram)
        masked = np.where(correlogram.p_values < args.level, correlogram.rho, 0.0)
        reports[method] = {
            "scales": [int(s) for s in correlogram.scales],
            "rho": [float(r) for r in correlogram.rho],
            "p_values": [float(p) for p in correlogram.p_values],
            "rho_masked": [float(r) for r in masked],
            "summary": {
                "mean_rho": float(summary.mean_rho),
                "std_rho": float(summary.std_rho),
                "p_value": float(summary.p_value),
                "significant": bool(summary.p_value < args.level),
            },
        }
        summaries[method] = summary

    if args.format == "json":
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
        _emit(_json_document(document), args.out)
    else:
        csv_rows = [
            {"method": method, "scale": scale, "rho": rho, "p_value": p_value, "rho_masked": masked}
            for method in methods
            for scale, rho, p_value, masked in zip(
                reports[method]["scales"],
                reports[method]["rho"],
                reports[method]["p_values"],
                reports[method]["rho_masked"],
            )
        ]
        _emit(_csv_text(csv_rows), args.out)
    return 0


def cmd_volatility(args) -> int:
    if args.out is None:
        raise UsageError("volatility requires --out PREFIX for its two files")

    bars = read_series_csv(args.input, "ohlcv")
    dates = [bar.date for bar in bars]
    stem = Path(args.input).stem
    variance = TimeSeries(
        np.asarray([garman_klass(bar) for bar in bars]),
        label=f"{stem}-variance",
        dates=dates,
    )
    volume = TimeSeries(
        np.asarray([bar.volume for bar in bars]),
        label=f"{stem}-volume",
        dates=dates,
    )
    log_variance = log_transform(variance, floor=args.floor)
    log_volume = log_transform(volume, floor=args.floor)

    variance_path = f"{args.out}_log_variance.csv"
    volume_path = f"{args.out}_log_volume.csv"
    write_series_csv(log_variance, variance_path)
    write_series_csv(log_volume, volume_path)

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
    sys.stdout.write(_json_document(document))
    return 0


def cmd_chain(args) -> int:
    segments = [
        TrendsSegment.from_timeseries(read_series_csv(path, "trends"))
        for path in args.segments
    ]
    chained = chain_segments(segments, args.overlap_days)
    _emit(series_csv_text(chained), args.out)
    return 0


def cmd_synth(args) -> int:
    try:
        dates = [args.start_date + dt.timedelta(days=i) for i in range(args.length)]
    except OverflowError:
        raise UsageError(
            f"{args.length} days from {args.start_date} pass the last representable date"
        ) from None
    spec = FgnSpec(h=args.hurst, length=args.length, seed=args.seed, sigma=args.sigma)
    series = generate_fgn(spec)
    _emit(series_csv_text(TimeSeries(series.values, dates=dates)), args.out)
    return 0


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


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_options(args)
        return args.handler(args)
    except UsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return 2
    except ToolkitError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
