"""Seeded inputs and CLI argument lists for the three workloads.

Inputs come from numpy alone, never from lrdkit, so a change to the
program cannot change what it is measured on. Every workload writes its
inputs under ``<work>/in`` and its outputs under ``<work>/out``; argument
lists use paths relative to ``<work>``, the directory the worker runs in,
so outputs do not depend on where the checkout lives.
"""

from __future__ import annotations

import datetime as dt
from pathlib import Path

import numpy as np

START = dt.date(2004, 1, 1)

PANEL_HURSTS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
PANEL_REPLICAS = 4
PANEL_LENGTH = 2500
SURROGATES = 1000
BLOCK_SIZE = 25

PAIR_LENGTH = 2500
PAIR_OFFSET_DAYS = 30

OHLCV_FILES = 16
OHLCV_BARS = 5000
SEGMENTS = 30
SEGMENT_DAYS = 270
OVERLAP_DAYS = 30
SYNTH_SERIES = 8
SYNTH_LENGTH = 8192


def _embedding(h: float, length: int) -> np.ndarray:
    """Scaled square-root spectrum of the circulant embedding of fGn's
    autocovariance (Davies-Harte); tiny negative eigenvalues clip to 0."""
    k = np.arange(length + 1, dtype=float)
    gamma = 0.5 * ((k + 1.0) ** (2 * h) - 2.0 * k ** (2 * h) + np.abs(k - 1.0) ** (2 * h))
    eigenvalues = np.clip(np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real, 0.0, None)
    return np.sqrt(eigenvalues / eigenvalues.size)


def fgn(h: float, length: int, seed: int) -> np.ndarray:
    """Exact fractional Gaussian noise by circulant embedding.

    Draws the complex normals in the order ``lrdkit synth`` does, so the same
    seed gives the same series; the ingest check relies on that.
    """
    root = _embedding(h, length)
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal(root.size) + 1j * rng.standard_normal(root.size)
    return np.fft.fft(root * normals)[:length].real


def dates_from(start: dt.date, count: int) -> list[dt.date]:
    return [start + dt.timedelta(days=i) for i in range(count)]


def write_dated(path: Path, dates, values, fmt: str = ".17g") -> None:
    lines = ["date,value"]
    lines.extend(f"{d.isoformat()},{format(float(v), fmt)}" for d, v in zip(dates, values))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def make_lrdtest_panel(seed: int, work: Path) -> dict:
    """24 dated fGn series: every panel H crossed with four replicas."""
    seeds = _seeds(seed, len(PANEL_HURSTS) * PANEL_REPLICAS + 1)
    inputs = []
    for i, h in enumerate(PANEL_HURSTS):
        for r in range(PANEL_REPLICAS):
            name = f"q-h{h:g}-r{r}"
            path = work / "in" / f"{name}.csv"
            write_dated(path, dates_from(START, PANEL_LENGTH),
                        fgn(h, PANEL_LENGTH, seeds[i * PANEL_REPLICAS + r]))
            inputs.append(f"in/{name}.csv")
    cli_seed = seeds[-1] % 100_000
    argv = ["lrdtest", *inputs, "--surrogates", str(SURROGATES),
            "--block-size", str(BLOCK_SIZE), "--seed", str(cli_seed),
            "--out", "out/lrdtest.json", "--fluctuation-out", "out/fluct"]
    return {"calls": [argv], "inputs": inputs, "cli_seed": cli_seed, "work_units": len(inputs)}


def correlated_pair(h1: float, h2: float, rho: float, length: int, seed: int):
    """Two fGn series whose complex Gaussian inputs correlate with ``rho``."""
    rng = np.random.default_rng(seed)
    shared = rng.standard_normal(2 * length) + 1j * rng.standard_normal(2 * length)
    own = rng.standard_normal(2 * length) + 1j * rng.standard_normal(2 * length)
    mixed = rho * shared + np.sqrt(1.0 - rho * rho) * own
    return [np.fft.fft(_embedding(h, length) * normals)[:length].real
            for h, normals in ((h1, shared), (h2, mixed))]


def make_xcorr_pair(seed: int, work: Path) -> dict:
    """One correlated pair (H 0.9 and 0.8, input correlation 0.5).

    The files cover 2530 days each, the second starting 30 days later, so
    the CLI aligns them on 2500 common dates.
    """
    pair_seed, cli_seed = _seeds(seed, 2)
    span = PAIR_LENGTH + PAIR_OFFSET_DAYS
    x, y = correlated_pair(0.9, 0.8, 0.5, span, pair_seed)
    write_dated(work / "in" / "x.csv", dates_from(START, span), x)
    write_dated(work / "in" / "y.csv",
                dates_from(START + dt.timedelta(days=PAIR_OFFSET_DAYS), span), y)
    cli_seed %= 100_000
    argv = ["xcorr", "in/x.csv", "in/y.csv", "--method", "both",
            "--surrogates", str(SURROGATES), "--seed", str(cli_seed)]
    return {"calls": [argv], "cli_seed": cli_seed, "work_units": 2 * SURROGATES}


def _ohlcv_bars(rng: np.random.Generator, count: int) -> dict:
    """A price path with clustered volatility, rounded to cents.

    About one bar in 500 is flat (high equals low), as on a halted day, so
    the zero-variance clamp in ``volatility`` is exercised.
    """
    vol = 0.01 * np.exp(np.cumsum(rng.normal(0.0, 0.05, count)) * 0.2)
    close = np.round(50.0 * np.exp(np.cumsum(rng.normal(0.0, 1.0, count) * vol)), 2)
    open_ = np.round(np.concatenate([[close[0]], close[:-1]]) * np.exp(rng.normal(0.0, 0.3, count) * vol), 2)
    high = np.round(np.maximum(open_, close) * np.exp(np.abs(rng.normal(0.0, 1.0, count)) * vol), 2)
    low = np.round(np.minimum(open_, close) * np.exp(-np.abs(rng.normal(0.0, 1.0, count)) * vol), 2)
    flat = rng.random(count) < 0.002
    open_[flat] = close[flat]
    high[flat] = close[flat]
    low[flat] = close[flat]
    high = np.maximum(high, np.maximum(open_, close))
    low = np.minimum(low, np.minimum(open_, close))
    volume = rng.integers(10_000, 5_000_000, count)
    return {"open": open_, "high": high, "low": low, "close": close, "volume": volume}


def make_ingest(seed: int, work: Path) -> dict:
    """OHLCV bars for ``volatility``, trends segments for ``chain``, and
    parameters for ``synth``."""
    rng = np.random.default_rng(_seeds(seed, 1)[0])
    calls = []
    for i in range(OHLCV_FILES):
        bars = _ohlcv_bars(rng, OHLCV_BARS)
        dates = dates_from(START, OHLCV_BARS)
        lines = ["date,open,high,low,close,volume"]
        lines.extend(
            f"{d.isoformat()},{o:.2f},{h:.2f},{lo:.2f},{c:.2f},{v}"
            for d, o, h, lo, c, v in zip(dates, bars["open"], bars["high"],
                                         bars["low"], bars["close"], bars["volume"])
        )
        (work / "in" / f"stock{i:02d}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        calls.append(["volatility", f"in/stock{i:02d}.csv", "--out", f"out/stock{i:02d}"])

    # Search interest sampled as overlapping windows, each rescaled so its
    # own maximum reads 100, as a trends service reports them.
    step = SEGMENT_DAYS - OVERLAP_DAYS
    total = SEGMENT_DAYS + step * (SEGMENTS - 1)
    level = np.exp(0.3 * np.cumsum(rng.normal(0.0, 0.05, total)) + 0.2 * rng.normal(0.0, 1.0, total))
    segments = []
    for s in range(SEGMENTS):
        window = level[s * step: s * step + SEGMENT_DAYS]
        values = np.clip(np.round(100.0 * window / window.max()), 1.0, 100.0)
        path = work / "in" / f"seg{s:02d}.csv"
        write_dated(path, dates_from(START + dt.timedelta(days=s * step), SEGMENT_DAYS), values, "g")
        segments.append(f"in/seg{s:02d}.csv")
    calls.append(["chain", *segments, "--overlap-days", str(OVERLAP_DAYS), "--out", "out/chained.csv"])

    hursts = np.round(rng.uniform(0.55, 0.95, SYNTH_SERIES), 3)
    synth_seeds = rng.integers(0, 100_000, SYNTH_SERIES)
    for i, (h, s) in enumerate(zip(hursts, synth_seeds)):
        calls.append(["synth", "--hurst", repr(float(h)), "--length", str(SYNTH_LENGTH),
                      "--seed", str(int(s)), "--out", f"out/synth{i}.csv"])
    rows_written = OHLCV_FILES * 2 * OHLCV_BARS + total + SYNTH_SERIES * SYNTH_LENGTH
    return {"calls": calls, "work_units": rows_written}


MAKERS = {
    "lrdtest-panel": make_lrdtest_panel,
    "xcorr-pair": make_xcorr_pair,
    "ingest": make_ingest,
}

# The layers expected to carry at least 80% of a traced pass.
DOMINANT = {
    "lrdtest-panel": ("lrd", "series"),
    "xcorr-pair": ("surrogates", "xcorr"),
    "ingest": ("finance", "synth"),
}

WORK_UNITS = {
    "lrdtest-panel": "series",
    "xcorr-pair": "surrogate pairs",
    "ingest": "rows written",
}


def make_inputs(workload: str, seed: int, work: Path) -> dict:
    (work / "in").mkdir(parents=True, exist_ok=True)
    (work / "out").mkdir(parents=True, exist_ok=True)
    return MAKERS[workload](seed, work)
