"""Expected outputs, computed from the inputs with numpy alone.

Nothing here imports lrdkit. The estimators are written out again,
vectorised over the surrogate ensemble, and follow the published
definitions the package documents: Lo's modified R/S and the rescaled
variance with a Bartlett HAC variance and Lo's automatic bandwidth, the
moving-block bootstrap, DFA with boxes from both ends, DCCA and DMCA with
AAFT surrogates, Garman-Klass, segment chaining and Davies-Harte fGn.

Surrogate draws repeat the package's documented seeding (one
``SeedSequence(seed).spawn`` child per surrogate), so p-values must come out
equal, not just close. Float results must agree to ``RTOL`` relative.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import workloads as wl

RTOL = 1e-9
# Added to the relative tolerance, for values that are zero up to rounding.
ATOL = 1e-12
LEVEL = 0.10
DCCA_SCALES = np.arange(10, 251, 10)
DMCA_WINDOWS = np.arange(11, 252, 10)


def read_dated(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    return [r[0] for r in rows], np.array([float(r[1]) for r in rows])


# ----------------------------------------------------------------- lrdtest

def _lag_products(centered: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocovariances at lags 0..max_lag for each row."""
    n = centered.shape[1]
    out = np.empty((centered.shape[0], max_lag + 1))
    out[:, 0] = np.einsum("ij,ij->i", centered, centered)
    for k in range(1, max_lag + 1):
        out[:, k] = np.einsum("ij,ij->i", centered[:, :-k], centered[:, k:])
    return out / n


def lo_bandwidth(rows: np.ndarray) -> np.ndarray:
    """Lo (1991) automatic bandwidth for each row."""
    n = rows.shape[1]
    centered = rows - rows.mean(axis=1, keepdims=True)
    gamma = _lag_products(centered, 1)
    if np.any(gamma[:, 0] == 0.0):
        raise ArithmeticError("constant series has no bandwidth")
    rho = gamma[:, 1] / gamma[:, 0]
    raw = (1.5 * n) ** (1.0 / 3.0) * (2.0 * np.abs(rho) / (1.0 - rho * rho)) ** (2.0 / 3.0)
    return np.minimum(np.floor(raw), n - 1).astype(int)


def lrd_statistics(rows: np.ndarray, bandwidth: np.ndarray) -> np.ndarray:
    """Rescaled range and rescaled variance, one row each, as (rows, 2)."""
    n = rows.shape[1]
    centered = rows - rows.mean(axis=1, keepdims=True)
    max_lag = int(bandwidth.max())
    gamma = _lag_products(centered, max_lag)
    lags = np.arange(1, max_lag + 1)
    weights = np.clip(1.0 - lags[None, :] / (bandwidth[:, None] + 1.0), 0.0, None)
    s2 = gamma[:, 0] + 2.0 * np.sum(weights * gamma[:, 1:], axis=1)
    if np.any(s2 <= 0.0):
        raise ArithmeticError("surrogate with nonpositive long-run variance")
    profile = np.cumsum(centered, axis=1)
    spread = profile.max(axis=1) - profile.min(axis=1)
    prof_var = profile.var(axis=1)
    return np.column_stack([spread / np.sqrt(s2 * n), prof_var / (n * s2)])


def bootstrap_pvalues(values: np.ndarray, block_size: int, n_surrogates: int, seed: int):
    """Observed statistics, bandwidth and add-one p-values of the block bootstrap."""
    bandwidth = lo_bandwidth(values[None, :])
    observed = lrd_statistics(values[None, :], bandwidth)[0]
    n_blocks = values.size // block_size
    used = n_blocks * block_size
    blocks = values[:used].reshape(n_blocks, block_size)
    children = np.random.SeedSequence(seed).spawn(n_surrogates)
    order = np.stack([np.random.default_rng(c).permutation(n_blocks) for c in children])
    surrogates = blocks[order].reshape(n_surrogates, used)
    if used < values.size:
        tail = np.broadcast_to(values[used:], (n_surrogates, values.size - used))
        surrogates = np.concatenate([surrogates, tail], axis=1)
    stats = lrd_statistics(surrogates, lo_bandwidth(surrogates))
    exceed = np.sum(stats >= observed[None, :], axis=0)
    return observed, int(bandwidth[0]), (1.0 + exceed) / (1.0 + n_surrogates)


def decade_scales(min_scale: int, max_scale: int) -> list[int]:
    """Tenth-of-a-decade integer scales from ``min_scale`` to ``max_scale``."""
    scales: list[int] = []
    start, stop = math.log10(min_scale), math.log10(max_scale)
    k = 0
    while start + k * 0.1 <= stop + 1e-12:
        raw = 10.0 ** (start + k * 0.1)
        scale = int(math.floor(raw + 1e-9 * max(1.0, raw)))
        if not scales or scale != scales[-1]:
            scales.append(scale)
        k += 1
    return scales


def _centered_boxes(profiles: np.ndarray, scale: int) -> np.ndarray:
    """Boxes counted from both ends, each minus its own mean, per row."""
    rows, n = profiles.shape
    n_boxes = n // scale
    used = n_boxes * scale
    boxes = np.concatenate(
        [profiles[:, :used].reshape(rows, n_boxes, scale),
         profiles[:, n - used:].reshape(rows, n_boxes, scale)], axis=1)
    return boxes - boxes.mean(axis=2, keepdims=True)


def box_moment(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Sum over boxes of the product of linear-fit residuals, per row.

    With box-centered values c and centered positions t the residual is
    c - (c.t / t.t) t, so the sum of products is cx.cy - (cx.t)(cy.t) / t.t.
    """
    t = np.arange(cx.shape[2], dtype=float) - (cx.shape[2] - 1) / 2.0
    return (np.einsum("rbs,rbs->r", cx, cy)
            - np.einsum("rb,rb->r", cx @ t, cy @ t) / (t @ t))


def dfa(values: np.ndarray) -> tuple[list[int], np.ndarray, float]:
    """Scales, fluctuation function and the log-log slope (Hurst estimate)."""
    scales = decade_scales(10, min(500, values.size // 5))
    profile = np.cumsum(values - values.mean())[None, :]
    fluct = []
    for s in scales:
        boxes = _centered_boxes(profile, s)
        fluct.append(math.sqrt(box_moment(boxes, boxes)[0] / boxes[0].size))
    fluct = np.array(fluct)
    slope = np.polyfit(np.log10(scales), np.log10(fluct), 1)[0]
    return scales, fluct, float(slope)


def lrdtest_reference(work: Path, spec: dict) -> dict:
    expected = {}
    for relative in spec["inputs"]:
        path = work / relative
        _, values = read_dated(path)
        observed, bandwidth, p = bootstrap_pvalues(
            values, wl.BLOCK_SIZE, wl.SURROGATES, spec["cli_seed"])
        scales, fluct, hurst = dfa(values)
        expected[path.stem] = {
            "n_obs": int(values.size), "bandwidth": bandwidth,
            "rescaled_range_stat": float(observed[0]), "rescaled_range_p": float(p[0]),
            "rescaled_variance_stat": float(observed[1]), "rescaled_variance_p": float(p[1]),
            "hurst_dfa": hurst, "scales": scales, "fluctuation": fluct.tolist(),
        }
    return expected


# ------------------------------------------------------------------- xcorr

def coefficient_curves(x: np.ndarray, y: np.ndarray, method: str) -> np.ndarray:
    """DCCA or DMCA coefficients over the default grid, one row per pair."""
    px = np.cumsum(x - x.mean(axis=1, keepdims=True), axis=1)
    py = np.cumsum(y - y.mean(axis=1, keepdims=True), axis=1)
    grid = DCCA_SCALES if method == "dcca" else DMCA_WINDOWS
    if method == "dmca":
        zero = np.zeros((x.shape[0], 1))
        cx = np.concatenate([zero, np.cumsum(px, axis=1)], axis=1)
        cy = np.concatenate([zero, np.cumsum(py, axis=1)], axis=1)
    out = np.empty((x.shape[0], grid.size))
    for j, s in enumerate(grid):
        s = int(s)
        if method == "dcca":
            bx, by = _centered_boxes(px, s), _centered_boxes(py, s)
            sxy, sxx, syy = box_moment(bx, by), box_moment(bx, bx), box_moment(by, by)
        else:
            # Residuals against the centered moving average of odd window s,
            # where the whole window fits.
            half, n = (s - 1) // 2, px.shape[1]
            rx = px[:, half: n - half] - (cx[:, s:] - cx[:, :-s]) / s
            ry = py[:, half: n - half] - (cy[:, s:] - cy[:, :-s]) / s
            sxy = np.einsum("ij,ij->i", rx, ry)
            sxx = np.einsum("ij,ij->i", rx, rx)
            syy = np.einsum("ij,ij->i", ry, ry)
        with np.errstate(invalid="ignore", divide="ignore"):
            out[:, j] = sxy / (np.sqrt(sxx) * np.sqrt(syy))
    return out


def _aaft(values: np.ndarray, gaussians: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """AAFT surrogates of one series, one row per (gaussian, phase) draw."""
    n = values.size
    ranks = values.argsort().argsort()
    spectrum = np.fft.rfft(np.sort(gaussians, axis=1)[:, ranks], axis=1)
    rotation = np.exp(1j * phases)
    rotation[:, 0] = 1.0
    if n % 2 == 0:
        rotation[:, -1] = np.where(phases[:, -1] < np.pi, 1.0, -1.0)
    randomized = np.fft.irfft(spectrum * rotation, n, axis=1)
    return np.sort(values)[randomized.argsort(axis=1).argsort(axis=1)]


def surrogate_curves(x: np.ndarray, y: np.ndarray, n_surrogates: int, seed: int,
                     chunk: int = 25) -> dict[str, np.ndarray]:
    n = x.size
    children = np.random.SeedSequence(seed).spawn(n_surrogates)
    curves = {"dcca": [], "dmca": []}
    for start in range(0, n_surrogates, chunk):
        draws = []
        for child in children[start: start + chunk]:
            rng = np.random.default_rng(child)
            # Per pair: x's gaussian then x's phases, then the same for y.
            draws.append((rng.standard_normal(n), rng.uniform(0.0, 2.0 * np.pi, n // 2 + 1),
                          rng.standard_normal(n), rng.uniform(0.0, 2.0 * np.pi, n // 2 + 1)))
        gx, phx, gy, phy = (np.stack(d) for d in zip(*draws))
        sx, sy = _aaft(x, gx, phx), _aaft(y, gy, phy)
        for method in curves:
            curves[method].append(coefficient_curves(sx, sy, method))
    return {m: np.vstack(c) for m, c in curves.items()}


def aligned_pair(work: Path) -> tuple[np.ndarray, np.ndarray]:
    """The xcorr inputs restricted to their common dates."""
    dates_x, x = read_dated(work / "in" / "x.csv")
    dates_y, y = read_dated(work / "in" / "y.csv")
    common = sorted(set(dates_x) & set(dates_y))
    x_map, y_map = dict(zip(dates_x, x)), dict(zip(dates_y, y))
    return np.array([x_map[d] for d in common]), np.array([y_map[d] for d in common])


def xcorr_reference(work: Path, spec: dict) -> dict:
    x, y = aligned_pair(work)
    surrogates = surrogate_curves(x, y, wl.SURROGATES, spec["cli_seed"])
    results = {}
    for method, grid in (("dcca", DCCA_SCALES), ("dmca", DMCA_WINDOWS)):
        rho = coefficient_curves(x[None, :], y[None, :], method)[0]
        surr = surrogates[method]
        # The inputs keep every scale non-degenerate, so the package's
        # p = 1 rule for degenerate scales never applies here.
        if np.isnan(rho).any() or np.isnan(surr).any():
            raise ArithmeticError(f"degenerate {method} scale in the reference")
        p = (1.0 + (np.abs(surr) >= np.abs(rho)).sum(axis=0)) / (1.0 + wl.SURROGATES)
        mean_rho = float(rho.mean())
        exceed_mean = np.abs(surr.mean(axis=1)) >= abs(mean_rho)
        p_mean = (1.0 + int(exceed_mean.sum())) / (1.0 + wl.SURROGATES)
        results[method] = {
            "scales": [int(s) for s in grid], "rho": rho.tolist(), "p_values": p.tolist(),
            "rho_masked": np.where(p < LEVEL, rho, 0.0).tolist(),
            "summary": {"mean_rho": mean_rho, "std_rho": float(rho.std()),
                        "p_value": p_mean, "significant": bool(p_mean < LEVEL)},
        }
    significant = [(r["summary"]["p_value"], r["summary"]["mean_rho"])
                   for r in results.values() if r["summary"]["p_value"] < LEVEL]
    sign = "0"
    if significant:
        mean = min(significant)[1]
        sign = "+" if mean > 0 else "-" if mean < 0 else "0"
    return {"n_obs": int(x.size), "results": results, "sign": sign}


# ------------------------------------------------------------------ ingest

def _log_clamped(values: np.ndarray) -> tuple[np.ndarray, float, list[int]]:
    floor = float(values[values > 0.0].min()) * 1e-3
    return np.log(np.maximum(values, floor)), floor, np.nonzero(values < floor)[0].tolist()


def ingest_reference(work: Path, spec: dict) -> dict:
    expected = {"volatility": {}, "chain": None, "synth": {}}
    for argv in spec["calls"]:
        command = argv[0]
        if command == "volatility":
            with (work / argv[1]).open(newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))[1:]
            o, h, lo, c, v = (np.array([float(r[i]) for r in rows]) for i in range(1, 6))
            gk = 0.5 * np.log(h / lo) ** 2 - (2.0 * math.log(2.0) - 1.0) * np.log(c / o) ** 2
            log_var, var_floor, var_clamped = _log_clamped(gk)
            log_vol, vol_floor, vol_clamped = _log_clamped(v)
            expected["volatility"][argv[1]] = {
                "prefix": argv[3], "dates": [r[0] for r in rows],
                "log_variance": log_var.tolist(), "log_volume": log_vol.tolist(),
                "floor": {"log_variance": var_floor, "log_volume": vol_floor},
                "clamped": {"log_variance": var_clamped, "log_volume": vol_clamped},
            }
        elif command == "chain":
            overlap = int(argv[argv.index("--overlap-days") + 1])
            segments = [read_dated(work / p) for p in argv[1: argv.index("--overlap-days")]]
            dates, chained = list(segments[0][0]), list(segments[0][1])
            for seg_dates, seg_values in segments[1:]:
                shared = len(set(dates) & set(seg_dates))
                if shared < overlap:
                    raise ValueError(f"segments overlap {shared} days, need {overlap}")
                scaled = seg_values * (np.mean(chained[-shared:]) / np.mean(seg_values[:shared]))
                dates.extend(seg_dates[shared:])
                chained.extend(scaled[shared:])
            expected["chain"] = {"path": argv[-1], "dates": dates, "values": chained}
        else:
            h = float(argv[argv.index("--hurst") + 1])
            length = int(argv[argv.index("--length") + 1])
            seed = int(argv[argv.index("--seed") + 1])
            expected["synth"][argv[-1]] = {
                "dates": [d.isoformat() for d in wl.dates_from(wl.START, length)],
                "values": wl.fgn(h, length, seed).tolist()}
    return expected


REFERENCES = {
    "lrdtest-panel": lrdtest_reference,
    "xcorr-pair": xcorr_reference,
    "ingest": ingest_reference,
}


def compute(workload: str, work: Path, spec: dict) -> dict:
    return REFERENCES[workload](work, spec)


# ---------------------------------------------------------------- checking

class Mismatch(list):
    """Collects the differences between one pass and the reference."""

    def close(self, what: str, got, want) -> None:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.append(f"{what}: shape {got.shape} != {want.shape}")
            return
        bad = np.abs(got - want) > RTOL * np.maximum(np.abs(got), np.abs(want)) + ATOL
        if np.any(bad):
            i = int(np.argmax(bad.ravel()))
            self.append(f"{what}: {bad.sum()} values differ, first {float(got.ravel()[i])!r} "
                        f"!= {float(want.ravel()[i])!r}")

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.append(f"{what}: {str(got)[:80]} != {str(want)[:80]}")


def _dated_text(text: bytes) -> tuple[list[str], np.ndarray]:
    rows = list(csv.reader(io.StringIO(text.decode("utf-8"))))
    if rows[0] != ["date", "value"]:
        raise ValueError(f"unexpected header {rows[0]}")
    return [r[0] for r in rows[1:]], np.array([float(r[1]) for r in rows[1:]])


def check_lrdtest(outputs: dict, expected: dict) -> Mismatch:
    miss = Mismatch()
    document = json.loads(outputs["out/lrdtest.json"])
    rows = {row["label"]: row for row in document["results"]}
    miss.equal("labels", sorted(rows), sorted(expected))
    for label in set(rows) & set(expected):
        got, want = rows[label], expected[label]
        for key in ("n_obs", "bandwidth", "rescaled_range_p", "rescaled_variance_p"):
            miss.equal(f"{label} {key}", got[key], want[key])
        for key in ("rescaled_range_stat", "rescaled_variance_stat", "hurst_dfa"):
            miss.close(f"{label} {key}", got[key], want[key])
        text = outputs.get(f"out/fluct_{label}.csv")
        if text is None:
            miss.append(f"{label}: no fluctuation file")
            continue
        rows_f = list(csv.reader(io.StringIO(text.decode("utf-8"))))[1:]
        miss.equal(f"{label} scales", [int(r[0]) for r in rows_f], want["scales"])
        miss.close(f"{label} fluctuation", [float(r[1]) for r in rows_f], want["fluctuation"])
    return miss


def check_xcorr(outputs: dict, expected: dict) -> Mismatch:
    miss = Mismatch()
    document = json.loads(outputs["stdout:0"])
    miss.equal("n_obs", document["n_obs"], expected["n_obs"])
    miss.equal("sign", document["sign"], expected["sign"])
    for method, want in expected["results"].items():
        got = document["results"][method]
        miss.equal(f"{method} scales", got["scales"], want["scales"])
        miss.equal(f"{method} p_values", got["p_values"], want["p_values"])
        miss.close(f"{method} rho", got["rho"], want["rho"])
        miss.close(f"{method} rho_masked", got["rho_masked"], want["rho_masked"])
        for key in ("p_value", "significant"):
            miss.equal(f"{method} summary {key}", got["summary"][key], want["summary"][key])
        for key in ("mean_rho", "std_rho"):
            miss.close(f"{method} summary {key}", got["summary"][key], want["summary"][key])
    return miss


def check_ingest(outputs: dict, expected: dict) -> Mismatch:
    miss = Mismatch()
    for i, (source, want) in enumerate(expected["volatility"].items()):
        report = json.loads(outputs[f"stdout:{i}"])
        miss.equal(f"{source} n_bars", report["n_bars"], len(want["dates"]))
        miss.equal(f"{source} clamped", report["clamped"], want["clamped"])
        for kind in ("log_variance", "log_volume"):
            miss.close(f"{source} {kind} floor", report["floor"][kind], want["floor"][kind])
            dates, values = _dated_text(outputs[f"{want['prefix']}_{kind}.csv"])
            miss.equal(f"{source} {kind} dates", dates, want["dates"])
            miss.close(f"{source} {kind}", values, want[kind])
    chain = expected["chain"]
    dates, values = _dated_text(outputs[chain["path"]])
    miss.equal("chain dates", dates, chain["dates"])
    miss.close("chain values", values, chain["values"])
    for path, want in expected["synth"].items():
        dates, values = _dated_text(outputs[path])
        miss.equal(f"{path} dates", dates, want["dates"])
        miss.close(f"{path} values", values, want["values"])
    return miss


CHECKS = {
    "lrdtest-panel": check_lrdtest,
    "xcorr-pair": check_xcorr,
    "ingest": check_ingest,
}


def check(workload: str, outputs: dict, expected: dict) -> list[str]:
    """Differences between one pass's outputs and the reference; empty if none."""
    try:
        return list(CHECKS[workload](outputs, expected))
    except (KeyError, ValueError, IndexError, TypeError) as error:
        return [f"output unreadable: {type(error).__name__}: {error}"]


def load_outputs(directory: Path) -> dict[str, bytes]:
    """A pass's saved outputs, keyed as the checks expect."""
    outputs = {}
    for path in directory.iterdir():
        if path.name.startswith("stdout-"):
            outputs[f"stdout:{path.stem.removeprefix('stdout-')}"] = path.read_bytes()
        else:
            outputs[f"out/{path.name}"] = path.read_bytes()
    return outputs


def judge(workload: str, expected: dict, first: Path, digests: list[str],
          failures: list[list[str]]) -> tuple[list[bool], list[str]]:
    """Verdict per pass and the problems found.

    A pass is correct when none of its calls failed, the first pass's
    outputs (kept in ``first``) match the reference, and its outputs are
    byte-identical to the first pass's.
    """
    first_problems = check(workload, load_outputs(first), expected)
    verdicts, problems = [], list(first_problems)
    for digest, failed in zip(digests, failures):
        if digest != digests[0]:
            failed = failed + ["outputs differ from the first pass"]
        verdicts.append(not failed and not first_problems)
        problems.extend(failed)
    return verdicts, problems
