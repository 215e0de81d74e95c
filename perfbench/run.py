"""lrdkit benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lrdtest-panel --seed 1 --seconds 30 --trace 0

``--workload`` is one of the three below. ``--seed`` makes the inputs;
the same seed gives the same inputs and the same expected outputs.
``--seconds`` is how long passes run. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones. The last line of
standard output is one JSON object; the lines before it give every
metric by name and unit, the pass-time quartiles, and the provenance
(git SHA, Python, numpy and BLAS, CPU, seed, ``src/`` line count).
``python3 perfbench/selftest.py`` checks that the harness counts a failed
pass as failed.

Each run builds its inputs and the expected outputs (``reference.py``,
numpy only) under ``.perfbench/<workload>``, times nine fresh
interpreters importing ``lrdkit.cli`` (``setup_s``), then starts one
fresh process (``worker.py``) that drives ``lrdkit.cli.main(argv)`` pass
after pass. Every pass is checked (``reference.judge``); a pass that
fails counts toward ``failed``. No workload sets ``--jobs``.

Workloads, and the layer each isolates:

* ``lrdtest-panel``: ``lrdtest`` over 24 dated fGn series (T=2500, H from
  0.5 to 0.95, four replicas each), 1000 surrogates, block 25, with a JSON
  report and fluctuation files. It models testing a panel of search
  queries. ``lrd`` and ``series`` (the block bootstrap and the HAC
  variance) do nearly all the work; ``surrogates`` and ``xcorr`` none.
  The H mix puts bandwidths on both sides of the 32-lag switch to the FFT
  path in ``series._autocovariances``.
* ``xcorr-pair``: ``xcorr --method both`` on a correlated fGn pair (H 0.9
  and 0.8) whose files are offset by 30 days, so date alignment runs,
  with 1000 surrogates and the default grids. ``surrogates`` (AAFT) and
  ``xcorr`` (box and moving-average detrending) do nearly all the work;
  ``lrd`` none.
* ``ingest``: ``volatility`` on 16 OHLCV files of 5000 bars, ``chain`` of
  30 overlapping 270-day segments, ``synth`` of 8 series at T=8192.
  ``finance`` parsing and writing plus ``synth`` do nearly all the work,
  and it writes about as much as it reads, so a change that trades read
  speed for write speed shows.

End-to-end metrics (``--trace 0``): ``wall_s``, the median seconds per
pass; ``work_per_s``, series, surrogate pairs or CSV rows written per
second; ``peak_rss_mb`` of the worker process; ``setup_s``, a fresh
interpreter through ``import lrdkit.cli``. ``error_rate`` (failed over
attempted passes) is printed with them and carried by the ``failed`` and
``attempted`` fields. The three timings are at reference speed
(``calibrate.py``): on a shared host the raw times of the same code drift
by a fifth or more between runs, so each time is rescaled by a fixed
kernel timed all through it. The raw medians are printed beside them.

Per-layer metrics (``--trace 1``) come from spans around every call
``lrdkit.cli`` makes into another lrdkit module, recorded by wrappers the
worker installs, plus replays of the hot kernels through their public
functions; ``cli.self_s`` is the pass time outside those spans and
``trace_overhead`` the traced over the untraced pass time, minus one.
Spans are written to ``.perfbench/<workload>/spans.jsonl``, and every
run's metrics, pass times and provenance to ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
import reference
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 9
# Every run must end within 180 s; the worker gets what is left of this.
RUN_LIMIT_S = 170.0

# Per-layer metric -> the CLI span it sums, per traced pass.
SPAN_METRICS = {
    "lrd.bootstrap_s": "lrd.bootstrap_lrd_tests",
    "dfa.hurst_s": "dfa.dfa_hurst",
    "surrogates.significance_dcca_s": "surrogates.xcorr_significance.dcca",
    "surrogates.significance_dmca_s": "surrogates.xcorr_significance.dmca",
    "finance.read_s": "finance.read_series_csv",
    "finance.write_s": "finance.write_series_csv",
    "finance.chain_s": "finance.chain_segments",
    "finance.log_transform_s": "finance.log_transform",
    "synth.generate_fgn_s": "synth.generate_fgn",
}
# Per-layer metric -> the replay span that measures it.
REPLAY_METRICS = {
    "lrd.statistic_s": "lrd.statistic",
    "series.auto_bandwidth_s": "series.auto_bandwidth",
    "series.hac_variance_s": "series.hac_variance",
    "surrogates.aaft_s": "surrogates.aaft",
    "xcorr.scan_dcca_s": "xcorr.scan_dcca",
    "xcorr.scan_dmca_s": "xcorr.scan_dmca",
}


def declared_units() -> tuple[dict[str, str], dict[str, str]]:
    """Metric names and units of the end-to-end and per-layer sets, as
    ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in declared[key]} for key in ("end_to_end", "per_layer"))


def provenance(seed: int) -> dict:
    info = {"git_sha": "unknown", "python": platform.python_version(),
            "numpy": np.__version__, "blas": "unknown", "nproc": len(os.sched_getaffinity(0)),
            "cpu": platform.machine(), "seed": seed,
            "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                             for p in (ROOT / "src").rglob("*.py"))}
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_file.is_file():
                ref = ref_file.read_text().strip()
            elif packed.is_file():
                ref = next((line.split()[0] for line in packed.read_text().splitlines()
                            if line.endswith(" " + ref[5:])), "unknown")
        info["git_sha"] = ref
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in handle
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return info


def child_env() -> dict:
    env = dict(os.environ)
    # Imports read cached bytecode, as they do for an installed package.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing ``lrdkit.cli``, raw and at
    reference speed, from kernel rounds timed right before and after each.
    The first start, which may compile bytecode, is not kept."""
    argv = [sys.executable, "-c", "import lrdkit.cli"]
    raw, at_reference = [], []
    rounds = [calibrate.round_s() for _ in range(3)]
    for _ in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        subprocess.run(argv, env=child_env(), check=True, timeout=60)
        elapsed = time.perf_counter() - start
        after = [calibrate.round_s() for _ in range(3)]
        raw.append(elapsed)
        at_reference.append(calibrate.at_reference(elapsed, rounds + after))
        rounds = after
    return raw[1:], at_reference[1:]


def quartiles(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}  q3 {q3:.4f}  n {len(values)}"


def per_layer(workload: str, result: dict) -> dict[str, float]:
    passes = result["passes"]
    metrics = {}
    for metric, name in SPAN_METRICS.items():
        metrics[metric] = statistics.median(p.get(name, 0.0) for p in passes)
    replay = result.get("replay", {})
    for metric, name in REPLAY_METRICS.items():
        metrics[metric] = replay.get(name, 0.0)
    counters = result["counters"] | result["replay_counters"]
    for metric in ("surrogates.peak_alloc_mb", "finance.rows_read", "finance.bytes_written",
                   "lrd.redraws"):
        metrics[metric] = counters.get(metric, 0.0)
    drawn = counters.get("lrd.surrogates", 0.0)
    metrics["lrd.useful_ratio"] = drawn / (drawn + metrics["lrd.redraws"]) if drawn else 1.0
    coefficients = counters.get("surrogates.coefficients", 0.0)
    nan = counters.get("surrogates.nan", 0.0)
    metrics["surrogates.nan_share"] = nan / coefficients if coefficients else 0.0
    self_times, shares = [], []
    for p in passes:
        children = {k: v for k, v in p.items() if k != "pass"}
        self_times.append(p["pass"] - sum(children.values()))
        dominant = sum(v for k, v in children.items() if k.split(".")[0] in wl.DOMINANT[workload])
        shares.append(dominant / p["pass"])
    metrics["cli.self_s"] = statistics.median(self_times)
    metrics["dominant_share"] = statistics.median(shares)
    traced, untraced = (statistics.median(result[k]) for k in ("traced_s", "untraced_s"))
    metrics["trace_overhead"] = traced / untraced - 1.0
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    end_to_end_units, per_layer_units = declared_units()

    if not (ROOT / "src" / "lrdkit" / "cli.py").is_file():
        print(f"no lrdkit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = wl.make_inputs(args.workload, args.seed, work)
    expected = reference.compute(args.workload, work, spec)
    (work / "reference.json").write_text(json.dumps(expected), encoding="utf-8")
    config = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "spec": spec}
    (work / "spec.json").write_text(json.dumps(config), encoding="utf-8")
    setup_raw, setup = ([], []) if args.trace else measure_setup()

    worker = [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(work)]
    try:
        subprocess.run(worker, env=child_env(), check=True,
                       timeout=RUN_LIMIT_S - (time.perf_counter() - started))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"worker failed: {error}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))

    verdicts, problems = reference.judge(args.workload, expected, work / "first",
                                         result["digests"], result["problems"])
    failed = verdicts.count(False)
    if args.trace:
        metrics, units = per_layer(args.workload, result), per_layer_units
    else:
        wall = statistics.median(result["at_reference_s"])
        metrics = {"wall_s": wall, "work_per_s": spec["work_units"] / wall,
                   "peak_rss_mb": result["peak_rss_mb"], "setup_s": statistics.median(setup)}
        units = end_to_end_units
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    info = provenance(args.seed)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(verdicts)} passes, {failed} failed")
    print("provenance " + json.dumps(info, sort_keys=True))
    for problem in list(dict.fromkeys(problems))[:20]:
        print(f"  problem: {problem}")
    if args.trace:
        for name, value in metrics.items():
            print(f"  {name:32s} {value:.6g} {units[name]}")
    else:
        print(f"  wall_s       {wall:.4f} s    {quartiles(result['at_reference_s'])}")
        print(f"  work_per_s   {metrics['work_per_s']:.2f} 1/s  ({wl.WORK_UNITS[args.workload]} per second)")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
        print(f"  error_rate   {failed / len(verdicts):.4f} ratio  ({failed} of {len(verdicts)} passes)")
        print(f"  setup_s      {metrics['setup_s']:.4f} s    {quartiles(setup)}")
        print(f"  raw wall_s   {statistics.median(result['untraced_s']):.4f} s    {quartiles(result['untraced_s'])}")
        print(f"  raw setup_s  {statistics.median(setup_raw):.4f} s    {quartiles(setup_raw)}")
    results = ROOT / ".perfbench" / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": info, "metrics": metrics, "verdicts": verdicts,
                    "problems": problems[:100], "worker": result}, indent=1),
        encoding="utf-8")
    line = {"correct": failed == 0, "attempted": len(verdicts), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
