"""Runs one workload's passes in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/worker.py <work-dir>`` with
``PYTHONPATH`` pointing at the checkout's ``src``. It reads ``spec.json``
from the work directory, runs passes through ``lrdkit.cli.main`` until
the time is up, and writes ``result.json``.

A pass is every CLI call of the workload, in order. The worker records
each pass's failed calls and a digest of its outputs, and keeps the first
pass's outputs in ``first`` for ``run.py`` to check against the reference;
the reference stays out of this process so ``peak_rss_mb`` is lrdkit's.

With tracing off, every pass runs under ``calibrate.SpeedSampler``, and
its time is also recorded at reference speed. With tracing on, passes
alternate untraced and traced, both unsampled. A traced pass
rebinds the names ``lrdkit.cli`` imports from the other lrdkit modules to
wrappers that record a span per call. After the passes, the workload's
kernels are replayed through their public functions at the workload's
sizes, for the per-layer numbers a CLI span cannot separate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

import calibrate
import reference
import workloads as wl


class Tracer:
    """Spans (name, start, end, parent) and counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int | None] = [None]
        self.counters: dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, target, name: str):
        """``target`` with a span around each call. A closure, not a
        context manager, because some targets run once per CSV row."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = target(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(self, index, result, args)
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value


class TracedClass:
    """Stand-in for a class: calls and callable attributes
    (``TrendsSegment.from_timeseries``) are traced."""

    def __init__(self, tracer: Tracer, cls: type, name: str) -> None:
        self._tracer, self._cls, self._name = tracer, cls, name
        self._new = tracer.wrap(cls, name)

    def __call__(self, *args, **kwargs):
        return self._new(*args, **kwargs)

    def __getattr__(self, attribute: str):
        value = getattr(self._cls, attribute)
        if callable(value):
            return self._tracer.wrap(value, f"{self._name}.{attribute}")
        return value


def _count_bootstrap(tracer, index, result, args):
    first = result["rescaled_range"]
    tracer.add("lrd.surrogates", first.n_surrogates)
    tracer.add("lrd.redraws", first.n_redraws)


def _count_significance(tracer, index, result, args):
    name, start, end, parent = tracer.spans[index]
    tracer.spans[index] = (f"{name}.{result.method}", start, end, parent)
    tracer.add("surrogates.coefficients", result.surrogate_rho.size)
    tracer.add("surrogates.nan", int(np.isnan(result.surrogate_rho).sum()))


def _count_read(tracer, index, result, args):
    tracer.add("finance.rows_read", len(result))


def _count_write(tracer, index, result, args):
    tracer.add("finance.bytes_written", os.path.getsize(args[1]))


COUNTERS = {
    "lrd.bootstrap_lrd_tests": _count_bootstrap,
    "surrogates.xcorr_significance": _count_significance,
    "finance.read_series_csv": _count_read,
    "finance.write_series_csv": _count_write,
}


def traceable_names(cli) -> dict[str, object]:
    """Names ``lrdkit.cli`` imports from the other lrdkit modules, minus
    exception classes, which ``except`` clauses need unwrapped."""
    names = {}
    for name, value in vars(cli).items():
        module = getattr(value, "__module__", "") or ""
        if not callable(value) or not module.startswith("lrdkit.") or module == cli.__name__:
            continue
        if isinstance(value, type) and issubclass(value, BaseException):
            continue
        names[name] = value
    return names


@contextlib.contextmanager
def traced_cli(cli, tracer: Tracer):
    originals = traceable_names(cli)
    for name, value in originals.items():
        label = f"{value.__module__.split('.')[1]}.{name}"
        if isinstance(value, type):
            setattr(cli, name, TracedClass(tracer, value, label))
        else:
            setattr(cli, name, tracer.wrap(value, label))
    try:
        yield
    finally:
        for name, value in originals.items():
            setattr(cli, name, value)


def run_pass(cli, calls: list[list[str]], around=contextlib.nullcontext()):
    """Run one pass from an empty ``out`` directory.

    Only the calls are timed, inside the ``around`` context. Afterwards
    each call's standard output is saved as ``out/stdout-<i>.txt`` and the
    digest covers every file in ``out``.
    """
    shutil.rmtree("out", ignore_errors=True)
    os.mkdir("out")
    stdouts, problems = [], []
    with around as span:
        start = time.perf_counter()
        for index, argv in enumerate(calls):
            stdouts.append(call(cli, index, argv, problems))
        elapsed = time.perf_counter() - start
    for index, text in enumerate(stdouts):
        Path(f"out/stdout-{index}.txt").write_text(text, encoding="utf-8")
    digest = hashlib.sha256()
    for path in sorted(Path("out").iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return elapsed, digest.hexdigest(), problems, span


def call(cli, index: int, argv: list[str], problems: list[str]) -> str:
    """One ``lrdkit.cli.main`` call; returns its stdout, notes any failure."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    except Exception:
        code = "exception"
        err.write(traceback.format_exc())
    if code != 0:
        problems.append(f"call {index} ({argv[0]}) exited {code}: {err.getvalue().strip()[-300:]}")
    return out.getvalue()


def replay_lrd(tracer: Tracer, spec: dict, seed: int) -> None:
    """Bandwidth, statistics and HAC variance over block-permuted copies."""
    from lrdkit import auto_bandwidth, hac_variance, rescaled_range_statistic, rescaled_variance_statistic

    rng = np.random.default_rng(seed)
    for relative in spec["inputs"]:
        _, values = reference.read_dated(Path(relative))
        blocks = values.reshape(-1, wl.BLOCK_SIZE)
        copies = [blocks[rng.permutation(len(blocks))].ravel() for _ in range(wl.SURROGATES)]
        with tracer.span("series.auto_bandwidth"):
            bandwidths = [auto_bandwidth(c) for c in copies]
        with tracer.span("lrd.statistic"):
            for c, q in zip(copies, bandwidths):
                rescaled_range_statistic(c, q)
                rescaled_variance_statistic(c, q)
        with tracer.span("series.hac_variance"):
            for c, q in zip(copies, bandwidths):
                hac_variance(c, q)


def replay_xcorr(tracer: Tracer, spec: dict, seed: int) -> None:
    """AAFT surrogates and both scale scans over as many pairs as the CLI draws,
    then one DCCA and one DMCA significance run under tracemalloc."""
    from lrdkit import SurrogateConfig, aaft_surrogate, scan_scales, xcorr_significance

    x, y = reference.aligned_pair(Path("."))
    rng = np.random.default_rng(seed)
    aaft = tracer.wrap(aaft_surrogate, "surrogates.aaft")
    scan_dcca = tracer.wrap(scan_scales, "xcorr.scan_dcca")
    scan_dmca = tracer.wrap(scan_scales, "xcorr.scan_dmca")
    for _ in range(wl.SURROGATES):
        sx, sy = aaft(x, rng), aaft(y, rng)
        scan_dcca(sx, sy, "dcca")
        scan_dmca(sx, sy, "dmca")
    config = SurrogateConfig(n_surrogates=wl.SURROGATES, seed=int(spec["cli_seed"]))
    peak = 0
    for method in ("dcca", "dmca"):
        tracemalloc.start()
        try:
            xcorr_significance(x, y, method, config=config)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    tracer.counters["surrogates.peak_alloc_mb"] = peak / 2**20


REPLAYS = {"lrdtest-panel": replay_lrd, "xcorr-pair": replay_xcorr}


def layer_times(spans: list[tuple], root: int) -> dict[str, float]:
    """Time of each direct child span of ``root``, summed by span name."""
    out: dict[str, float] = {}
    for name, start, end, parent in spans:
        if parent == root:
            out[name] = out.get(name, 0.0) + (end - start)
    return out


def main() -> int:
    work = Path(sys.argv[1])
    os.chdir(work)
    config = json.loads(Path("spec.json").read_text(encoding="utf-8"))
    spec, workload = config["spec"], config["workload"]
    import lrdkit.cli as cli

    tracer = Tracer()
    sampler = None if config["trace"] else calibrate.SpeedSampler()
    untraced, at_reference, traced, passes, digests, problems = [], [], [], [], [], []
    deadline = time.perf_counter() + config["seconds"]
    while True:
        if config["trace"] and len(untraced) > len(traced):
            with traced_cli(cli, tracer):
                elapsed, digest, failures, root = run_pass(cli, spec["calls"], tracer.span("pass"))
            traced.append(elapsed)
            passes.append(layer_times(tracer.spans, root) | {"pass": elapsed})
        else:
            elapsed, digest, failures, _ = run_pass(cli, spec["calls"], sampler or contextlib.nullcontext())
            untraced.append(elapsed)
            if sampler is not None:
                at_reference.append(sampler.reference_time(elapsed))
        if not digests:
            os.rename("out", "first")
        digests.append(digest)
        problems.append(failures)
        done = len(untraced) >= 2 and (traced or not config["trace"])
        if done and time.perf_counter() >= deadline:
            break

    result = {
        "untraced_s": untraced,
        "at_reference_s": at_reference,
        "traced_s": traced,
        "digests": digests,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if config["trace"]:
        counters_per_pass = dict(tracer.counters)
        replay = REPLAYS.get(workload)
        tracer.counters = {}
        if replay is not None:
            with tracer.span("replay") as root:
                replay(tracer, spec, config["seed"])
            result["replay"] = layer_times(tracer.spans, root)
        result["passes"] = passes
        result["counters"] = {k: v / len(traced) for k, v in counters_per_pass.items()}
        result["replay_counters"] = tracer.counters
        with open("spans.jsonl", "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(tracer.spans):
                handle.write(f'[{index}, {json.dumps(parent)}, "{name}", {start:.7f}, {end:.7f}]\n')
    Path("result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
