"""Rescales measured times to a fixed reference speed of the machine.

On a shared host the throughput of a core drifts by a fifth or more over
seconds to minutes, as neighbours load the same physical cores, so raw
times of the same code spread that much between runs. The benchmark
therefore times a small fixed kernel alongside the work and rescales the
work's time by how slow the kernel ran meanwhile: a time at reference speed
is the time the work would take if one kernel round took
``REFERENCE_ROUND_S``. The kernel imports nothing from lrdkit and never
changes, so a change to the program cannot move it. Its mix follows the
program's: dated CSV text parsed and formatted in Python, and small numpy
arrays ranked, transformed and detrended box by box.

Inside a pass, ``SpeedSampler`` runs one kernel round from a ``SIGALRM``
handler every ``SAMPLE_PERIOD_S`` seconds, so the speed is sampled all
through the pass; the time spent in the handler is taken out of the pass
time.
"""

from __future__ import annotations

import datetime as dt
import gc
import signal
import statistics
import time

import numpy as np

# One kernel round at reference speed: about the median on a 2-vCPU Xeon
# VM (AVX-512) with Python 3.11 and numpy 2.4.
REFERENCE_ROUND_S = 0.005
# Wall time between rounds inside a pass; a round costs about 5% of it.
SAMPLE_PERIOD_S = 0.1

_RNG = np.random.default_rng(20160520)
_VALUES = _RNG.standard_normal(2500)
_SORTED = np.sort(_RNG.standard_normal(2500))
_LINES = [f"{(dt.date(2004, 1, 1) + dt.timedelta(days=i)).isoformat()},{float(v)!r}"
          for i, v in enumerate(_VALUES[:1200])]
_SCALES = range(10, 251, 20)


def _text() -> float:
    total = 0.0
    rows = []
    for line in _LINES:
        day, value = line.split(",")
        stamp = dt.date.fromisoformat(day)
        number = float(value)
        total += number * stamp.day
        rows.append(f"{stamp.isoformat()},{format(number, '.17g')}")
    return total + len("\n".join(rows))


def _arrays() -> float:
    ranks = np.argsort(np.argsort(_VALUES))
    spectrum = np.fft.rfft(_SORTED[ranks])
    profile = np.cumsum(np.fft.irfft(spectrum * np.exp(1j * np.angle(spectrum)), _VALUES.size))
    total = 0.0
    for scale in _SCALES:
        count = profile.size // scale
        boxes = profile[: count * scale].reshape(count, scale)
        t = np.arange(scale, dtype=float)
        fit = np.polyfit(t, boxes.T, 1)
        residual = boxes - (np.outer(fit[0], t) + fit[1][:, None])
        total += float(np.mean(residual * residual))
    return total


def round_s() -> float:
    """Seconds for one kernel round. The garbage collector is held off, so
    that the round never collects the program's garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _text()
        _arrays()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_reference(elapsed: float, rounds: list[float]) -> float:
    """``elapsed`` seconds rescaled to reference speed, given kernel rounds
    timed meanwhile."""
    return elapsed * REFERENCE_ROUND_S / statistics.fmean(rounds)


class SpeedSampler:
    """Context manager that times one kernel round every ``SAMPLE_PERIOD_S``
    seconds of wall time until it exits, from a ``SIGALRM`` handler. Python
    runs the handler in the main thread between bytecodes, so a long numpy
    call delays a sample but is never interrupted. Only for the main thread
    of a process that uses no other ``SIGALRM``."""

    def __init__(self) -> None:
        self.rounds: list[float] = []
        self.spent = 0.0

    def __enter__(self) -> "SpeedSampler":
        self.rounds, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.rounds.append(round_s())
        self.spent += time.perf_counter() - start

    def reference_time(self, elapsed: float) -> float:
        """``elapsed`` (which includes the sampling) less the time spent
        sampling, at reference speed. A pass shorter than
        ``SAMPLE_PERIOD_S`` gets one round timed now."""
        if not self.rounds:
            self.rounds.append(round_s())
        return at_reference(elapsed - self.spent, self.rounds)
