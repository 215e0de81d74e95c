"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``[acceptance] criterion N: PASS | ...`` line
straight to the terminal before asserting, so a full run always shows the
scoreboard even when a criterion fails.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import lrdkit as lk
from lrdkit.dfa import dfa_fluctuation, dfa_hurst
from lrdkit.finance import garman_klass, OhlcvBar
from lrdkit.lrd import (
    bootstrap_lrd_tests,
    rescaled_range_statistic,
    rescaled_variance_statistic,
)
from lrdkit.series import auto_bandwidth_value
from lrdkit.surrogates import SurrogateConfig, aaft_surrogate, xcorr_significance
from lrdkit.xcorr import (
    dcca_coefficient,
    dcca_covariance,
    dmca_coefficient,
    dmca_covariance,
    scan_scales,
)

from conftest import IID_SIZE_SEEDS
from oracles import dcca_cov_naive, dfa_fluct_naive, dmca_cov_naive

import datetime as dt


def report(capsys, number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] criterion {number}: {status} | {detail}")


def test_criterion_1_hurst_recovery(capsys):
    started = time.perf_counter()
    errors = {}
    for h in (0.3, 0.5, 0.7, 0.9):
        estimates = [
            dfa_hurst(lk.generate_fgn(lk.FgnSpec(h=h, length=8192, seed=seed))).h
            for seed in range(50)
        ]
        errors[h] = float(np.mean(np.abs(np.asarray(estimates) - h)))
    elapsed = time.perf_counter() - started
    ok = all(mae <= 0.05 for mae in errors.values()) and elapsed < 120.0
    detail = (
        ", ".join(f"mae(h={h:g}) {mae:.4f}" for h, mae in errors.items())
        + f", sweep {elapsed:.1f}s"
    )
    report(capsys, 1, ok, detail)
    assert elapsed < 120.0
    for h, mae in errors.items():
        assert mae <= 0.05, f"mean absolute error {mae:.4f} at h={h}"


def test_criterion_2_lrd_power_and_size(capsys, iid_bootstrap_pvalues):
    rejections = {"rescaled_range": 0, "rescaled_variance": 0}
    for seed in range(100):
        series = lk.generate_fgn(lk.FgnSpec(h=0.9, length=2500, seed=seed))
        tests = bootstrap_lrd_tests(series, n_surrogates=1000, seed=10_000 + seed)
        for kind in rejections:
            if tests[kind].p_value < 0.05:
                rejections[kind] += 1

    size_rates = {
        kind: float(np.mean(iid_bootstrap_pvalues[kind] < 0.05))
        for kind in rejections
    }
    power_ok = all(count >= 90 for count in rejections.values())
    size_ok = all(0.02 <= rate <= 0.09 for rate in size_rates.values())
    detail = (
        f"power V {rejections['rescaled_range']}/100, "
        f"M {rejections['rescaled_variance']}/100 (need >= 90); "
        f"size V {size_rates['rescaled_range']:.1%}, "
        f"M {size_rates['rescaled_variance']:.1%} of {IID_SIZE_SEEDS} "
        f"(need 2%..9%)"
    )
    report(capsys, 2, power_ok and size_ok, detail)
    assert size_ok, detail
    assert power_ok, detail


def test_criterion_3_coefficient_recovery(capsys):
    averages = {"dcca": [], "dmca": []}
    for seed in range(50):
        x, y = lk.generate_correlated_pair(0.9, 0.9, 0.5, 2500, seed=seed)
        for method in averages:
            result = scan_scales(x, y, method)
            averages[method].append(float(result.rho.mean()))
    means = {method: float(np.mean(values)) for method, values in averages.items()}
    spreads = {method: float(np.std(values)) for method, values in averages.items()}
    in_band = all(0.4 <= mean <= 0.6 for mean in means.values())
    stable = spreads["dmca"] <= 1.25 * spreads["dcca"]
    detail = (
        f"mean rho dcca {means['dcca']:.4f}, dmca {means['dmca']:.4f} "
        f"(need 0.4..0.6); std dmca/dcca "
        f"{spreads['dmca'] / spreads['dcca']:.3f} (need <= 1.25)"
    )
    report(capsys, 3, in_band and stable, detail)
    assert in_band, detail
    assert stable, detail


def test_criterion_4_surrogate_calibration(capsys):
    scales = [10, 30, 90]
    config_level = 0.10
    counts = np.zeros(len(scales))
    n_pairs = 200
    for i in range(n_pairs):
        x = lk.generate_fgn(lk.FgnSpec(h=0.8, length=512, seed=30_000 + 2 * i))
        y = lk.generate_fgn(lk.FgnSpec(h=0.8, length=512, seed=30_001 + 2 * i))
        result = xcorr_significance(
            x,
            y,
            "dcca",
            scales,
            SurrogateConfig(n_surrogates=100, seed=60_000 + i),
        )
        counts += result.p_values < config_level
    rates = counts / n_pairs
    ok = bool(np.all((rates >= 0.05) & (rates <= 0.16)))
    detail = ", ".join(
        f"scale {s}: {rate:.1%}" for s, rate in zip(scales, rates)
    ) + " (need 5%..16% at level 0.10)"
    report(capsys, 4, ok, detail)
    assert ok, detail


def test_criterion_5_oracle_equivalence(capsys):
    rng = np.random.default_rng(123_456)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(100, 1001))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        scale = int(rng.integers(4, n // 10 + 1))
        window = scale if scale % 2 == 1 else scale + 1
        if window < 5:
            window = 5
        pairs = [
            (dfa_fluctuation(x, scale), dfa_fluct_naive(x, scale)),
            (dcca_covariance(x, y, scale), dcca_cov_naive(x, y, scale)),
            (dmca_covariance(x, y, window), dmca_cov_naive(x, y, window)),
        ]
        for mine, naive in pairs:
            worst = max(worst, abs(mine - naive) / abs(naive))
    ok = worst <= 1e-9
    report(capsys, 5, ok, f"worst relative deviation {worst:.3e} (need <= 1e-9)")
    assert ok


def test_criterion_6_hand_fixtures(capsys):
    values = {
        "rescaled range": (rescaled_range_statistic([1.0, 2.0, 3.0], 0), 0.70711),
        "rescaled variance": (rescaled_variance_statistic([1.0, 2.0, 3.0], 0), 0.11111),
        "bandwidth": (float(auto_bandwidth_value(2516, 0.5)), 18.0),
        "garman-klass": (
            garman_klass(
                OhlcvBar(
                    date=dt.date(2020, 1, 2),
                    open=100.0,
                    high=110.0,
                    low=95.0,
                    close=105.0,
                    volume=0.0,
                )
            ),
            0.0098268,
        ),
    }
    deviations = {
        name: abs(actual - expected) for name, (actual, expected) in values.items()
    }
    ok = all(d <= 1e-4 for d in deviations.values())
    detail = ", ".join(f"{name} off by {d:.2e}" for name, d in deviations.items())
    report(capsys, 6, ok, detail + " (need <= 1e-4)")
    for name, deviation in deviations.items():
        assert deviation <= 1e-4, name


def test_criterion_7_exact_invariants(capsys):
    rng = np.random.default_rng(777)

    x = rng.standard_normal(400)
    self_err = max(
        abs(dcca_coefficient(x, x, s) - 1.0) for s in (10, 50, 100)
    )
    self_err = max(
        self_err,
        max(abs(dmca_coefficient(x, x, w) - 1.0) for w in (11, 51, 101)),
    )

    surrogate = aaft_surrogate(x, rng)
    multiset_ok = sorted(surrogate.values.tolist()) == sorted(x.tolist())

    y = 3.7 * x - 5.0
    q = 6
    affine_err = max(
        abs(rescaled_range_statistic(y, q) - rescaled_range_statistic(x, q)),
        abs(rescaled_variance_statistic(y, q) - rescaled_variance_statistic(x, q)),
        abs(dfa_hurst(y).h - dfa_hurst(x).h),
    )
    from lrdkit.series import auto_bandwidth

    bandwidth_ok = auto_bandwidth(y) == auto_bandwidth(x)

    worst_excess = 0.0
    for _ in range(1000):
        n = int(rng.integers(50, 201))
        magnitude = 10.0 ** float(rng.integers(-3, 4))
        a = rng.standard_normal(n) * magnitude
        b = rng.standard_normal(n) * magnitude
        s = int(rng.integers(4, n // 2 + 1))
        w = s if s % 2 == 1 else s + 1
        if w > n // 2:
            half = n // 2
            w = half if half % 2 == 1 else half - 1
        worst_excess = max(
            worst_excess,
            abs(dcca_coefficient(a, b, s)) - 1.0,
            abs(dmca_coefficient(a, b, w)) - 1.0,
        )

    ok = (
        self_err <= 1e-12
        and multiset_ok
        and affine_err <= 1e-10
        and bandwidth_ok
        and worst_excess <= 1e-12
    )
    detail = (
        f"self-rho off by {self_err:.2e}, multiset exact {multiset_ok}, "
        f"affine drift {affine_err:.2e}, bandwidth stable {bandwidth_ok}, "
        f"|rho|-1 max {worst_excess:.2e} over 1000 inputs"
    )
    report(capsys, 7, ok, detail)
    assert self_err <= 1e-12
    assert multiset_ok
    assert affine_err <= 1e-10
    assert bandwidth_ok
    assert worst_excess <= 1e-12


def _pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def test_criterion_8_end_to_end_determinism(capsys, tmp_path):
    def run(*argv, one_cpu=False):
        # The pinned run gives xcorr a one-worker pool; platforms without
        # sched_setaffinity run it on every CPU instead.
        pin = one_cpu and hasattr(os, "sched_setaffinity")
        result = subprocess.run(
            [sys.executable, "-m", "lrdkit", *argv],
            capture_output=True,
            text=True,
            preexec_fn=_pin_to_one_cpu if pin else None,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    first_csv = tmp_path / "a.csv"
    second_csv = tmp_path / "b.csv"
    run("synth", "--hurst", "0.8", "--length", "600", "--seed", "1",
        "--out", str(first_csv))
    run("synth", "--hurst", "0.8", "--length", "600", "--seed", "2",
        "--out", str(second_csv))

    lrdtest_args = ("lrdtest", str(first_csv), "--surrogates", "150", "--seed", "7")
    lrdtest_runs = [run(*lrdtest_args) for _ in range(3)]
    lrdtest_ok = len(set(lrdtest_runs)) == 1

    xcorr_args = (
        "xcorr", str(first_csv), str(second_csv), "--surrogates", "100",
        "--seed", "7",
    )
    xcorr_runs = [
        run(*xcorr_args),
        run(*xcorr_args),
        run(*xcorr_args, one_cpu=True),
    ]
    xcorr_ok = len(set(xcorr_runs)) == 1

    parsed = json.loads(xcorr_runs[0])
    schema_ok = parsed["schema_version"] == 1

    ok = lrdtest_ok and xcorr_ok and schema_ok
    detail = (
        f"lrdtest byte-identical over 3 runs: {lrdtest_ok}; "
        f"xcorr byte-identical over 3 runs: {xcorr_ok}"
    )
    report(capsys, 8, ok, detail)
    assert lrdtest_ok
    assert xcorr_ok
    assert schema_ok
