import numpy as np
import pytest

from lrdkit.errors import InvalidInputError
from lrdkit.series import autocovariance
from lrdkit.synth import (
    FgnSpec,
    fgn_autocovariance,
    generate_correlated_pair,
    generate_fgn,
)


def lag1_autocorr(series):
    return autocovariance(series, 1) / autocovariance(series, 0)


class TestAutocovariance:
    def test_closed_form_values(self):
        assert fgn_autocovariance(0.5, 0) == pytest.approx(1.0)
        assert fgn_autocovariance(0.5, 1) == pytest.approx(0.0, abs=1e-15)
        assert fgn_autocovariance(0.8, 1) == pytest.approx(2.0 ** 0.6 - 1.0)
        assert fgn_autocovariance(0.7, 0, sigma=3.0) == pytest.approx(9.0)

    def test_symmetric_in_lag_sign(self):
        lags = np.arange(-5, 6)
        gamma = fgn_autocovariance(0.8, lags)
        assert np.allclose(gamma, gamma[::-1])


class TestGenerateFgn:
    def test_deterministic_and_labeled(self):
        spec = FgnSpec(h=0.7, length=256, seed=9)
        a = generate_fgn(spec)
        b = generate_fgn(spec)
        assert np.array_equal(a.values, b.values)
        assert a.label == "fgn-h0.7-s9"

    def test_sigma_scales_values_linearly(self):
        unit = generate_fgn(FgnSpec(h=0.6, length=512, seed=3))
        doubled = generate_fgn(FgnSpec(h=0.6, length=512, seed=3, sigma=2.0))
        assert np.allclose(doubled.values, 2.0 * unit.values, rtol=1e-12)

    def test_lag1_autocorrelation_matches_theory(self):
        white = generate_fgn(FgnSpec(h=0.5, length=65536, seed=0))
        assert abs(lag1_autocorr(white)) < 0.01
        persistent = generate_fgn(FgnSpec(h=0.8, length=65536, seed=0))
        assert lag1_autocorr(persistent) == pytest.approx(2.0 ** 0.6 - 1.0, abs=0.02)

    def test_sample_autocovariance_matches_theory(self):
        for h in (0.3, 0.6):
            series = generate_fgn(FgnSpec(h=h, length=65536, seed=0))
            assert autocovariance(series, 0) == pytest.approx(1.0, abs=0.02)
            assert autocovariance(series, 1) == pytest.approx(
                float(fgn_autocovariance(h, 1)), abs=0.02
            )

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            FgnSpec(h=0.0, length=256, seed=0)
        with pytest.raises(InvalidInputError):
            FgnSpec(h=1.0, length=256, seed=0)
        with pytest.raises(InvalidInputError):
            FgnSpec(h=0.5, length=15, seed=0)
        with pytest.raises(InvalidInputError):
            FgnSpec(h=0.5, length=256, seed=0, sigma=0.0)
        for sigma in (float("inf"), float("nan"), 1e308, 1e154):
            with pytest.raises(InvalidInputError):
                FgnSpec(h=0.5, length=256, seed=0, sigma=sigma)
        with pytest.raises(InvalidInputError):
            FgnSpec(h=0.5, length=256, seed=-3)


class TestCorrelatedPair:
    def test_rho_one_collapses_to_identical_series(self):
        x, y = generate_correlated_pair(0.7, 0.7, 1.0, 512, seed=4)
        assert np.array_equal(x.values, y.values)

    def test_rho_minus_one_negates(self):
        x, y = generate_correlated_pair(0.7, 0.7, -1.0, 512, seed=4)
        assert np.array_equal(y.values, -x.values)

    def test_rho_zero_is_uncorrelated(self):
        x, y = generate_correlated_pair(0.8, 0.8, 0.0, 16384, seed=0)
        corr = np.corrcoef(x.values, y.values)[0, 1]
        assert abs(corr) < 0.03

    def test_mean_correlation_tracks_rho(self):
        corrs = [
            np.corrcoef(*(
                s.values
                for s in generate_correlated_pair(0.9, 0.9, 0.5, 2500, seed=seed)
            ))[0, 1]
            for seed in range(50)
        ]
        assert np.mean(corrs) == pytest.approx(0.5, abs=0.06)

    def test_labels(self):
        x, y = generate_correlated_pair(0.6, 0.8, 0.2, 256, seed=7)
        assert x.label == "fgn-pair-x-h0.6-s7"
        assert y.label == "fgn-pair-y-h0.8-s7"

    def test_rho_validation(self):
        with pytest.raises(InvalidInputError):
            generate_correlated_pair(0.6, 0.6, 1.5, 256, seed=0)
        with pytest.raises(InvalidInputError):
            generate_correlated_pair(0.6, 0.6, -1.0001, 256, seed=0)
