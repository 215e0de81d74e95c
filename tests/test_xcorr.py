import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lrdkit as lk
from lrdkit.dfa import dfa_fluctuation
from lrdkit.errors import DegenerateScaleError, InvalidInputError
from lrdkit.surrogates import SurrogateConfig, _ensemble_significance
from lrdkit.xcorr import (
    DCCA_DEFAULT_SCALES,
    DMCA_DEFAULT_WINDOWS,
    ScaleCorrelogram,
    _coefficient_curves,
    dcca_coefficient,
    dcca_covariance,
    dmca_coefficient,
    dmca_covariance,
    scan_scales,
)

from oracles import (
    dcca_coeff_naive,
    dcca_cov_naive,
    dmca_coeff_naive,
    dmca_cov_naive,
)


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(40)
    return rng.standard_normal(400), rng.standard_normal(400)


class TestCoefficients:
    def test_self_correlation_is_one(self, pair):
        x, _ = pair
        assert dcca_coefficient(x, x, 25) == pytest.approx(1.0, abs=1e-12)
        assert dmca_coefficient(x, x, 25) == pytest.approx(1.0, abs=1e-12)

    def test_negated_series_gives_minus_one(self, pair):
        x, _ = pair
        assert dcca_coefficient(x, -x, 25) == pytest.approx(-1.0, abs=1e-12)
        assert dmca_coefficient(x, -x, 25) == pytest.approx(-1.0, abs=1e-12)

    def test_symmetry(self, pair):
        x, y = pair
        assert dcca_coefficient(x, y, 20) == dcca_coefficient(y, x, 20)
        assert dmca_coefficient(x, y, 21) == dmca_coefficient(y, x, 21)

    def test_scaling_flips_sign_only(self, pair):
        x, y = pair
        base = dcca_coefficient(x, y, 20)
        assert dcca_coefficient(3.0 * x, -0.5 * y, 20) == pytest.approx(
            -base, abs=1e-10
        )
        base = dmca_coefficient(x, y, 21)
        assert dmca_coefficient(-2.0 * x, -4.0 * y, 21) == pytest.approx(
            base, abs=1e-10
        )

    def test_matches_naive_oracles(self, pair):
        x, y = pair
        for scale in (10, 50, 100):
            assert dcca_coefficient(x, y, scale) == pytest.approx(
                dcca_coeff_naive(x, y, scale), rel=1e-10
            )
        for window in (11, 51, 101):
            assert dmca_coefficient(x, y, window) == pytest.approx(
                dmca_coeff_naive(x, y, window), rel=1e-10
            )

    def test_constant_input_degenerate(self, pair):
        x, _ = pair
        const = np.full(400, 2.5)
        with pytest.raises(DegenerateScaleError):
            dcca_coefficient(const, x, 20)
        with pytest.raises(DegenerateScaleError):
            dmca_coefficient(x, const, 21)

    def test_independent_series_decorrelated(self):
        dcca_vals = []
        dmca_vals = []
        for i in range(100):
            x = lk.generate_fgn(lk.FgnSpec(h=0.7, length=1024, seed=40_000 + 2 * i))
            y = lk.generate_fgn(lk.FgnSpec(h=0.7, length=1024, seed=40_001 + 2 * i))
            dcca_vals.append(dcca_coefficient(x, y, 50))
            dmca_vals.append(dmca_coefficient(x, y, 51))
        assert abs(np.mean(dcca_vals)) < 0.05
        assert abs(np.mean(dmca_vals)) < 0.05


class TestCovariances:
    def test_dcca_self_covariance_is_squared_fluctuation(self, pair):
        x, _ = pair
        for scale in (10, 40, 160):
            assert dcca_covariance(x, x, scale) == pytest.approx(
                dfa_fluctuation(x, scale) ** 2, rel=1e-12
            )

    def test_dmca_self_covariance_nonnegative(self, pair):
        x, _ = pair
        for window in (11, 41, 161):
            assert dmca_covariance(x, x, window) >= 0.0

    def test_constant_series_covariance_is_zero(self, pair):
        x, _ = pair
        const = np.full(400, 7.0)
        assert dmca_covariance(const, x, 21) == 0.0
        assert dcca_covariance(const, x, 20) == 0.0

    def test_matches_naive_oracles(self, pair):
        x, y = pair
        for scale in (10, 64):
            assert dcca_covariance(x, y, scale) == pytest.approx(
                dcca_cov_naive(x, y, scale), rel=1e-10
            )
        for window in (13, 65):
            assert dmca_covariance(x, y, window) == pytest.approx(
                dmca_cov_naive(x, y, window), rel=1e-10
            )


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            dcca_coefficient(np.zeros(50), np.zeros(60), 10)

    def test_scale_bounds(self, pair):
        x, y = pair
        with pytest.raises(InvalidInputError):
            dcca_coefficient(x, y, 3)
        with pytest.raises(InvalidInputError):
            dcca_coefficient(x, y, 201)

    def test_window_bounds(self, pair):
        x, y = pair
        with pytest.raises(InvalidInputError):
            dmca_coefficient(x, y, 12)
        with pytest.raises(InvalidInputError):
            dmca_coefficient(x, y, 1)
        with pytest.raises(InvalidInputError):
            dmca_coefficient(x, y, 203)

    def test_correlogram_post_init(self):
        scales = np.array([10, 20])
        ScaleCorrelogram(method="dcca", scales=scales, rho=np.array([0.5, np.nan]))
        with pytest.raises(InvalidInputError):
            ScaleCorrelogram(method="pearson", scales=scales, rho=np.array([0.5, 0.5]))
        with pytest.raises(InvalidInputError):
            ScaleCorrelogram(method="dcca", scales=scales, rho=np.array([0.5, 1.5]))


class TestScanScales:
    def test_default_grids(self):
        assert np.array_equal(DCCA_DEFAULT_SCALES, np.arange(10, 251, 10))
        assert np.array_equal(DMCA_DEFAULT_WINDOWS, np.arange(11, 252, 10))
        assert DCCA_DEFAULT_SCALES.size == 25
        assert DMCA_DEFAULT_WINDOWS.size == 25
        rng = np.random.default_rng(41)
        x, y = rng.standard_normal(600), rng.standard_normal(600)
        for method, grid in (("dcca", DCCA_DEFAULT_SCALES), ("dmca", DMCA_DEFAULT_WINDOWS)):
            result = scan_scales(x, y, method)
            assert np.array_equal(result.scales, grid)
            assert result.rho.size == 25
            assert result.p_values is None

    def test_custom_grid_values_match_pointwise(self, pair):
        x, y = pair
        result = scan_scales(x, y, "dcca", [10, 25, 80])
        expected = [dcca_coefficient(x, y, s) for s in (10, 25, 80)]
        assert result.rho.tolist() == expected

    def test_unknown_method(self, pair):
        x, y = pair
        with pytest.raises(InvalidInputError):
            scan_scales(x, y, "pearson")

    def test_non_increasing_grid(self, pair):
        x, y = pair
        with pytest.raises(InvalidInputError):
            scan_scales(x, y, "dcca", [10, 10, 20])

    @pytest.mark.parametrize("scale", [10**23, -(2**63) - 1, 1e30, -1e19])
    def test_grid_entry_outside_int64(self, pair, scale):
        x, y = pair
        with pytest.raises(InvalidInputError, match="outside the 64-bit range"):
            scan_scales(x, y, "dcca", [scale])

    @pytest.mark.parametrize(
        ("method", "grid", "message"),
        [
            ("dcca", [10.5, 20], "scale must be an integer in .4, 200. for length 400, got 10.5"),
            ("dcca", [10, float("nan")], "scale must be an integer in .4, 200. for length 400, got nan"),
            ("dmca", [11.5, 21], "window must be an integer in .3, 200. for length 400, got 11.5"),
            ("dmca", [float("nan")], "window must be an integer in .3, 200. for length 400, got nan"),
        ],
    )
    def test_non_integer_grid_entry(self, pair, method, grid, message):
        x, y = pair
        with pytest.raises(InvalidInputError, match=message):
            scan_scales(x, y, method, grid)

    @pytest.mark.parametrize(("method", "grid"), [("dcca", [10, 20]), ("dmca", [11, 21])])
    def test_integral_float_grid_matches_integers(self, pair, method, grid):
        x, y = pair
        floats = scan_scales(x, y, method, [float(s) for s in grid])
        assert floats.scales.tolist() == grid
        assert np.array_equal(floats.rho, scan_scales(x, y, method, grid).rho)

    def test_degenerate_scales_named_in_error(self, pair):
        x, _ = pair
        const = np.full(400, 1.0)
        with pytest.raises(DegenerateScaleError) as excinfo:
            scan_scales(const, x, "dcca", [10, 20])
        message = str(excinfo.value)
        assert "10" in message and "20" in message


class TestCoefficientCurves:
    @pytest.mark.parametrize("n", [5000, 10000])
    def test_each_pair_of_a_chunk_as_alone(self, n):
        # A DCCA row holds up to 2n values and a DMCA row up to n: past
        # 8,192, einsum rounds a batched row apart from a lone one.
        rng = np.random.default_rng(n)
        xv = rng.standard_normal((16, n))
        yv = 0.5 * xv + rng.standard_normal((16, n))
        grids = {"dcca": DCCA_DEFAULT_SCALES, "dmca": DMCA_DEFAULT_WINDOWS}
        chunk = _coefficient_curves(xv, yv, grids)
        for i in range(16):
            alone = _coefficient_curves(xv[i: i + 1], yv[i: i + 1], grids)
            for rows, row in zip(chunk, alone):
                assert np.array_equal(rows[i], row[0])


class TestPowerOfTwoScaling:
    """Each series is scaled by an exact power of two before any estimate,
    so coefficients do not depend on either series' magnitude, and
    covariances scale back exactly, also where a series' variance passes
    the float range in data units, which for this pair is past 2**500."""

    # A pair whose smallest |value| stays a normal double at 2**-1000.
    RNG = np.random.default_rng(43)
    X = np.cumsum(RNG.standard_normal(400)) + 100.0
    Y = 0.5 * X + RNG.standard_normal(400) * 10.0 + 100.0

    @settings(max_examples=25, deadline=None, derandomize=True)
    @example(j=-1000, i=1000)
    @example(j=1000, i=1000)
    @example(j=-1000, i=-1000)
    @given(j=st.integers(-1000, 1000), i=st.integers(-1000, 1000))
    def test_estimates_are_exact_at_every_power_of_two(self, j, i):
        assert min(np.abs(self.X).min(), np.abs(self.Y).min()) > 2.0 ** -20
        x, y = np.ldexp(self.X, j), np.ldexp(self.Y, i)
        assert dcca_coefficient(x, y, 20) == dcca_coefficient(self.X, self.Y, 20)
        assert dmca_coefficient(x, y, 21) == dmca_coefficient(self.X, self.Y, 21)
        with np.errstate(over="ignore", under="ignore"):
            assert dcca_covariance(x, y, 20) == np.ldexp(dcca_covariance(self.X, self.Y, 20), j + i)
            assert dmca_covariance(x, y, 21) == np.ldexp(dmca_covariance(self.X, self.Y, 21), j + i)
        for method in ("dcca", "dmca"):
            assert np.array_equal(scan_scales(x, y, method).rho, scan_scales(self.X, self.Y, method).rho)

    def test_series_whose_variance_overflows_matches_its_scaled_copy(self):
        # Only the coefficients of the scaled pair decide degeneracy, so a
        # series whose variance passes the float range in data units gets
        # the coefficients of its scaled copy, as every 2**j copy does.
        x = np.array([1e300, -1e300] * 200)
        scaled = np.ldexp(x, -996)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dcca_coefficient(x, self.Y, 20) == dcca_coefficient(scaled, self.Y, 20)
            assert dmca_coefficient(x, self.Y, 21) == dmca_coefficient(scaled, self.Y, 21)
            for method in ("dcca", "dmca"):
                assert np.array_equal(scan_scales(self.Y, x, method).rho, scan_scales(self.Y, scaled, method).rho)
        assert np.isfinite(dcca_covariance(x, self.Y, 20))
        assert np.isfinite(dmca_covariance(x, self.Y, 21))

    @pytest.mark.parametrize("magnitude", [1e152, 1e-165])
    def test_extreme_magnitudes_keep_their_p_values(self, magnitude):
        # At 1e152 the detrended moments overflowed and at 1e-165 they
        # underflowed: every scale was refused as degenerate.
        grids = {"dcca": None, "dmca": None}
        config = SurrogateConfig(n_surrogates=100, seed=3)
        expected = _ensemble_significance(self.X, self.Y, grids, config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = _ensemble_significance(self.X * magnitude, self.Y * magnitude, grids, config)
        for method, result in results.items():
            assert not result.flagged.any()
            assert np.isfinite(result.surrogate_rho).all()
            np.testing.assert_allclose(result.rho, expected[method].rho, rtol=0, atol=1e-12)
            assert np.array_equal(result.p_values, expected[method].p_values)
