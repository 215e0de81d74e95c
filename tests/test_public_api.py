"""The names lrdkit exports, written out so that any addition or removal
shows up in a diff."""

import pkgutil
import types

import pytest

import lrdkit

PUBLIC = {
    # errors
    "ComputationAbortedError", "DegenerateOverlapError", "DegenerateScaleError",
    "DegenerateVarianceError", "InvalidBarError", "InvalidInputError", "ToolkitError",
    # series
    "HacVariance", "TimeSeries", "auto_bandwidth", "auto_bandwidth_value", "autocovariance",
    "hac_variance",
    # lrd
    "TEST_KINDS", "LrdTestResult", "bootstrap_lrd_tests", "rescaled_range_statistic",
    "rescaled_variance_statistic",
    # dfa
    "FluctuationFunction", "HurstEstimate", "decade_scale_grid", "dfa_fluctuation", "dfa_hurst",
    "fluctuation_function",
    # xcorr
    "DCCA_DEFAULT_SCALES", "DMCA_DEFAULT_WINDOWS", "ScaleCorrelogram", "dcca_coefficient",
    "dcca_covariance", "dmca_coefficient", "dmca_covariance", "scan_scales",
    # surrogates
    "AverageCoefficient", "SurrogateConfig", "aaft_surrogate", "average_coefficient",
    "xcorr_significance",
    # synth
    "FgnSpec", "fgn_autocovariance", "generate_correlated_pair", "generate_fgn",
    # finance
    "OhlcvBar", "TrendsSegment", "chain_segments", "garman_klass", "log_transform",
    "read_series_csv", "write_series_csv",
}


def test_package_exports_the_written_out_names():
    exported = {
        name for name, value in vars(lrdkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC


@pytest.mark.parametrize(
    "module", sorted(m.name for m in pkgutil.iter_modules(lrdkit.__path__) if m.name != "__main__")
)
def test_star_import_finds_every_name_in_all(module):
    exec(f"from lrdkit.{module} import *", {})
