"""Long-range dependence tests and scale-wise cross-correlation analysis.

The package covers one pipeline end to end: build daily series from search
interest or price data, test them for long memory with bootstrap inference,
estimate Hurst exponents by detrended fluctuation analysis, and measure
scale-wise cross-correlation between pairs with surrogate significance.
Synthetic fractional Gaussian noise with known properties backs every
statistical claim in the test suite.
"""

from .errors import (
    ComputationAbortedError,
    DegenerateOverlapError,
    DegenerateScaleError,
    DegenerateVarianceError,
    InvalidBarError,
    InvalidInputError,
    ToolkitError,
)
from .series import (
    HacVariance,
    TimeSeries,
    auto_bandwidth,
    auto_bandwidth_value,
    autocovariance,
    hac_variance,
)
from .lrd import (
    TEST_KINDS,
    LrdTestResult,
    bootstrap_lrd_tests,
    rescaled_range_statistic,
    rescaled_variance_statistic,
)
from .dfa import (
    FluctuationFunction,
    HurstEstimate,
    decade_scale_grid,
    dfa_fluctuation,
    dfa_hurst,
    fluctuation_function,
)
from .xcorr import (
    DCCA_DEFAULT_SCALES,
    DMCA_DEFAULT_WINDOWS,
    ScaleCorrelogram,
    dcca_coefficient,
    dcca_covariance,
    dmca_coefficient,
    dmca_covariance,
    scan_scales,
)
from .surrogates import (
    AverageCoefficient,
    SurrogateConfig,
    aaft_surrogate,
    average_coefficient,
    xcorr_significance,
)
from .synth import (
    FgnSpec,
    fgn_autocovariance,
    generate_correlated_pair,
    generate_fgn,
)
from .finance import (
    OhlcvBar,
    TrendsSegment,
    chain_segments,
    garman_klass,
    log_transform,
    read_series_csv,
    write_series_csv,
)

__version__ = "0.1.0"
