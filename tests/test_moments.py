"""The shared detrended-moments kernel against exact rational arithmetic.

The kernel subtracts trend sums from centered sums instead of forming
residuals, which cancels more as profiles get smoother (high H) or sit far
from zero. These properties pin its accuracy on exactly those profiles,
with several rows evaluated at once as in the surrogate chunks.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lrdkit as lk
from lrdkit.dfa import _detrended_moments
from lrdkit.surrogates import SurrogateConfig, _ensemble_significance

from oracles import detrended_sums_exact

ROWS = 2


def fgn_profiles(h, length, seed, offset):
    rows = []
    for i in range(ROWS):
        noise = lk.generate_fgn(lk.FgnSpec(h=h, length=max(16, length), seed=seed + i))
        rows.append(offset + np.cumsum(noise.values[:length]))
    return np.stack(rows)


def valid_scale(method, length, share):
    """Box scale in [4, T // 2] or odd window in [3, T // 2], by share."""
    if method == "dcca":
        return 4 + int(share * (length // 2 - 4))
    return 3 + 2 * int(share * ((length // 2 - 3) // 2))


profile_strategies = dict(
    method=st.sampled_from(["dcca", "dmca"]),
    length=st.integers(min_value=8, max_value=1024),
    share=st.floats(min_value=0.0, max_value=1.0),
    h_x=st.floats(min_value=0.5, max_value=0.95),
    h_y=st.floats(min_value=0.5, max_value=0.95),
    offset=st.sampled_from([0.0, 1e3, -1e6, 1e6]) | st.floats(-1e6, 1e6),
    seed=st.integers(min_value=0, max_value=2**20),
)
profile_cases = given(**profile_strategies)


@settings(max_examples=60, deadline=None, derandomize=True)
@profile_cases
@example(method="dmca", length=1000, share=0.0, h_x=0.95, h_y=0.95, offset=1e6, seed=1)
@example(method="dcca", length=1000, share=0.0, h_x=0.95, h_y=0.95, offset=1e6, seed=1)
def test_moments_match_exact_residual_sums(method, length, share, h_x, h_y, offset, seed):
    scale = valid_scale(method, length, share)
    px = fgn_profiles(h_x, length, seed, offset)
    py = fgn_profiles(h_y, length, seed + ROWS, -offset)
    sxy, sxx, syy = _detrended_moments(px, py, np.array([scale]), method)[:, :, 0]
    for row in range(ROWS):
        exact_xy, exact_xx, exact_yy = detrended_sums_exact(px[row], py[row], scale, method)
        assert abs(sxx[row] - exact_xx) <= 1e-9 * exact_xx
        assert abs(syy[row] - exact_yy) <= 1e-9 * exact_yy
        assert abs(sxy[row] - exact_xy) <= 1e-9 * math.sqrt(exact_xx * exact_yy)


@settings(max_examples=20, deadline=None, derandomize=True)
@profile_cases
def test_same_profiles_give_the_square_sums(method, length, share, h_x, h_y, offset, seed):
    scale = np.array([valid_scale(method, length, share)])
    px = fgn_profiles(h_x, length, seed, offset)
    sxy, sxx, syy = _detrended_moments(px, px, scale, method)
    paired = _detrended_moments(px, px.copy(), scale, method)
    assert np.array_equal(sxy, sxx) and np.array_equal(syy, sxx)
    assert np.allclose(paired, sxx[None], rtol=1e-12, atol=0.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**{**profile_strategies, "length": st.integers(min_value=8, max_value=4096)})
@example(method="dcca", length=4096, share=0.0, h_x=0.9, h_y=0.6, offset=1e6, seed=2)
@example(method="dmca", length=4096, share=0.0, h_x=0.9, h_y=0.6, offset=1e6, seed=2)
def test_paired_square_sums_equal_the_self_moments(method, length, share, h_x, h_y, offset, seed):
    # The x and y rows are detrended as one stacked block; with two or more
    # rows each (ROWS), every square sum is still the one of its rows alone.
    scale = np.array([valid_scale(method, length, share)])
    px = fgn_profiles(h_x, length, seed, offset)
    py = fgn_profiles(h_y, length, seed + ROWS, -offset)
    _, sxx, syy = _detrended_moments(px, py, scale, method)
    assert np.array_equal(sxx, _detrended_moments(px, px, scale, method)[1])
    assert np.array_equal(syy, _detrended_moments(py, py, scale, method)[1])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    method=st.sampled_from(["dcca", "dmca"]),
    k=st.sampled_from([1, 2, 8]),
    length=st.integers(min_value=8, max_value=4097),
    paired=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**20),
)
@example(method="dcca", k=8, length=4097, paired=True, seed=3)
@example(method="dmca", k=8, length=4097, paired=True, seed=3)
@example(method="dcca", k=1, length=4097, paired=False, seed=4)
@example(method="dmca", k=1, length=4097, paired=False, seed=4)
def test_dirty_scratch_changes_nothing(method, k, length, paired, seed):
    # Each call's arrays come from np.empty, which hands back recycled heap
    # memory full of earlier values; no value it holds may reach a moment.
    # Here every np.empty of the call returns NaN, which no moment survives.
    rng = np.random.default_rng(seed)
    px = np.cumsum(rng.standard_normal((k, length)), axis=1)
    py = np.cumsum(rng.standard_normal((k, length)), axis=1) if paired else px
    grid = np.unique([valid_scale(method, length, share) for share in (0.0, 0.1, 0.5, 1.0)])
    expected = _detrended_moments(px, py, grid, method)
    empty = np.empty
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "empty", lambda *args, **kwargs: np.full_like(empty(*args, **kwargs), np.nan))
        poisoned = _detrended_moments(px, py, grid, method)
    assert np.isfinite(expected).all()
    assert np.array_equal(poisoned, expected)


def ensemble_rho(length):
    """Both methods' surrogate curves of one 100-pair ensemble, side by side."""
    x, y = lk.generate_correlated_pair(0.9, 0.8, 0.5, length, seed=length)
    results = _ensemble_significance(x, y, {"dcca": None, "dmca": None}, SurrogateConfig(100, seed=5))
    return np.hstack([result.surrogate_rho for result in results.values()])


FRESH_ENSEMBLE = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from test_moments import ensemble_rho
np.save(sys.argv[3], ensemble_rho(int(sys.argv[2])))
"""


def test_back_to_back_ensembles_match_fresh_processes(tmp_path):
    # The shorter run after the longer one must not see any of its scratch.
    for length in (3000, 600):
        path = tmp_path / f"rho_{length}.npy"
        subprocess.run(
            [sys.executable, "-c", FRESH_ENSEMBLE, str(Path(__file__).parent), str(length), str(path)],
            check=True,
            timeout=300,
        )
        assert np.array_equal(ensemble_rho(length), np.load(path))
