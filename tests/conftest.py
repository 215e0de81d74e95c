import numpy as np
import pytest

import lrdkit as lk
import lrdkit.lrd as lrd

IID_SIZE_SEEDS = 200
IID_SIZE_SURROGATES = 200


@pytest.fixture(scope="session")
def iid_bootstrap_pvalues():
    """Bootstrap p-values on independent Gaussian series, shared between the
    calibration invariant and the acceptance size check."""
    p_range = np.empty(IID_SIZE_SEEDS)
    p_variance = np.empty(IID_SIZE_SEEDS)
    for i in range(IID_SIZE_SEEDS):
        rng = np.random.default_rng(500_000 + i)
        series = lk.TimeSeries(rng.standard_normal(2500), label=f"iid-{i}")
        results = lk.bootstrap_lrd_tests(
            series, n_surrogates=IID_SIZE_SURROGATES, seed=700_000 + i
        )
        p_range[i] = results["rescaled_range"].p_value
        p_variance[i] = results["rescaled_variance"].p_value
    return {"rescaled_range": p_range, "rescaled_variance": p_variance}


@pytest.fixture
def no_ensemble(monkeypatch):
    """Make spawning seed children and drawing block orders fail, so a test
    of the surrogate-count limits allocates nothing even without them."""

    class Unspawnable(np.random.SeedSequence):
        def spawn(self, n_children):
            raise AssertionError(f"spawned {n_children} seed children")

    def no_block_orders(seed, n_surrogates, n_blocks):
        raise AssertionError(f"drew {n_surrogates} x {n_blocks} block orders")

    monkeypatch.setattr(np.random, "SeedSequence", Unspawnable)
    monkeypatch.setattr(lrd, "_block_orders", no_block_orders)
