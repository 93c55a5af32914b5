"""Sampling tests: the resampler at hand-set cdf boundaries, tilted_base
SIR against the 2-d quadrature oracle, and the NFE counter."""

import numpy as np
import pytest

from evalp.metrics import default_grid, quadrature_expectation
from evalp.sampling import SirConfig, resample, sample_sir_batch
from tests.test_models import linear_region_energy, perturbed_flow

# Normalized weights 1/4, 1/4, 1/2: the cdf is exactly 0.25, 0.5, 1.
LOGW = np.log([0.25, 0.25, 0.5])


@pytest.mark.parametrize(
    "u, pick",
    [(0.0, 0), (0.25, 0), (0.25 + 1e-9, 1), (0.5, 1), (0.5 + 1e-9, 2), (1.0 - 1e-9, 2)],
)
def test_resample_picks_first_index_whose_cdf_reaches_u(u, pick):
    assert resample(LOGW, u) == pick


def test_resample_normalizes_the_weights():
    for u in (0.1, 0.3, 0.6, 0.9):
        assert resample(LOGW + 7.0, u) == resample(LOGW, u)


def test_resample_rows_are_independent():
    logw = np.stack([LOGW, LOGW[::-1]])
    u = np.array([[0.3], [0.3]])
    np.testing.assert_array_equal(resample(logw, u), [1, 0])


def _tilted_base_sir(seed, count):
    f = linear_region_energy([0.8, -0.5])
    g = perturbed_flow(2, 8, 2, 0)
    cfg = SirConfig(proposals=200, normalizer_samples=200, seed=seed, weight_mode="tilted_base")
    return f, sample_sir_batch(f, g, cfg, count)


@pytest.mark.parametrize("seed", range(4))
def test_tilted_base_sir_mean_matches_quadrature(seed):
    f, (samples, _) = _tilted_base_sir(seed, 4000)
    oracle = quadrature_expectation(f, lambda z: z, default_grid(2, points=401))
    assert np.linalg.norm(samples.mean(axis=0) - oracle) < 0.1


def test_nfe_counter_reads_m_plus_n_per_sample():
    _, (samples, counter) = _tilted_base_sir(0, 5)
    assert samples.shape == (5, 2)
    assert (counter.fp_flow, counter.fp_energy, counter.bp) == (400, 400, 0)
    assert counter.fp == 800
