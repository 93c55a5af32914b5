"""Sampling tests: the resampler at hand-set cdf boundaries and against
SciPy's log-sum-exp, tilted_base (the default) SIR against the 2-d
quadrature oracle, the NFE counter against the rows actually evaluated,
evaluation in row blocks against one block and on two threads against one,
the paper_literal picks against a reference that evaluates Z-hat, and
decoding against the per-op route."""

import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

import per_op
from evalp import metrics
from evalp.diffcore import Tensor, active_tape, clear_tape, no_grad
from evalp.errors import DomainError, ShapeMismatchError
from evalp.metrics import default_grid
from evalp.models import EnergyFunction, FlowSampler, Mlp, VaeModel, default_sizes, flow_terms
from evalp.rng import Rng
from evalp.sampling import SirConfig, generate, resample, sample_fast, sample_sir_batch
from oracles import quadrature_expectation
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


def test_resample_normalizes_like_scipy_logsumexp():
    logw = np.round(Rng(5).normal((300, 500)) * 8.0)
    logw[:, 0] = logw.max(axis=1)
    logw[7, 100:] = -np.inf
    u = Rng(6).uniform((300, 1))
    cdf = np.cumsum(np.exp(logw - logsumexp(logw, axis=-1, keepdims=True)), axis=-1)
    np.testing.assert_array_equal(resample(logw, u), (cdf < u).sum(axis=-1).clip(0, 499))


def test_resample_rows_are_independent():
    logw = np.stack([LOGW, LOGW[::-1]])
    u = np.array([[0.3], [0.3]])
    np.testing.assert_array_equal(resample(logw, u), [1, 0])


def _tilted_base_sir(seed, count, **mode):
    f = linear_region_energy([0.8, -0.5])
    g = perturbed_flow(2, 8, 2, 0)
    cfg = SirConfig(proposals=200, seed=seed, **mode)
    return f, sample_sir_batch(f, g, cfg, count)


@pytest.mark.parametrize("seed", range(4))
def test_tilted_base_sir_mean_matches_quadrature(seed):
    f, (samples, _) = _tilted_base_sir(seed, 4000, weight_mode="tilted_base")
    oracle = quadrature_expectation(f, lambda z: z, default_grid(2, points=401))
    assert np.linalg.norm(samples.mean(axis=0) - oracle) < 0.1


def test_default_sir_targets_the_tilted_prior():
    # exp(-w.z) N(0, I) is N(-w, I): the quadrature mean is (-0.8, 0.5).
    f, (samples, _) = _tilted_base_sir(0, 4000)
    oracle = quadrature_expectation(f, lambda z: z, default_grid(2, points=401))
    np.testing.assert_allclose(oracle, [-0.8, 0.5], atol=1e-6)
    assert np.linalg.norm(samples.mean(axis=0) - oracle) < 0.1


@pytest.mark.parametrize("mode", ["tilted_base", "paper_literal"])
def test_nfe_counter_reads_m_per_sample(mode, monkeypatch):
    f = linear_region_energy([0.8, -0.5])
    g = perturbed_flow(2, 8, 2, 0)
    rows = {"flow": [], "energy": []}
    forward, mlp_forward = FlowSampler.forward, Mlp.forward_arrays

    def counted_forward(self, eps, keep=False):
        rows["flow"].append(len(eps))
        return forward(self, eps, keep)

    def counted_mlp(self, x, keep):
        # The energy's rows; the flow's coupling nets run through Mlp too.
        if self is f.mlp:
            rows["energy"].append(len(x))
        return mlp_forward(self, x, keep)

    monkeypatch.setattr(FlowSampler, "forward", counted_forward)
    monkeypatch.setattr(Mlp, "forward_arrays", counted_mlp)
    cfg = SirConfig(proposals=200, seed=0, weight_mode=mode)
    samples, counter = sample_sir_batch(f, g, cfg, 15)
    assert samples.shape == (15, 2)
    assert (counter.fp_flow, counter.fp_energy, counter.bp) == (200, 200, 0)
    assert counter.fp == 400
    assert sum(rows["flow"]) == sum(rows["energy"]) == 15 * counter.fp_flow
    assert max(rows["flow"]) == metrics.BLOCK_ROWS


def _paper_literal_with_z_hat(f, g, cfg, count, n=200):
    """Reference: one chunk of paper_literal SIR that also evaluates N
    normalizer draws, from a stream of their own, and subtracts their
    log Z-hat from the weights."""
    rng = Rng(cfg.seed)
    m = cfg.proposals
    z, fz, _ = flow_terms(f, g, rng.normal((count * m, g.nz)))
    extra, _ = g.forward(Rng(cfg.seed + 1000).normal((count * n, g.nz)))
    f_extra = f(extra)[:, 0].reshape(count, n)
    log_z_hat = logsumexp(-f_extra, axis=1, keepdims=True) - np.log(n)
    picks = resample(-fz[:, 0].reshape(count, m) - log_z_hat, rng.uniform((count, 1)))
    return z.reshape(count, m, g.nz)[np.arange(count), picks]


def _nonlinear_models():
    f = EnergyFunction(2, 16, Rng(1))
    for p in f.parameters():
        p.data = p.data * 3.0
    return f, perturbed_flow(2, 16, 3, 2)


@pytest.mark.parametrize("mode", ["paper_literal", "tilted_base"])
def test_sir_in_row_blocks_matches_one_block(mode, monkeypatch):
    f, g = _nonlinear_models()
    cfg = SirConfig(proposals=500, seed=4, weight_mode=mode)
    blocked, _ = sample_sir_batch(f, g, cfg, 40)
    monkeypatch.setattr(metrics, "BLOCK_ROWS", 10**9)
    whole, _ = sample_sir_batch(f, g, cfg, 40)
    # Same picks: two distinct proposals are never within 1e-12 of each other.
    np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-12)


def test_fast_sampling_in_row_blocks_matches_one_block(monkeypatch):
    _, g = _nonlinear_models()
    blocked, _ = sample_fast(g, 5000, 7)
    monkeypatch.setattr(metrics, "BLOCK_ROWS", 10**9)
    whole, _ = sample_fast(g, 5000, 7)
    np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["paper_literal", "tilted_base"])
def test_threaded_sir_and_fast_sampling_match_one_thread(mode, monkeypatch):
    f, g = _nonlinear_models()
    cfg = SirConfig(proposals=500, seed=4, weight_mode=mode)
    monkeypatch.setattr(metrics, "BLOCK_WORKERS", 1)
    sir, _ = sample_sir_batch(f, g, cfg, 450)
    fast, _ = sample_fast(g, 5000, 7)
    monkeypatch.setattr(metrics, "BLOCK_WORKERS", 2)
    # 450 picks at M = 500 span two chunks of 400 and 50 picks.
    np.testing.assert_array_equal(sample_sir_batch(f, g, cfg, 450)[0], sir)
    np.testing.assert_array_equal(sample_fast(g, 5000, 7)[0], fast)


def test_sir_memory_is_bounded_by_the_block():
    sizes = default_sizes(2)
    f = EnergyFunction(2, sizes["nd"], Rng(0))
    g = perturbed_flow(2, sizes["nh"], sizes["n_layers"], 1)
    cfg = SirConfig(proposals=500, seed=0)
    tracemalloc.start()
    try:
        sample_sir_batch(f, g, cfg, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One pass over all 100k proposal rows needs about 207 MB; blocks of
    # 1024 rows about 9 MB.
    assert peak < 32 * 2**20


@pytest.mark.parametrize("seed", range(3))
def test_paper_literal_picks_equal_those_with_z_hat_evaluated(seed):
    f, g = _nonlinear_models()
    cfg = SirConfig(proposals=300, seed=seed, weight_mode="paper_literal")
    got, _ = sample_sir_batch(f, g, cfg, 60)
    np.testing.assert_allclose(got, _paper_literal_with_z_hat(f, g, cfg, 60), rtol=0, atol=1e-12)


@pytest.mark.parametrize("obs_model", ["gaussian", "bernoulli"])
def test_generate_decodes_off_the_tape_as_the_per_op_route(obs_model):
    vae = VaeModel(5, 3, hidden=(16, 12), obs_model=obs_model, rng=Rng(3))
    z = Rng(4).normal((20, 3))
    clear_tape()
    got = generate(vae, z)
    assert len(active_tape()) == 0
    with no_grad():
        want = per_op.mlp(vae.decoder, Tensor(z))
        if obs_model == "bernoulli":
            want = per_op.sigmoid(want)
    np.testing.assert_array_equal(got.view(np.int64), want.data.view(np.int64))
    with pytest.raises(ShapeMismatchError, match="latent width 2 vs nz 3"):
        generate(vae, z[:, :2])
    z[1, 0] = np.nan
    with pytest.raises(DomainError, match="finite"):
        generate(vae, z)
