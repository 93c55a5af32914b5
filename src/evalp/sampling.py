"""Test-time generation: one-pass flow sampling, energy-guided
sampling-importance-resampling, decoding, and NFE accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .diffcore import Tensor, no_grad
from .errors import ShapeMismatchError
from .metrics import map_row_blocks
from .models import EnergyFunction, FlowSampler, VaeModel, flow_terms, vae_decode
from .rng import Rng

WEIGHT_MODES = ("paper_literal", "tilted_base")


@dataclass
class SirConfig:
    proposals: int = 500  # M
    normalizer_samples: int = 500  # N, draws behind the paper_literal Z-hat
    seed: int = 0
    weight_mode: str = "paper_literal"

    def __post_init__(self):
        if self.proposals < 1 or self.normalizer_samples < 1:
            raise ValueError("proposal and normalizer counts must be >= 1")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")


@dataclass
class NfeCounter:
    """Network evaluations per generated sample (forward / backward)."""

    fp_flow: int = 0
    fp_energy: int = 0
    bp: int = 0

    @property
    def fp(self) -> int:
        return self.fp_flow + self.fp_energy


def sample_fast(g: FlowSampler, m: int, seed):
    """One flow pass over base noise; NFE is (1, 0) per sample."""
    if m < 0:
        raise ValueError(f"sample count must be >= 0, got {m}")
    counter = NfeCounter(fp_flow=1, fp_energy=0, bp=0)
    if m == 0:
        return np.zeros((0, g.nz)), counter
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    with no_grad():
        z = map_row_blocks(lambda eps: g.forward(Tensor(eps))[0].data, rng.normal((m, g.nz)))
    return z, counter


def sir_log_weights(f_vals, log_ratio, weight_mode):
    """Un-normalized log importance weights for one proposal row set.

    ``log_ratio`` is log p_g - log p_0 of each proposal. ``paper_literal``
    divides the tilt by an estimated normalizer Z-hat; that is one constant
    over a sample's proposals, so it cancels after self-normalization and
    the weights are -f. ``tilted_base`` targets exp(-f) * p_0 under the flow
    proposal.
    """
    if weight_mode == "paper_literal":
        return -f_vals
    if weight_mode == "tilted_base":
        return -f_vals - log_ratio
    raise ValueError(f"weight_mode must be one of {WEIGHT_MODES}")


def resample(logw, u):
    """Multinomial picks along the last axis of un-normalized log weights:
    the first index whose normalized cumulative weight reaches the uniform
    draw ``u`` (one per row)."""
    logw = logw - logsumexp(logw, axis=-1, keepdims=True)
    cdf = np.cumsum(np.exp(logw), axis=-1)
    return (cdf < u).sum(axis=-1).clip(0, logw.shape[-1] - 1)


def sample_sir_batch(f: EnergyFunction, g: FlowSampler, cfg: SirConfig, count: int):
    """Independent SIR picks; a fresh set of M flow proposals per output.

    All weight math is in log space. Per generated sample the counter
    records the M flow forwards and M energy evaluations computed: the
    ``paper_literal`` Z-hat cancels in ``resample``, so its N normalizer
    draws are made but never evaluated.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = Rng(cfg.seed)
    m, n = cfg.proposals, cfg.normalizer_samples
    counter = NfeCounter(fp_flow=m, fp_energy=m, bp=0)
    out = np.zeros((count, g.nz))
    # Chunk over output samples to bound the draws; the proposals are
    # evaluated in blocks of metrics.BLOCK_ROWS rows.
    chunk = max(1, min(count, 200000 // max(1, m + n)))
    done = 0
    while done < count:
        b = min(chunk, count - done)
        eps = rng.normal((b * m, g.nz))
        if cfg.weight_mode == "paper_literal":
            # Z-hat's draws are never evaluated; drawing them keeps the
            # seeded stream, and so every pick, unchanged.
            rng.normal((b * n, g.nz))
        with no_grad():
            z, fz, log_ratio = map_row_blocks(
                lambda e: tuple(t.data for t in flow_terms(f, g, e)), eps
            )
        logw = sir_log_weights(fz.reshape(b, m), log_ratio.reshape(b, m), cfg.weight_mode)
        picks = resample(logw, rng.uniform((b, 1)))
        out[done : done + b] = z.reshape(b, m, g.nz)[np.arange(b), picks]
        done += b
    return out, counter


def generate(vae: VaeModel, latents: np.ndarray) -> np.ndarray:
    """Decode latents to the observation-model mean (no noise added)."""
    latents = np.asarray(latents, dtype=np.float64)
    if latents.shape[-1] != vae.nz:
        raise ShapeMismatchError(f"latent width {latents.shape[-1]} vs nz {vae.nz}")
    with no_grad():
        out = vae_decode(vae, Tensor(latents))
        return (out.sigmoid() if vae.obs_model == "bernoulli" else out).data
