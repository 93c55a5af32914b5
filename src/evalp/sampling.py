"""Test-time generation: one-pass flow sampling, energy-guided
sampling-importance-resampling, decoding, and NFE accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .diffcore import Tensor, no_grad
from .errors import ShapeMismatchError
from .models import EnergyFunction, FlowSampler, VaeModel, decode_mean, flow_terms
from .rng import Rng

WEIGHT_MODES = ("paper_literal", "tilted_base")


@dataclass
class SirConfig:
    proposals: int = 500  # M
    normalizer_samples: int = 500  # N, extra draws behind the Z-hat estimate
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
        z, _ = g.forward(Tensor(rng.normal((m, g.nz))))
    return z.data, counter


def sir_log_weights(f_vals, log_ratio, weight_mode, log_z_hat=0.0):
    """Un-normalized log importance weights for one proposal row set.

    ``log_ratio`` is log p_g - log p_0 of each proposal. ``paper_literal``
    divides the tilt by the estimated normalizer, so the normalizer
    cancels after self-normalization and the weights reduce to -f.
    ``tilted_base`` targets exp(-f) * p_0 under the flow proposal.
    """
    if weight_mode == "paper_literal":
        return -f_vals - log_z_hat
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
    """Independent SIR picks; fresh proposal and normalizer sets per output.

    All weight math is in log space; per generated sample the counter
    records M + N flow forwards and M + N energy evaluations.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = Rng(cfg.seed)
    m, n = cfg.proposals, cfg.normalizer_samples
    counter = NfeCounter(fp_flow=m + n, fp_energy=m + n, bp=0)
    out = np.zeros((count, g.nz))
    # Chunk over output samples to bound the (chunk * (M + N), nz) blocks.
    chunk = max(1, min(count, 200000 // max(1, m + n)))
    done = 0
    while done < count:
        b = min(chunk, count - done)
        with no_grad():
            z, fz, log_ratio = flow_terms(f, g, rng.normal((b * m, g.nz)))
            log_z_hat = 0.0
            if cfg.weight_mode == "paper_literal":
                extra, _ = g.forward(Tensor(rng.normal((b * n, g.nz))))
                f_extra = f(extra).data[:, 0].reshape(b, n)
                log_z_hat = logsumexp(-f_extra, axis=1, keepdims=True) - np.log(n)
        logw = sir_log_weights(
            fz.data[:, 0].reshape(b, m), log_ratio.data.reshape(b, m), cfg.weight_mode, log_z_hat
        )
        picks = resample(logw, rng.uniform((b, 1)))
        out[done : done + b] = z.data.reshape(b, m, g.nz)[np.arange(b), picks]
        done += b
    return out, counter


def generate(vae: VaeModel, latents: np.ndarray) -> np.ndarray:
    """Decode latents to the observation-model mean (no noise added)."""
    latents = np.asarray(latents, dtype=np.float64)
    if latents.shape[-1] != vae.nz:
        raise ShapeMismatchError(f"latent width {latents.shape[-1]} vs nz {vae.nz}")
    return decode_mean(vae, latents)
