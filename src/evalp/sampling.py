"""Test-time generation: one-pass flow sampling, the one
sampling-importance-resampling loop (energy-guided over flow proposals,
or any caller's weights over N(0, I) noise), decoding, and NFE accounting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from .diffcore.tensor import stable_sigmoid
from .errors import DomainError, ShapeMismatchError
from .metrics import logsumexp, map_row_blocks
from .models import EnergyFunction, FlowSampler, VaeModel, flow_terms
from .rng import Rng

WEIGHT_MODES = ("paper_literal", "tilted_base")


@dataclass
class SirConfig:
    proposals: int = 500  # M
    seed: int = 0
    weight_mode: str = "tilted_base"

    def __post_init__(self):
        if self.proposals < 1:
            raise ValueError(f"proposals must be >= 1, got {self.proposals}")
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
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    z = map_row_blocks(lambda eps: g.forward(eps)[0], rng.normal((m, g.nz)))
    return z, NfeCounter(fp_flow=1, fp_energy=0, bp=0)


def sir_log_weights(f_vals, log_ratio, weight_mode):
    """Un-normalized log importance weights for one proposal row set.

    ``log_ratio`` is log p_g - log p_0 of each proposal. ``tilted_base``
    (the default) targets the tilted prior exp(-f) * p_0 under the flow
    proposal. ``paper_literal`` divides the tilt by an estimated normalizer
    Z-hat; that is one constant over a sample's proposals, so it cancels
    after self-normalization and the weights are -f, which reweight p_g:
    its picks follow exp(-f) * p_g, not the tilted prior.
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


def sir_sample(propose, nz: int, proposals: int, count: int, seed):
    """``count`` independent SIR picks, each among its own ``proposals`` rows.

    Per chunk of at most 200 000 noise rows the loop draws the N(0, I)
    noise, then one uniform per pick. The chunk's picks then run in blocks
    of whole picks, max(1, metrics.BLOCK_ROWS // proposals) each, on the
    threads ``map_row_blocks`` uses. ``propose`` maps a block's noise rows
    to (latents, un-normalized log weights), one per row; like any
    ``map_row_blocks`` function it records nothing on the tape. ``resample``
    picks in log space, and only the picked latents leave the block, so
    beyond the output the loop holds the chunk's noise and uniforms plus
    one block's working set per thread.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = Rng(seed)
    out = np.zeros((count, nz))
    chunk = max(1, min(count, 200000 // proposals))
    per_block = max(1, metrics.BLOCK_ROWS // proposals)
    done = 0
    while done < count:
        b = min(chunk, count - done)
        eps = rng.normal((b * proposals, nz)).reshape(b, proposals, nz)
        u = rng.uniform((b, 1))

        def pick(start):
            k = min(per_block, b - start)
            z, logw = propose(eps[start : start + k].reshape(k * proposals, nz))
            picks = resample(logw.reshape(k, proposals), u[start : start + k])
            out[done + start : done + start + k] = z.reshape(k, proposals, nz)[np.arange(k), picks]

        starts = range(0, b, per_block)
        metrics._map_threaded(pick, starts, min(metrics.BLOCK_WORKERS, len(starts)))
        done += b
    return out


def sample_sir_batch(f: EnergyFunction, g: FlowSampler, cfg: SirConfig, count: int):
    """Energy-guided SIR: ``sir_sample`` over M flow proposals per output,
    weighted by ``sir_log_weights``. Per generated sample the counter
    records the M flow forwards and M energy evaluations; the
    ``paper_literal`` Z-hat cancels in ``resample``, so it is never drawn.
    """

    def propose(eps):
        z, fz, log_ratio = flow_terms(f, g, eps)
        return z, sir_log_weights(fz[:, 0], log_ratio, cfg.weight_mode)

    m = cfg.proposals
    return sir_sample(propose, g.nz, m, count, cfg.seed), NfeCounter(fp_flow=m, fp_energy=m, bp=0)


def generate(vae: VaeModel, latents: np.ndarray) -> np.ndarray:
    """Decode latents to the observation-model mean (no noise added), in
    blocks of metrics.BLOCK_ROWS rows. BLAS may pick its kernel by row count,
    so a decode of more rows than one block can differ from one pass over
    all of them in the last bits: by at most 2e-12 of each row's largest
    magnitude, the decode tolerance."""
    latents = np.asarray(latents, dtype=np.float64)
    if latents.shape[-1] != vae.nz:
        raise ShapeMismatchError(f"latent width {latents.shape[-1]} vs nz {vae.nz}")
    if not np.all(np.isfinite(latents)):
        raise DomainError("latents must be finite")

    def decode(z):
        out = vae.decoder.forward_arrays(z, False)[0]
        return stable_sigmoid(out) if vae.obs_model == "bernoulli" else out

    return map_row_blocks(decode, latents)
