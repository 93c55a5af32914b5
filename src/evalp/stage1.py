"""Stage 1: VAE training with a configurable KL weight, plus extraction of
aggregate-posterior latent samples for stage 2."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import Adam, Tensor, backward, no_grad
from .errors import ConfigError, DomainError, NonFiniteError, TrainingDivergedError
from .gauss import LOG_2PI, kl_to_standard, reparameterize
from .models import OBS_MODELS, VaeModel, vae_encode
from .rng import Rng


@dataclass
class Stage1Config:
    nz: int = 2
    epochs: int = 200
    batch_size: int = 100
    learning_rate: float = 1e-3
    kl_weight: float = 1.0
    seed: int = 0
    hidden: tuple = (64, 64)
    obs_model: str = "gaussian"

    def __post_init__(self):
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.kl_weight < 0:
            raise ValueError(f"kl_weight must be >= 0, got {self.kl_weight}")
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.nz < 1 or min(self.hidden, default=1) < 1:
            raise ValueError(f"nz and hidden widths must be positive, got {self.nz}, {self.hidden}")
        if self.obs_model not in OBS_MODELS:
            raise ValueError(f"obs_model must be one of {OBS_MODELS}, got {self.obs_model!r}")


def observation_log_lik(m: VaeModel, params: Tensor, x: Tensor) -> Tensor:
    """Per-row log p(x | z) for the model's observation family.

    Gaussian: fixed unit variance around the decoded mean.
    Bernoulli: decoder output is logits; uses the softplus form.
    """
    if m.obs_model == "gaussian":
        sq = (x - params).square().sum(axis=-1)
        return (sq + m.data_dim * LOG_2PI) * -0.5
    # x*log(sig(l)) + (1-x)*log(1-sig(l)) = -(1-x)*l - softplus(-l)
    term = (1.0 - x) * params + (-params).softplus()
    return -term.sum(axis=-1)


def elbo_loss(m: VaeModel, x: Tensor, kl_weight: float, eps: Tensor):
    """Negative ELBO with a weighted KL term.

    Returns (total, recon, kl) tensors where total = -(recon - kl_weight * kl),
    recon is the mean per-row observation log-likelihood and kl the mean
    per-row KL(q(z|x) || N(0, I)).
    """
    if kl_weight < 0:
        raise ValueError(f"kl_weight must be >= 0, got {kl_weight}")
    post = vae_encode(m, x)
    z = reparameterize(post, eps)
    decoded = m.decoder(z)
    recon = observation_log_lik(m, decoded, x).mean()
    kl = kl_to_standard(post).mean()
    total = -(recon - kl * kl_weight)
    if not np.isfinite(total.data):
        raise NonFiniteError(
            f"elbo_loss is not finite (recon={recon.data}, kl={kl.data})"
        )
    return total, recon, kl


def _snapshot(model: VaeModel):
    return [(name, p.data.copy()) for name, p in model.named_parameters()]


def train_vae(data: np.ndarray, cfg: Stage1Config):
    """Train the VAE; returns (model, history).

    History holds one (epoch, total, recon, kl) row of epoch-mean losses.
    Deterministic given cfg.seed. Aborts with the last finite parameter
    snapshot if the loss diverges.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.size == 0:
        raise ValueError("empty dataset")
    n, d = data.shape
    if cfg.batch_size > n:
        raise ConfigError(f"stage1.batch_size {cfg.batch_size} exceeds the {n} dataset rows")
    rng = Rng(cfg.seed)
    init_rng, shuffle_rng, eps_rng = rng.spawn(), rng.spawn(), rng.spawn()
    model = VaeModel(d, cfg.nz, hidden=cfg.hidden, obs_model=cfg.obs_model, rng=init_rng)
    opt = Adam(model.parameters(), lr=cfg.learning_rate)
    history = []
    last_good = _snapshot(model)

    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        sums = np.zeros(3)
        batches = 0
        for start in range(0, n - cfg.batch_size + 1, cfg.batch_size):
            xb = data[perm[start : start + cfg.batch_size]]
            eps = eps_rng.normal((xb.shape[0], cfg.nz))
            opt.zero_grad()
            try:
                total, recon, kl = elbo_loss(model, Tensor(xb), cfg.kl_weight, Tensor(eps))
                backward(total)
                opt.step()
            except (NonFiniteError, DomainError) as e:
                raise TrainingDivergedError(
                    f"stage-1 training diverged at epoch {epoch}: {e}", last_good=last_good
                ) from e
            sums += [total.item(), recon.item(), kl.item()]
            batches += 1
        history.append(
            {
                "epoch": epoch,
                "total": sums[0] / batches,
                "recon": sums[1] / batches,
                "kl": sums[2] / batches,
            }
        )
        last_good = _snapshot(model)
    return model, history


def aggregate_posterior_sample(m: VaeModel, data: np.ndarray, n: int, seed) -> np.ndarray:
    """Draw n latents from the aggregate posterior: x ~ data, z ~ q(z|x)."""
    if n <= 0:
        raise ValueError(f"sample count must be positive, got {n}")
    data = np.asarray(data, dtype=np.float64)
    if data.size == 0:
        raise ValueError("empty dataset")
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    idx = rng.integers(0, data.shape[0], n)
    eps = rng.normal((n, m.nz))
    with no_grad():
        post = vae_encode(m, Tensor(data[idx]))
        z = reparameterize(post, Tensor(eps))
        return z.data
