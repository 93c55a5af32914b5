"""Stage 1: VAE training with a configurable KL weight, plus extraction of
aggregate-posterior latent samples for stage 2.

A training step is one tape node: ``elbo_loss`` runs the encoder, the
reparameterization, the decoder and both ELBO terms on arrays and pulls
them back in closed form, and ``aggregate_posterior_sample`` evaluates the
encoder on arrays off the tape."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import Adam, backward, needs_grad, record
from .diffcore.tensor import checked_exp
from .errors import (
    ConfigError,
    DomainError,
    NonFiniteError,
    ShapeMismatchError,
    TrainingDivergedError,
)
from .gauss import LOG_2PI, LOGVAR_MAX, LOGVAR_MIN
from .models import OBS_MODELS, VaeModel
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


def _posterior_sample(m: VaeModel, enc: np.ndarray, eps: np.ndarray):
    """(mu, clipped log-variance, std, z = mu + std * eps) of q(z|x) from
    the encoder's output rows."""
    mu = enc[:, : m.nz]
    logvar = np.clip(enc[:, m.nz :], LOGVAR_MIN, LOGVAR_MAX)
    std = checked_exp(logvar * 0.5)
    return mu, logvar, std, mu + std * eps


def elbo_loss(m: VaeModel, x: np.ndarray, kl_weight: float, eps: np.ndarray):
    """Negative ELBO with a weighted KL term, as one tape node over the
    model's weights and biases.

    ``x`` holds the data rows and ``eps`` the reparameterization's
    standard-normal noise, as arrays. Returns (total, recon, kl): the
    scalar tensor total = -(recon - kl_weight * kl), and as floats recon,
    the mean per-row observation log-likelihood, and kl, the mean per-row
    KL(q(z|x) || N(0, I)). The Gaussian observation model has unit variance around the decoded mean;
    the Bernoulli one reads the decoder output as logits. The log-variance
    is clipped to [LOGVAR_MIN, LOGVAR_MAX], and each row's KL at 0 (the
    closed form can round to a tiny negative near its optimum); no
    gradient passes a value beyond its clip. The pull is the closed-form
    reverse pass: decoder, reparameterization and KL, encoder.
    """
    if kl_weight < 0:
        raise ValueError(f"kl_weight must be >= 0, got {kl_weight}")
    if x.shape[-1] != m.data_dim or eps.shape != (x.shape[0], m.nz):
        raise ShapeMismatchError(
            f"elbo_loss: x {x.shape}, eps {eps.shape} vs data_dim {m.data_dim}, nz {m.nz}"
        )
    enc_net, dec_net = m.encoder, m.decoder
    parents = (*enc_net.weights, *enc_net.biases, *dec_net.weights, *dec_net.biases)
    keep = needs_grad(parents)
    enc, enc_cache = enc_net.forward_arrays(x, keep)
    mu, logvar, std, z = _posterior_sample(m, enc, eps)
    dec, dec_cache = dec_net.forward_arrays(z, keep)
    if m.obs_model == "gaussian":
        diff = x - dec
        recon = (((diff * diff).sum(axis=-1) + m.data_dim * LOG_2PI) * -0.5).mean()
    else:
        # x log(sig(d)) + (1 - x) log(1 - sig(d)) = -(1 - x) d - softplus(-d),
        # with softplus(-d) = max(-d, 0) + log1p(exp(-|d|)).
        e = np.exp(-np.abs(dec))
        recon = (-((1.0 - x) * dec + (np.maximum(-dec, 0.0) + np.log1p(e))).sum(axis=-1)).mean()
    var = checked_exp(logvar)
    kl_rows = (var + mu * mu - 1.0 - logvar).sum(axis=-1) * 0.5
    kl = np.clip(kl_rows, 0.0, np.inf).mean()
    total = -(recon - kl * kl_weight)
    if not np.isfinite(total):
        raise NonFiniteError(f"elbo_loss is not finite (recon={recon}, kl={kl})")

    def pull(g):
        rows = x.shape[0]
        # d kl / d (mu, logvar) per row, zero where the row's KL is clipped.
        g_kl = ((g * kl_weight / rows) * (kl_rows >= 0.0) * 0.5)[:, None]
        g_mu = g_kl * 2.0 * mu
        g_logvar = -g_kl + g_kl * var
        g_ll = -g / rows
        if m.obs_model == "gaussian":
            g_dec = -(g_ll * -0.5 * 2.0 * diff)
        else:
            # sigmoid(-d) from the forward pass's exp(-|d|).
            denom = 1.0 + e
            sig = np.where(dec <= 0.0, 1.0 / denom, e / denom)
            g_dec = -(-g_ll * sig) + -g_ll * (1.0 - x)
        g_z, gw_dec, gb_dec = dec_net.pull_arrays(dec_cache, g_dec)
        g_logvar = g_logvar + g_z * eps * std * 0.5
        raw = enc[:, m.nz :]
        # Summed onto zeros, as two slice gradients are: a -0.0 becomes 0.0.
        g_enc = np.zeros_like(enc)
        g_enc[:, : m.nz] += g_mu + g_z
        g_enc[:, m.nz :] += g_logvar * ((raw >= LOGVAR_MIN) & (raw <= LOGVAR_MAX))
        _, gw_enc, gb_enc = enc_net.pull_arrays(enc_cache, g_enc, x_grad=False)
        return (*gw_enc, *gb_enc, *gw_dec, *gb_dec)

    return record(np.asarray(total), parents, pull), float(recon), float(kl)


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
                total, recon, kl = elbo_loss(model, xb, cfg.kl_weight, eps)
                backward(total)
                opt.step()
            except (NonFiniteError, DomainError) as e:
                raise TrainingDivergedError(
                    f"stage-1 training diverged at epoch {epoch}: {e}", last_good=last_good
                ) from e
            sums += [total.item(), recon, kl]
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
    enc, _ = m.encoder.forward_arrays(data[idx], keep=False)
    return _posterior_sample(m, enc, eps)[3]
