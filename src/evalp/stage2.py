"""Stage 2: learning the tilted prior.

The prior is an exponentially tilted Gaussian, exp(-f(z)) * N(z; 0, I) up
to its normalizer. The flow sampler realizes the variational form of the
log-normalizer, which turns prior learning into an alternating scheme:
the sampler minimizes an upper-bound objective, the energy (acting as a
critic) maximizes a gradient-penalized lower bound, five critic updates
per sampler update by default. Each iteration logs the terms its steps
computed; the critic returned is the uniform (Polyak) mean of its late
iterates. Also hosts the NCE density-ratio baseline that ``sweep-kl``
compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffcore import Adam, Tensor, backward, no_grad
from .errors import DomainError, NonFiniteError, ShapeMismatchError, TrainingDivergedError
from .models import EnergyFunction, FlowSampler, default_sizes, energy_input_grad, flow_terms
from .rng import Rng
from .stage1 import aggregate_posterior_sample

DIVERGENCE_LIMIT = 1e6


@dataclass
class Stage2Config:
    lambda_gp: float = 10.0
    critic_steps_per_sampler: int = 5
    epochs: int = 150
    batch_size: int = 100
    lr_energy: float = 2e-4
    lr_sampler: float = 2e-4
    seed: int = 0

    def __post_init__(self):
        if self.lambda_gp <= 0:
            raise ValueError(f"lambda_gp must be positive, got {self.lambda_gp}")
        if self.critic_steps_per_sampler < 1:
            raise ValueError(
                f"critic_steps_per_sampler must be >= 1, got {self.critic_steps_per_sampler}"
            )
        if self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("batch_size and epochs must be positive")
        if self.lr_energy <= 0 or self.lr_sampler <= 0:
            raise ValueError(f"learning rates must be > 0, got {self.lr_energy}, {self.lr_sampler}")


@dataclass
class ObjectiveTerms:
    """Logged per-iteration quantities of the alternating objectives.

    ``e_q_f`` and ``gp`` are the last critic step's q-batch energy mean and
    gradient penalty; ``e_g_f`` and ``kl_g_p0`` are the sampler step's
    flow-batch energy mean and KL estimate. upper = -e_q_f + e_g_f +
    kl_g_p0 (the sampler objective plus the critic's data term, up to the
    stage-1 ELBO constant), lower = upper - lambda * gp, so lower <= upper
    holds by construction, and logz_est = -(e_g_f + kl_g_p0) is minus the
    sampler loss.
    """

    e_q_f: float
    e_g_f: float
    kl_g_p0: float
    gp: float
    upper: float
    lower: float
    logz_est: float


@dataclass
class PriorTrainHistory:
    rows: list = field(default_factory=list)
    critic_updates: int = 0
    sampler_updates: int = 0


def sampler_loss(f: EnergyFunction, g: FlowSampler, n: int, seed) -> tuple[Tensor, float, float]:
    """Monte-Carlo sampler objective E_g[f] + KL(p_g || p_0).

    Differentiable w.r.t. the flow parameters only; the energy is treated
    as a constant. Minimizing it tightens the upper bound; its negation
    at the optimum is the variational log-normalizer. Returns
    (loss, E_g[f], KL) with the two terms as floats.
    """
    if n <= 0:
        raise ValueError(f"batch size must be positive, got {n}")
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    _, fz, log_ratio = flow_terms(f.detached(), g, rng.normal((n, g.nz)))
    e_g_f, kl = fz.mean(), log_ratio.mean()
    loss = e_g_f + kl
    if not np.isfinite(loss.data):
        raise NonFiniteError(f"sampler_loss is not finite ({loss.data})")
    return loss, e_g_f.item(), kl.item()


def gradient_penalty(f: EnergyFunction, z_q: np.ndarray, z_g: np.ndarray, seed) -> Tensor:
    """Mean squared deviation of the energy's input-gradient norm from 1,
    at uniform interpolates between paired points of the two batches."""
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    if z_q.shape != z_g.shape:
        raise ShapeMismatchError(f"gradient_penalty: {z_q.shape} vs {z_g.shape}")
    u = rng.uniform((z_q.shape[0], 1))
    z_hat = u * z_q + (1.0 - u) * z_g
    grad = energy_input_grad(f, z_hat)
    norm = grad.square().sum(axis=-1).sqrt()
    return (norm - 1.0).square().mean()


def critic_loss(
    f: EnergyFunction, g: FlowSampler, z_q: np.ndarray, lambda_gp: float, seed
) -> tuple[Tensor, float, float]:
    """E_q[f] - E_g[f] + lambda * gradient penalty.

    Minimizing over the energy parameters maximizes the penalized lower
    bound; the flow batch is detached so no gradient reaches the sampler.
    Returns (loss, E_q[f], penalty) with the two terms as floats.
    """
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    with no_grad():
        z_g, _ = g.forward(Tensor(rng.normal((z_q.shape[0], g.nz))))
    z_g = z_g.data
    e_q_f = f(Tensor(z_q)).mean()
    gap = e_q_f - f(Tensor(z_g)).mean()
    gp = gradient_penalty(f, z_q, z_g, rng)
    loss = gap + gp * lambda_gp
    if not np.isfinite(loss.data):
        raise NonFiniteError(f"critic_loss is not finite ({loss.data})")
    return loss, e_q_f.item(), gp.item()


def log_z_variational_samples(f: EnergyFunction, g: FlowSampler, n: int, seed) -> np.ndarray:
    """Per-sample terms of the variational log-normalizer estimate."""
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    with no_grad():
        _, fz, log_ratio = flow_terms(f, g, rng.normal((n, g.nz)))
    return -fz.data[:, 0] - log_ratio.data


def log_z_variational_estimate(f: EnergyFunction, g: FlowSampler, n: int, seed) -> float:
    """-E_g[f] - KL(p_g || p_0) estimate: a stochastic lower bound of the
    log-normalizer for any sampler, tight when the sampler matches the
    tilted prior."""
    if n <= 0:
        raise ValueError(f"sample count must be positive, got {n}")
    vals = log_z_variational_samples(f, g, n, seed)
    est = float(vals.mean())
    if not np.isfinite(est):
        raise NonFiniteError(f"log-normalizer estimate is not finite ({est})")
    return est


def train_tilted_prior(sample_q, nz: int, cfg: Stage2Config, iters_per_epoch: int):
    """Alternating optimization against a latent sample source.

    ``sample_q(batch_size)`` must return fresh aggregate-posterior draws.
    Per iteration: k critic updates on fresh batches, then one sampler
    update; the history row holds the terms those steps computed (see
    ``ObjectiveTerms``). The returned energy is the uniform mean of the
    critic's iterates after each iteration's critic updates, over the last
    fifth of the iterations (at least one); the flow trains against the
    live critic.
    """
    rng = Rng(cfg.seed)
    init_rng = rng.spawn()
    sizes = default_sizes(nz)
    f = EnergyFunction(nz, sizes["nd"], init_rng)
    g = FlowSampler(nz, sizes["nh"], sizes["n_layers"], init_rng)
    g.initialize_norm_inverse(sample_q(cfg.batch_size))

    opt_f = Adam(f.parameters(), lr=cfg.lr_energy, beta1=0.5, beta2=0.9)
    opt_g = Adam(g.parameters(), lr=cfg.lr_sampler, beta1=0.5, beta2=0.9)
    history = PriorTrainHistory()
    iters = cfg.epochs * iters_per_epoch
    average_from = iters - max(1, iters // 5)
    critic_sum = np.zeros_like(opt_f.flat)

    for it in range(iters):
        try:
            for _ in range(cfg.critic_steps_per_sampler):
                z_q = sample_q(cfg.batch_size)
                opt_f.zero_grad()
                loss, e_q_f, gp = critic_loss(f, g, z_q, cfg.lambda_gp, rng)
                backward(loss)
                opt_f.step()
                history.critic_updates += 1
            if it >= average_from:
                critic_sum += opt_f.flat
            opt_g.zero_grad()
            loss, e_g_f, kl = sampler_loss(f, g, cfg.batch_size, rng)
            backward(loss)
            opt_g.step()
            history.sampler_updates += 1
        except (NonFiniteError, DomainError) as e:
            raise TrainingDivergedError(f"stage-2 training diverged: {e}") from e
        if abs(e_q_f) > DIVERGENCE_LIMIT or abs(e_g_f) > DIVERGENCE_LIMIT:
            raise TrainingDivergedError(f"stage-2 diverged: e_q_f={e_q_f}, e_g_f={e_g_f}")
        upper = -e_q_f + e_g_f + kl
        lower = upper - cfg.lambda_gp * gp
        history.rows.append(ObjectiveTerms(e_q_f, e_g_f, kl, gp, upper, lower, -(e_g_f + kl)))
    opt_f.flat[:] = critic_sum / (iters - average_from)
    return f, g, history


def _qagg_source(vae, data, rng: Rng):
    """Fresh aggregate-posterior draws, each from its own child stream."""
    draws = rng.spawn()

    def sample(n):
        return aggregate_posterior_sample(vae, data, n, draws.spawn())

    return sample


def train_prior(vae, data, cfg: Stage2Config):
    """Learn the tilted prior over a trained VAE's aggregate posterior.

    Returns (energy, flow, history); an epoch is one pass of latent
    batches through the critic schedule.
    """
    data = np.asarray(data, dtype=np.float64)
    rng = Rng(cfg.seed)
    sample_q = _qagg_source(vae, data, rng.spawn())
    iters = max(1, data.shape[0] // cfg.batch_size)
    return train_tilted_prior(sample_q, vae.nz, cfg, iters)


# ---------------------------------------------------------------------------
# NCE baseline
# ---------------------------------------------------------------------------


def nce_loss(clf: EnergyFunction, z_q: np.ndarray, z_p: np.ndarray) -> Tensor:
    """Balanced logistic loss; the optimal logit is log(q_agg / p_0)."""
    logit_q = clf(Tensor(z_q))
    logit_p = clf(Tensor(z_p))
    return ((-logit_q).softplus().mean() + logit_p.softplus().mean()) * 0.5


def train_nce_ratio_baseline(vae, data, cfg: Stage2Config):
    """Logistic discrimination of aggregate-posterior vs N(0, I) samples.

    The learned logit approximates log(q_agg / p_0); batches are class
    balanced. Returns (classifier, history).
    """
    data = np.asarray(data, dtype=np.float64)
    rng = Rng(cfg.seed)
    sample_q = _qagg_source(vae, data, rng.spawn())
    init_rng, noise_rng = rng.spawn(), rng.spawn()
    sizes = default_sizes(vae.nz)
    clf = EnergyFunction(vae.nz, sizes["nd"], init_rng)
    opt = Adam(clf.parameters(), lr=1e-3)
    iters = max(1, data.shape[0] // cfg.batch_size)
    history = []
    for epoch in range(cfg.epochs):
        loss_sum = 0.0
        for _ in range(iters):
            z_q = sample_q(cfg.batch_size)
            z_p = noise_rng.normal((cfg.batch_size, vae.nz))
            opt.zero_grad()
            loss = nce_loss(clf, z_q, z_p)
            if not np.isfinite(loss.data):
                raise TrainingDivergedError(f"NCE loss diverged ({loss.data})")
            backward(loss)
            opt.step()
            loss_sum += loss.item()
        history.append({"epoch": epoch, "loss": loss_sum / iters})
    return clf, history
