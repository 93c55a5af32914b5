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

from .diffcore import Adam, Tensor, backward, needs_grad, record
from .diffcore.tensor import stable_sigmoid
from .errors import DomainError, NonFiniteError, ShapeMismatchError, TrainingDivergedError
from .models import EnergyFunction, FlowSampler, default_sizes, energy_input_grad, flow_terms
from .rng import Rng
from .stage1 import DIVERGENCE_LIMIT, aggregate_posterior_sample


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
    """Monte-Carlo sampler objective E_g[f] + KL(p_g || p_0), as one tape
    node over the flow parameters.

    The energy is treated as a constant. Minimizing the loss tightens the
    upper bound; its negation at the optimum is the variational
    log-normalizer. Returns (loss, E_g[f], KL) with the two terms as
    floats. The pull runs back through the energy's input pull and the
    flow's ``pull_forward``.
    """
    if n <= 0:
        raise ValueError(f"batch size must be positive, got {n}")
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    params = g.parameters()
    keep = needs_grad(params)
    z, fz, log_ratio, *caches = flow_terms(f, g, rng.normal((n, g.nz)), keep)
    e_g_f, kl = fz.mean(), log_ratio.mean()
    loss = e_g_f + kl
    if not np.isfinite(loss):
        raise NonFiniteError(f"sampler_loss is not finite ({loss})")

    def pull(grad):
        flow_cache, f_cache = caches[0]
        g_row = grad / n
        # The log-ratio's -log N(z) = (|z|^2 + d log 2 pi) / 2 pulls g_row * z.
        g_z = g_row * z
        g_fz, _, _ = f.mlp.pull_arrays(f_cache, np.full((n, 1), g_row), params=False)
        _, grads = g.pull_forward(flow_cache, g_z + g_fz, np.full(n, -g_row))
        return grads

    return record(np.asarray(loss), params, pull), float(e_g_f), float(kl)


def critic_loss(
    f: EnergyFunction, g: FlowSampler, z_q: np.ndarray, lambda_gp: float, seed
) -> tuple[Tensor, float, float]:
    """E_q[f] - E_g[f] + lambda * gradient penalty, as one tape node over
    the energy's weights and biases.

    The penalty is the mean squared deviation of the energy's input-gradient
    norm from 1, at uniform interpolates between paired rows of the two
    batches. Minimizing over the energy parameters maximizes the penalized
    lower bound; the flow batch is a constant, so no gradient reaches the
    sampler. Returns (loss, E_q[f], penalty) with the two terms as floats.
    The pull runs back through both energy passes and through
    ``energy_input_grad``'s masked products.
    """
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    z_g, _ = g.forward(rng.normal((z_q.shape[0], g.nz)))
    z_q = np.asarray(z_q, dtype=np.float64)
    if not np.all(np.isfinite(z_q)):
        raise DomainError("critic_loss: z_q must be finite")
    if z_q.shape[-1] != f.nz or z_q.shape != z_g.shape:
        raise ShapeMismatchError(f"critic_loss: z_q {z_q.shape}, flow rows {z_g.shape}, nz {f.nz}")
    mlp = f.mlp
    params = (*mlp.weights, *mlp.biases)
    keep = needs_grad(params)
    out_q, cache_q = mlp.forward_arrays(z_q, keep)
    out_g, cache_g = mlp.forward_arrays(z_g, keep)
    e_q_f = out_q.mean()
    gap = e_q_f - out_g.mean()
    u = rng.uniform((z_q.shape[0], 1))
    grad_rows, grad_pull = energy_input_grad(f, u * z_q + (1.0 - u) * z_g)
    norm = np.sqrt((grad_rows * grad_rows).sum(axis=-1))
    dev = norm - 1.0
    gp = (dev * dev).mean()
    loss = gap + gp * lambda_gp
    if not np.isfinite(loss):
        raise NonFiniteError(f"critic_loss is not finite ({loss})")

    def pull(grad):
        rows = z_q.shape[0]
        # d gp / d norm = 2 dev / rows; d norm / d grad_rows = grad_rows / norm.
        g_norm = grad * lambda_gp / rows * 2.0 * dev
        # Clamp the denominator so a zero input gradient keeps a finite pull.
        g_sq = g_norm / (2.0 * np.maximum(norm, 1e-150))
        gw = grad_pull(g_sq[:, None] * 2.0 * grad_rows)
        _, gw_g, gb_g = mlp.pull_arrays(cache_g, np.full((rows, 1), -grad / rows), x_grad=False)
        _, gw_q, gb_q = mlp.pull_arrays(cache_q, np.full((rows, 1), grad / rows), x_grad=False)
        gw = [a + b + c for a, b, c in zip(gw, gw_g, gw_q)]
        return (*gw, *[b + c for b, c in zip(gb_g, gb_q)])

    return record(np.asarray(loss), params, pull), float(e_q_f), float(gp)


def log_z_variational_samples(f: EnergyFunction, g: FlowSampler, n: int, seed) -> np.ndarray:
    """Per-sample terms of the variational log-normalizer estimate."""
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    _, fz, log_ratio = flow_terms(f, g, rng.normal((n, g.nz)))
    return -fz[:, 0] - log_ratio


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


def _softplus(x):
    """log(1 + e^x) = max(x, 0) + log1p(e^{-|x|}), overflow-safe."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def nce_loss(clf: EnergyFunction, z_q: np.ndarray, z_p: np.ndarray) -> Tensor:
    """Balanced logistic loss (mean softplus(-logit) over the q rows plus
    mean softplus(logit) over the p rows, halved), as one tape node over the
    classifier's weights and biases; the optimal logit is log(q_agg / p_0).
    The pull runs back through both classifier passes.
    """
    mlp = clf.mlp
    params = (*mlp.weights, *mlp.biases)
    keep = needs_grad(params)
    logit_q, cache_q = clf.forward_arrays(z_q, keep)
    logit_p, cache_p = clf.forward_arrays(z_p, keep)
    loss = (_softplus(-logit_q).mean() + _softplus(logit_p).mean()) * 0.5
    if not np.isfinite(loss):
        raise NonFiniteError(f"nce_loss is not finite ({loss})")

    def pull(grad):
        # d softplus(x) / dx = sigmoid(x); the q term's logit enters negated.
        g_q = -(grad * 0.5 / logit_q.size * stable_sigmoid(-logit_q))
        g_p = grad * 0.5 / logit_p.size * stable_sigmoid(logit_p)
        _, gw_q, gb_q = mlp.pull_arrays(cache_q, g_q, x_grad=False)
        _, gw_p, gb_p = mlp.pull_arrays(cache_p, g_p, x_grad=False)
        return [a + b for a, b in zip(gw_q + gb_q, gw_p + gb_p)]

    return record(np.asarray(loss), params, pull)


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
            try:
                loss = nce_loss(clf, z_q, z_p)
                backward(loss)
                opt.step()
            except NonFiniteError as e:
                raise TrainingDivergedError(f"NCE training diverged: {e}") from e
            loss_sum += loss.item()
        history.append({"epoch": epoch, "loss": loss_sum / iters})
    return clf, history
