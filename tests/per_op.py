"""Per-op reference routes of the fused nodes, the tape ops only tests
use, and the per-parameter Adam update; the package does not use them.

``matmul``, ``transpose``, ``exp``, ``clip``, ``sigmoid`` and the
activations record one node each through ``evalp.diffcore.record``. Each
module function, and the diagonal-Gaussian ELBO pieces under
``elbo_loss``, computes what a fused node computes through these generic
ops, one node per op. ``adam_step`` is the textbook update on one array
per parameter, which the flat, in-place ``Adam`` must equal bitwise.
"""

from dataclasses import dataclass

import numpy as np

from evalp.diffcore import Tensor, record
from evalp.diffcore.tensor import checked_exp, stable_sigmoid, tslice
from evalp.errors import NonFiniteError, ShapeMismatchError
from evalp.gauss import LOG_2PI, LOGVAR_MAX, LOGVAR_MIN


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(f"matmul: shapes {a.data.shape} and {b.data.shape} do not conform")
    return record(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def tanh(a):
    val = np.tanh(a.data)
    return record(val, (a,), lambda g: (g * (1.0 - val * val),))


def relu(a):
    return record(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0.0),))


def leaky_relu(a, slope=0.01):
    if not 0.0 <= slope <= 1.0:
        raise ValueError(f"leaky_relu slope must be in [0, 1], got {slope}")
    # max(a, slope * a) picks the branch of a > 0; the subgradient at 0 is the slope.
    pull = lambda g: (g * np.where(a.data > 0.0, 1.0, slope),)
    return record(np.maximum(a.data, slope * a.data), (a,), pull)


def transpose(a):
    if a.data.ndim != 2:
        raise ShapeMismatchError(f"transpose expects a 2-d tensor, got shape {a.data.shape}")
    return record(a.data.T.copy(), (a,), lambda g: (g.T,))


def exp(a):
    val = checked_exp(a.data)
    return record(val, (a,), lambda g: (g * val,))


def clip(a, lo, hi):
    mask = (a.data >= lo) & (a.data <= hi)
    return record(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


def sigmoid(a):
    val = stable_sigmoid(a.data)
    return record(val, (a,), lambda g: (g * val * (1.0 - val),))


_ACT = {"tanh": tanh, "relu": relu, "leaky_relu": leaky_relu, "none": lambda t: t}

_DERIV = {
    "tanh": lambda h: 1.0 - np.tanh(h) ** 2,
    "relu": lambda h: (h > 0.0).astype(np.float64),
    "leaky_relu": lambda h: np.where(h > 0.0, 1.0, 0.01),
    "none": None,
}


def mlp(net, x):
    for w, b, act in zip(net.weights, net.biases, net.spec.activations):
        x = _ACT[act](matmul(x, w) + b)
    return x


def _scale_translate(layer, passed):
    anti = 1.0 - layer.mask
    s = tanh(mlp(layer.s_net, passed)) * layer.s_bound * anti
    t = mlp(layer.t_net, passed) * anti
    return s, t


def coupling_forward(layer, x):
    y = (x + layer.shift) * exp(layer.log_scale)
    s, t = _scale_translate(layer, y * layer.mask)
    out = y * exp(s) + t
    logdet = s.sum(axis=-1) + layer.log_scale.sum()
    return out, logdet


def coupling_inverse(layer, y):
    s, t = _scale_translate(layer, y * layer.mask)
    x = (y - t) * exp(-s)
    x = x * exp(-layer.log_scale) - layer.shift
    logdet = -s.sum(axis=-1) - layer.log_scale.sum()
    return x, logdet


def flow_forward(g, eps):
    x, logdet = eps, None
    for layer in g.layers:
        x, ld = coupling_forward(layer, x)
        logdet = ld if logdet is None else logdet + ld
    return x, logdet


def flow_inverse(g, z):
    x, logdet = z, None
    for layer in reversed(g.layers):
        x, ld = coupling_inverse(layer, x)
        logdet = ld if logdet is None else logdet + ld
    return x, logdet


def energy_input_grad(f, z):
    """The input gradient as a graph over the weights, masks held constant."""
    net = f.mlp
    masks, a = [], z
    for w, b, act in zip(net.weights, net.biases, net.spec.activations):
        h = a @ w.data + b.data
        masks.append(None if _DERIV[act] is None else _DERIV[act](h))
        a = h if _DERIV[act] is None else _ACT[act](Tensor(h)).data
    v = Tensor(np.ones((z.shape[0], net.spec.widths[-1])))
    for i in reversed(range(len(net.weights))):
        if masks[i] is not None:
            v = v * Tensor(masks[i])
        v = matmul(v, transpose(net.weights[i]))
    return v


@dataclass
class DiagGaussian:
    """Mean / log-variance pair; logvar is clamped to [-10, 10] on use."""

    mu: Tensor
    logvar: Tensor

    def __post_init__(self):
        if self.mu.shape != self.logvar.shape:
            raise ShapeMismatchError(
                f"mu shape {self.mu.shape} vs logvar shape {self.logvar.shape}"
            )
        # Clamp keeps exp() bounded; gradient passes through inside the range.
        self.logvar = clip(self.logvar, LOGVAR_MIN, LOGVAR_MAX)

    @property
    def dim(self) -> int:
        return self.mu.shape[-1]


def kl_to_standard(g: DiagGaussian) -> Tensor:
    """KL(N(mu, diag exp(logvar)) || N(0, I)), per row, clamped at zero."""
    var = exp(g.logvar)
    raw = (var + g.mu.square() - 1.0 - g.logvar).sum(axis=-1) * 0.5
    return clip(raw, 0.0, np.inf)


def reparameterize(g: DiagGaussian, eps: Tensor) -> Tensor:
    """z = mu + exp(logvar / 2) * eps, differentiable in mu and logvar."""
    if eps.shape[-1] != g.dim:
        raise ShapeMismatchError(f"reparameterize: eps width {eps.shape[-1]} vs dim {g.dim}")
    return g.mu + exp(g.logvar * 0.5) * eps


def vae_encode(m, x):
    out = m.encoder(x)
    return DiagGaussian(tslice(out, 1, 0, m.nz), tslice(out, 1, m.nz, 2 * m.nz))


def observation_log_lik(m, params, x):
    """Per-row log p(x | z): unit-variance Gaussian around the decoded mean,
    or Bernoulli on decoded logits in the softplus form."""
    if m.obs_model == "gaussian":
        sq = (x - params).square().sum(axis=-1)
        return (sq + m.data_dim * LOG_2PI) * -0.5
    # x*log(sig(l)) + (1-x)*log(1-sig(l)) = -(1-x)*l - softplus(-l)
    term = (1.0 - x) * params + (-params).softplus()
    return -term.sum(axis=-1)


def elbo_loss(m, x, kl_weight, eps):
    """(total, recon, kl) tensors of the negative ELBO, one node per op."""
    post = vae_encode(m, x)
    decoded = m.decoder(reparameterize(post, eps))
    recon = observation_log_lik(m, decoded, x).mean()
    kl = kl_to_standard(post).mean()
    total = -(recon - kl * kl_weight)
    if not np.isfinite(total.data):
        raise NonFiniteError(f"elbo_loss is not finite (recon={recon.data}, kl={kl.data})")
    return total, recon, kl


def adam_step(params, grads, m, v, t, lr, beta1, beta2, eps):
    """Adam step ``t`` (from 1) on lists of arrays; updates the moment lists
    ``m`` and ``v`` in place and returns the new parameter arrays."""
    new_params = []
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = beta1 * m[i] + (1.0 - beta1) * g
        v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
        m_hat = m[i] / (1.0 - beta1**t)
        v_hat = v[i] / (1.0 - beta2**t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
    return new_params
