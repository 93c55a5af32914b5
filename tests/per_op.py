"""Per-op reference routes of the fused nodes, the tape ops only tests
use, and the per-parameter Adam update; the package does not use them.

Every op records one node through ``evalp.diffcore.record``: the
elementwise ``add``, ``sub``, ``mul``, ``neg``, ``softplus`` and
``square`` (which broadcast like NumPy), the reductions ``tsum`` and
``tmean``, and ``matmul``, ``transpose``, ``exp``, ``clip``, ``sigmoid``,
``sqrt``, ``tslice`` and the activations. Importing this module binds
``+``, ``-``, ``*``, unary ``-``, ``softplus()``, ``square()``, ``sum()``
and ``mean()`` onto ``Tensor``, with scalars and arrays wrapped as
constants; ``conftest.py`` imports it, so every test can write tensor
expressions. Each module function, the diagonal-Gaussian ELBO pieces
under ``elbo_loss``, the stage-2 ``critic_loss`` (with its
``gradient_penalty``) and ``sampler_loss``, and the NCE baseline's
``nce_loss`` compute what a fused node or step computes through these
generic ops, one node per op. ``adam_step`` is the textbook update on one
array per parameter, which the flat, in-place ``Adam`` must equal bitwise.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from evalp.diffcore import Tensor, no_grad, record
from evalp.diffcore.tensor import checked_exp, stable_sigmoid
from evalp.errors import DomainError, NonFiniteError, ShapeMismatchError
from evalp.gauss import LOG_2PI, LOGVAR_MAX, LOGVAR_MIN
from evalp.rng import Rng


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum-reduce a broadcast gradient back to the original shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(a, b, kind):
    try:
        return np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeMismatchError(
            f"{kind}: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "add")

    def pull(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return record(a.data + b.data, (a, b), pull)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "sub")

    def pull(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return record(a.data - b.data, (a, b), pull)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "mul")

    def pull(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return record(a.data * b.data, (a, b), pull)


def neg(a):
    a = _as_tensor(a)
    return record(-a.data, (a,), lambda g: (-g,))


def softplus(a):
    a = _as_tensor(a)
    # log(1 + e^x) = max(x, 0) + log1p(e^{-|x|}), overflow-safe.
    val = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    return record(val, (a,), lambda g: (g * stable_sigmoid(a.data),))


def square(a):
    a = _as_tensor(a)
    return record(a.data * a.data, (a,), lambda g: (g * 2.0 * a.data,))


def tsum(a, axis=None):
    a = _as_tensor(a)

    def pull(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape),)

    return record(a.data.sum(axis=axis), (a,), pull)


def tmean(a, axis=None):
    a = _as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]

    def pull(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.data.shape),)
        return (np.broadcast_to(np.expand_dims(g, axis) / count, a.data.shape),)

    return record(a.data.mean(axis=axis), (a,), pull)


Tensor.__add__ = add
Tensor.__radd__ = lambda self, other: add(other, self)
Tensor.__sub__ = sub
Tensor.__rsub__ = lambda self, other: sub(other, self)
Tensor.__mul__ = mul
Tensor.__rmul__ = lambda self, other: mul(other, self)
Tensor.__neg__ = neg
Tensor.softplus = softplus
Tensor.square = square
Tensor.sum = tsum
Tensor.mean = tmean


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


def sqrt(a):
    if np.any(a.data < 0.0):
        raise DomainError(f"sqrt of negative value (min input {a.data.min()})")
    val = np.sqrt(a.data)
    # Clamp the denominator so a gradient at exactly 0 stays finite.
    return record(val, (a,), lambda g: (g / (2.0 * np.maximum(val, 1e-150)),))


def tslice(a, axis, start, stop):
    if not (0 <= start <= stop <= a.data.shape[axis]):
        raise ShapeMismatchError(
            f"slice [{start}:{stop}] out of range for axis {axis} of shape {a.data.shape}"
        )
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)

    def pull(g):
        full = np.zeros_like(a.data)
        full[sl] = g
        return (full,)

    return record(a.data[sl].copy(), (a,), pull)


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


def standard_normal_logpdf(z):
    """log N(z; 0, I) per row, as tensor ops."""
    return (z.square().sum(axis=-1) + z.shape[-1] * LOG_2PI) * -0.5


def _constant(net):
    """The network ``net`` with its weights and biases as constants."""
    return SimpleNamespace(
        spec=net.spec,
        weights=[Tensor(w.data) for w in net.weights],
        biases=[Tensor(b.data) for b in net.biases],
    )


def sampler_loss(f, g, n, seed):
    """(loss, E_g[f], KL) of the sampler step, one node per op; the energy
    is a constant."""
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    eps = Tensor(rng.normal((n, g.nz)))
    z, logdet = flow_forward(g, eps)
    fz = mlp(_constant(f.mlp), z)
    log_ratio = standard_normal_logpdf(eps) - logdet - standard_normal_logpdf(z)
    e_g_f, kl = fz.mean(), log_ratio.mean()
    return e_g_f + kl, e_g_f.item(), kl.item()


def gradient_penalty(f, z_q, z_g, seed):
    """Mean squared deviation of the energy's input-gradient norm from 1,
    at uniform interpolates between paired points of the two batches."""
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    if z_q.shape != z_g.shape:
        raise ShapeMismatchError(f"gradient_penalty: {z_q.shape} vs {z_g.shape}")
    u = rng.uniform((z_q.shape[0], 1))
    z_hat = u * z_q + (1.0 - u) * z_g
    grad = energy_input_grad(f, z_hat)
    norm = sqrt(grad.square().sum(axis=-1))
    return (norm - 1.0).square().mean()


def critic_loss(f, g, z_q, lambda_gp, seed):
    """(loss, E_q[f], penalty) of the critic step, one node per op; the
    flow batch is a constant."""
    rng = seed if isinstance(seed, Rng) else Rng(seed)
    with no_grad():
        z_g, _ = flow_forward(g, Tensor(rng.normal((z_q.shape[0], g.nz))))
    z_g = z_g.data
    e_q_f = mlp(f.mlp, Tensor(z_q)).mean()
    gap = e_q_f - mlp(f.mlp, Tensor(z_g)).mean()
    gp = gradient_penalty(f, z_q, z_g, rng)
    return gap + gp * lambda_gp, e_q_f.item(), gp.item()


def nce_loss(clf, z_q, z_p):
    """The NCE baseline's balanced logistic loss, one node per op."""
    logit_q = mlp(clf.mlp, Tensor(z_q))
    logit_p = mlp(clf.mlp, Tensor(z_p))
    return ((-logit_q).softplus().mean() + logit_p.softplus().mean()) * 0.5


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
    out = mlp(m.encoder, x)
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
    decoded = mlp(m.decoder, reparameterize(post, eps))
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
