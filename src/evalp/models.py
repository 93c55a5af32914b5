"""Network definitions: MLP blocks, the scalar energy function, the
affine-coupling flow sampler, and the VAE encoder/decoder.

Conventions: model inputs are (B, d) row batches; weights are
stored (in, out) so a layer computes ``x @ W + b``. Flow forward maps
base noise to latents; inverse maps latents back and is exact.

Module passes compute on arrays and record nothing themselves.
``Mlp.forward_arrays``, ``FlowSampler.forward`` and ``energy_input_grad``
return their rows, plus what a closed-form reverse pass needs when asked:
``Mlp.pull_arrays``, ``FlowSampler.pull_forward`` and the pull that
``energy_input_grad`` returns. A step's loss (``stage1.elbo_loss``,
``stage2.critic_loss``, ``stage2.sampler_loss``) records one tape node over
the parameters and chains those pulls; ``Mlp.__call__`` is the one module
call that records a node of its own. The flow's inverse and ``log_pdf``
only evaluate densities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import Tensor, needs_grad, record
from .diffcore.tensor import checked_exp
from .errors import ShapeMismatchError
from .gauss import standard_normal_logpdf
from .rng import Rng

LEAKY_SLOPE = 0.01

# Per activation: the activation applied in place to the pre-activation h,
# and its derivative factor built from the activation value a. "none" is the
# identity and has no factor.
_ACTIVATIONS = {
    "tanh": (lambda h: np.tanh(h, out=h), lambda a: 1.0 - a * a),
    "relu": (lambda h: np.maximum(h, 0.0, out=h), lambda a: a > 0.0),
    # For 0 <= slope <= 1, max(h, slope * h) picks the same branch as h > 0,
    # and a > 0 exactly when h > 0; the derivative at exactly 0 is the
    # negative-side slope. (a > 0) * (1 - slope) + slope is 1 or slope exactly.
    "leaky_relu": (
        lambda h: np.maximum(h, LEAKY_SLOPE * h, out=h),
        lambda a: (a > 0.0) * (1.0 - LEAKY_SLOPE) + LEAKY_SLOPE,
    ),
    "none": (None, None),
}


@dataclass
class MlpSpec:
    """Layer widths (input, hidden..., output) and per-layer activations."""

    widths: tuple
    activations: tuple

    def __post_init__(self):
        self.widths = tuple(int(w) for w in self.widths)
        self.activations = tuple(self.activations)
        if len(self.widths) < 2:
            raise ValueError("MlpSpec needs at least one layer")
        if any(w <= 0 for w in self.widths):
            raise ValueError(f"widths must be positive, got {self.widths}")
        if len(self.activations) != len(self.widths) - 1:
            raise ValueError(
                f"{len(self.widths) - 1} layers but {len(self.activations)} activations"
            )
        for a in self.activations:
            if a not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")


class Mlp:
    def __init__(self, spec: MlpSpec, rng: Rng | None = None, zero_init_last: bool = False):
        self.spec = spec
        self.weights = []
        self.biases = []
        n_layers = len(spec.widths) - 1
        for i in range(n_layers):
            fan_in, fan_out = spec.widths[i], spec.widths[i + 1]
            if rng is None or (zero_init_last and i == n_layers - 1):
                w = np.zeros((fan_in, fan_out))
            else:
                w = rng.normal((fan_in, fan_out)) * np.sqrt(2.0 / (fan_in + fan_out))
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(np.zeros(fan_out), requires_grad=True))

    def __call__(self, x: Tensor) -> Tensor:
        """One tape node over (x, *weights, *biases)."""
        if x.shape[-1] != self.spec.widths[0]:
            raise ShapeMismatchError(
                f"mlp input width {x.shape[-1]} vs expected {self.spec.widths[0]}"
            )
        params = (*self.weights, *self.biases)
        parents = (x, *params)
        keep = needs_grad(parents)
        out, cache = self.forward_arrays(x.data, keep)

        def pull(g):
            want_params = any(p.requires_grad for p in params)
            gx, gw, gb = self.pull_arrays(cache, g, want_params, x.requires_grad)
            return (gx, *gw, *gb)

        return record(out, parents, pull)

    def forward_arrays(self, x: np.ndarray, keep: bool):
        """Array forward pass: returns (out, cache).

        Each layer adds its bias and applies its activation in place on the
        matmul output. With ``keep`` the cache holds each layer's input and
        activation derivative factor (None for "none" layers); without it
        the cache is None and no factor is built.
        """
        inputs, factors = [], []
        for w, b, act in zip(self.weights, self.biases, self.spec.activations):
            activate, factor = _ACTIVATIONS[act]
            if keep:
                inputs.append(x)
            x = x @ w.data
            x += b.data
            if activate is not None:
                activate(x)
            if keep:
                factors.append(None if factor is None else factor(x))
        return x, ((inputs, factors) if keep else None)

    def pull_arrays(self, cache, g: np.ndarray, params: bool = True, x_grad: bool = True):
        """Reverse pass of ``forward_arrays`` from the output gradient ``g``.

        Returns (input grad, weight grads, bias grads); the input grad is
        None unless ``x_grad``, the parameter grads are None unless
        ``params``.
        """
        inputs, factors = cache
        n = len(self.weights)
        gw, gb = [None] * n, [None] * n
        for i in reversed(range(n)):
            if factors[i] is not None:
                g = g * factors[i]
            if params:
                gw[i] = inputs[i].T @ g
                gb[i] = g.sum(axis=0)
            if i == 0 and not x_grad:
                return None, gw, gb
            g = g @ self.weights[i].data.T
        return g, gw, gb

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"{prefix}w{i}", w))
            out.append((f"{prefix}b{i}", b))
        return out


# ---------------------------------------------------------------------------
# Energy function
# ---------------------------------------------------------------------------


class EnergyFunction:
    """Scalar-output MLP: input nz -> nd (LReLU) -> nd (LReLU) -> 1."""

    def __init__(self, nz: int, nd: int, rng: Rng | None = None):
        self.nz = nz
        self.nd = nd
        self.mlp = Mlp(
            MlpSpec((nz, nd, nd, 1), ("leaky_relu", "leaky_relu", "none")),
            rng,
        )

    def _check_width(self, z) -> None:
        if z.shape[-1] != self.nz:
            raise ShapeMismatchError(f"energy input width {z.shape[-1]} vs nz {self.nz}")

    def __call__(self, z: Tensor) -> Tensor:
        self._check_width(z)
        return self.mlp(z)

    def forward_arrays(self, z: np.ndarray, keep: bool = False):
        """The energy at the rows ``z`` off the tape: (values (B, 1), cache),
        as ``Mlp.forward_arrays``."""
        self._check_width(z)
        return self.mlp.forward_arrays(z, keep)

    def parameters(self):
        return self.mlp.parameters()

    def named_parameters(self):
        return self.mlp.named_parameters("mlp.")

    def arch(self) -> dict:
        return {"nz": self.nz, "nd": self.nd}


def energy_input_grad(f: EnergyFunction, z: np.ndarray):
    """Analytic input gradient of the energy at the rows ``z``: returns
    (rows, pull), where ``pull(g)`` maps a gradient of the rows to the
    weight gradients, in layer order.

    The activation-derivative masks come from the energy's forward pass
    at the current point and are treated as constants; for piecewise-linear
    activations they are exact almost everywhere. No gradient reaches ``z``
    or the biases.
    """
    _, (_, masks) = f.forward_arrays(z, keep=True)
    mlp = f.mlp
    # Contiguous transposed copies, as the op-by-op route multiplies by: a
    # BLAS product can differ in its last bit with the operands' layout.
    w_t = [w.data.T.copy() for w in mlp.weights]
    n_layers = len(w_t)
    v = np.ones((z.shape[0], mlp.spec.widths[-1]))
    masked = [None] * n_layers
    for i in reversed(range(n_layers)):
        if masks[i] is not None:
            v = v * masks[i]
        masked[i] = v
        v = v @ w_t[i]

    def pull(g):
        grads = []
        for i in range(n_layers):
            grads.append((masked[i].T @ g).T)
            if i + 1 < n_layers:
                g = g @ w_t[i].T
                if masks[i] is not None:
                    g = g * masks[i]
        return grads

    return v, pull


# ---------------------------------------------------------------------------
# Affine coupling flow
# ---------------------------------------------------------------------------


class CouplingLayer:
    """Invertible per-coordinate norm followed by an affine coupling.

    ``mask`` marks the pass-through coordinates (1 = unchanged); the scale
    and translate nets read the masked vector and rewrite the complement.
    The scale output is tanh-bounded and multiplied by a learnable bound
    so exp(scale) stays well-conditioned.

    The layer works on arrays: ``forward_arrays`` returns (out, logdet,
    cache) and ``pull_forward`` is its closed-form reverse pass;
    ``inverse_arrays`` returns (x, logdet). The
    coupling Jacobian is triangular, so logdet is the sum of the scales and
    the log norm scales.
    """

    def __init__(self, nz: int, nh: int, parity: int, rng: Rng | None = None):
        self.nz = nz
        mask = np.zeros(nz)
        mask[parity % 2 :: 2] = 1.0
        self.mask = mask
        self.shift = Tensor(np.zeros(nz), requires_grad=True)
        self.log_scale = Tensor(np.zeros(nz), requires_grad=True)
        self.s_net = Mlp(
            MlpSpec((nz, nh, nh, nz), ("relu", "relu", "none")), rng, zero_init_last=True
        )
        self.t_net = Mlp(
            MlpSpec((nz, nh, nh, nz), ("tanh", "tanh", "none")), rng, zero_init_last=True
        )
        self.s_bound = Tensor(np.array(1.0), requires_grad=True)

    def _nets(self, y, keep):
        """Bounded scale s and translation t from the pass-through part of y."""
        passed = y * self.mask
        anti = 1.0 - self.mask
        s_raw, s_cache = self.s_net.forward_arrays(passed, keep)
        th = np.tanh(s_raw)
        s = th * self.s_bound.data * anti
        t_raw, t_cache = self.t_net.forward_arrays(passed, keep)
        return s, t_raw * anti, (th, s_cache, t_cache)

    def _nets_pull(self, cache, g_s, g_t):
        """(y grad through the pass-through part, s_bound grad, s_net grads,
        t_net grads) from the gradients of s and t."""
        th, s_cache, t_cache = cache
        anti = 1.0 - self.mask
        g_s = g_s * anti
        g_bound = (g_s * th).sum(axis=(0, 1))
        g_raw = g_s * self.s_bound.data * (1.0 - th * th)
        g_passed_t, gw_t, gb_t = self.t_net.pull_arrays(t_cache, g_t * anti)
        g_passed_s, gw_s, gb_s = self.s_net.pull_arrays(s_cache, g_raw)
        g_y = (g_passed_t + g_passed_s) * self.mask
        return g_y, g_bound, _interleave(gw_s, gb_s), _interleave(gw_t, gb_t)

    def forward_arrays(self, x, keep=False):
        """y = (x + shift) exp(log_scale); out = y exp(s) + t."""
        e = checked_exp(self.log_scale.data)
        a = x + self.shift.data
        y = a * e
        s, t, nets = self._nets(y, keep)
        es = checked_exp(s)
        out = y * es + t
        logdet = s.sum(axis=-1) + self.log_scale.data.sum()
        return out, logdet, ((a, e, y, es, nets) if keep else None)

    def pull_forward(self, cache, g_out, g_logdet):
        """(x grad, parameter grads in ``named_parameters()`` order) of forward_arrays."""
        a, e, y, es, nets = cache
        g_s = g_logdet[:, None] + g_out * y * es
        g_y, g_bound, g_s_net, g_t_net = self._nets_pull(nets, g_s, g_out)
        g_y = g_out * es + g_y
        g_a = g_y * e
        g_log_scale = g_logdet.sum(axis=0) + (g_y * a).sum(axis=0) * e
        return g_a, [g_a.sum(axis=0), g_log_scale, g_bound, *g_s_net, *g_t_net]

    def inverse_arrays(self, y):
        """(x, logdet) with x = ((y - t) exp(-s)) exp(-log_scale) - shift."""
        s, t, _ = self._nets(y, False)
        x = (y - t) * checked_exp(-s) * checked_exp(-self.log_scale.data) - self.shift.data
        return x, -s.sum(axis=-1) - self.log_scale.data.sum()

    def named_parameters(self, prefix: str = ""):
        out = [
            (f"{prefix}shift", self.shift),
            (f"{prefix}log_scale", self.log_scale),
            (f"{prefix}s_bound", self.s_bound),
        ]
        out += self.s_net.named_parameters(f"{prefix}s_net.")
        out += self.t_net.named_parameters(f"{prefix}t_net.")
        return out


def _interleave(weights, biases):
    return [p for pair in zip(weights, biases) for p in pair]


class FlowSampler:
    """Cascade of coupling layers with alternating masks over N(0, I) noise."""

    def __init__(self, nz: int, nh: int, n_layers: int, rng: Rng | None = None):
        self.nz = nz
        self.nh = nh
        self.layers = [CouplingLayer(nz, nh, parity=i, rng=rng) for i in range(n_layers)]

    def forward(self, eps, keep: bool = False):
        """Map base-noise rows to latents; returns the arrays (z, per-row
        log |det J|), and with ``keep`` also the per-layer caches that
        ``pull_forward`` reads. Evaluates off the tape."""
        x = np.asarray(eps, dtype=np.float64)
        if x.shape[-1] != self.nz:
            raise ShapeMismatchError(f"flow_forward: width {x.shape[-1]} vs nz {self.nz}")
        logdet, caches = None, []
        for layer in self.layers:
            x, ld, cache = layer.forward_arrays(x, keep)
            logdet = ld if logdet is None else logdet + ld
            caches.append(cache)
        return (x, logdet, caches) if keep else (x, logdet)

    def pull_forward(self, caches, g_z, g_logdet):
        """(eps grad, parameter grads in ``parameters()`` order) of
        ``forward(eps, keep=True)`` from the gradients of z and logdet."""
        grads = []
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            g_z, layer_grads = layer.pull_forward(cache, g_z, g_logdet)
            grads = layer_grads + grads
        return g_z, grads

    def inverse(self, z):
        """Map latent rows back to base noise; returns the arrays (eps,
        per-row log |det J|). Evaluates off the tape."""
        x = np.asarray(z, dtype=np.float64)
        if x.shape[-1] != self.nz:
            raise ShapeMismatchError(f"flow_inverse: width {x.shape[-1]} vs nz {self.nz}")
        logdet = None
        for layer in reversed(self.layers):
            x, ld = layer.inverse_arrays(x)
            logdet = ld if logdet is None else logdet + ld
        return x, logdet

    def log_pdf(self, z) -> np.ndarray:
        """log p(z) under the flow-pushforward of N(0, I), per row, as an array."""
        eps, logdet = self.inverse(z)
        return standard_normal_logpdf(eps) + logdet

    def initialize_norm_inverse(self, z_batch: np.ndarray):
        """Set each norm layer so the inverse pass whitens this batch."""
        y = np.asarray(z_batch, dtype=np.float64)
        for layer in reversed(self.layers):
            # With a zero norm the inverse is the coupling's alone.
            layer.log_scale.data = np.zeros(self.nz)
            layer.shift.data = np.zeros(self.nz)
            u, _ = layer.inverse_arrays(y)
            std = u.std(axis=0) + 1e-6
            layer.log_scale.data = np.log(std)
            layer.shift.data = u.mean(axis=0) / std
            y, _ = layer.inverse_arrays(y)

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_parameters(self):
        out = []
        for i, layer in enumerate(self.layers):
            out.extend(layer.named_parameters(f"layer{i}."))
        return out

    def arch(self) -> dict:
        return {"nz": self.nz, "nh": self.nh, "n_layers": len(self.layers)}


def flow_terms(f: EnergyFunction, g: FlowSampler, eps: np.ndarray, keep: bool = False):
    """Per-sample quantities of the variational log-normalizer at z = g(eps).

    Returns the arrays (z, f(z), log_ratio) with f(z) of shape (B, 1) and
    log_ratio = log p_g(z) - log p_0(z) = log N(eps) - logdet - log N(z),
    the pathwise single-sample KL(p_g || p_0) term. With ``keep`` it also
    returns (flow caches, energy cache) for ``FlowSampler.pull_forward`` and
    ``Mlp.pull_arrays``. Records nothing.
    """
    z, logdet, *flow_cache = g.forward(eps, keep)
    fz, f_cache = f.forward_arrays(z, keep)
    log_ratio = standard_normal_logpdf(eps) - logdet - standard_normal_logpdf(z)
    if keep:
        return z, fz, log_ratio, (flow_cache[0], f_cache)
    return z, fz, log_ratio


# ---------------------------------------------------------------------------
# VAE
# ---------------------------------------------------------------------------


OBS_MODELS = ("gaussian", "bernoulli")


class VaeModel:
    """Diagonal-Gaussian encoder plus MLP decoder.

    The encoder emits 2 * nz columns: the posterior mean, then the
    log-variance. ``obs_model`` is "gaussian" (fixed unit variance,
    decoder emits the mean) or "bernoulli" (decoder emits logits).
    """

    def __init__(self, data_dim, nz, hidden=(64, 64), obs_model="gaussian", rng=None):
        if obs_model not in OBS_MODELS:
            raise ValueError(f"unknown obs_model {obs_model!r}")
        self.data_dim = data_dim
        self.nz = nz
        self.hidden = tuple(hidden)
        self.obs_model = obs_model
        acts = tuple(["relu"] * len(self.hidden)) + ("none",)
        self.encoder = Mlp(MlpSpec((data_dim, *self.hidden, 2 * nz), acts), rng)
        self.decoder = Mlp(MlpSpec((nz, *self.hidden, data_dim), acts), rng)

    def parameters(self):
        return self.encoder.parameters() + self.decoder.parameters()

    def named_parameters(self):
        return self.encoder.named_parameters("encoder.") + self.decoder.named_parameters(
            "decoder."
        )

    def arch(self) -> dict:
        return {
            "data_dim": self.data_dim,
            "nz": self.nz,
            "hidden": list(self.hidden),
            "obs_model": self.obs_model,
        }


# Default sizes: image-scale latents use the wider nets, 2-d toys the
# narrower ones.
MNIST_SIZES = {"nd": 128, "nh": 128, "n_layers": 3}
TOY2D_SIZES = {"nd": 64, "nh": 64, "n_layers": 4}


def default_sizes(nz: int) -> dict:
    return dict(TOY2D_SIZES if nz <= 4 else MNIST_SIZES)
