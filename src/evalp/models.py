"""Network definitions: MLP blocks, the scalar energy function, the
affine-coupling flow sampler, and the VAE encoder/decoder.

Conventions: model inputs are (B, d) row batches of tensors; weights are
stored (in, out) so a layer computes ``x @ W + b``. Flow forward maps
base noise to latents; inverse maps latents back and is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import Tensor, no_grad
from .diffcore.tensor import tslice, transpose
from .errors import ShapeMismatchError
from .gauss import DiagGaussian, standard_normal_logpdf
from .rng import Rng

_ACT = {
    "tanh": lambda t: t.tanh(),
    "relu": lambda t: t.relu(),
    "leaky_relu": lambda t: t.leaky_relu(0.01),
    "none": None,
}

_ACT_NP = {
    "tanh": np.tanh,
    "relu": lambda x: np.maximum(x, 0.0),
    "leaky_relu": lambda x: np.maximum(x, 0.01 * x),
    "none": lambda x: x,
}

_ACT_DERIV_NP = {
    "tanh": lambda x: 1.0 - np.tanh(x) ** 2,
    "relu": lambda x: (x > 0.0).astype(np.float64),
    "leaky_relu": lambda x: np.where(x > 0.0, 1.0, 0.01),
    "none": lambda x: np.ones_like(x),
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
            if a not in _ACT:
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
        if x.shape[-1] != self.spec.widths[0]:
            raise ShapeMismatchError(
                f"mlp input width {x.shape[-1]} vs expected {self.spec.widths[0]}"
            )
        for w, b, act in zip(self.weights, self.biases, self.spec.activations):
            x = x @ w + b
            f = _ACT[act]
            if f is not None:
                x = f(x)
        return x

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"{prefix}w{i}", w))
            out.append((f"{prefix}b{i}", b))
        return out

    def detached(self) -> "Mlp":
        other = Mlp.__new__(Mlp)
        other.spec = self.spec
        other.weights = [Tensor._wrap(w.data) for w in self.weights]
        other.biases = [Tensor._wrap(b.data) for b in self.biases]
        return other


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

    def __call__(self, z: Tensor) -> Tensor:
        if not isinstance(z, Tensor):
            z = Tensor(z)
        if z.shape[-1] != self.nz:
            raise ShapeMismatchError(f"energy input width {z.shape[-1]} vs nz {self.nz}")
        return self.mlp(z)

    def parameters(self):
        return self.mlp.parameters()

    def named_parameters(self):
        return self.mlp.named_parameters("mlp.")

    def detached(self) -> "EnergyFunction":
        other = EnergyFunction.__new__(EnergyFunction)
        other.nz = self.nz
        other.nd = self.nd
        other.mlp = self.mlp.detached()
        return other

    def arch(self) -> dict:
        return {"nz": self.nz, "nd": self.nd}


def energy_input_grad(f: EnergyFunction, z) -> Tensor:
    """Analytic input gradient of the energy, as a graph over the weights.

    The activation-derivative masks are taken at the current point and
    treated as constants, so backward() through the result gives the
    parameter gradient of penalty terms built on it. For piecewise-linear
    activations the frozen masks are exact almost everywhere.
    """
    z_arr = z.data if isinstance(z, Tensor) else np.asarray(z, dtype=np.float64)
    if z_arr.shape[-1] != f.nz:
        raise ShapeMismatchError(f"energy input width {z_arr.shape[-1]} vs nz {f.nz}")
    mlp = f.mlp
    masks = []
    a = z_arr
    for w, b, act in zip(mlp.weights, mlp.biases, mlp.spec.activations):
        h = a @ w.data + b.data
        masks.append(_ACT_DERIV_NP[act](h))
        a = _ACT_NP[act](h)

    n_layers = len(mlp.weights)
    v = Tensor(np.ones((z_arr.shape[0], mlp.spec.widths[-1])))
    for i in reversed(range(n_layers)):
        if mlp.spec.activations[i] != "none":
            v = v * Tensor(masks[i])
        v = v @ transpose(mlp.weights[i])
    return v


# ---------------------------------------------------------------------------
# Affine coupling flow
# ---------------------------------------------------------------------------


class CouplingLayer:
    """Invertible per-coordinate norm followed by an affine coupling.

    ``mask`` marks the pass-through coordinates (1 = unchanged); the scale
    and translate nets read the masked vector and rewrite the complement.
    The scale output is tanh-bounded and multiplied by a learnable bound
    so exp(scale) stays well-conditioned.
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

    def _scale_translate(self, passed: Tensor):
        anti = 1.0 - self.mask
        s = self.s_net(passed).tanh() * self.s_bound * anti
        t = self.t_net(passed) * anti
        return s, t

    def forward(self, x: Tensor):
        y = (x + self.shift) * self.log_scale.exp()
        passed = y * self.mask
        s, t = self._scale_translate(passed)
        out = y * s.exp() + t
        logdet = s.sum(axis=-1) + self.log_scale.sum()
        return out, logdet

    def inverse(self, y: Tensor):
        passed = y * self.mask
        s, t = self._scale_translate(passed)
        x = (y - t) * (-s).exp()
        x = x * (-self.log_scale).exp() - self.shift
        logdet = -s.sum(axis=-1) - self.log_scale.sum()
        return x, logdet

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = ""):
        out = [
            (f"{prefix}shift", self.shift),
            (f"{prefix}log_scale", self.log_scale),
            (f"{prefix}s_bound", self.s_bound),
        ]
        out += self.s_net.named_parameters(f"{prefix}s_net.")
        out += self.t_net.named_parameters(f"{prefix}t_net.")
        return out


class FlowSampler:
    """Cascade of coupling layers with alternating masks over N(0, I) noise."""

    def __init__(self, nz: int, nh: int, n_layers: int, rng: Rng | None = None):
        self.nz = nz
        self.nh = nh
        self.layers = [CouplingLayer(nz, nh, parity=i, rng=rng) for i in range(n_layers)]
        self.norm_initialized = False

    def _check_width(self, x: Tensor, what: str):
        if x.shape[-1] != self.nz:
            raise ShapeMismatchError(f"{what}: width {x.shape[-1]} vs nz {self.nz}")

    def forward(self, eps):
        """Map base noise to latents; returns (z, per-row log |det J|)."""
        x = eps if isinstance(eps, Tensor) else Tensor(eps)
        self._check_width(x, "flow_forward")
        logdet = None
        for layer in self.layers:
            x, ld = layer.forward(x)
            logdet = ld if logdet is None else logdet + ld
        return x, logdet

    def inverse(self, z):
        x = z if isinstance(z, Tensor) else Tensor(z)
        self._check_width(x, "flow_inverse")
        logdet = None
        for layer in reversed(self.layers):
            x, ld = layer.inverse(x)
            logdet = ld if logdet is None else logdet + ld
        return x, logdet

    def log_pdf(self, z) -> Tensor:
        """log p(z) under the flow-pushforward of N(0, I), per row."""
        eps, logdet = self.inverse(z)
        return standard_normal_logpdf(eps) + logdet

    def initialize_norm_inverse(self, z_batch: np.ndarray):
        """Set each norm layer so the inverse pass whitens this batch."""
        with no_grad():
            y = np.asarray(z_batch, dtype=np.float64)
            for layer in reversed(self.layers):
                passed = Tensor(y * layer.mask)
                s, t = layer._scale_translate(passed)
                u = (y - t.data) * np.exp(-s.data)
                mean = u.mean(axis=0)
                std = u.std(axis=0) + 1e-6
                layer.log_scale.data = np.log(std)
                layer.shift.data = mean / std
                out, _ = layer.inverse(Tensor(y))
                y = out.data
        self.norm_initialized = True

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_parameters(self):
        out = []
        for i, layer in enumerate(self.layers):
            out.extend(layer.named_parameters(f"layer{i}."))
        return out

    def arch(self) -> dict:
        return {"nz": self.nz, "nh": self.nh, "n_layers": len(self.layers)}


def flow_terms(f: EnergyFunction, g: FlowSampler, eps):
    """Per-sample quantities of the variational log-normalizer at z = g(eps).

    Returns (z, f(z), log_ratio) with log_ratio = log p_g(z) - log p_0(z)
    = log N(eps) - logdet - log N(z), the pathwise single-sample
    KL(p_g || p_0) term. Records on the tape unless called under no_grad.
    """
    eps = eps if isinstance(eps, Tensor) else Tensor(eps)
    z, logdet = g.forward(eps)
    fz = f(z)
    log_ratio = standard_normal_logpdf(eps) - logdet - standard_normal_logpdf(z)
    return z, fz, log_ratio


# ---------------------------------------------------------------------------
# VAE
# ---------------------------------------------------------------------------


OBS_MODELS = ("gaussian", "bernoulli")


class VaeModel:
    """Diagonal-Gaussian encoder plus MLP decoder.

    ``obs_model`` is "gaussian" (fixed unit variance, decoder emits the
    mean) or "bernoulli" (decoder emits logits).
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


def vae_encode(m: VaeModel, x) -> DiagGaussian:
    if not isinstance(x, Tensor):
        x = Tensor(x)
    out = m.encoder(x)
    mu = tslice(out, 1, 0, m.nz)
    logvar = tslice(out, 1, m.nz, 2 * m.nz)
    return DiagGaussian(mu, logvar)


def vae_decode(m: VaeModel, z) -> Tensor:
    if not isinstance(z, Tensor):
        z = Tensor(z)
    return m.decoder(z)


def decode_mean(m: VaeModel, z: np.ndarray) -> np.ndarray:
    """Observation-model mean of decoded latents (no noise), as an array."""
    with no_grad():
        out = vae_decode(m, Tensor(np.asarray(z, dtype=np.float64)))
        if m.obs_model == "bernoulli":
            out = out.sigmoid()
        return out.data


# Default sizes: image-scale latents use the wider nets, 2-d toys the
# narrower ones.
MNIST_SIZES = {"nz": 16, "nd": 128, "nh": 128, "n_layers": 3}
TOY2D_SIZES = {"nz": 2, "nd": 64, "nh": 64, "n_layers": 4}


def default_sizes(nz: int) -> dict:
    sizes = dict(TOY2D_SIZES if nz <= 4 else MNIST_SIZES)
    sizes["nz"] = nz
    return sizes
