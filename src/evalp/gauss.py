"""Diagonal Gaussian utilities: the standard-normal log density, KL to
N(0, I), reparameterization.

All operations run through the autodiff tensors, so they are usable both
inside training losses and (wrapped in ``no_grad``) as plain evaluators.
Vectors may be single (d,) rows or (B, d) batches; per-row results come
back as scalars or (B,) respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffcore import Tensor
from .errors import ShapeMismatchError

LOG_2PI = math.log(2.0 * math.pi)

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0


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
        self.logvar = self.logvar.clip(LOGVAR_MIN, LOGVAR_MAX)

    @property
    def dim(self) -> int:
        return self.mu.shape[-1]


def standard_normal_logpdf(z) -> Tensor:
    """log N(z; 0, I), per row."""
    if not isinstance(z, Tensor):
        z = Tensor(z)
    d = z.shape[-1]
    return (z.square().sum(axis=-1) + d * LOG_2PI) * -0.5


def kl_to_standard(g: DiagGaussian) -> Tensor:
    """KL(N(mu, diag exp(logvar)) || N(0, I)), per row; always >= 0.

    The closed form can round to a tiny negative within an ulp of the
    optimum, so the result is clamped at zero.
    """
    var = g.logvar.exp()
    raw = (var + g.mu.square() - 1.0 - g.logvar).sum(axis=-1) * 0.5
    return raw.clip(0.0, np.inf)


def reparameterize(g: DiagGaussian, eps: Tensor) -> Tensor:
    """z = mu + exp(logvar / 2) * eps, differentiable in mu and logvar."""
    if eps.shape[-1] != g.dim:
        raise ShapeMismatchError(f"reparameterize: eps width {eps.shape[-1]} vs dim {g.dim}")
    return g.mu + (g.logvar * 0.5).exp() * eps
