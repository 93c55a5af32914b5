"""Adam optimizer with bias correction.

``adam_step`` is the pure functional update on raw arrays; ``Adam`` wraps
it for lists of parameter tensors in a training loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NonFiniteError, ShapeMismatchError
from .tensor import Tensor


@dataclass
class AdamState:
    """Per-parameter moments plus the shared step counter."""

    m: list
    v: list
    t: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            t=0,
            lr=lr,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
        )


def adam_step(params, grads, state: AdamState):
    """One Adam update; returns (new_params, state) with state.t advanced.

    Deterministic given (params, grads, state). Rejects non-finite
    gradients and shape mismatches.
    """
    if len(params) != len(grads):
        raise ShapeMismatchError(f"{len(params)} params vs {len(grads)} grads")
    new_params = []
    state.t += 1
    b1, b2, t = state.beta1, state.beta2, state.t
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ShapeMismatchError(f"param {i}: shape {p.shape} vs grad shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"non-finite gradient for param {i}")
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        m_hat = state.m[i] / (1.0 - b1**t)
        v_hat = state.v[i] / (1.0 - b2**t)
        new_params.append(p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps))
    return new_params, state


class Adam:
    """Stateful wrapper updating parameter tensors in place.

    The parameters and both moments live in one concatenated vector each,
    so a step is one ``adam_step`` on the concatenated gradient. Each
    ``p.data`` is a view into the kept parameter vector, which a step
    overwrites with the update. A parameter whose ``data`` was re-bound
    elsewhere since the last step is read back first.
    """

    def __init__(self, params: list[Tensor], lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        bounds = np.cumsum([0] + [p.data.size for p in self.params])
        self._slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self._grad = np.zeros(bounds[-1])
        self._bind(self._gather())
        self.state = AdamState.init([self._flat], lr, beta1, beta2, eps)

    def _gather(self):
        return np.concatenate([p.data.reshape(-1) for p in self.params])

    def _bind(self, flat):
        self._flat = flat
        for p, sl in zip(self.params, self._slices):
            p.data = flat[sl].reshape(p.data.shape)
        self._views = [p.data for p in self.params]

    def step(self):
        if any(p.data is not v for p, v in zip(self.params, self._views)):
            self._bind(self._gather())
        for i, (p, sl) in enumerate(zip(self.params, self._slices)):
            if p.grad is None:
                self._grad[sl] = 0.0
            elif p.grad.shape != p.data.shape:
                raise ShapeMismatchError(
                    f"param {i}: shape {p.data.shape} vs grad shape {p.grad.shape}"
                )
            else:
                self._grad[sl] = p.grad.reshape(-1)
        try:
            (flat,), _ = adam_step([self._flat], [self._grad], self.state)
        except NonFiniteError:
            bad = next(
                i
                for i, p in enumerate(self.params)
                if p.grad is not None and not np.all(np.isfinite(p.grad))
            )
            raise NonFiniteError(f"non-finite gradient for param {bad}") from None
        # Copied rather than re-bound: a step's result left live among that
        # step's full-length temporaries kept the allocator from reusing
        # their memory, and raised peak RSS.
        self._flat[...] = flat

    def zero_grad(self):
        for p in self.params:
            p.grad = None
