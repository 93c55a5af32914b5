"""Adam optimizer with bias correction, updating parameters in place.

The parameters, both moments and the gradient each live in one
concatenated vector, and each ``p.data`` is a view into the parameter
vector. A step updates these vectors in place through two preallocated
scratch vectors, in the evaluation order of ``m = b1*m + (1-b1)*g``,
``v = b2*v + (1-b2)*g*g`` and ``p = p - lr*m_hat / (sqrt(v_hat) + eps)``,
so it equals that per-parameter update bitwise.
"""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteError, ShapeMismatchError
from .tensor import Tensor


class Adam:
    """Adam over a list of parameter tensors; ``t`` counts the steps taken.

    A parameter without a gradient takes a zero-gradient step. A parameter
    whose ``data`` was re-bound elsewhere since the last step is read back
    into the parameter vector first. ``flat`` is the parameter vector;
    while no ``p.data`` is re-bound, an in-place write to it sets the
    parameters.
    """

    def __init__(self, params: list[Tensor], lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        bounds = np.cumsum([0] + [p.data.size for p in self.params])
        self._slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self.flat, self._m, self._v, self._grad, self._s1, self._s2 = (
            np.zeros(bounds[-1]) for _ in range(6)
        )
        self._views = [self._bind(i) for i in range(len(self.params))]

    def _bind(self, i):
        """Copy parameter i into the parameter vector; return its view there."""
        p, sl = self.params[i], self._slices[i]
        self.flat[sl] = p.data.reshape(-1)
        p.data = self.flat[sl].reshape(p.data.shape)
        return p.data

    def step(self):
        g = self._grad
        for i, (p, sl) in enumerate(zip(self.params, self._slices)):
            if p.data is not self._views[i]:
                self._views[i] = self._bind(i)
            if p.grad is None:
                g[sl] = 0.0
            elif p.grad.shape != p.data.shape:
                raise ShapeMismatchError(f"param {i}: shape {p.data.shape} vs grad {p.grad.shape}")
            else:
                g[sl] = p.grad.reshape(-1)
        if not np.isfinite(g).all():
            bad = next(i for i, sl in enumerate(self._slices) if not np.isfinite(g[sl]).all())
            raise NonFiniteError(f"non-finite gradient for param {bad}")
        self.t += 1
        b1, b2, m, v, s1, s2 = self.beta1, self.beta2, self._m, self._v, self._s1, self._s2
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=s1)
        v *= b2
        np.multiply(g, 1.0 - b2, out=s1)
        s1 *= g
        v += s1
        np.divide(m, 1.0 - b1**self.t, out=s1)
        s1 *= self.lr
        np.divide(v, 1.0 - b2**self.t, out=s2)
        np.sqrt(s2, out=s2)
        s2 += self.eps
        s1 /= s2
        self.flat -= s1

    def zero_grad(self):
        for p in self.params:
            p.grad = None
