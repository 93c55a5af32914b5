"""Dense float64 tensors with reverse-mode automatic differentiation.

Operations on tensors that require gradients are recorded, in execution
order, on a module-global tape: a plain list (a Wengert list) of
``(out, parents, pull)`` nodes, where ``pull(grad_out)`` returns one
gradient array per parent (None for a parent without grad); ``active_tape``
returns it. Appended during the forward pass, the tape is already
topologically sorted; ``backward`` replays it once in reverse,
accumulating gradients additively into every reachable tensor, then frees
it. One tape per optimization step keeps memory bounded; wrap pure
evaluation in ``no_grad()`` so it records nothing.

``record`` is the one way to add a node. Modules (an MLP, a flow pass,
the energy's input gradient) compute on arrays, and a whole training step
(the stage-1 ELBO, a stage-2 critic or sampler step, the NCE baseline's
step) ``record``s one node over the parameters whose pull is the
closed-form reverse pass. Such a node caches the intermediates its pull
needs only when it is recorded; a pass outside the tape (under
``no_grad``, or with no input that requires grad) caches no derivatives.
``Tensor`` has no arithmetic of its own. ``checked_exp`` and
``stable_sigmoid`` are the array helpers those passes share.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, ShapeMismatchError

__all__ = [
    "Tensor",
    "backward",
    "no_grad",
    "needs_grad",
    "record",
    "checked_exp",
    "stable_sigmoid",
]


_TAPE = []
_GRAD_ENABLED = True


class no_grad:
    """Context manager that suspends tape recording."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def active_tape() -> list:
    return _TAPE


def clear_tape():
    _TAPE.clear()


class Tensor:
    """Dense n-dimensional float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise DomainError("tensor data must be finite")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError(f"item() needs a single element, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def accumulate_grad(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def needs_grad(parents) -> bool:
    """Whether an op over ``parents`` is recorded: grad mode is on and at
    least one parent requires grad."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def record(data, parents, pull) -> Tensor:
    """Wrap ``data`` (a finite float64 array) as the output of one custom
    node over the tensors ``parents``, recorded when ``needs_grad(parents)``.

    ``pull(g)`` returns one gradient array per parent, or None for a
    parent that needs none.
    """
    # Trusts data to be finite float64, so skips the constructor's check.
    out = Tensor.__new__(Tensor)
    out.data, out.grad = data, None
    parents = tuple(parents)
    out.requires_grad = needs_grad(parents)
    if out.requires_grad:
        _TAPE.append((out, parents, pull))
    return out


def checked_exp(x):
    """np.exp that raises DomainError instead of overflowing to inf."""
    val = np.exp(x)
    if not np.all(np.isfinite(val)):
        raise DomainError("exp overflow: input too large")
    return val


def stable_sigmoid(x):
    """Logistic sigmoid of an array; exp only ever sees -|x|, so it cannot overflow."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def backward(root: Tensor):
    """Populate ``.grad`` of every tensor reachable from ``root``.

    ``root`` must be a scalar (one element). Gradients accumulate
    additively across multiple uses of a tensor. The tape is freed
    afterwards.
    """
    if root.data.size != 1:
        raise ShapeMismatchError(f"backward() root must be a scalar, got shape {root.data.shape}")
    root.grad = np.ones_like(root.data)
    for out, parents, pull in reversed(_TAPE):
        if out.grad is None:
            continue
        for parent, g in zip(parents, pull(out.grad)):
            if g is not None and parent.requires_grad:
                parent.accumulate_grad(g)
    _TAPE.clear()
