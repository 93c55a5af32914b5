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

The elementwise and reduction ops below record one node each, through
the ``Tensor`` operators and methods; the NCE loss is built from them.
Modules (an MLP, a flow pass, the energy's input gradient) compute on
arrays, and a whole training step (the stage-1 ELBO, a stage-2 critic or
sampler step) ``record``s one node whose pull is the closed-form reverse
pass; any other op is built on ``record`` the same way. Such a node caches
the intermediates its pull needs only when it is recorded; a pass outside
the tape (under ``no_grad``, or with no input that requires grad) caches no
derivatives. ``checked_exp`` and ``stable_sigmoid`` are the array helpers
those passes share.
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

    @classmethod
    def _wrap(cls, arr, requires_grad=False):
        # Internal fast path: trusts arr to be a finite float64 ndarray.
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = requires_grad
        t.grad = None
        return t

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

    # Arithmetic sugar; scalars and arrays are wrapped as constants.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def softplus(self):
        return softplus(self)

    def square(self):
        return square(self)

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self, axis=None):
        return tmean(self, axis=axis)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def needs_grad(parents) -> bool:
    """Whether an op over ``parents`` is recorded: grad mode is on and at
    least one parent requires grad."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _record(out: Tensor, parents, pull):
    if needs_grad(parents):
        out.requires_grad = True
        _TAPE.append((out, parents, pull))
    return out


def record(data, parents, pull) -> Tensor:
    """Wrap ``data`` (a finite float64 array) as the output of one custom
    node over the tensors ``parents``, recorded when ``needs_grad(parents)``.

    ``pull(g)`` returns one gradient array per parent, or None for a
    parent that needs none.
    """
    return _record(Tensor._wrap(data), tuple(parents), pull)


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


def _unbroadcast(grad, shape):
    """Sum-reduce a broadcast gradient back to the original shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


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


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


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
    out = Tensor._wrap(a.data + b.data)

    def pull(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record(out, (a, b), pull)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "sub")
    out = Tensor._wrap(a.data - b.data)

    def pull(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _record(out, (a, b), pull)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, "mul")
    out = Tensor._wrap(a.data * b.data)

    def pull(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _record(out, (a, b), pull)


def neg(a):
    a = _as_tensor(a)
    out = Tensor._wrap(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def softplus(a):
    a = _as_tensor(a)
    # log(1 + e^x) = max(x, 0) + log1p(e^{-|x|}), overflow-safe.
    val = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    out = Tensor._wrap(val)

    def pull(g):
        return (g * stable_sigmoid(a.data),)

    return _record(out, (a,), pull)


def square(a):
    a = _as_tensor(a)
    out = Tensor._wrap(a.data * a.data)
    return _record(out, (a,), lambda g: (g * 2.0 * a.data,))


def tsum(a, axis=None):
    a = _as_tensor(a)
    out = Tensor._wrap(a.data.sum(axis=axis))

    def pull(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape),)

    return _record(out, (a,), pull)


def tmean(a, axis=None):
    a = _as_tensor(a)
    out = Tensor._wrap(a.data.mean(axis=axis))
    count = a.data.size if axis is None else a.data.shape[axis]

    def pull(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.data.shape),)
        return (np.broadcast_to(np.expand_dims(g, axis) / count, a.data.shape),)

    return _record(out, (a,), pull)
