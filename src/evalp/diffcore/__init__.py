"""Tensors, reverse-mode autodiff, and the Adam optimizer.

``record`` adds one custom node to the tape and ``needs_grad`` says
whether it will be; ``active_tape`` and ``clear_tape`` expose the tape for
counting and resetting it.
"""

from .adam import Adam
from .tensor import (
    Tensor,
    active_tape,
    backward,
    clear_tape,
    needs_grad,
    no_grad,
    record,
)

__all__ = [
    "Adam",
    "Tensor",
    "active_tape",
    "backward",
    "clear_tape",
    "needs_grad",
    "no_grad",
    "record",
]
