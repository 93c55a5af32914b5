"""Tensors, reverse-mode autodiff, and the Adam optimizer."""

from .adam import Adam
from .gradcheck import gradcheck
from .tensor import (
    Tensor,
    active_tape,
    backward,
    clear_tape,
    forward_op,
    needs_grad,
    no_grad,
    op_kinds,
    record,
)

__all__ = [
    "Adam",
    "gradcheck",
    "Tensor",
    "active_tape",
    "backward",
    "clear_tape",
    "forward_op",
    "needs_grad",
    "no_grad",
    "op_kinds",
    "record",
]
