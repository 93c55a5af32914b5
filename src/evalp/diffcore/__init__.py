"""Tensors, reverse-mode autodiff, and the Adam optimizer."""

from .adam import Adam, AdamState, adam_step
from .gradcheck import gradcheck
from .tensor import (
    Tape,
    Tensor,
    active_tape,
    backward,
    clear_tape,
    concat,
    forward_op,
    needs_grad,
    no_grad,
    op_kinds,
    record,
)

__all__ = [
    "Adam",
    "AdamState",
    "adam_step",
    "gradcheck",
    "Tape",
    "Tensor",
    "active_tape",
    "backward",
    "clear_tape",
    "concat",
    "forward_op",
    "needs_grad",
    "no_grad",
    "op_kinds",
    "record",
]
