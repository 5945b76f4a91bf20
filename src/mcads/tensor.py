"""Dense tensors with taped reverse-mode differentiation.

Everything image-shaped is channels-last: batches are (N, H, W, C) arrays,
float32 for training and float64 when checking gradients. Primitive ops
(see ops.py) run eagerly on numpy and, while a Tape is active, append a
backward closure per executed op. backward() replays those closures in
exact reverse execution order, accumulating into .grad across fan-out, and
clears the tape when done.
"""

from __future__ import annotations

import contextlib

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)


class NumericError(ArithmeticError):
    """A primitive produced (or was handed) a non-finite value."""


# Finiteness guard: every primitive output is checked while this is on, so a
# NaN/Inf aborts at the op that produced it instead of surfacing later.
_GUARD = True

# Multiply-accumulate tally for summary reports; None when not counting.
_MACS = None


def set_finite_guard(enabled: bool) -> bool:
    """Toggle per-op finiteness checking. Returns the previous setting."""
    global _GUARD
    previous = _GUARD
    _GUARD = bool(enabled)
    return previous


def guard_finite(op: str, arr: np.ndarray) -> None:
    if _GUARD and not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite value produced by op '{op}'")


@contextlib.contextmanager
def count_macs():
    """Context manager yielding a dict whose 'macs' entry accumulates
    multiply-accumulate counts from conv/dense/matmul ops executed inside."""
    global _MACS
    previous = _MACS
    _MACS = {"macs": 0}
    try:
        yield _MACS
    finally:
        _MACS = previous


def add_macs(n: int) -> None:
    if _MACS is not None:
        _MACS["macs"] += int(n)


def as_float_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype in FLOAT_DTYPES:
        return arr
    return arr.astype(np.float32)


class Tensor:
    """A numpy array plus a gradient slot and bookkeeping for the tape."""

    __slots__ = ("data", "grad", "requires_grad", "node_id", "tape_id")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = as_float_array(data, dtype)
        self.grad = None
        self.requires_grad = requires_grad
        # Handle into the recording that produced this tensor, if any.
        self.node_id = None
        self.tape_id = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        flags = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}{flags})"


class _Node:
    __slots__ = ("op", "out", "inputs", "backward")

    def __init__(self, op, out, inputs, backward):
        self.op = op
        self.out = out
        self.inputs = inputs
        self.backward = backward


class Tape:
    """Ordered record of executed primitives.

    Use as a context manager; ops executed inside record themselves when any
    input requires a gradient. A tape is single-use: backward() consumes it.
    """

    def __init__(self):
        self._nodes = []

    def __len__(self):
        return len(self._nodes)

    def clear(self):
        self._nodes.clear()

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self
        return False


_TAPES: list[Tape] = []


def active_tape() -> Tape | None:
    return _TAPES[-1] if _TAPES else None


def record(op: str, out: Tensor, inputs, backward) -> Tensor:
    """Register one executed primitive on the active tape.

    `backward` maps the output gradient to a tuple of per-input gradients
    (None for inputs that get nothing). No-op unless a tape is active and
    some input is tracked.
    """
    tape = active_tape()
    if tape is None:
        return out
    if not any(t.requires_grad for t in inputs):
        return out
    out.requires_grad = True
    out.tape_id = id(tape)
    out.node_id = len(tape._nodes)
    tape._nodes.append(_Node(op, out, tuple(inputs), backward))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Reverse sweep: populate .grad for every tensor the loss reaches.

    The loss must be a scalar recorded on `tape`. Gradients accumulate across
    fan-out; each node fires exactly once. The tape is cleared afterward.
    """
    if loss.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.tape_id != id(tape) or loss.node_id is None:
        raise ValueError("loss is not attached to this tape (detached graph)")
    loss.grad = np.ones((), dtype=loss.dtype)
    for node in reversed(tape._nodes):
        gout = node.out.grad
        if gout is None:
            continue
        grads = node.backward(gout)
        for tensor, g in zip(node.inputs, grads):
            if g is None or not tensor.requires_grad:
                continue
            if tensor.grad is None:
                tensor.grad = g
            else:
                tensor.grad = tensor.grad + g
    tape.clear()
