"""Dense tensors with taped reverse-mode differentiation.

Everything image-shaped is channels-last: batches are (N, H, W, C) arrays,
float32 for training and float64 when checking gradients. Primitive ops
(see ops.py) run eagerly on numpy and, while a Tape is active, append a
node per executed op. A node holds no Tensor: only the output's gradient
slot, one gradient target per input and the backward closure, which keeps
only the arrays its gradient reads. An activation no closure reads is
therefore freed as soon as the forward drops its Tensor. backward() pops
and fires the nodes in exact reverse execution order, accumulating into
the targets across fan-out; each node and each intermediate's gradient is
freed once used, so only leaves (parameters and inputs) keep .grad.

The active tape and the MAC counter are context-local: ops see only the
tape and counter opened in their own thread (or context), and a new thread
starts with neither.
"""

from __future__ import annotations

import contextlib
import contextvars

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)


class NumericError(ArithmeticError):
    """A primitive produced (or was handed) a non-finite value."""


_TAPE = contextvars.ContextVar("mcads_tape", default=None)
# Multiply-accumulate tally for summary reports; None when not counting.
_MACS = contextvars.ContextVar("mcads_macs", default=None)


def guard_finite(op: str, arr: np.ndarray) -> None:
    """Abort at the op that produced a NaN/Inf instead of surfacing later.

    Two reductions and no temporary array: max propagates NaN and +inf, min
    propagates -inf, so both are finite exactly when every element is. The
    kernels that ops runs block by block call it on each finished block, in
    the thread that wrote it; the op raises the error in its caller.
    """
    if not (arr.size == 0 or (np.isfinite(arr.max()) and np.isfinite(arr.min()))):
        raise NumericError(f"non-finite value produced by op '{op}'")


@contextlib.contextmanager
def count_macs():
    """Context manager yielding a dict whose 'macs' entry accumulates
    multiply-accumulate counts from conv/dense/matmul ops executed inside."""
    counter = {"macs": 0}
    token = _MACS.set(counter)
    try:
        yield counter
    finally:
        _MACS.reset(token)


def add_macs(n: int) -> None:
    counter = _MACS.get()
    if counter is not None:
        counter["macs"] += int(n)


def as_float_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype in FLOAT_DTYPES:
        return arr
    return arr.astype(np.float32)


class _Slot:
    """Where backward accumulates the gradient of one op's output."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad = None

    def take(self):
        """The gradient, leaving the slot empty. Passed straight to a
        closure, it is the closure's alone (CPython 3.11 and later move a
        call's arguments into the callee's frame), so a closure that rebinds
        its argument frees the array there and then."""
        g, self.grad = self.grad, None
        return g


class Tensor:
    """A numpy array plus its gradient, the tape that recorded it and, when
    an op on that tape produced it, the gradient slot the tape fills."""

    __slots__ = ("data", "grad", "requires_grad", "tape", "slot")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = as_float_array(data, dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self.tape = None
        self.slot = None

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


class Tape:
    """Ordered record of executed primitives as (output slot, gradient
    targets, backward); see record().

    Use as a context manager; ops executed inside record themselves when any
    input requires a gradient. A tape is single-use: backward() consumes it.
    """

    def __init__(self):
        self._nodes = []
        self._tokens = []

    def __len__(self):
        return len(self._nodes)

    def __enter__(self):
        self._tokens.append(_TAPE.set(self))
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE.reset(self._tokens.pop())
        return False


def recording(inputs) -> bool:
    """Whether a tape is active and some input is tracked (record's test)."""
    return _TAPE.get() is not None and any(t.requires_grad for t in inputs)


def record(op: str, out: Tensor, inputs, backward) -> Tensor:
    """Register one executed primitive `op` on the active tape.

    `backward` maps the output gradient to a tuple of per-input gradients
    (None for inputs that get nothing). No-op unless recording(inputs).
    The node keeps no Tensor: `out` gets a fresh slot, and each input is
    targeted through its slot if this tape produced it, as itself if it is
    a tracked leaf, and not at all otherwise.
    """
    if not recording(inputs):
        return out
    tape = _TAPE.get()
    out.requires_grad = True
    out.tape = tape
    out.slot = _Slot()
    targets = tuple(t.slot if t.tape is tape else
                    t if t.requires_grad and t.tape is None else None
                    for t in inputs)
    tape._nodes.append((out.slot, targets, backward))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Reverse sweep: populate .grad for every tensor the loss reaches.

    The loss must be a scalar recorded on `tape`. Gradients accumulate across
    fan-out; each node is popped as it fires, with its slot's gradient, so
    the tape ends empty and only leaves (tensors no op produced) keep .grad.
    """
    if loss.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.tape is not tape:
        raise ValueError("loss is not attached to this tape (detached graph)")
    loss.slot.grad = np.ones((), dtype=loss.dtype)
    nodes = tape._nodes
    while nodes:
        # rebinding these names releases the previous node's closure and
        # captures before this one fires
        slot, targets, node_backward = nodes.pop()
        if slot.grad is not None:
            _accumulate(targets, node_backward(slot.take()))


def _accumulate(targets, grads) -> None:
    """Add each of one node's gradients into its target; the loop's names
    die with this call, so none keeps a gradient alive into the next node."""
    for target, g in zip(targets, grads):
        if g is None or target is None:
            continue
        if target.grad is None:
            target.grad = g
        else:
            target.grad = target.grad + g
