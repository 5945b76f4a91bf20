"""Named parameters, He-uniform init, Adam, and the .mct checkpoint format.

Every trainable array in a model lives in a ParameterStore under a dotted
name (e.g. "decoder.d4.rlab.rb1.conv3.w"). The store owns the RNG used at
init time, so identical seeds and construction order give bit-identical
models. BN running statistics are non-trainable entries in the same store,
which is how they reach checkpoints.

He draws wait until a parameter's data is first read: create() allocates
zeros (calloc-backed, so no page is touched) and queues the array; the first
read of any queued parameter's data (not its shape or size) draws the whole
queue in creation order, so the weights are those an eager draw would give.
A load_state that passes its checks drops the queue undrawn and takes
ownership of the arrays it is given (load_checkpoint's fresh ones, never
copied); state() returns copies.

Adam's moments are views into flat buffers per dtype, which adam_step walks
in runs of neighbouring parameters; data and gradients stay where they are.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
import threading

import numpy as np

from .tensor import Tensor, guard_finite


def he_uniform(shape, fan_in: int, rng: np.random.Generator,
               dtype=np.float32) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class _PendingInit:
    """He draws a store has queued but not yet run.

    Holds arrays only, never a Parameter or the store: a reference back
    would make a cycle, and every dropped model would then live until the
    cyclic garbage collector ran."""

    __slots__ = ("rng", "queue", "lock")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.queue: list[tuple[np.ndarray, int]] = []  # (array, fan_in)
        self.lock = threading.Lock()

    def draw(self) -> None:
        with self.lock:
            for arr, fan_in in self.queue:
                arr[...] = he_uniform(arr.shape, fan_in, self.rng, arr.dtype)
            self.queue.clear()


class Parameter(Tensor):
    """A named tensor with Adam state. Non-trainable parameters (BN running
    stats) are carried for checkpointing but never receive gradients."""

    __slots__ = ("name", "trainable", "m", "v", "flat", "step", "_array", "_init")

    def __init__(self, name: str, data, trainable: bool = True):
        super().__init__(data, requires_grad=trainable)
        self.name = name
        self.trainable = trainable
        self.m = None  # first/second Adam moments, allocated on first step
        self.v = None
        self.flat = None  # (flat m, flat v, offset) that m and v are views of
        self.step = 0
        self._init = None  # the store's _PendingInit until the first read

    @property
    def data(self) -> np.ndarray:
        """The array; the first read runs the store's queued He draws."""
        init = self._init
        if init is not None:
            init.draw()
            self._init = None
        return self._array

    @data.setter
    def data(self, value) -> None:
        self._array = value

    # shape and size read the array without running the queued He draws
    shape = property(lambda self: self._array.shape)
    size = property(lambda self: self._array.size)

    def __repr__(self):
        kind = "" if self.trainable else ", frozen"
        return f"Parameter({self.name!r}, shape={self.shape}{kind})"


class ParameterStore:
    """Ordered registry of model parameters, keyed by dotted name."""

    def __init__(self, seed: int, dtype=np.float32):
        self._params: dict[str, Parameter] = {}
        self.rng = np.random.default_rng(seed)
        self.dtype = np.dtype(dtype)
        self._pending = _PendingInit(self.rng)

    def create(self, name: str, shape, init, trainable: bool = True,
               fan_in: int | None = None) -> Parameter:
        """Register one parameter. `init` is "he" (needs fan_in), "zeros" or
        "ones". A He draw waits until the first read of any parameter's
        data, and a load_state that passes its checks drops it undrawn."""
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        if init not in ("he", "zeros", "ones"):
            raise ValueError(f"unknown init {init!r}")
        fill = np.ones if init == "ones" else np.zeros
        p = Parameter(name, fill(tuple(shape), dtype=self.dtype), trainable)
        if init == "he":
            self._pending.queue.append((p._array, fan_in))
            p._init = self._pending
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def names(self):
        return list(self._params)

    def parameters(self):
        return list(self._params.values())

    def trainable_parameters(self):
        return [p for p in self._params.values() if p.trainable]

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad = None

    def count(self, prefix: str = "", trainable_only: bool = True) -> int:
        total = 0
        for name, p in self._params.items():
            if not name.startswith(prefix):
                continue
            if trainable_only and not p.trainable:
                continue
            total += p.size
        return total

    def state(self) -> dict[str, np.ndarray]:
        """A copy of every parameter's array, keyed by name."""
        return {name: p.data.copy() for name, p in self._params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Take ownership of the arrays (np.require copies one of another
        dtype, misaligned, non-C or read-only) and drop queued He draws; a
        name/shape disagreement is listed first and changes nothing."""
        problems = []
        for name in state:
            if name not in self._params:
                problems.append(f"unexpected tensor {name!r}")
        for name, p in self._params.items():
            if name not in state:
                problems.append(f"missing tensor {name!r}")
            elif tuple(state[name].shape) != p.shape:
                problems.append(
                    f"shape mismatch for {name!r}: checkpoint "
                    f"{tuple(state[name].shape)} vs model {p.shape}")
        if problems:
            raise CheckpointMismatch("\n".join(problems))
        with self._pending.lock:  # a draw already running finishes first
            self._pending.queue.clear()
        for name, p in self._params.items():
            p.data = np.require(state[name], self.dtype, ("A", "C", "W"))


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_CHUNK = 1 << 18  # most elements in one adam_step run, but one larger parameter


def adam_step(params, lr: float) -> None:
    """One bias-corrected Adam update over trainable parameters with grads.

    A first step gives its parameters zeroed moments, views in list order
    into one flat m and one flat v buffer per dtype. Each step walks runs:
    neighbours in one buffer at one step, at most ADAM_CHUNK elements, or
    one larger parameter. The textbook formula runs once per run, operation
    for operation, so the results are bit-identical to it, over its moments
    and its gradients copied into one buffer (a gradient not of its
    parameter's dtype runs alone, as is). Scratch is that ADAM_CHUNK buffer
    and two of at most max(ADAM_CHUNK, the largest parameter) elements.

    Raises, before changing anything, if lr is not a finite real > 0 or a
    trainable parameter is missing its gradient: every parameter is
    supposed to be reached by the loss.
    """
    if not (isinstance(lr, numbers.Real) and 0 < lr < math.inf):
        raise ValueError(f"adam_step: lr must be a finite real > 0, got {lr!r}")
    live = [p for p in params if p.trainable]
    for p in live:
        if p.grad is None:
            raise ValueError(f"adam_step: missing gradient for {p.name!r}")
    for dtype in {p.dtype for p in live if p.m is None}:
        fresh = [p for p in live if p.m is None and p.dtype == dtype]
        m, v = (np.zeros(sum(p.size for p in fresh), dtype) for _ in "mv")
        o = 0
        for p in fresh:
            p.m, p.v = (a[o:o + p.size].reshape(p.shape) for a in (m, v))
            p.flat, o = (m, v, o), o + p.size
    runs = []  # [params, flat m, flat v, offset, elements]
    for p in live:
        m, v, o = p.flat
        r, q = (runs[-1], runs[-1][0][-1]) if runs else (None, None)
        if (r and r[1] is m and r[3] + r[4] == o and q.step == p.step
                and r[4] + p.size <= ADAM_CHUNK
                and q.grad.dtype == p.grad.dtype == m.dtype):
            r[0].append(p)
            r[4] += p.size
        else:
            runs.append([[p], m, v, o, p.size])
    width = max((r[4] for r in runs), default=0)
    scratch = {}
    for group, m, v, o, n in runs:
        if m.dtype not in scratch:
            scratch[m.dtype] = [np.empty(k, m.dtype)
                                for k in (min(width, ADAM_CHUNK), width, width)]
        g, a, b = scratch[m.dtype]
        a, b, m, v = a[:n], b[:n], m[o:o + n], v[o:o + n]
        grads = [p.grad.reshape(-1) for p in group]
        g = grads[0] if len(grads) == 1 else np.concatenate(grads, out=g[:n])
        step = group[0].step + 1
        for p in group:
            p.step = step
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        m *= ADAM_BETA1
        m += a                                        # m = b1*m + (1-b1)*g
        np.multiply(g, g, out=a)
        a *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += a                                        # v = b2*v + (1-b2)*g*g
        np.divide(v, 1.0 - ADAM_BETA2 ** step, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS                                 # sqrt(vhat) + eps
        np.divide(m, 1.0 - ADAM_BETA1 ** step, out=a)
        a *= lr
        a /= b                                        # lr * mhat / (...)
        guard_finite("adam_step", a)
        o = 0
        for p in group:
            p.data -= a[o:o + p.size].reshape(p.shape)
            o += p.size


# ---------------------------------------------------------------------------
# checkpoint container

MAGIC = b"MCT1"
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODES_BY_KIND = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class CheckpointMismatch(ValueError):
    """Checkpoint and model disagree on parameter names or shapes."""


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named tensors: magic 'MCT1', u32 count, then per tensor a u16
    name length + UTF-8 name, u8 rank, u32 extents, u8 dtype code (0=f32,
    1=f64) and the row-major little-endian payload.

    The bytes go to a synced temp file beside `path` that replaces it only
    once complete, so a failed save or a power loss leaves a whole file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", len(tensors)))
            for name, arr in tensors.items():
                arr = np.asarray(arr)
                code = _CODES_BY_KIND.get(arr.dtype.newbyteorder("="))
                if code is None:
                    raise ValueError(f"checkpoint: unsupported dtype {arr.dtype} for {name!r}")
                encoded = name.encode("utf-8")
                f.write(struct.pack("<H", len(encoded)))
                f.write(encoded)
                f.write(struct.pack("<B", arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                f.write(struct.pack("<B", code))
                f.write(np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]).tobytes())
            f.flush()
            os.fsync(f.fileno())  # on disk before the rename publishes it
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # only when the write or the rename failed
            os.remove(tmp)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a .mct file, each payload straight into a fresh array. Sizes
    come from the header, and each is checked against the file's length
    before anything that size is allocated."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        off = 0

        def reserve(n: int) -> None:
            nonlocal off
            if off + n > size:
                raise ValueError(f"checkpoint {path}: truncated ({size} bytes, "
                                 f"needs at least {off + n})")
            off += n

        def take(n: int) -> bytes:
            reserve(n)
            data = f.read(n)
            if len(data) != n:  # the file shrank since fstat
                raise ValueError(f"checkpoint {path}: truncated while reading")
            return data

        def unpack(fmt: str):
            return struct.unpack(fmt, take(struct.calcsize(fmt)))

        magic = take(4)
        if magic != MAGIC:
            raise ValueError(f"checkpoint {path}: bad magic {magic!r}")
        (count,) = unpack("<I")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = unpack("<H")
            try:
                name = take(name_len).decode("utf-8")
            except UnicodeDecodeError as e:
                raise ValueError(f"checkpoint {path}: tensor name is not "
                                 f"UTF-8 ({e})") from None
            (rank,) = unpack("<B")
            shape = unpack(f"<{rank}I")
            (code,) = unpack("<B")
            if code not in _DTYPE_CODES:
                raise ValueError(f"checkpoint {path}: unknown dtype code {code}")
            dtype = _DTYPE_CODES[code]
            n_bytes = math.prod(shape) * dtype.itemsize  # Python ints: no wrap
            reserve(n_bytes)
            try:
                arr = np.empty(shape, dtype=dtype)
            except ValueError as e:  # more dimensions than numpy allows
                raise ValueError(f"checkpoint {path}: tensor {name!r}: {e}") from None
            if f.readinto(arr.reshape(-1).view(np.uint8)) != n_bytes:
                raise ValueError(f"checkpoint {path}: truncated while reading")
            tensors[name] = arr
        if off != size:
            raise ValueError(f"checkpoint {path}: {size - off} trailing bytes")
    return tensors
