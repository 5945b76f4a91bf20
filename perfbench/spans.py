"""Span tracer for the benchmark's traced runs.

The tracer wraps mcads from outside, by swapping module attributes for
timing wrappers while it is installed:

- every public primitive in ``mcads.ops`` (the blocks call them through the
  module, so the swap sees every call), with convolutions split into
  depthwise, 1x1 and kxk by their weight shape;
- ``ops.record``, so each backward closure an op puts on the tape is timed
  as ``ops.<op>.bwd`` when ``tensor.backward`` fires it;
- ``ops.add_macs``, so MACs land on the op that counted them;
- the public functions of ``data``, ``tensor``, ``params``, ``infer``,
  ``netpbm`` and ``metrics`` that the workloads reach;
- one model's encoder, decoder, their stages and the heads, through proxy
  objects, so module paths such as ``encoder.s3`` get spans.

Spans live in memory (parallel lists, one entry per span) and are written
out once, at the end of the run. A layer's self time is its span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

from mcads import data, infer, metrics, netpbm, network, ops, params, tensor
from mcads.tensor import Tensor

# Ops that count MACs; every other op is a memory-bound pass, for which the
# bytes it reads and writes are computed from tensor sizes instead.
MAC_OPS = ("conv2d", "conv2d_transpose", "dense", "matmul")

# (module, attribute, span name, counter hook) for the program's public
# functions that the workloads reach outside the model.
FUNCTIONS = (
    (data, "synth_dataset", "data.synth", None),
    (data, "extract_patches", "data.extract_patches", None),
    (data, "augment", "data.augment", None),
    (data, "plan_patches", "data.plan_patches",
     lambda t, out: t.count("infer.tiles", len(out.offsets))),
    (data, "reflect_pad", "data.reflect_pad", None),
    (data, "reassemble", "data.reassemble", None),
    (network, "SegmentationModel", "network.build", None),
    (tensor, "backward", "tensor.backward", None),
    (params, "adam_step", "params.adam", None),
    (params, "save_checkpoint", "params.save", None),
    (params, "load_checkpoint", "params.load", None),
    (infer, "predict_mask", "infer.predict_mask", None),
    (netpbm, "read_image", "netpbm.read", None),
    (netpbm, "read_mask", "netpbm.read", None),
    (netpbm, "write_mask", "netpbm.write", None),
    (metrics, "threshold", "metrics.threshold", None),
    (metrics, "report", "metrics.report",
     lambda t, out: t.count("metrics.skipped_surface", out["skipped_surface"])),
    (metrics, "pixel_metrics", "metrics.pixel", None),
    (metrics, "surface_metrics", "metrics.surface", None),
    (metrics, "boundary_pixels", "metrics.boundary",
     lambda t, out: t.count("metrics.boundary_px", len(out))),
)


def primitives():
    """Names of the differentiable primitives ``mcads.ops`` exports."""
    return sorted(name for name, fn in vars(ops).items()
                  if callable(fn) and not name.startswith("_")
                  and getattr(fn, "__module__", None) == ops.__name__)


def conv_label(x, w, groups: int) -> str:
    kh, kw, cg, _ = w.shape
    if groups == 1:
        return "conv2d_1x1" if kh == kw == 1 else "conv2d_kxk"
    if cg == 1 and groups == x.shape[3]:
        return "conv2d_dw"
    return "conv2d_grouped"


def _tensor_bytes(args) -> int:
    total = 0
    for a in args:
        if isinstance(a, Tensor):
            total += a.data.nbytes
        elif isinstance(a, (list, tuple)):
            total += _tensor_bytes(a)
    return total


class _Proxy:
    """Stands in for a model block: same call, wrapped in a span."""

    def __init__(self, tracer, name, target):
        self._tracer = tracer
        self._name = name
        self._target = target

    def __call__(self, *args, **kwargs):
        idx = self._tracer.enter(self._name)
        try:
            return self._target(*args, **kwargs)
        finally:
            self._tracer.exit(idx)


class Tracer:
    """Spans (name, start, end, parent, run id) and counters of one run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[str] = []
        self.stack: list[int] = []
        self.run_id = ""
        self.counters: dict[str, float] = defaultdict(float)
        self._undo: list = []

    # -- spans --------------------------------------------------------------

    def enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.runs.append(self.run_id)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, run_id: str):
        """A top-level span; spans opened inside it share `run_id`."""
        self.run_id = run_id
        idx = self.enter(name)
        try:
            yield
        finally:
            self.exit(idx)

    def count(self, key: str, n) -> None:
        self.counters[key] += n

    def current(self) -> str:
        return self.names[self.stack[-1]] if self.stack else ""

    # -- installation -------------------------------------------------------

    def _swap(self, owner, attr, value) -> None:
        own = attr in vars(owner)  # False for methods looked up on the class
        self._undo.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, value)

    def _wrap(self, fn, name, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if hook is not None:
                hook(tracer, out)
            return out

        return traced

    def _wrap_op(self, op_name, fn):
        tracer = self
        mac_op = op_name in MAC_OPS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if op_name == "conv2d":
                label = conv_label(args[0], args[1], kwargs.get("groups", 1))
            else:
                label = op_name
            idx = tracer.enter(f"ops.{label}.fwd")
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if not mac_op:
                moved = _tensor_bytes(args) + _tensor_bytes(kwargs.values())
                tracer.count(f"ops.{label}.bytes", moved + out.data.nbytes)
            return out

        return traced

    def _record(self, original):
        tracer = self

        def traced_record(op, out, inputs, backward):
            fwd = tracer.current()
            label = fwd[len("ops."):-len(".fwd")] if fwd.startswith("ops.") else op
            name = f"ops.{label}.bwd"

            def timed_backward(g):
                idx = tracer.enter(name)
                try:
                    return backward(g)
                finally:
                    tracer.exit(idx)

            result = original(op, out, inputs, timed_backward)
            if out.requires_grad:  # the tape kept this node
                tracer.count("tensor.tape_nodes", 1)
                tracer.count("tensor.tape_bytes", out.data.nbytes)
            return result

        return traced_record

    def _add_macs(self, original):
        tracer = self

        def traced_add_macs(n):
            fwd = tracer.current()
            tracer.count(fwd[:-len(".fwd")] + ".macs", int(n))
            original(n)

        return traced_add_macs

    def install(self, model=None, forward_name="network.forward") -> None:
        """Swap in the wrappers; with a model, also its forward, loss and
        blocks. `forward_name` labels the model's forward span."""
        for name in primitives():
            self._swap(ops, name, self._wrap_op(name, getattr(ops, name)))
        self._swap(ops, "record", self._record(ops.record))
        self._swap(ops, "add_macs", self._add_macs(ops.add_macs))
        for module, attr, name, hook in FUNCTIONS:
            self._swap(module, attr, self._wrap(getattr(module, attr), name, hook))
        self._swap(params.ParameterStore, "load_state",
                   self._wrap(params.ParameterStore.load_state, "params.load_state"))
        if model is None:
            return
        self._swap(model, "forward", self._wrap(model.forward, forward_name))
        self._swap(model, "loss", self._wrap(model.loss, "network.loss"))
        encoder, decoder = model.encoder, model.decoder
        stage_names = ("s1", "s2", "s3", "s4", "s5", "bridge")
        self._swap(encoder, "stages",
                   [_Proxy(self, f"encoder.{n}.fwd", s)
                    for n, s in zip(stage_names, encoder.stages)])
        self._swap(decoder, "stages",
                   [_Proxy(self, f"decoder.d{5 - i}.fwd", s)
                    for i, s in enumerate(decoder.stages)])
        self._swap(decoder, "heads",
                   {k: _Proxy(self, "decoder.heads.fwd", h)
                    for k, h in decoder.heads.items()})
        self._swap(model, "encoder", _Proxy(self, "encoder.fwd", encoder))
        self._swap(model, "decoder", _Proxy(self, "decoder.fwd", decoder))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value, own = self._undo.pop()
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    # -- reduction ----------------------------------------------------------

    def layer_times(self):
        """{(root span name, span name): [inclusive s, self s, count]}."""
        n = len(self.names)
        child = [0.0] * n
        root = list(range(n))
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
                root[i] = root[p]
        out: dict = defaultdict(lambda: [0.0, 0.0, 0])
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            acc = out[(self.names[root[i]], self.names[i])]
            acc[0] += dur
            acc[1] += dur - child[i]
            acc[2] += 1
        return out

    def write(self, path) -> None:
        """All spans as JSON lines, parents by index."""
        with open(path, "w") as f:
            for i, name in enumerate(self.names):
                f.write(json.dumps({"i": i, "name": name, "start": self.starts[i],
                                    "end": self.ends[i], "parent": self.parents[i],
                                    "run": self.runs[i]}) + "\n")
