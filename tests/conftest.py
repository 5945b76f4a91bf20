"""Shared fixtures."""

import pytest

from mcads import ops


@pytest.fixture()
def scale_grad_too_large(monkeypatch):
    """Swap in an ops.scale whose backward is 1.01x too large: a planted
    gradient bug the gradient checks must catch. Cases built after the swap
    call it."""
    def scale(x, s):
        k = x.dtype.type(s)
        return ops._emit("scale", x.data * k, (x,), lambda g: (g * k * 1.01,))

    monkeypatch.setattr(ops, "scale", scale)
