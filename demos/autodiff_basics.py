"""Tensors, the tape, and one bare optimization loop.

Run from the repository root:  python3 demos/autodiff_basics.py
"""

import numpy as np

from mcads import ops
from mcads.params import Parameter, adam_step
from mcads.tensor import Tape, Tensor, backward

# A Tensor is a numpy array plus a .grad field. Nothing is tracked until
# a Tape is active, so plain evaluation has no bookkeeping cost.
x = Tensor(np.array([[0.5, -1.0], [2.0, 0.25]]), requires_grad=True)
y = ops.sigmoid(x)
print("sigmoid:", np.round(y.data, 4))
print("tape that recorded y:", y.tape)

# With a tape, every primitive appends a node: its output's gradient slot,
# its inputs' gradient targets and a backward closure. backward() replays
# them in reverse and fills the leaves' .grad.
with Tape() as tape:
    z = ops.reduce_sum(ops.mul(ops.sigmoid(x), ops.sigmoid(x)))
print("nodes on tape:", len(tape))
backward(tape, z)
print("dz/dx:", np.round(x.grad, 4))

# Cross-check one coordinate against a central difference. The analytic
# value should agree to ~1e-9 at this epsilon in float64.
eps = 1e-6


def f(v):
    t = Tensor(v)
    return float(ops.reduce_sum(ops.mul(ops.sigmoid(t), ops.sigmoid(t))).data)


probe = x.data.copy()
probe[0, 0] += eps
up = f(probe)
probe[0, 0] -= 2 * eps
down = f(probe)
numeric = (up - down) / (2 * eps)
print(f"analytic {x.grad[0, 0]:.9f} vs numeric {numeric:.9f}")

# Gradients accumulate across backward calls (that is what fan-out needs),
# so a training loop clears them before each step. Here: minimize
# sum((w - 3)^2) with Adam. Parameter is a Tensor with Adam state attached.
w = Parameter("w", np.zeros(4))
target = Tensor(np.full(4, 3.0))
for step in range(1, 201):
    w.grad = None
    with Tape() as tape:
        diff = ops.add(w, ops.scale(target, -1.0))
        loss = ops.reduce_sum(ops.mul(diff, diff))
    backward(tape, loss)
    adam_step([w], lr=0.1)
    if step % 50 == 0:
        print(f"step {step:3d}  loss {loss.item():.6f}")
print("w after training:", np.round(w.data, 4))
