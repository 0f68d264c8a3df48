"""Property-based gradient checks on randomly composed expressions.

The analytic gradients come from the float32 autograd graph; the
reference is a central difference on a float64 numpy mirror of the same
composed ops.  A float32 difference quotient cannot serve as the
reference: at ``eps=1e-3`` it misses the gradient of x**16 (four
squares) by more than the bound, while the float64 one is exact to
~1e-8.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor

UNARY = {
    "tanh": lambda t: t.tanh(),
    "sigmoid": lambda t: t.sigmoid(),
    "gelu": lambda t: t.gelu(),
    "square": lambda t: t * t,
    "scale": lambda t: t * 1.7,
    "shift": lambda t: t + 0.3,
    "softmax": lambda t: t.softmax(-1),
}

BINARY = {
    "add": lambda a, b: a + b,
    "mul": lambda a, b: a * b,
    "sub": lambda a, b: a - b,
}

_GELU_C = float(np.float32(np.sqrt(2.0 / np.pi)))


def _softmax64(x):
    exp = np.exp(x - x.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True)


# Float64 mirrors of UNARY (BINARY's lambdas work on arrays unchanged).
UNARY64 = {
    "tanh": np.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "gelu": lambda x: 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x**3))),
    "square": lambda x: x * x,
    "scale": lambda x: x * 1.7,
    "shift": lambda x: x + 0.3,
    "softmax": _softmax64,
}


@st.composite
def programs(draw):
    ops = draw(
        st.lists(st.sampled_from(sorted(UNARY)), min_size=1, max_size=4)
    )
    combiner = draw(st.sampled_from(sorted(BINARY)))
    seed = draw(st.integers(0, 10_000))
    return ops, combiner, seed


@given(programs())
@example((["square"] * 4, "add", 158))  # x**16: float32 differences miss by 0.099
@settings(max_examples=60, deadline=None)
def test_composed_gradients_match_finite_differences(program):
    ops, combiner, seed = program
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((2, 3)).astype(np.float32) * 0.5,
               requires_grad=True)
    b = Tensor(rng.standard_normal((2, 3)).astype(np.float32) * 0.5,
               requires_grad=True)

    x = a
    for name in ops:
        x = UNARY[name](x)
    BINARY[combiner](x, b).sum().backward()

    def run64(a64, b64):
        x = a64
        for name in ops:
            x = UNARY64[name](x)
        return float(BINARY[combiner](x, b64).sum())

    eps = 1e-6
    inputs = [a.data.astype(np.float64), b.data.astype(np.float64)]
    for tensor, point in zip((a, b), inputs):
        flat = point.reshape(-1)
        grad_flat = tensor.grad.reshape(-1)
        for index in range(0, flat.size, 2):  # subsample for speed
            original = flat[index]
            flat[index] = original + eps
            up = run64(*inputs)
            flat[index] = original - eps
            down = run64(*inputs)
            flat[index] = original
            numeric = (up - down) / (2 * eps)
            assert abs(numeric - grad_flat[index]) < 5e-2
