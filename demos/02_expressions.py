"""Lazy expressions: algebraic statements that become single kernel calls.

Run with:  python3 demos/02_expressions.py
"""

import numpy as np

from lazyblas import (
    Tensor,
    assign,
    evaluate,
    format_tensor,
    kernels,
    normalize,
    transpose,
)

rng = np.random.default_rng(0)


def rand(*extents):
    t = Tensor(len(extents), *extents)
    t.column_view()[...] = rng.random(extents)
    return t


alpha, beta = 0.5, 4.0
a = rand(4, 4)
b = rand(4, 4)
c = rand(4, 4)
x = rand(4)
y = rand(4)

# Arithmetic on tensors builds a tree; nothing is computed yet.
kernels.reset_log()
e = alpha * transpose(a) * beta * b
print("expression built, kernel calls so far:", len(kernels.log().records))

# Normalization folds every scalar into one coefficient per leaf and
# collapses transposes onto the leaves.
print("normalized form:", normalize(e))
print()

# A compound assignment runs the whole statement as ONE kernel call:
# the scalars fold to alpha*beta, the transpose becomes a flag.
c += alpha * transpose(a) * beta * b
rec = kernels.log().records[-1]
print("C += alpha*transpose(A)*beta*B  ->", rec.kernel,
      "alpha =", rec.alpha, "trans =", rec.trans)
print()

# Inner product: a scalar comes back directly.
kernels.reset_log()
s = evaluate(transpose(x) * y)
print("transpose(x)*y =", s, "via", kernels.log().records[-1].kernel)

# Outer product.
kernels.reset_log()
assign(a, 1.5 * x * transpose(y))
print("A = 1.5*x*transpose(y) via", kernels.log().records[-1].kernel)

# Matrix-vector accumulate.
kernels.reset_log()
x += c * y
print("x += C*y via", kernels.log().records[-1].kernel)
print()

# The scaled-destination form reaches one kernel too: the trailing
# beta*y term becomes the kernel's own beta parameter.
kernels.reset_log()
assign(y, alpha * a * x + beta * y)
rec = kernels.log().records[-1]
print("y = alpha*A*x + beta*y  ->", rec.kernel, "beta =", rec.beta)
print()

# Statements that fit no single kernel become a short kernel sequence:
# a matrix sum works on the flat buffers, and a chain goes through one
# temporary.
kernels.reset_log()
summed = evaluate(a + b)
print("A + B via", [r.kernel for r in kernels.log().records])
print(format_tensor(summed))
kernels.reset_log()
chain = evaluate(a * b * a)
print("A*B*A via", [r.kernel for r in kernels.log().records],
      "temporaries:", kernels.log().allocations - 1)
