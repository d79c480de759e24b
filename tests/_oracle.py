"""Independent evaluator used as the test oracle.

Walks the (canonical) expression tree and computes results with
numpy's own dense operations -- a route entirely separate from the
library's normalization, pattern lowering, and backends.  A transposed
vector is carried as an explicit ``("cov", values)`` pair so that the
inner/outer product distinction never depends on array shape: a 1xn
matrix and a covector of length n are different things even though both
would print as one row.
"""

import numpy as np

from lazyblas.expr import Literal, Sum, Term
from lazyblas.tensor import Tensor


def oracle_eval(node):
    """Returns a float or a numpy array in natural index order."""
    v = _walk(node)
    if _is_cov(v):
        return v[1]
    return v


def _is_cov(v):
    return isinstance(v, tuple) and v[0] == "cov"


def _scale(s, v):
    if _is_cov(v):
        return ("cov", s * v[1])
    return s * v


def _walk(n):
    t = type(n)
    if t is Literal:
        return n.value
    if t is Term:
        base = np.array(n.tensor.column_view(), dtype=np.float64)
        if n.trans:
            return ("cov", n.coef * base) if base.ndim == 1 \
                else n.coef * base.T
        return n.coef * base
    left = _walk(n.left)
    right = _walk(n.right)
    if t is Sum:
        if _is_cov(left) or _is_cov(right):
            return ("cov", (left[1] if _is_cov(left) else left)
                    + (right[1] if _is_cov(right) else right))
        return left + right
    # product
    if np.isscalar(left):
        return _scale(left, right)
    if np.isscalar(right):
        return _scale(right, left)
    if _is_cov(left):  # covector . vector -> scalar
        return float(left[1] @ right)
    if _is_cov(right):  # vector x covector -> outer-product matrix
        return np.outer(left, right[1])
    return left @ right  # matrix @ vector or matrix @ matrix


def oracle_shape(value):
    if isinstance(value, float):
        return ()
    return value.shape


def result_as_numpy(result):
    if isinstance(result, Tensor):
        return result.to_numpy()
    return result
