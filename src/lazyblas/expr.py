"""Lazy algebraic expressions over tensors, lowered to BLAS kernel calls.

Arithmetic on :class:`~lazyblas.tensor.Tensor` objects builds a small
tree instead of computing anything.  The tree is canonical as it is
built: ``*`` folds every scalar factor into a per-leaf coefficient and
``transpose`` flips a flag on its leaf, bottom-up in the order Python
evaluates the operators, so there is no separate normalization pass.
When a result is demanded (:func:`evaluate`, :func:`assign`,
:func:`accumulate`, or ``+=``) the tree is matched against the
BLAS-level patterns, so a statement like

    C += alpha * transpose(A) * beta * B

reaches the backend as exactly one gemm call with ``transA`` set and
``alpha*beta`` folded, with no intermediate tensor.

A statement that fits no single kernel becomes a short sequence of
them.  Scaled sums of tensors of any rank become copy/axpy over the flat
column-major buffers.  A ``beta*dest`` addend beside one gemv/gemm
becomes its beta, in either position.  A product factor that is itself
a product or a sum is computed first into a temporary tensor (counted in
``log().allocations``), following the tree's own parenthesization:
``A*B*A`` is a gemm into a temporary, then a gemm.  Well-formed
statements with no kernel route, and those where the destination also
appears as an addend, fall back to a naive recursive evaluation; they
never raise.

Expression trees hold tensor references, never copies, and are only
valid for the duration of the statement that builds them.
"""

from __future__ import annotations

from numbers import Real

import numpy as np

from . import kernels
from .errors import AliasingError, ShapeError, UnsupportedOperationError
from .tensor import Tensor

__all__ = [
    "Literal",
    "Product",
    "ResultKind",
    "SCALAR",
    "Sum",
    "Term",
    "LoweredOp",
    "accumulate",
    "assign",
    "evaluate",
    "infer_kind",
    "leaf",
    "lit",
    "lower",
    "normalize",
    "structurally_equal",
    "transpose",
]


# ---------------------------------------------------------------------------
# result kinds


class _ScalarKind:
    __slots__ = ()

    def __repr__(self):
        return "scalar"


SCALAR = _ScalarKind()


class ResultKind:
    """Tensor-valued result category: extents plus a transposed-vector flag.

    ``covector`` marks a transposed vector, which multiplies differently
    (inner product on the left, outer product on the right) but carries
    the same data.
    """

    __slots__ = ("extents", "covector")

    def __init__(self, extents, covector=False):
        self.extents = tuple(extents)
        self.covector = covector

    @property
    def rank(self):
        return len(self.extents)

    def __eq__(self, other):
        return (
            isinstance(other, ResultKind)
            and self.extents == other.extents
            and self.covector == other.covector
        )

    def __hash__(self):
        return hash((self.extents, self.covector))

    def __repr__(self):
        tag = "covector" if self.covector else f"tensor(rank {self.rank})"
        return f"{tag}{self.extents}"


# ---------------------------------------------------------------------------
# expression nodes


class Node:
    """Base of the expression nodes.

    The operators keep a tree canonical as they build it: a scalar
    factor scales the tensor-valued side it multiplies (``Term``
    coefficients, every addend of a sum, the left factor of a product)
    and never stays a node beside it.
    """

    __slots__ = ()

    def __mul__(self, other):
        t = type(other)
        if t is Tensor:
            return Product(self, Term(1.0, other))
        if t is float:
            return self._scaled(other)
        return _product(self, _as_node(other))

    def __rmul__(self, other):
        if type(other) is float:
            return self._scaled(other)
        return _product(_as_node(other), self)

    def __add__(self, other):
        return Sum(self, _as_node(other))

    def __radd__(self, other):
        return Sum(_as_node(other), self)


class Literal(Node):
    """A scalar constant."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        # a scalar on the left scales the other side (Node.__mul__'s
        # fast path would keep this Literal as a factor)
        return _as_node(other)._scaled(self.value)

    def _scaled(self, g):
        return Literal(g * self.value)

    def __repr__(self):
        return f"Literal({self.value!r})"


class Term(Node):
    """Canonical leaf: coefficient * tensor, optionally transposed.

    Holds a reference to the tensor, never a copy; an unscaled leaf has
    coefficient exactly 1.
    """

    __slots__ = ("coef", "tensor", "trans")

    def __init__(self, coef, tensor, trans=False):
        self.coef = coef
        self.tensor = tensor
        self.trans = trans

    def _scaled(self, g):
        return Term(g * self.coef, self.tensor, self.trans)

    def __repr__(self):
        flip = "^T" if self.trans else ""
        return f"Term({self.coef!r} * {self.tensor!r}{flip})"


class Sum(Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def _scaled(self, g):
        return Sum(self.left._scaled(g), self.right._scaled(g))

    def __repr__(self):
        return f"Sum({self.left!r}, {self.right!r})"


class Product(Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def _scaled(self, g):
        return Product(self.left._scaled(g), self.right)

    def __repr__(self):
        return f"Product({self.left!r}, {self.right!r})"


def _as_node(x):
    # exact types first: the Real ABC check costs more than the rest
    t = type(x)
    if t is Tensor:
        return Term(1.0, x)
    if t is float:
        return Literal(x)
    if t is int:
        return Literal(float(x))
    if isinstance(x, Node):
        return x
    if isinstance(x, Tensor):
        return Term(1.0, x)
    if isinstance(x, Real) and not isinstance(x, bool):
        return Literal(float(x))
    raise TypeError(f"cannot use {type(x).__name__} in a tensor expression")


def _product(left, right):
    """``left * right`` in canonical form: a scalar side scales the other."""
    if type(left) is Literal:
        return right._scaled(left.value)
    if type(right) is Literal:
        return left._scaled(right.value)
    return Product(left, right)


def lit(value) -> Literal:
    """Wrap a scalar constant as an expression node."""
    return Literal(float(value))


def leaf(tensor) -> Term:
    """Wrap a tensor as an expression leaf (coefficient 1, by reference)."""
    if not isinstance(tensor, Tensor):
        raise TypeError("leaf expects a Tensor")
    return Term(1.0, tensor)


def transpose(e):
    """Transpose of a vector or matrix leaf, optionally scaled: the same
    leaf with its transpose flag flipped (an involution)."""
    if type(e) is Tensor and len(e.extents) <= 2:
        return Term(1.0, e, True)
    n = _as_node(e)
    if type(n) is not Term:
        raise UnsupportedOperationError(
            "transpose applies to vector or matrix leaves (optionally scaled)"
        )
    if len(n.tensor.extents) > 2:
        raise UnsupportedOperationError(
            f"transpose of a rank-{n.tensor.rank} tensor is not supported"
        )
    return Term(n.coef, n.tensor, not n.trans)


def structurally_equal(a, b) -> bool:
    ta, tb = type(a), type(b)
    if ta is not tb:
        return False
    if ta is Literal:
        return a.value == b.value
    if ta is Term:
        return a.coef == b.coef and a.tensor is b.tensor and a.trans == b.trans
    return structurally_equal(a.left, b.left) and structurally_equal(a.right, b.right)


def normalize(e):
    """The canonical form of ``e``: every scalar factor folded into a Term
    coefficient, every transpose a flag on a Term.  The operators build
    trees in this form already, so this only wraps a bare tensor or
    scalar as a node.  Idempotent."""
    return _as_node(e)


# ---------------------------------------------------------------------------
# result-kind inference
#
# On the statement path a kind is ``None`` for a scalar or an
# ``(extents, covector)`` tuple: building a ResultKind per node would cost
# more than the rest of inference.  ``infer_kind`` returns the public
# objects.


def _kind_str(k):
    return repr(SCALAR if k is None else ResultKind(*k))


def infer_kind(e):
    """Result category of an expression: SCALAR or a ResultKind.

    Raises ShapeError naming both offending kinds when operands cannot
    combine.
    """
    k = _infer(_as_node(e))
    return SCALAR if k is None else ResultKind(*k)


def _infer(n):
    t = type(n)
    if t is Term:
        ext = n.tensor.extents
        if not n.trans:
            return ext, False
        if len(ext) == 1:
            return ext, True
        return (ext[1], ext[0]), False
    if t is Literal:
        return None
    lk = _infer(n.left)
    rk = _infer(n.right)
    if t is Sum:
        if lk != rk:
            raise ShapeError(f"cannot add {_kind_str(lk)} and {_kind_str(rk)}")
        return lk
    # product
    if lk is None:
        return rk
    if rk is None:
        return lk
    (le, lcov), (re, rcov) = lk, rk
    lr, rr = len(le), len(re)
    if lr == 1 and rr == 1:
        if lcov and not rcov:
            if le != re:
                raise ShapeError(
                    f"inner product of {_kind_str(lk)} and {_kind_str(rk)}")
            return None
        if not lcov and rcov:
            return (le[0], re[0]), False
        raise ShapeError(
            f"vector product of {_kind_str(lk)} and {_kind_str(rk)} needs "
            f"exactly one transposed side"
        )
    if lr == 2 and rr == 1 and not rcov:
        if le[1] != re[0]:
            raise ShapeError(
                f"matrix-vector product of {_kind_str(lk)} and {_kind_str(rk)}")
        return (le[0],), False
    if lr == 2 and rr == 2:
        if le[1] != re[0]:
            raise ShapeError(
                f"inner dimensions differ: {_kind_str(lk)} and {_kind_str(rk)}")
        return (le[0], re[1]), False
    raise ShapeError(
        f"unsupported product between {_kind_str(lk)} and {_kind_str(rk)}")


# ---------------------------------------------------------------------------
# lowering


class LoweredOp:
    """One recognized kernel invocation (or a fallback evaluation).

    ``kernel`` is one of copy/axpy/dot/gemv/ger/gemm/fallback.
    ``pre_zero`` asks the executor to zero-fill the destination first
    (assign semantics expressed through an accumulating kernel).
    """

    __slots__ = ("kernel", "operands", "trans_a", "trans_b", "alpha", "beta",
                 "dest", "expr", "accumulate", "pre_zero")

    def __init__(self, kernel, operands=(), trans_a=False, trans_b=False,
                 alpha=1.0, beta=0.0, dest=None, expr=None, accumulate=False,
                 pre_zero=False):
        self.kernel = kernel
        self.operands = operands
        self.trans_a = trans_a
        self.trans_b = trans_b
        self.alpha = alpha
        self.beta = beta
        self.dest = dest
        self.expr = expr
        self.accumulate = accumulate
        self.pre_zero = pre_zero

    def __repr__(self):
        return (f"LoweredOp({self.kernel}, alpha={self.alpha}, beta={self.beta}, "
                f"trans=({self.trans_a}, {self.trans_b}))")


def _dest_use(n, dest):
    """Where ``dest``'s storage occurs in ``n``: 0 nowhere, 1 only in
    additive positions, 2 inside a product.  Overlap counts, not only
    identity: two ``wrap`` views of one buffer alias each other,
    interleaved ones do not.  Buffers that two tensors allocated
    themselves cannot overlap, so the storage test is skipped for them."""
    t = type(n)
    if t is Term:
        x = n.tensor
        return 1 if x is dest or (
            not (x.owns_storage and dest.owns_storage)
            and np.shares_memory(x._data, dest._data)
        ) else 0
    if t is Literal:
        return 0
    if t is Product:
        return 2 if _dest_use(n.left, dest) or _dest_use(n.right, dest) else 0
    left = _dest_use(n.left, dest)
    right = _dest_use(n.right, dest)
    return left if left > right else right


def _temporary(n, kind, ops):
    """A leaf for product factor ``n``: a fresh tensor of ``n``'s kind,
    filled by the ops appended to ``ops``.  Like ``evaluate``'s result, it
    starts zeroed and is accumulated into."""
    extents, covector = kind
    tmp = Tensor(len(extents), *extents, dtype=_expr_dtype(n))
    _lower_sum(tmp, n, 1.0, ops)
    return Term(1.0, tmp, covector)


def _lower_product(n, dest, beta, ops):
    """Append to ``ops`` the kernel calls for ``dest <- n + beta*dest``
    (the value of a dot when ``dest`` is None), factors first.

    Returns False, appending nothing, when ``n`` has no kernel route: a
    factor is scalar-valued, or a ger would need a beta other than 0
    (a zero-fill before it) or 1 (its own update).
    """
    l, r = n.left, n.right
    lk = rk = None  # the kinds of factors that are not leaves
    if type(l) is not Term:
        lk = _infer(l)
        if lk is None:
            return False
    if type(r) is not Term:
        rk = _infer(r)
        if rk is None:
            return False
    # n has passed kind inference, so the factor ranks admit one kernel
    if len(l.tensor.extents if lk is None else lk[0]) == 2:
        rrank = len(r.tensor.extents if rk is None else rk[0])
        kernel = "gemv" if rrank == 1 else "gemm"
    elif l.trans if lk is None else lk[1]:
        kernel = "dot"
    elif beta == 0.0 or beta == 1.0:
        kernel = "ger"
    else:
        return False
    if lk is not None:
        l = _temporary(l, lk, ops)
    if rk is not None:
        r = _temporary(r, rk, ops)
    operands = (l.tensor, r.tensor)
    alpha = l.coef * r.coef
    if kernel == "ger":
        ops.append(LoweredOp("ger", operands, alpha=alpha, dest=dest,
                             pre_zero=beta == 0.0))
    else:
        ops.append(LoweredOp(kernel, operands, l.trans, r.trans, alpha, beta,
                             dest))
    return True


def _lower_scalar(n):
    ops = []
    if type(n) is Product and _lower_product(n, None, 0.0, ops):
        return ops  # a scalar-valued product of tensors: a dot
    return [LoweredOp("fallback", expr=n)]


def _lower_into(dest, mode, n):
    beta = 1.0 if mode == "accumulate" else 0.0
    use = _dest_use(n, dest)
    if use == 0:
        return _lower_sum(dest, n, beta, [])
    if use == 2:
        raise AliasingError(
            "destination appears as a multiplicand operand in this "
            "expression; evaluate into a different tensor"
        )
    # dest in an additive position: the beta of the one kernel call for
    # the other addend, or evaluated alias-safe
    if type(n) is Sum:
        for scaled, prod in ((n.left, n.right), (n.right, n.left)):
            ops = []
            if (type(scaled) is Term and scaled.tensor is dest
                    and not scaled.trans and type(prod) is Product
                    and _lower_product(prod, dest, scaled.coef + beta, ops)):
                return ops
    return [LoweredOp("fallback", expr=n, dest=dest,
                      accumulate=mode == "accumulate")]


def _lower_sum(dest, n, beta, ops):
    """Append to ``ops`` the ops for ``dest <- n + beta*dest``, beta 0 or
    1, where ``dest``'s storage does not occur in ``n``: one addend after
    the other, the first with ``beta``, the rest accumulating.  A scaled
    leaf works on the flat column-major buffers, whatever its rank; a
    transposed matrix has no such route.  Returns ``ops``."""
    t = type(n)
    if t is Sum:
        _lower_sum(dest, n.left, beta, ops)
        return _lower_sum(dest, n.right, 1.0, ops)
    if t is Term:
        if not n.trans or len(n.tensor.extents) == 1:
            if beta == 0.0 and n.coef == 1.0:
                ops.append(LoweredOp("copy", (n.tensor,), dest=dest))
            else:
                ops.append(LoweredOp("axpy", (n.tensor,), alpha=n.coef,
                                     dest=dest, pre_zero=beta == 0.0))
            return ops
    elif t is Product and _lower_product(n, dest, beta, ops):
        return ops
    ops.append(LoweredOp("fallback", expr=n, dest=dest,
                         accumulate=beta != 0.0))
    return ops


def lower(e, dest=None, mode="assign"):
    """Translate an expression into a sequence of LoweredOps.

    With no destination, a scalar-kind expression lowers to a dot or a
    scalar fallback; tensor kinds require ``dest``.  Each addend of a sum
    becomes copy/axpy (scaled leaves of any rank) or one gemv/ger/gemm;
    a ``beta*dest`` addend beside one gemv/gemm becomes its beta.  A
    product factor that is not a leaf is lowered first, in the tree's own
    parenthesization, into a fresh temporary tensor allocated here.  What
    has no kernel route becomes a ``fallback`` op.
    """
    if mode != "assign" and mode != "accumulate":
        raise ValueError(f"mode must be 'assign' or 'accumulate', not {mode!r}")
    n = _as_node(e)
    kind = _infer(n)
    if kind is None:
        if dest is not None:
            raise ShapeError("scalar expression cannot target a tensor destination")
        return _lower_scalar(n)
    if dest is None:
        raise ShapeError("tensor-kind expression needs a destination to lower into")
    if kind[0] != dest.extents:
        raise ShapeError(
            f"expression kind {_kind_str(kind)} does not match destination "
            f"extents {dest.extents}"
        )
    return _lower_into(dest, mode, n)


# ---------------------------------------------------------------------------
# naive recursive evaluation (catch-all fallback)


def _eval_naive(n):
    """Element-wise recursive evaluation with no kernel dispatch.

    Returns a float, a numpy array, or ('cov', 1-D array) for a
    transposed vector.
    """
    t = type(n)
    if t is Literal:
        return n.value
    if t is Term:
        arr = n.coef * n.tensor.column_view()
        if n.tensor.rank == 1 and n.trans:
            return ("cov", arr)
        if n.tensor.rank == 2 and n.trans:
            return arr.T
        return arr
    left = _eval_naive(n.left)
    right = _eval_naive(n.right)
    if t is Sum:
        if _is_cov(left) and _is_cov(right):
            return ("cov", left[1] + right[1])
        return left + right
    return _naive_mul(left, right)


def _is_cov(v):
    return isinstance(v, tuple) and v and v[0] == "cov"


def _naive_mul(left, right):
    if isinstance(left, float):
        if _is_cov(right):
            return ("cov", left * right[1])
        return left * right
    if isinstance(right, float):
        if _is_cov(left):
            return ("cov", right * left[1])
        return right * left
    if _is_cov(left) and isinstance(right, np.ndarray) and right.ndim == 1:
        s = 0.0
        for a, b in zip(left[1].tolist(), right.tolist()):
            s += a * b
        return s
    if isinstance(left, np.ndarray) and left.ndim == 1 and _is_cov(right):
        return np.multiply.outer(left, right[1])
    if isinstance(left, np.ndarray) and left.ndim == 2:
        if isinstance(right, np.ndarray) and right.ndim == 1:
            acc = np.zeros(left.shape[0], dtype=left.dtype)
            for j in range(left.shape[1]):
                acc += left[:, j] * right[j]
            return acc
        if isinstance(right, np.ndarray) and right.ndim == 2:
            acc = np.zeros((left.shape[0], right.shape[1]), dtype=left.dtype)
            for p in range(left.shape[1]):
                acc += np.multiply.outer(left[:, p], right[p, :])
            return acc
    raise ShapeError("naive evaluation hit an unsupported operand pairing")


# ---------------------------------------------------------------------------
# execution


def _run_op(op):
    k = op.kernel
    if op.pre_zero:
        op.dest._data.fill(0.0)
        kernels.log().element_writes += op.dest.size
    if k == "dot":
        return op.alpha * kernels.dot(*op.operands)
    if k == "copy":
        kernels.copy(op.operands[0], op.dest)
        return op.dest
    if k == "axpy":
        kernels.axpy(op.alpha, op.operands[0], op.dest)
        return op.dest
    if k == "gemv":
        kernels.gemv(op.trans_a, op.alpha, op.operands[0], op.operands[1],
                     op.beta, op.dest)
        return op.dest
    if k == "ger":
        kernels.ger(op.alpha, op.operands[0], op.operands[1], op.dest)
        return op.dest
    if k == "gemm":
        kernels.gemm(op.trans_a, op.trans_b, op.alpha, op.operands[0],
                     op.operands[1], op.beta, op.dest)
        return op.dest
    # fallback: compute alias-safe, then write
    value = _eval_naive(op.expr)
    if op.dest is None:
        if _is_cov(value):
            raise ShapeError("a bare transposed vector has no scalar value")
        kernels.log().record("fallback", ())
        return float(value)
    kernels.log().record("fallback", (op.dest.extents,))
    view = op.dest.column_view()
    if _is_cov(value):
        value = value[1]
    if op.accumulate:
        view += value
    else:
        view[...] = value
    kernels.log().element_writes += op.dest.size
    return op.dest


def _execute(ops):
    result = None
    for op in ops:
        result = _run_op(op)
    return result


def _expr_dtype(n):
    t = type(n)
    if t is Term:
        return n.tensor.dtype
    if t is Literal:
        return None
    return _expr_dtype(n.left) or _expr_dtype(n.right)


def evaluate(e):
    """Force an expression: returns a float for scalar kinds, otherwise a
    freshly allocated tensor (zero-initialized, then accumulated into)."""
    # An inner product, scaled or not, goes straight to the kernel: kind
    # inference and the lowering walk each cost on the order of a
    # microsecond, a measurable fraction of a dot at BLAS-1 sizes.
    if type(e) is Product:
        l, r = e.left, e.right
        if (type(l) is Term and type(r) is Term and l.trans and not r.trans
                and len(l.tensor.extents) == 1
                and len(r.tensor.extents) == 1):
            alpha = l.coef * r.coef
            value = kernels.dot(l.tensor, r.tensor)
            return value if alpha == 1.0 else alpha * value
    n = _as_node(e)
    kind = _infer(n)
    if kind is None:
        return _execute(_lower_scalar(n))
    extents = kind[0]
    dest = Tensor(len(extents), *extents, dtype=_expr_dtype(n) or np.float64)
    _execute(_lower_sum(dest, n, 1.0, []))
    return dest


def assign(dest, e):
    """dest <- value of e."""
    _execute(lower(e, dest, "assign"))
    return dest


def accumulate(dest, e):
    """dest <- dest + value of e (``dest += e``)."""
    _execute(lower(e, dest, "accumulate"))
    return dest


# ---------------------------------------------------------------------------
# operator surface on Tensor (attached here to keep tensor.py kernel-free)


def _tensor_mul(self, other):
    t = type(other)
    if t is Tensor:
        return Product(Term(1.0, self), Term(1.0, other))
    if t is float:
        return Term(other, self)
    return _product(Term(1.0, self), _as_node(other))


def _tensor_rmul(self, other):
    if type(other) is float:
        return Term(other, self)
    return _product(_as_node(other), Term(1.0, self))


def _tensor_add(self, other):
    return Sum(Term(1.0, self), _as_node(other))


def _tensor_radd(self, other):
    return Sum(_as_node(other), Term(1.0, self))


def _tensor_iadd(self, other):
    return accumulate(self, other)


Tensor.__mul__ = _tensor_mul
Tensor.__rmul__ = _tensor_rmul
Tensor.__add__ = _tensor_add
Tensor.__radd__ = _tensor_radd
Tensor.__iadd__ = _tensor_iadd
