"""Lazy algebraic expressions over tensors, lowered to BLAS kernel calls.

Arithmetic on :class:`~lazyblas.tensor.Tensor` objects builds a small
tree instead of computing anything.  When a result is demanded
(:func:`evaluate`, :func:`assign`, :func:`accumulate`, or ``+=``) the
tree is normalized -- scalar factors fold into per-leaf coefficients,
transposes collapse onto leaves -- and matched against the BLAS-level
patterns, so a statement like

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
    "Transposed",
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
    __slots__ = ()

    def __mul__(self, other):
        return Product(self, _as_node(other))

    def __rmul__(self, other):
        return Product(_as_node(other), self)

    def __add__(self, other):
        return Sum(self, _as_node(other))

    def __radd__(self, other):
        return Sum(_as_node(other), self)


class Literal(Node):
    """A scalar constant."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

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

    def __repr__(self):
        flip = "^T" if self.trans else ""
        return f"Term({self.coef!r} * {self.tensor!r}{flip})"


class Transposed(Node):
    __slots__ = ("child",)

    def __init__(self, child):
        self.child = child

    def __repr__(self):
        return f"Transposed({self.child!r})"


class Sum(Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __repr__(self):
        return f"Sum({self.left!r}, {self.right!r})"


class Product(Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __repr__(self):
        return f"Product({self.left!r}, {self.right!r})"


def _as_node(x):
    if isinstance(x, Node):
        return x
    if isinstance(x, Tensor):
        return Term(1.0, x)
    if isinstance(x, Real) and not isinstance(x, bool):
        return Literal(float(x))
    raise TypeError(f"cannot use {type(x).__name__} in a tensor expression")


def lit(value) -> Literal:
    """Wrap a scalar constant as an expression node."""
    return Literal(float(value))


def leaf(tensor) -> Term:
    """Wrap a tensor as an expression leaf (coefficient 1, by reference)."""
    if not isinstance(tensor, Tensor):
        raise TypeError("leaf expects a Tensor")
    return Term(1.0, tensor)


def transpose(e):
    """Transpose of a vector or matrix expression (involution)."""
    return Transposed(_as_node(e))


def structurally_equal(a, b) -> bool:
    ta, tb = type(a), type(b)
    if ta is not tb:
        return False
    if ta is Literal:
        return a.value == b.value
    if ta is Term:
        return a.coef == b.coef and a.tensor is b.tensor and a.trans == b.trans
    if ta is Transposed:
        return structurally_equal(a.child, b.child)
    return structurally_equal(a.left, b.left) and structurally_equal(a.right, b.right)


# ---------------------------------------------------------------------------
# normalization: fold scalars into term coefficients, collapse transposes


def _scale(n, g):
    t = type(n)
    if t is Literal:
        return Literal(g * n.value)
    if t is Term:
        return Term(g * n.coef, n.tensor, n.trans)
    if t is Product:
        return Product(_scale(n.left, g), n.right)
    return Sum(_scale(n.left, g), _scale(n.right, g))


def normalize(e):
    """Canonical form: every scalar factor folded into a Term coefficient,
    every transpose a flag on a Term.  Idempotent."""
    n = _as_node(e)
    t = type(n)
    if t is Literal or t is Term:
        return n
    if t is Transposed:
        c = normalize(n.child)
        if type(c) is Term:
            if c.tensor.rank > 2:
                raise UnsupportedOperationError(
                    f"transpose of a rank-{c.tensor.rank} tensor is not supported"
                )
            return Term(c.coef, c.tensor, not c.trans)
        raise UnsupportedOperationError(
            "transpose applies to vector or matrix leaves (optionally scaled)"
        )
    left = normalize(n.left)
    right = normalize(n.right)
    if t is Product:
        tl, tr = type(left), type(right)
        if tl is Literal and tr is Literal:
            return Literal(left.value * right.value)
        if tl is Literal:
            return _scale(right, left.value)
        if tr is Literal:
            return _scale(left, right.value)
        return Product(left, right)
    return Sum(left, right)


# ---------------------------------------------------------------------------
# result-kind inference


def _term_kind(n):
    t = n.tensor
    if t.rank == 1:
        return ResultKind(t.extents, covector=n.trans)
    if t.rank == 2 and n.trans:
        return ResultKind((t.extents[1], t.extents[0]))
    return ResultKind(t.extents)


def infer_kind(e):
    """Result category of a (normalized or raw) expression.

    Raises ShapeError naming both offending kinds when operands cannot
    combine.
    """
    n = normalize(e)
    return _infer(n)


def _infer(n):
    t = type(n)
    if t is Literal:
        return SCALAR
    if t is Term:
        return _term_kind(n)
    lk = _infer(n.left)
    rk = _infer(n.right)
    if t is Sum:
        if lk != rk or (lk is SCALAR) != (rk is SCALAR):
            raise ShapeError(f"cannot add {lk} and {rk}")
        return lk
    # product
    if lk is SCALAR:
        return rk
    if rk is SCALAR:
        return lk
    lr, rr = lk.rank, rk.rank
    if lr == 1 and rr == 1:
        if lk.covector and not rk.covector:
            if lk.extents != rk.extents:
                raise ShapeError(f"inner product of {lk} and {rk}")
            return SCALAR
        if not lk.covector and rk.covector:
            return ResultKind((lk.extents[0], rk.extents[0]))
        raise ShapeError(
            f"vector product of {lk} and {rk} needs exactly one transposed side"
        )
    if lr == 2 and rr == 1 and not rk.covector:
        if lk.extents[1] != rk.extents[0]:
            raise ShapeError(f"matrix-vector product of {lk} and {rk}")
        return ResultKind((lk.extents[0],))
    if lr == 2 and rr == 2 and not (lk.covector or rk.covector):
        if lk.extents[1] != rk.extents[0]:
            raise ShapeError(f"inner dimensions differ: {lk} and {rk}")
        return ResultKind((lk.extents[0], rk.extents[1]))
    raise ShapeError(f"unsupported product between {lk} and {rk}")


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


def _flatten_sum(n, out):
    if type(n) is Sum:
        _flatten_sum(n.left, out)
        _flatten_sum(n.right, out)
    else:
        out.append(n)


def _contains_tensor(n, tensor, in_product=False):
    """Does ``tensor``'s storage occur in ``n``?  Returns (found,
    found_in_product).  Overlap counts, not only identity: two ``wrap``
    views of one buffer alias each other, interleaved ones do not."""
    t = type(n)
    if t is Term:
        if n.tensor is tensor or np.shares_memory(n.tensor._data,
                                                  tensor._data):
            return True, in_product
        return False, False
    if t is Literal:
        return False, False
    f1, p1 = _contains_tensor(n.left, tensor, in_product or t is Product)
    f2, p2 = _contains_tensor(n.right, tensor, in_product or t is Product)
    return f1 or f2, p1 or p2


def _check_no_dest_alias(n, dest):
    found, in_product = _contains_tensor(n, dest)
    if found and in_product:
        raise AliasingError(
            "destination appears as a multiplicand operand in this "
            "expression; evaluate into a different tensor"
        )
    return found


def _temporary(n, kind, ops):
    """A leaf for product factor ``n``: a fresh tensor of ``n``'s kind,
    filled by the ops appended to ``ops``.  Like ``evaluate``'s result, it
    starts zeroed and is accumulated into."""
    tmp = Tensor(kind.rank, *kind.extents, dtype=_expr_dtype(n))
    ops += _lower_sum(tmp, n, 1.0)
    return Term(1.0, tmp, kind.covector)


def _lower_product(n, dest, beta, ops):
    """Append to ``ops`` the kernel calls for ``dest <- n + beta*dest``
    (the value of a dot when ``dest`` is None), factors first.

    Returns False, appending nothing, when ``n`` has no kernel route: a
    factor is scalar-valued, or a ger would need a beta other than 0
    (a zero-fill before it) or 1 (its own update).
    """
    l, r = n.left, n.right
    lk = None if type(l) is Term else _infer(l)
    rk = None if type(r) is Term else _infer(r)
    if lk is SCALAR or rk is SCALAR:
        return False
    # n has passed kind inference, so the factor ranks admit one kernel
    if (l.tensor.rank if lk is None else lk.rank) == 2:
        rrank = r.tensor.rank if rk is None else rk.rank
        kernel = "gemv" if rrank == 1 else "gemm"
    elif l.trans if lk is None else lk.covector:
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
    elif kernel != "dot" and beta != 1.0 \
            and l.tensor.extents[0 if l.trans else 1] == 0:
        # the kernels skip an empty contraction, but dest must still
        # become beta*dest
        prod = Product(l, r)
        expr = prod if beta == 0.0 else Sum(prod, Term(beta, dest))
        ops.append(LoweredOp("fallback", expr=expr, dest=dest))
    else:
        ops.append(LoweredOp(kernel, operands, trans_a=l.trans,
                             trans_b=r.trans, alpha=alpha, beta=beta,
                             dest=dest))
    return True


def _lower_scalar(n):
    ops = []
    if type(n) is Product and _lower_product(n, None, 0.0, ops):
        return ops  # a scalar-valued product of tensors: a dot
    return [LoweredOp("fallback", expr=n)]


def _lower_addend(dest, addend, beta, ops):
    """Append the ops for ``dest <- addend + beta*dest``, beta 0 or 1.

    A scaled leaf works on the flat column-major buffers, whatever its
    rank; a transposed matrix has no such route.
    """
    if type(addend) is Term:
        if not addend.trans or addend.tensor.rank == 1:
            if beta == 0.0 and addend.coef == 1.0:
                ops.append(LoweredOp("copy", (addend.tensor,), dest=dest))
            else:
                ops.append(LoweredOp("axpy", (addend.tensor,),
                                     alpha=addend.coef, dest=dest,
                                     pre_zero=beta == 0.0))
            return
    elif type(addend) is Product and _lower_product(addend, dest, beta, ops):
        return
    ops.append(LoweredOp("fallback", expr=addend, dest=dest,
                         accumulate=beta != 0.0))


def _lower_into(dest, mode, n):
    beta = 1.0 if mode == "accumulate" else 0.0
    # dest inside a product is an error; in an additive position it is
    # either the beta of the one kernel call for the other addend or
    # evaluated alias-safe
    if _check_no_dest_alias(n, dest):
        addends = []
        _flatten_sum(n, addends)
        if len(addends) == 2:
            for scaled, prod in (addends, addends[::-1]):
                ops = []
                if (type(scaled) is Term and scaled.tensor is dest
                        and not scaled.trans and type(prod) is Product
                        and _lower_product(prod, dest, scaled.coef + beta,
                                           ops)):
                    return ops
        return [LoweredOp("fallback", expr=n, dest=dest,
                          accumulate=mode == "accumulate")]
    return _lower_sum(dest, n, beta)


def _lower_sum(dest, n, beta):
    """The ops for ``dest <- n + beta*dest``, beta 0 or 1, where ``dest``'s
    storage does not occur in ``n``: one addend after the other."""
    addends = []
    _flatten_sum(n, addends)
    ops = []
    for addend in addends:
        _lower_addend(dest, addend, beta, ops)
        beta = 1.0
    return ops


def _check_dest_kind(dest, kind):
    if kind is SCALAR:
        raise ShapeError("cannot write a scalar expression into a tensor")
    if kind.extents != dest.extents:
        raise ShapeError(
            f"expression kind {kind} does not match destination extents "
            f"{dest.extents}"
        )


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
    if mode not in ("assign", "accumulate"):
        raise ValueError(f"mode must be 'assign' or 'accumulate', not {mode!r}")
    n = normalize(e)
    kind = _infer(n)
    if kind is SCALAR:
        if dest is not None:
            raise ShapeError("scalar expression cannot target a tensor destination")
        return _lower_scalar(n)
    if dest is None:
        raise ShapeError("tensor-kind expression needs a destination to lower into")
    _check_dest_kind(dest, kind)
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
    if t is Transposed:
        return _expr_dtype(n.child)
    return _expr_dtype(n.left) or _expr_dtype(n.right)


def evaluate(e):
    """Force an expression: returns a float for scalar kinds, otherwise a
    freshly allocated tensor (zero-initialized, then accumulated into)."""
    # Inner products go straight to the kernel: normalization, kind
    # inference, and the general lowering walk each cost on the order of a
    # microsecond, which at BLAS-1 sizes is a measurable fraction of the
    # kernel itself.  The common spelling transpose(x)*y is matched on the
    # raw tree; any scaled or nested form still matches after normalizing.
    if type(e) is Product:
        l, r = e.left, e.right
        if (
            type(l) is Transposed
            and type(l.child) is Term
            and type(r) is Term
            and not l.child.trans
            and not r.trans
            and l.child.coef == 1.0
            and r.coef == 1.0
            and l.child.tensor.rank == 1
            and r.tensor.rank == 1
        ):
            return kernels.dot(l.child.tensor, r.tensor)
    n = normalize(e)
    if (
        type(n) is Product
        and type(n.left) is Term
        and type(n.right) is Term
        and n.left.trans
        and not n.right.trans
        and n.left.tensor.rank == 1
        and n.right.tensor.rank == 1
    ):
        alpha = n.left.coef * n.right.coef
        value = kernels.dot(n.left.tensor, n.right.tensor)
        return value if alpha == 1.0 else alpha * value
    kind = _infer(n)
    if kind is SCALAR:
        return _execute(_lower_scalar(n))
    dtype = _expr_dtype(n) or np.float64
    dest = Tensor(kind.rank, *kind.extents, dtype=dtype)
    _execute(_lower_sum(dest, n, 1.0))
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
    return Product(Term(1.0, self), _as_node(other))


def _tensor_rmul(self, other):
    return Product(_as_node(other), Term(1.0, self))


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
