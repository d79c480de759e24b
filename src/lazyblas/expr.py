"""Lazy algebraic expressions over tensors, lowered to BLAS kernel calls.

Arithmetic on :class:`~lazyblas.tensor.Tensor` objects builds a small
tree instead of computing anything.  The tree is canonical as it is
built: ``*`` folds every scalar factor into a per-leaf coefficient and
``transpose`` flips a flag on its leaf, bottom-up in the order Python
evaluates the operators, so there is no separate normalization pass.
When a result is demanded (:func:`evaluate`, :func:`assign`,
:func:`accumulate`, or ``+=``) one walk of the tree checks shapes,
element types and aliasing, and lowering matches it against the
BLAS-level patterns, so a statement like

    C += alpha * transpose(A) * beta * B

reaches the backend as exactly one gemm call with ``transA`` set and
``alpha*beta`` folded, with no intermediate tensor.

A statement that fits no single kernel becomes a short sequence of
them; every well-formed statement does, so there is one way to run a
statement: walk, lower, then ``op.fn(*op.args)`` for each op.  An op is
its call, a kernel's name and arguments, and prints as that call, so
``print(lower(e, dest))`` shows what a statement will run.  One routine
lowers every sum, into the destination or into a temporary, and each
product's op comes from its row of one table.  Scaled sums of
tensors of any rank become copy/axpy over the flat column-major buffers
(a transposed matrix through axpy's ``trans``), one pass per addend:
the first addend writes the destination with the kernel's beta 0,
which does not read it, so no destination is zero-filled first.  The
destination as an addend folds its coefficients into that first
kernel's beta, in any position (``3*C`` alone is an axpy with alpha 0);
another view of its storage is read from a temporary.  A product
factor that is itself a product or a sum is computed first into a
temporary tensor (counted in ``log().allocations``), following the
tree's own parenthesization: ``A*B*A`` is a gemm into a temporary, then
a gemm.  A temporary, like ``evaluate``'s result (which is one), starts
zeroed and its addends accumulate into it.  A scalar-valued factor is
computed first, by dots, and scales the side it multiplies.  A
statement that mixes float32 and float64 raises TypeError before
anything is allocated or written, and so does one whose destination is
not a Tensor.

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
    """``left * right``.  ``plan`` is set by the statement walk: the
    product's op and its factors' kinds."""

    __slots__ = ("left", "right", "plan")

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
# the statement walk: kinds, element types, destination use
#
# On the statement path a kind is ``None`` for a scalar or an
# ``(extents, covector)`` tuple: building a ResultKind per node would cost
# more than the rest of the walk.  ``infer_kind`` returns the public
# objects.

# Product kernels by the signatures of the two factors, where a factor's
# signature is its rank, or 0 for a covector: what to call a mismatch of
# the contracted extents (None: nothing is contracted), the extents of
# the result from the factors' extents (None: a scalar), and the op for
# ``d <- a*l*r + b*d`` from the two leaves.
_PRODUCTS = {
    (0, 1): ("inner product of", lambda le, re: None,
             lambda a, l, r, b, d: LoweredOp("dot", (l.tensor, r.tensor), a)),
    (1, 0): (None, lambda le, re: ((le[0], re[0]), False),
             lambda a, l, r, b, d: LoweredOp(
                 "ger", (a, l.tensor, r.tensor, d, b), a)),
    (2, 1): ("matrix-vector product of", lambda le, re: ((le[0],), False),
             lambda a, l, r, b, d: LoweredOp(
                 "gemv", (l.trans, a, l.tensor, r.tensor, b, d), a)),
    (2, 2): ("inner dimensions differ:",
             lambda le, re: ((le[0], re[1]), False),
             lambda a, l, r, b, d: LoweredOp(
                 "gemm", (l.trans, r.trans, a, l.tensor, r.tensor, b, d), a)),
}


def _kind_str(k):
    return repr(SCALAR if k is None else ResultKind(*k))


def infer_kind(e):
    """Result category of an expression: SCALAR or a ResultKind.

    Raises ShapeError naming both offending kinds when operands cannot
    combine.
    """
    k = _walk(_as_node(e), None, None, None)
    return SCALAR if k is None else ResultKind(*k)


def _walk(n, dest, dt, shared):
    """The kind of ``n``, from the one walk that checks all that lowering
    relies on, so that a statement that raises allocates and writes
    nothing: kinds combine (ShapeError naming both), every leaf holds
    ``dt`` elements (TypeError; None skips), and ``dest``'s storage
    occurs in no product (AliasingError).  A leaf overlapping it in an
    additive position is appended to ``shared`` (None below a product).
    Overlap counts, not only identity; buffers that two tensors allocated
    themselves cannot overlap, so they skip the storage test.  Each
    product gets its ``plan``: its ``_PRODUCTS`` op (None beside a scalar
    factor), its factors' kinds and ``dt``, the element type of any
    temporary that lowering it allocates."""
    t = type(n)
    if t is Term:
        x = n.tensor
        data = x._data
        if data.dtype is not dt and dt is not None and data.dtype != dt:
            raise TypeError(f"mixed element types: {dt} vs {data.dtype}")
        if dest is not None and (x is dest or (
                not (x.owns_storage and dest.owns_storage)
                and np.shares_memory(data, dest._data))):
            if shared is None:
                raise AliasingError(
                    "destination appears as a multiplicand operand in this "
                    "expression; evaluate into a different tensor"
                )
            shared.append(n)
        ext = x.extents
        if not n.trans:
            return ext, False
        if len(ext) == 1:
            return ext, True
        return (ext[1], ext[0]), False
    if t is Literal:
        return None
    if t is Sum:
        lk = _walk(n.left, dest, dt, shared)
        rk = _walk(n.right, dest, dt, shared)
        if lk != rk:
            raise ShapeError(f"cannot add {_kind_str(lk)} and {_kind_str(rk)}")
        return lk
    lk = _walk(n.left, dest, dt, None)
    rk = _walk(n.right, dest, dt, None)
    if lk is None or rk is None:
        n.plan = None, lk, rk, dt
        return lk if rk is None else rk
    (le, lcov), (re, rcov) = lk, rk
    rule = _PRODUCTS.get((len(le) - lcov, len(re) - rcov))
    if rule is None:
        if len(le) == 1 and len(re) == 1:
            raise ShapeError(
                f"vector product of {_kind_str(lk)} and {_kind_str(rk)} needs "
                f"exactly one transposed side"
            )
        raise ShapeError(
            f"unsupported product between {_kind_str(lk)} and {_kind_str(rk)}")
    mismatch, result, op = rule
    if mismatch is not None and le[-1] != re[0]:
        raise ShapeError(f"{mismatch} {_kind_str(lk)} and {_kind_str(rk)}")
    n.plan = op, lk, rk, dt
    return result(le, re)


def _expr_dtype(n):
    t = type(n)
    if t is Term:
        return n.tensor._data.dtype
    if t is Literal:
        return None
    return _expr_dtype(n.left) or _expr_dtype(n.right)


# ---------------------------------------------------------------------------
# lowering


class LoweredOp:
    """One kernel call of a lowered statement: the op is its call.

    ``args`` are all the call's positional arguments in the public
    signature of ``kernels.<kernel>``, and ``fn`` is that function, looked
    up when the op is built: running the op is ``fn(*args)``, and its
    repr is the call, so ``print(lower(e, dest))`` shows what a statement
    will run.  ``alpha`` is the call's scale: its alpha argument, or for a
    dot, whose call has none, the factor that scales its value.  Ops call
    ``kernels.*``, not a backend routine resolved here, because that is
    where every call is checked and logged, and where a wrapper installed
    on the module (a tracer) sees it."""

    __slots__ = ("kernel", "fn", "args", "alpha")

    def __init__(self, kernel, args, alpha=1.0):
        self.kernel = kernel
        self.fn = getattr(kernels, kernel)
        self.args = args
        self.alpha = alpha

    def __repr__(self):
        call = f"{self.kernel}({', '.join(map(repr, self.args))})"
        if self.kernel == "dot" and self.alpha != 1.0:
            return f"{self.alpha!r} * {call}"
        return call


def _temporary(n, extents, dt, ops):
    """A fresh tensor for the value of ``n`` (a product factor, a leaf
    that overlaps the destination, or ``evaluate``'s result), counted in
    ``log().allocations``: it starts zeroed and is accumulated into by
    the ops appended to ``ops``."""
    tmp = Tensor(len(extents), *extents, dtype=dt)
    _lower_sum(tmp, n, 1.0, ops)
    return tmp


def _scalar_value(n):
    """The value of scalar-valued ``n``, computed now: each inner product
    by the ops of a dot, literals and the sums and products of scalars as
    floats."""
    t = type(n)
    if t is Literal:
        return n.value
    if t is Sum:
        return _scalar_value(n.left) + _scalar_value(n.right)
    if n.plan[0] is None:
        return _scalar_value(n.left) * _scalar_value(n.right)
    ops = _lower_product(n, None, 0.0, [])
    return ops[-1].alpha * _execute(ops)


def _lower_product(n, dest, beta, ops):
    """Append to ``ops`` the kernel calls for ``dest <- n + beta*dest``
    (the value of a dot when ``dest`` is None), factors first, then the
    op of its ``_PRODUCTS`` row, and returns ``ops``.  A scalar-valued
    factor is computed here, by dots, and scales the other side, which is
    then lowered like an addend: it sits in a product, so the walk has
    proved that it does not read ``dest``."""
    op, lk, rk, dt = n.plan
    if op is None:
        if lk is None:
            side = n.right._scaled(_scalar_value(n.left))
        else:
            side = n.left._scaled(_scalar_value(n.right))
        _walk(side, None, dt, None)  # plans for the scaled products
        _lower_sum(dest, side, beta, ops)
        return ops
    l, r = n.left, n.right
    if type(l) is not Term:
        l = Term(1.0, _temporary(l, lk[0], dt, ops), lk[1])
    if type(r) is not Term:
        r = Term(1.0, _temporary(r, rk[0], dt, ops), rk[1])
    ops.append(op(l.coef * r.coef, l, r, beta, dest))
    return ops


def _lower_sum(dest, n, beta, ops, swaps=()):
    """Append to ``ops`` the ops for ``dest <- n + beta*dest`` and return
    the beta still owed: 1 once an op has written ``dest``.  So the first
    addend that writes carries ``beta``, the rest accumulate, and each
    addend is one pass over ``dest``.  A scaled leaf works on the flat
    column-major buffers, whatever its rank: a copy, or an axpy with the
    addend's beta (at beta 0 it writes ``coef*x`` without reading
    ``dest``), with ``trans`` for a transposed matrix.  ``swaps`` pairs
    each leaf of ``n`` that overlaps ``dest``, in the walk's order, with
    what replaces it: None for ``c*dest``, whose ``c`` is in ``beta``
    already, or the temporary that holds its value."""
    t = type(n)
    if t is Sum:
        beta = _lower_sum(dest, n.left, beta, ops, swaps)
        return _lower_sum(dest, n.right, beta, ops, swaps)
    if t is not Term:
        _lower_product(n, dest, beta, ops)
        return 1.0
    if swaps and n is swaps[0][0]:
        n = swaps.pop(0)[1]
        if n is None:
            return beta
    trans = n.trans and len(n.tensor.extents) == 2
    if beta == 0.0 and n.coef == 1.0 and not trans:
        ops.append(LoweredOp("copy", (n.tensor, dest)))
    else:
        ops.append(LoweredOp("axpy", (n.coef, n.tensor, dest, beta, trans),
                             n.coef))
    return 1.0


def lower(e, dest=None, mode="assign"):
    """Translate an expression into LoweredOps, each the ``kernels.*``
    call that runs it, so ``print(lower(e, dest))`` shows what the
    statement will run, in order, without running it.

    A ``dest`` that is neither None nor a Tensor raises TypeError.  One
    walk checks shapes, element types and the destination's storage
    before any temporary is allocated.  With no destination, only an
    inner product has ops (a dot, after the ops of non-leaf factors);
    any other scalar raises UnsupportedOperationError (``evaluate``
    computes it), and tensor kinds require ``dest``.  A statement with a
    destination is one ``_lower_sum`` of ``e`` into it: each addend
    becomes copy/axpy (scaled leaves of any rank, transposed matrices
    too) or the ops of its product.  First, each ``c*dest`` addend (a
    transposed vector is the same buffer) folds ``c`` into the beta that
    the first other addend carries, and any other leaf that overlaps
    ``dest`` is written to a temporary; with no other addend, an axpy
    with alpha 0 scales ``dest``.  A product factor that is not a leaf is
    lowered first, in the tree's own parenthesization, into a temporary
    allocated here; a scalar-valued factor is computed here, by dots,
    and scales the other side.
    """
    if mode != "assign" and mode != "accumulate":
        raise ValueError(f"mode must be 'assign' or 'accumulate', not {mode!r}")
    n = _as_node(e)
    if dest is None:
        if _walk(n, None, _expr_dtype(n), None) is not None:
            raise ShapeError(
                "tensor-kind expression needs a destination to lower into")
        # a product of two tensor kinds with a scalar value is a dot
        if type(n) is not Product or n.plan[0] is None:
            raise UnsupportedOperationError(
                "only an inner product lowers to kernel calls without a "
                "destination; evaluate computes any scalar")
        return _lower_product(n, None, 0.0, [])
    if type(dest) is not Tensor and not isinstance(dest, Tensor):
        raise _not_a_tensor(dest)
    shared = []
    kind = _walk(n, dest, dest._data.dtype, shared)
    if kind is None:
        raise ShapeError("scalar expression cannot target a tensor destination")
    if kind[0] != dest.extents:
        raise ShapeError(
            f"expression kind {_kind_str(kind)} does not match destination "
            f"extents {dest.extents}"
        )
    beta = 1.0 if mode == "accumulate" else 0.0
    ops, swaps = [], []  # temporaries first: they read what dest holds
    for a in shared:
        if a.tensor is dest and (not a.trans or len(dest.extents) == 1):
            beta += a.coef
            swaps.append((a, None))
        else:
            tmp = _temporary(a, dest.extents, dest._data.dtype, ops)
            swaps.append((a, Term(1.0, tmp)))
    written = len(ops)
    beta = _lower_sum(dest, n, beta, ops, swaps)
    if len(ops) == written:  # every addend was c*dest
        ops.append(LoweredOp("axpy", (0.0, dest, dest, beta, False), 0.0))
    return ops


# ---------------------------------------------------------------------------
# execution


def _execute(ops):
    """Run the ops in order; the value of the last (a float for a dot)."""
    for op in ops:
        value = op.fn(*op.args)
    return value


def evaluate(e):
    """Force an expression: returns a float for scalar kinds, otherwise a
    freshly allocated tensor (zero-initialized, then accumulated into)."""
    # An inner product, scaled or not, goes straight to the kernel: the
    # walk, lowering and op cost more than the dot itself at BLAS-1 sizes.
    if type(e) is Product:
        l, r = e.left, e.right
        if (type(l) is Term and type(r) is Term and l.trans and not r.trans
                and len(l.tensor.extents) == 1
                and len(r.tensor.extents) == 1):
            alpha = l.coef * r.coef
            value = kernels.dot(l.tensor, r.tensor)
            return value if alpha == 1.0 else alpha * value
    n = _as_node(e)
    dt = _expr_dtype(n)
    kind = _walk(n, None, dt, None)
    if kind is None:
        return _scalar_value(n)
    ops = []
    result = _temporary(n, kind[0], dt, ops)
    _execute(ops)
    return result


def _not_a_tensor(dest):
    return TypeError(f"destination must be a Tensor, not {type(dest).__name__}")


def assign(dest, e):
    """dest <- value of e."""
    if dest is None:  # ``lower`` reads None as "no destination"
        raise _not_a_tensor(dest)
    _execute(lower(e, dest, "assign"))
    return dest


def accumulate(dest, e):
    """dest <- dest + value of e (``dest += e``)."""
    if dest is None:
        raise _not_a_tensor(dest)
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


Tensor.__mul__ = _tensor_mul
Tensor.__rmul__ = _tensor_rmul
Tensor.__add__ = _tensor_add
Tensor.__radd__ = _tensor_radd
Tensor.__iadd__ = accumulate
