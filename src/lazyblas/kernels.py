"""Kernel contracts, backends, and call instrumentation.

Seven kernels are exposed as module-level functions (copy, axpy, dot,
nrm2, gemv, ger, gemm).  Each call validates shapes, appends a record to
the active :class:`CallLog`, and dispatches to the currently selected
backend.  Two backends ship in-tree:

* ``naive`` -- hand-written reference loops over the column-major
  buffers.  Always available, always the default.  Accumulation order is
  fixed (reduction index innermost) so results are bit-reproducible
  against a plain element loop.
* ``external-blas`` -- thin binding to an optimized BLAS through
  ``scipy.linalg.blas``.  Registered only when scipy imports cleanly.

All kernels treat operands with any zero extent as no-ops: no element is
written, the call is still logged.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, UnknownBackendError

__all__ = [
    "CallLog",
    "CallRecord",
    "CallRecords",
    "available_backends",
    "axpy",
    "copy",
    "current_backend",
    "dot",
    "gemm",
    "gemv",
    "ger",
    "log",
    "nrm2",
    "reset_log",
    "select_backend",
]


# ---------------------------------------------------------------------------
# instrumentation


@dataclass(slots=True)
class CallRecord:
    kernel: str
    shapes: tuple
    alpha: float | None = None
    beta: float | None = None
    trans: tuple = ()


class CallRecords(Sequence):
    """The records of a call log, oldest first, as :class:`CallRecord`.

    Each is stored as a plain tuple of atomic values and interned
    tuples, which the garbage collector stops tracking on its first pass,
    so a log of millions of calls adds nothing to collection pauses.
    Indexing and iteration build the CallRecord.
    """

    __slots__ = ("_rows",)

    def __init__(self, records=()):
        self._rows = [(r.kernel, r.shapes, r.alpha, r.beta, r.trans)
                      for r in records]

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [CallRecord(*row) for row in self._rows[i]]
        return CallRecord(*self._rows[i])

    def __iter__(self):
        return (CallRecord(*row) for row in self._rows)

    def __eq__(self, other):
        if isinstance(other, CallRecords):
            return self._rows == other._rows
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self):
        return f"CallRecords({list(self)!r})"


_interned: dict = {}  # shapes and trans tuples: the first equal one seen


@dataclass
class CallLog:
    """Append-only instrumentation attached to kernel dispatch.

    ``records`` holds one :class:`CallRecord` per kernel call and
    fallback loop; ``element_writes`` counts destination elements written
    by kernels and fallback loops; ``allocations`` counts tensor buffer
    allocations.  Reset is explicit.
    """

    records: CallRecords = field(default_factory=CallRecords)
    element_writes: int = 0
    allocations: int = 0

    def reset(self) -> None:
        self.records._rows.clear()
        self.element_writes = 0
        self.allocations = 0

    def record(self, kernel, shapes, alpha=None, beta=None, trans=()) -> None:
        # interned: a fresh nested tuple would keep the row tracked for
        # one collector pass per level of nesting
        intern = _interned.setdefault
        self.records._rows.append((kernel, intern(shapes, shapes), alpha,
                                   beta, intern(trans, trans)))

    def kernel_counts(self) -> dict:
        counts: dict = {}
        for row in self.records._rows:
            counts[row[0]] = counts.get(row[0], 0) + 1
        return counts

    def snapshot(self) -> "CallLog":
        return CallLog(CallRecords(self.records), self.element_writes,
                       self.allocations)


_active_log = CallLog()


def log() -> CallLog:
    """The active call log."""
    return _active_log


def reset_log() -> None:
    _active_log.reset()


# ---------------------------------------------------------------------------
# naive reference backend


class NaiveBackend:
    """Reference kernels with a fixed, loop-equivalent accumulation order.

    Reductions run with the reduction index innermost; the vectorized
    column/rank-1-update sweeps below perform, per destination element,
    exactly the same sequence of floating operations as the obvious
    scalar loops, so tests may compare bit-for-bit against such loops.
    """

    name = "naive"

    def copy(self, x, dest):
        dest[...] = x

    def axpy(self, alpha, x, y):
        y += alpha * x

    def dot(self, x, y):
        if x.dtype == np.float64:
            s = 0.0
            for a, b in zip(x.tolist(), y.tolist()):
                s += a * b
            return s
        acc = x.dtype.type(0.0)
        for a, b in zip(x, y):
            acc += a * b
        return float(acc)

    def nrm2(self, x):
        # scaled sum of squares, as in reference BLAS: overflow-safe
        scale = 0.0
        ssq = 1.0
        for v in x.tolist():
            if v != 0.0:
                av = abs(v)
                if scale < av:
                    ssq = 1.0 + ssq * (scale / av) ** 2
                    scale = av
                else:
                    ssq += (av / scale) ** 2
        return scale * math.sqrt(ssq)

    def gemv(self, trans, alpha, a, x, beta, y):
        op = a.T if trans else a
        m, n = op.shape
        acc = np.zeros(m, dtype=a.dtype)
        for j in range(n):
            acc += op[:, j] * x[j]
        if beta == 0.0:
            y[...] = alpha * acc
        else:
            y[...] = alpha * acc + beta * y

    def ger(self, alpha, x, y, a):
        a += alpha * np.multiply.outer(x, y)

    def gemm(self, trans_a, trans_b, alpha, a, b, beta, c):
        opa = a.T if trans_a else a
        opb = b.T if trans_b else b
        m, k = opa.shape
        n = opb.shape[1]
        if alpha == 0.0:
            if beta == 0.0:
                c[...] = 0.0
            else:
                c[...] = beta * c
            return
        acc = np.zeros((m, n), dtype=a.dtype)
        for p in range(k):
            acc += np.multiply.outer(opa[:, p], opb[p, :])
        if beta == 0.0:
            c[...] = alpha * acc
        elif beta == 1.0:
            c += alpha * acc
        else:
            c[...] = alpha * acc + beta * c


# ---------------------------------------------------------------------------
# optimized backend bound to scipy's BLAS


class ScipyBlasBackend:
    """Column-major kernels dispatched to an optimized BLAS via scipy.

    Leading dimensions come for free: all operand views are
    Fortran-contiguous, and transposition is expressed through the BLAS
    trans flags, never through copies.
    """

    name = "external-blas"

    def __init__(self):
        from scipy.linalg import blas as _blas

        self._blas = _blas
        self._cache: dict = {}

    def _f(self, name, dtype):
        key = (name, dtype.char)
        f = self._cache.get(key)
        if f is None:
            f = self._blas.get_blas_funcs(name, dtype=dtype)
            self._cache[key] = f
        return f

    def copy(self, x, dest):
        dest[...] = x

    def axpy(self, alpha, x, y):
        res = self._f("axpy", x.dtype)(x, y, a=alpha)
        if res is not y:
            y[...] = res

    def dot(self, x, y):
        return float(self._f("dot", x.dtype)(x, y))

    def nrm2(self, x):
        return float(self._f("nrm2", x.dtype)(x))

    def gemv(self, trans, alpha, a, x, beta, y):
        res = self._f("gemv", a.dtype)(
            alpha, a, x, beta=beta, y=y, trans=int(trans), overwrite_y=1
        )
        if res is not y:
            y[...] = res

    def ger(self, alpha, x, y, a):
        res = self._f("ger", a.dtype)(alpha, x, y, a=a, overwrite_a=1)
        if res is not a:
            a[...] = res

    def gemm(self, trans_a, trans_b, alpha, a, b, beta, c):
        res = self._f("gemm", a.dtype)(
            alpha, a, b, beta=beta, c=c,
            trans_a=int(trans_a), trans_b=int(trans_b), overwrite_c=1,
        )
        if res is not c:
            c[...] = res


# ---------------------------------------------------------------------------
# registry

_backends: dict = {"naive": NaiveBackend()}

try:
    _backends["external-blas"] = ScipyBlasBackend()
except ImportError:  # pragma: no cover - scipy is an optional binding
    pass

_current = _backends["naive"]


def available_backends() -> list:
    return sorted(_backends)


def select_backend(name: str):
    """Make ``name`` the active backend and return it."""
    global _current
    try:
        _current = _backends[name]
    except KeyError:
        raise UnknownBackendError(
            f"unknown backend {name!r}; registered: {', '.join(available_backends())}"
        ) from None
    return _current


def current_backend():
    return _current


# ---------------------------------------------------------------------------
# dispatch layer: shape checks + logging + write accounting


def _check_same_dtype(*tensors):
    dt = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dt:
            raise TypeError(f"mixed element types: {dt} vs {t.dtype}")


def copy(x, dest) -> None:
    """dest <- x, element for element."""
    _check_same_dtype(x, dest)
    if x.extents != dest.extents:
        raise ShapeError(f"copy: shape mismatch {x.extents} vs {dest.extents}")
    _active_log.record("copy", (x.extents, dest.extents))
    if x.size == 0:
        return
    _current.copy(x.column_view(), dest.column_view())
    _active_log.element_writes += dest.size


def axpy(alpha, x, y) -> None:
    """y <- alpha*x + y for tensors of equal extents, any rank.

    Works on the flat column-major buffers: every tensor is a vector in
    storage order.
    """
    _check_same_dtype(x, y)
    if x.extents != y.extents:
        raise ShapeError(f"axpy: shape mismatch {x.extents} vs {y.extents}")
    _active_log.record("axpy", (x.extents, y.extents), alpha=alpha)
    if x.size == 0:
        return
    _current.axpy(alpha, x._data, y._data)
    _active_log.element_writes += y.size


def dot(x, y) -> float:
    """Inner product of two vectors."""
    _check_same_dtype(x, y)
    if x.rank != 1 or y.rank != 1 or x.extents != y.extents:
        raise ShapeError(f"dot: incompatible vectors {x.extents} vs {y.extents}")
    _active_log.record("dot", (x.extents, y.extents))
    if x.size == 0:
        return 0.0
    return _current.dot(x.column_view(), y.column_view())


def nrm2(x) -> float:
    """Euclidean norm of a vector, overflow-safe."""
    if x.rank != 1:
        raise ShapeError(f"nrm2: expected a vector, got extents {x.extents}")
    _active_log.record("nrm2", (x.extents,))
    if x.size == 0:
        return 0.0
    return _current.nrm2(x.column_view())


def gemv(trans, alpha, a, x, beta, y) -> None:
    """y <- alpha*op(a)*x + beta*y."""
    _check_same_dtype(a, x, y)
    if a.rank != 2 or x.rank != 1 or y.rank != 1:
        raise ShapeError("gemv: expected matrix, vector, vector")
    rows, cols = a.extents
    if trans:
        rows, cols = cols, rows
    if cols != x.extents[0] or rows != y.extents[0]:
        raise ShapeError(
            f"gemv: op(A) is {rows}x{cols}, x has length {x.extents[0]}, "
            f"y has length {y.extents[0]}"
        )
    _active_log.record(
        "gemv", (a.extents, x.extents, y.extents), alpha=alpha, beta=beta,
        trans=(trans,),
    )
    if a.size == 0 or x.size == 0 or y.size == 0:
        return
    _current.gemv(trans, alpha, a.column_view(), x.column_view(), beta,
                  y.column_view())
    _active_log.element_writes += y.size


def ger(alpha, x, y, a) -> None:
    """a <- alpha * x yT + a (rank-1 update)."""
    _check_same_dtype(x, y, a)
    if x.rank != 1 or y.rank != 1 or a.rank != 2:
        raise ShapeError("ger: expected vector, vector, matrix")
    if a.extents != (x.extents[0], y.extents[0]):
        raise ShapeError(
            f"ger: A is {a.extents}, outer product is "
            f"({x.extents[0]}, {y.extents[0]})"
        )
    _active_log.record("ger", (x.extents, y.extents, a.extents), alpha=alpha)
    if a.size == 0:
        return
    _current.ger(alpha, x.column_view(), y.column_view(), a.column_view())
    _active_log.element_writes += a.size


def gemm(trans_a, trans_b, alpha, a, b, beta, c) -> None:
    """c <- alpha*op(a)*op(b) + beta*c."""
    _check_same_dtype(a, b, c)
    if a.rank != 2 or b.rank != 2 or c.rank != 2:
        raise ShapeError("gemm: expected three matrices")
    m, ka = (a.extents[1], a.extents[0]) if trans_a else a.extents
    kb, n = (b.extents[1], b.extents[0]) if trans_b else b.extents
    if ka != kb or c.extents != (m, n):
        raise ShapeError(
            f"gemm: op(A) is {m}x{ka}, op(B) is {kb}x{n}, C is {c.extents}"
        )
    _active_log.record(
        "gemm", (a.extents, b.extents, c.extents), alpha=alpha, beta=beta,
        trans=(trans_a, trans_b),
    )
    # degenerate cases: zero dimension or alpha=0, beta=1 write nothing
    if m == 0 or n == 0 or ka == 0:
        return
    if alpha == 0.0 and beta == 1.0:
        return
    _current.gemm(trans_a, trans_b, alpha, a.column_view(), b.column_view(),
                  beta, c.column_view())
    _active_log.element_writes += c.size
