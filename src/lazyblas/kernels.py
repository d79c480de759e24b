"""Kernel contracts, backends, and call instrumentation.

Seven kernels are exposed as module-level functions (copy, axpy, dot,
nrm2, gemv, ger, gemm).  Each call validates its scalars, element types
and shapes, appends a 24-byte record to the active :class:`CallLog`
(which is never bounded), and calls the currently selected backend.  A
lowered statement (:mod:`lazyblas.expr`) holds these functions with
their positional arguments and runs them in turn, so a statement and a
direct call take the same path: one check, one record, one backend call
per kernel.  Two backends ship in-tree:

* ``naive`` -- hand-written reference loops over the column-major
  buffers.  Always available, always the default.  Accumulation order is
  fixed (reduction index innermost) so results are bit-reproducible
  against a plain element loop.
* ``external-blas`` -- thin binding to an optimized BLAS through
  ``scipy.linalg.blas``.  Registered only when scipy imports cleanly.

axpy, gemv, ger and gemm take BLAS's beta: ``y <- alpha*x + beta*y``
for axpy (the AXPBY of the BLAS Technical Forum standard) and
``a <- alpha*x*yT + beta*a`` for ger, whose BLAS routine has none.  Beta
0 means the destination need not be set on input: it is never read, so
NaNs in it do not reach the result, and a beta-0 axpy is one multiply
pass.  axpy's ``trans`` reads a matrix ``x`` transposed; that is done in
numpy on both backends, as scipy exposes no transposing copy
(``omatcopy``).

Alpha and beta must be real numbers that a double holds (a bool is
not one; NaN and infinities are): anything else, ``10**400`` included,
raises DomainError before the call is logged or an element written, on
both backends.  The kernels compute with them, and log them, as floats.
:func:`_real` is that rule for every value the library takes: tensor
fills and elements, and expression scalars, check with it too.  Tensors
of different element types raise TypeError, with the same message as a
statement that mixes them.

A destination that overlaps an operand raises AliasingError, before
the call is logged or an element written, on both backends: BLAS would
read elements it has already overwritten.  Overlap is identity, or, when
either tensor is a view (``Tensor.wrap``), any shared element.  An axpy
with alpha 0 reads no ``x``, so it allows any overlap: a statement
scales its destination in place with ``axpy(0.0, dest, dest, beta)``.
:func:`_overlaps` is the one test, which the statement walk uses too.

Alpha 0 reads no operand but the destination, at any beta, as BLAS
does: the destination becomes ``beta*dest`` (zeros for beta 0, no write
for beta 1), whatever ``x``, ``y`` or ``a`` and ``b`` hold.  Operands
with a zero extent make a kernel a no-op (no element is written, the
call is still logged), except that gemv and gemm with an empty
contraction apply beta to the destination in the same way.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .errors import AliasingError, DomainError, ShapeError, UnknownBackendError

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


# A record is 24 bytes: the id of its row's signature, then alpha and
# beta as doubles.  A signature is ``(kernel, shapes, trans, carries
# alpha, carries beta)``; the table holds each distinct one once, for
# every log, and a scalar that a row does not carry is not read back.
# axpy and ger rows carry beta unless it is 1: their signature says
# _UNLESS_1, so that one signature serves every beta.
_RECORD = struct.Struct("qdd")
_pack, _unpack_from = _RECORD.pack, _RECORD.unpack_from
_SIZE = _RECORD.size
_CHUNK = 4096 * _SIZE
_UNLESS_1 = "unless 1"
_signatures: list = []  # row id -> signature
_ids: dict = {}  # signature -> row id


def _row_id(signature) -> int:
    """The id of a row signature, assigned on first sight."""
    rid = _ids.get(signature)
    if rid is None:
        rid = _ids[signature] = len(_signatures)
        _signatures.append(signature)
    return rid


def _record(rid, alpha, beta) -> CallRecord:
    kernel, shapes, trans, has_alpha, has_beta = _signatures[rid]
    if has_beta is _UNLESS_1:
        has_beta = beta != 1.0
    return CallRecord(kernel, shapes, alpha if has_alpha else None,
                      beta if has_beta else None, trans)


class CallRecords(Sequence):
    """The records of a call log, oldest first, as :class:`CallRecord`.

    They are packed into one bytearray, 24 bytes a record: the id of the
    call's kernel, shapes, trans flags and carried scalars in a table that
    grows only with the distinct ones, then alpha and beta.  So the log
    holds no Python object per call, but it is still never bounded.
    Indexing and iteration decode the CallRecord.
    """

    __slots__ = ("_buf",)

    def __init__(self, records=()):
        self._buf = bytearray()
        for r in records:
            rid = _row_id((r.kernel, r.shapes, r.trans, r.alpha is not None,
                           r.beta is not None))
            self._buf += _pack(rid, 0.0 if r.alpha is None else r.alpha,
                               0.0 if r.beta is None else r.beta)

    def __len__(self):
        return len(self._buf) // _SIZE

    def _at(self, i):
        return _record(*_unpack_from(self._buf, i * _SIZE))

    def __getitem__(self, i):
        picked = range(len(self))[i]
        if isinstance(i, slice):
            return [self._at(j) for j in picked]
        return self._at(picked)

    def __iter__(self):
        return map(self._at, range(len(self)))

    def __eq__(self, other):
        if isinstance(other, CallRecords):
            # equal records may differ in a scalar the row does not carry
            return self._buf == other._buf or list(self) == list(other)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self):
        return f"CallRecords({list(self)!r})"


@dataclass
class CallLog:
    """Append-only instrumentation attached to kernel dispatch.

    ``records`` holds one :class:`CallRecord` per kernel call, 24 bytes
    each, and is never bounded; ``element_writes`` counts destination
    elements written by kernels; ``allocations`` counts tensor buffer
    allocations.  Reset is explicit.
    """

    records: CallRecords = field(default_factory=CallRecords)
    element_writes: int = 0
    allocations: int = 0

    def reset(self) -> None:
        self.records._buf.clear()  # in place: the kernels append to it
        self.element_writes = 0
        self.allocations = 0

    def kernel_counts(self) -> dict:
        # row ids are read from copies of slices of the buffer: a view of
        # the buffer itself would stop a kernel call in another thread
        # from appending to it
        buf, ids = self.records._buf, Counter()
        for start in range(0, len(buf), _CHUNK):
            ids.update(memoryview(buf[start:start + _CHUNK]).cast("q")[::3])
        counts: dict = {}
        for rid, n in ids.items():
            kernel = _signatures[rid][0]
            counts[kernel] = counts.get(kernel, 0) + n
        return counts

    def snapshot(self) -> "CallLog":
        records = CallRecords()
        records._buf += self.records._buf
        return CallLog(records, self.element_writes, self.allocations)


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

    def axpy(self, alpha, x, y, beta):
        if beta == 0.0:
            np.multiply(x, alpha, out=y)
            return
        if beta != 1.0:
            y *= beta
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

    def ger(self, alpha, x, y, a, beta):
        update = alpha * np.multiply.outer(x, y)
        if beta == 0.0:
            a[...] = update
        elif beta == 1.0:
            a += update
        else:
            a[...] = update + beta * a

    def gemm(self, trans_a, trans_b, alpha, a, b, beta, c):
        opa = a.T if trans_a else a
        opb = b.T if trans_b else b
        m, k = opa.shape
        n = opb.shape[1]
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
    trans flags, never through copies.  Each kernel's wrappers are
    resolved once, keyed by element type, and take their optional
    arguments by position, which skips f2py's keyword parsing; f2py
    converts a bool trans flag itself.
    """

    name = "external-blas"

    def __init__(self):
        from scipy.linalg import blas

        for k in ("axpy", "dot", "nrm2", "gemv", "ger", "gemm"):
            # self._axpy ... self._gemm: element type -> BLAS wrapper
            setattr(self, "_" + k, {dt: blas.get_blas_funcs(k, dtype=dt)
                                    for dt in (np.dtype(np.float32),
                                               np.dtype(np.float64))})

    copy = NaiveBackend.copy

    def axpy(self, alpha, x, y, beta):
        if beta == 0.0 or x.ndim != 1:
            # scipy exposes no axpby (one numpy pass) and no transposing
            # copy
            NaiveBackend.axpy(self, alpha, x, y, beta)
            return
        if beta != 1.0:
            y *= beta
        res = self._axpy[x.dtype](x, y, None, alpha)
        if res is not y:
            y[...] = res

    def dot(self, x, y):
        return float(self._dot[x.dtype](x, y))

    def nrm2(self, x):
        return float(self._nrm2[x.dtype](x))

    def gemv(self, trans, alpha, a, x, beta, y):
        # (alpha, a, x, beta, y, offx, incx, offy, incy, trans, overwrite_y)
        res = self._gemv[a.dtype](alpha, a, x, beta, y, 0, 1, 0, 1, trans, 1)
        if res is not y:
            y[...] = res

    def ger(self, alpha, x, y, a, beta):
        if beta == 0.0:  # BLAS's ger has no beta
            a.fill(0.0)
        elif beta != 1.0:
            a *= beta
        # (alpha, x, y, incx, incy, a, overwrite_x, overwrite_y, overwrite_a)
        res = self._ger[a.dtype](alpha, x, y, 1, 1, a, 0, 0, 1)
        if res is not a:
            a[...] = res

    def gemm(self, trans_a, trans_b, alpha, a, b, beta, c):
        # (alpha, a, b, beta, c, trans_a, trans_b, overwrite_c)
        res = self._gemm[a.dtype](alpha, a, b, beta, c, trans_a, trans_b, 1)
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
# dispatch layer: checks, logging and write accounting
#
# Element types are compared by identity first (numpy shares one dtype
# object per native type); alpha and beta by exact type first, as the
# lowered statements pass floats; the call-log record is appended inline;
# the backend is called by attribute, so a method replaced on the
# instance is the one called.
#
# Each kernel finds its row id in a dict keyed by the extents that
# determine the others, one dict per combination of its trans flags, so
# that the key is a tuple the call already holds or a flat one.  Kernels
# that carry no scalar map their key to the whole packed record.  These
# dicts, like the signature table, grow with the distinct signatures
# seen, not with the calls.

_buf = _active_log.records._buf  # cleared in place, never replaced
_copy_recs: dict = {}
_dot_recs: dict = {}
_nrm2_recs: dict = {}
_axpy_ids = ({}, {})  # by trans
_gemv_ids = ({}, {})  # by trans
_ger_ids: dict = {}
_gemm_ids = ({}, {}, {}, {})  # by 2*trans_a + trans_b


def _real(v, what, not_real=DomainError):
    """``v`` as a float if it is a real number that a double holds (a bool
    is not one; NaN and infinities are).  ``not_real`` otherwise, and
    DomainError when it overflows a double.  ``what`` names ``v`` in the
    message."""
    if type(v) is float:
        return v
    if type(v) is not int and (not isinstance(v, Real)
                               or isinstance(v, bool)):
        raise not_real(
            f"{what} {v!r} is a {type(v).__name__}, not a real number")
    try:
        f = float(v)
    except OverflowError:
        f = math.inf
    if math.isinf(f) and f != v:  # finite, but beyond a double's range
        raise DomainError(f"{what} {v!r} overflows a double")
    return f


def _same_types(dt, *tensors):
    """TypeError unless every tensor holds ``dt`` elements."""
    for t in tensors:
        if t._data.dtype != dt:
            raise TypeError(f"mixed element types: {dt} vs {t.dtype}")


def _overlaps(dest, x, y=None) -> bool:
    """Whether ``dest`` shares storage with ``x`` or with ``y`` (None: no
    second operand): it is one of them, or it and one of them share an
    element where either of the two is a view.  Buffers that two tensors
    allocated themselves cannot overlap, so such a pair skips the storage
    test, and when all of them did, identity is the whole test."""
    own = dest.owns_storage
    if own and x.owns_storage and (y is None or y.owns_storage):
        return x is dest or y is dest
    return (x is dest or y is dest
            or not (own and x.owns_storage)
            and np.shares_memory(x._data, dest._data)
            or y is not None and not (own and y.owns_storage)
            and np.shares_memory(y._data, dest._data))


def _aliased(kernel):
    return AliasingError(
        f"{kernel}: the destination overlaps an operand; write into a "
        f"tensor of its own")


def _scale_only(view, beta, size) -> None:
    """view <- beta*view, reading no other operand, as BLAS does for alpha
    0 or an empty contraction: a zero fill for beta 0 (the old values are
    not read), no write for beta 1."""
    if beta == 1.0:
        return
    if beta == 0.0:
        view.fill(0.0)
    else:
        view *= beta
    _active_log.element_writes += size


def copy(x, dest) -> None:
    """dest <- x, element for element."""
    global _buf
    if x._data.dtype is not dest._data.dtype:
        _same_types(x._data.dtype, dest)
    xe = x.extents
    if xe != dest.extents:
        raise ShapeError(f"copy: shape mismatch {xe} vs {dest.extents}")
    rec = _copy_recs.get(xe)
    if rec is None:
        rec = _copy_recs[xe] = _pack(
            _row_id(("copy", (xe, xe), (), False, False)), 0.0, 0.0)
    _buf += rec
    size = x._data.shape[0]
    if size == 0:
        return
    _current.copy(x._view, dest._view)
    _active_log.element_writes += size


def axpy(alpha, x, y, beta=1.0, trans=False) -> None:
    """y <- alpha*op(x) + beta*y for tensors of equal extents, any rank.

    Works on the flat column-major buffers: every tensor is a vector in
    storage order.  ``trans`` reads matrix ``x`` transposed, so ``y``'s
    extents are ``x``'s reversed.  Beta 0 does not read ``y``: one pass
    writes ``alpha*x``.  Beta 1 is the plain BLAS axpy; any other beta
    scales ``y`` first.  Alpha 0 does not read ``x``, so only then may
    ``x`` overlap ``y``; otherwise that raises AliasingError.
    The call-log row carries beta unless it is 1, and trans ``(True,)``
    when set.
    """
    global _buf
    if type(alpha) is not float or type(beta) is not float:
        alpha, beta = _real(alpha, "alpha"), _real(beta, "beta")
    xd, yd = x._data, y._data
    if xd.dtype is not yd.dtype:
        _same_types(xd.dtype, y)
    xe = x.extents
    if trans:
        if len(xe) != 2:
            raise ShapeError(f"axpy: trans needs a matrix, x has extents {xe}")
        xe = (xe[1], xe[0])
    if xe != y.extents:
        raise ShapeError(f"axpy: shape mismatch {xe} vs {y.extents}")
    if alpha != 0.0 and _overlaps(y, x):
        raise _aliased("axpy")
    ids = _axpy_ids[1 if trans else 0]
    rid = ids.get(xe)
    if rid is None:
        rid = ids[xe] = _row_id(("axpy", (x.extents, xe),
                                 (True,) if trans else (), True, _UNLESS_1))
    _buf += _pack(rid, alpha, beta)
    size = xd.shape[0]
    if size == 0:
        return
    if alpha == 0.0:
        _scale_only(yd, beta, size)
        return
    if trans:
        _current.axpy(alpha, x._view.T, y._view, beta)
    else:
        _current.axpy(alpha, xd, yd, beta)
    _active_log.element_writes += size


def dot(x, y) -> float:
    """Inner product of two vectors."""
    global _buf
    xd, yd = x._data, y._data
    if xd.dtype is not yd.dtype:
        _same_types(xd.dtype, y)
    xe = x.extents
    if len(xe) != 1 or xe != y.extents:
        raise ShapeError(f"dot: incompatible vectors {xe} vs {y.extents}")
    rec = _dot_recs.get(xe)
    if rec is None:
        rec = _dot_recs[xe] = _pack(
            _row_id(("dot", (xe, xe), (), False, False)), 0.0, 0.0)
    _buf += rec
    if xe[0] == 0:
        return 0.0
    return _current.dot(xd, yd)


def nrm2(x) -> float:
    """Euclidean norm of a vector, overflow-safe."""
    global _buf
    xe = x.extents
    if len(xe) != 1:
        raise ShapeError(f"nrm2: expected a vector, got extents {xe}")
    rec = _nrm2_recs.get(xe)
    if rec is None:
        rec = _nrm2_recs[xe] = _pack(
            _row_id(("nrm2", (xe,), (), False, False)), 0.0, 0.0)
    _buf += rec
    if xe[0] == 0:
        return 0.0
    return _current.nrm2(x._data)


def gemv(trans, alpha, a, x, beta, y) -> None:
    """y <- alpha*op(a)*x + beta*y.  Alpha 0 or an empty contraction
    leaves beta*y.  ``y`` overlapping ``a`` or ``x`` raises
    AliasingError."""
    global _buf
    if type(alpha) is not float or type(beta) is not float:
        alpha, beta = _real(alpha, "alpha"), _real(beta, "beta")
    dt = a._data.dtype
    if x._data.dtype is not dt or y._data.dtype is not dt:
        _same_types(dt, x, y)
    ae, xe, ye = a.extents, x.extents, y.extents
    if len(ae) != 2 or len(xe) != 1 or len(ye) != 1:
        raise ShapeError("gemv: expected matrix, vector, vector")
    rows, cols = (ae[1], ae[0]) if trans else ae
    if cols != xe[0] or rows != ye[0]:
        raise ShapeError(
            f"gemv: op(A) is {rows}x{cols}, x has length {xe[0]}, "
            f"y has length {ye[0]}"
        )
    if _overlaps(y, a, x):
        raise _aliased("gemv")
    ids = _gemv_ids[1 if trans else 0]
    rid = ids.get(ae)
    if rid is None:
        rid = ids[ae] = _row_id(("gemv", (ae, xe, ye), (bool(trans),),
                                 True, True))
    _buf += _pack(rid, alpha, beta)
    if rows == 0:
        return
    if cols == 0 or alpha == 0.0:
        _scale_only(y._data, beta, rows)
        return
    _current.gemv(trans, alpha, a._view, x._data, beta, y._data)
    _active_log.element_writes += rows


def ger(alpha, x, y, a, beta=1.0) -> None:
    """a <- alpha*x*yT + beta*a (rank-1 update).  The call-log row
    carries beta unless it is 1.  ``a`` overlapping ``x`` or ``y`` raises
    AliasingError."""
    global _buf
    if type(alpha) is not float or type(beta) is not float:
        alpha, beta = _real(alpha, "alpha"), _real(beta, "beta")
    dt = a._data.dtype
    if x._data.dtype is not dt or y._data.dtype is not dt:
        _same_types(dt, x, y)
    xe, ye, ae = x.extents, y.extents, a.extents
    if len(xe) != 1 or len(ye) != 1 or len(ae) != 2:
        raise ShapeError("ger: expected vector, vector, matrix")
    if ae != (xe[0], ye[0]):
        raise ShapeError(
            f"ger: A is {ae}, outer product is ({xe[0]}, {ye[0]})"
        )
    if _overlaps(a, x, y):
        raise _aliased("ger")
    rid = _ger_ids.get(ae)
    if rid is None:
        rid = _ger_ids[ae] = _row_id(("ger", (xe, ye, ae), (), True,
                                      _UNLESS_1))
    _buf += _pack(rid, alpha, beta)
    size = ae[0] * ae[1]
    if size == 0:
        return
    if alpha == 0.0:
        _scale_only(a._data, beta, size)
        return
    _current.ger(alpha, x._data, y._data, a._view, beta)
    _active_log.element_writes += size


def gemm(trans_a, trans_b, alpha, a, b, beta, c) -> None:
    """c <- alpha*op(a)*op(b) + beta*c.  Alpha 0 or an empty contraction
    leaves beta*c.  ``c`` overlapping ``a`` or ``b`` raises
    AliasingError."""
    global _buf
    if type(alpha) is not float or type(beta) is not float:
        alpha, beta = _real(alpha, "alpha"), _real(beta, "beta")
    dt = a._data.dtype
    if b._data.dtype is not dt or c._data.dtype is not dt:
        _same_types(dt, b, c)
    ae, be, ce = a.extents, b.extents, c.extents
    if len(ae) != 2 or len(be) != 2 or len(ce) != 2:
        raise ShapeError("gemm: expected three matrices")
    m, ka = (ae[1], ae[0]) if trans_a else ae
    kb, n = (be[1], be[0]) if trans_b else be
    if ka != kb or ce != (m, n):
        raise ShapeError(
            f"gemm: op(A) is {m}x{ka}, op(B) is {kb}x{n}, C is {ce}"
        )
    if _overlaps(c, a, b):
        raise _aliased("gemm")
    ids = _gemm_ids[(2 if trans_a else 0) + (1 if trans_b else 0)]
    key = (m, ka, n)
    rid = ids.get(key)
    if rid is None:
        rid = ids[key] = _row_id(("gemm", (ae, be, ce),
                                  (bool(trans_a), bool(trans_b)), True, True))
    _buf += _pack(rid, alpha, beta)
    if m == 0 or n == 0:
        return
    if ka == 0 or alpha == 0.0:
        _scale_only(c._data, beta, m * n)
        return
    _current.gemm(trans_a, trans_b, alpha, a._view, b._view, beta, c._view)
    _active_log.element_writes += m * n
