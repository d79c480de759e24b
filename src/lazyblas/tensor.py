"""Rank-generic dense tensor with column-major storage.

A :class:`Tensor` of rank ``k`` stores its elements in a single
contiguous buffer where the first index varies fastest: element
``(i0, ..., i_{k-1})`` lives at linear offset ``sum(i_d * stride(d))``
with ``stride(0) = 1`` and ``stride(d)`` the product of all lower
extents.  That layout is exactly what the BLAS-style kernels in
:mod:`lazyblas.kernels` expect, so a matrix can be handed to them with
leading dimension equal to its row extent and no copies.

Each input has one check, shared by every entry point that takes it.
A rank, an extent, an index, a dimension or an offset must be an
integer (:func:`_integer`: an ``int`` or a numpy integer, never a bool),
or DomainError.  A fill, a callable fill's result, a ``from_nested``
leaf and an element write must be a real number that a double holds
(``kernels._real``: never a bool; NaN and infinities are real numbers),
or DomainError, ``10**400`` included.  Every tensor that allocates its
buffer, ``from_nested``'s included, does so in the constructor, which
counts it in ``log().allocations``.

Tensors are plain value containers: concurrent reads are safe, writes
need external exclusion.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

from . import kernels
from .kernels import _real
from .errors import ArityError, BoundsError, DomainError, RankError

__all__ = ["Tensor", "matrix", "vector", "format_tensor"]


_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)


def _integer(v, what):
    """``v`` as an int if it is an integer (a bool is not one; a numpy
    integer is), DomainError otherwise.  ``what`` names ``v`` in the
    message."""
    if type(v) is int:
        return v
    if not isinstance(v, Integral) or isinstance(v, bool):
        raise DomainError(f"{what} {v!r} is not an integer")
    return int(v)


def _resolve_extents(rank, extents):
    # exact ints, one per dimension: the common case, checked cheaply
    if type(rank) is int and len(extents) == rank > 0:
        for e in extents:
            if type(e) is not int or e < 0:
                break
        else:
            return extents
    rank = _integer(rank, "rank")
    if rank < 1:
        raise DomainError(f"rank must be a positive integer, got {rank!r}")
    if len(extents) == 0:
        raise ArityError("at least one extent is required")
    if len(extents) > rank:
        raise ArityError(f"got {len(extents)} extents for rank {rank}")
    full = tuple(_integer(e, "extent") for e in extents)
    for e in full:
        if e < 0:
            raise DomainError(f"negative extent {e}")
    # fewer extents than the rank: replicate the last one (square shorthand)
    return full + (full[-1],) * (rank - len(full))


def _real_dtype(dtype):
    """``dtype`` if it names float32 or float64; DomainError otherwise."""
    if dtype is np.float64 or dtype is _F64 or dtype is np.float32 \
            or dtype is _F32:
        return dtype
    try:
        dt = np.dtype(dtype)
    except TypeError:
        raise DomainError(f"{dtype!r} is not an element type") from None
    if dt != _F64 and dt != _F32:
        raise DomainError(f"element type {dt} is not float32 or float64")
    return dt


def _index(i, extent, what="index", out_of_range=BoundsError):
    """``i`` if it indexes ``range(extent)``: DomainError when it is not
    an integer (:func:`_integer`), ``out_of_range`` when it is out of
    range.  ``what`` names ``i`` in the message."""
    if type(i) is not int:
        i = _integer(i, what)
    if not 0 <= i < extent:
        raise out_of_range(f"{what} {i} out of range [0, {extent})")
    return i


def _column_view(data, extents):
    """``data`` viewed with ``extents`` in column-major order; made once
    per tensor, so that kernels read it as an attribute."""
    return data if len(extents) == 1 else data.reshape(extents, order="F")


class Tensor:
    """Dense rank-``k`` tensor over float32 or float64 elements.

    ``fill`` may be a real number (uniform fill) or a callable taking
    one index per dimension and returning a real number (element
    generator).  Fewer extents than the rank replicate the last given
    extent, so ``Tensor(2, 3)`` is a 3x3 matrix of zeros.  Any other
    ``dtype`` or element raises DomainError.
    """

    __slots__ = ("extents", "owns_storage", "_data", "_view")

    def __init__(self, rank, *extents, fill=0.0, dtype=np.float64):
        self.extents = ext = _resolve_extents(rank, extents)
        dtype = _real_dtype(dtype)
        self.owns_storage = True
        # allocated in its column-major shape, so that the flat buffer is
        # the cheap view; np.zeros costs a third of np.full; a -0.0 fill
        # keeps its sign
        if type(fill) is float and fill == 0.0 and math.copysign(1.0, fill) > 0:
            view = np.zeros(ext, dtype, "F")
        elif callable(fill):
            view = np.empty(ext, dtype, "F")
            for idx in np.ndindex(ext):
                view[idx] = _real(fill(*idx), "fill")
        else:
            view = np.full(ext, _real(fill, "fill"), dtype, "F")
        self._view = view
        self._data = view if len(ext) == 1 else view.ravel("F")
        kernels.log().allocations += 1

    # -- alternate constructors -------------------------------------------

    @classmethod
    def wrap(cls, extents, buffer) -> "Tensor":
        """View externally owned storage in place; never copies or frees it.

        ``buffer`` must be a writable one-dimensional float32 or float64
        array at least as long as the product of ``extents``; writes
        through the tensor are visible in the buffer and vice versa.
        """
        buffer = np.asarray(buffer)
        if buffer.ndim != 1:
            raise DomainError("wrap expects a one-dimensional buffer")
        _real_dtype(buffer.dtype)
        if not buffer.flags.writeable:
            raise DomainError("wrap expects a writable buffer")
        t = cls.__new__(cls)
        t.extents = _resolve_extents(len(extents), tuple(extents))
        size = math.prod(t.extents)
        if buffer.shape[0] < size:
            raise DomainError(
                f"buffer has {buffer.shape[0]} elements, shape {t.extents} "
                f"needs {size}"
            )
        t._data = buffer[:size]
        t.owns_storage = False
        t._view = _column_view(t._data, t.extents)
        return t

    @classmethod
    def from_nested(cls, nested, dtype=np.float64) -> "Tensor":
        """Build a tensor from a nested sequence literal.

        Nesting depth sets the rank, the outermost list is dimension 0.
        Ragged nesting is rejected: silently truncating siblings of
        unequal length would corrupt data.  Every leaf must be a real
        number that a double holds, as a fill must (DomainError otherwise).
        The tensor is built by the constructor, after every leaf is checked.
        """
        extents = []
        level = nested
        while isinstance(level, (list, tuple)):
            extents.append(len(level))
            if len(level) == 0:
                break
            level = level[0]
        if not extents:
            raise DomainError("from_nested expects a nested list or tuple")

        leaves = []  # in nesting order: the last dimension varies fastest

        def check(node, depth):
            if depth == len(extents):
                if isinstance(node, (list, tuple)):
                    raise DomainError("inconsistent nesting depth")
                leaves.append(_real(node, "element"))
                return
            if not isinstance(node, (list, tuple)) or len(node) != extents[depth]:
                raise DomainError(
                    f"ragged literal: expected {extents[depth]} entries at "
                    f"depth {depth}"
                )
            for child in node:
                check(child, depth + 1)

        check(nested, 0)
        t = cls(len(extents), *extents, dtype=dtype)
        t._view[...] = np.reshape(leaves, extents)  # outer list = dimension 0
        return t

    # -- basic geometry ----------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.extents)

    @property
    def size(self) -> int:
        return math.prod(self.extents)

    @property
    def dtype(self):
        return self._data.dtype

    def stride(self, d) -> int:
        """Linear-offset step along dimension ``d``; ``stride(rank)`` is the
        size.  ``d`` is checked as an index is, but DomainError when it
        is out of range."""
        return math.prod(
            self.extents[:_index(d, self.rank + 1, "dimension", DomainError)])

    def offset_of(self, *indices) -> int:
        if len(indices) != self.rank:
            raise ArityError(
                f"got {len(indices)} indices for rank {self.rank}"
            )
        off = 0
        s = 1
        for i, e in zip(indices, self.extents):
            off += _index(i, e) * s
            s *= e
        return off

    # -- element access ----------------------------------------------------

    def get(self, *indices):
        return self._data[self.offset_of(*indices)].item()

    def set(self, *args):
        """``set(i0, ..., i_{k-1}, value)``.  ``value`` must be a real
        number, as in the constructors (DomainError otherwise); ``t[i] = v``
        and ``t[i][j] = v`` come here too."""
        *indices, value = args
        self._data[self.offset_of(*indices)] = _real(value, "element")

    def value_at(self, offset):
        """Element at a linear buffer offset (pairs with dim_iter); the
        offset is checked against the buffer like an index."""
        return self._data[_index(offset, self._data.shape[0])].item()

    def __getitem__(self, i):
        if self.rank == 1:
            return self.get(i)
        return _IndexProxy(self, (_index(i, self.extents[0]),))

    def __setitem__(self, i, value):
        if self.rank != 1:
            raise RankError("chained assignment needs all indices; use set()")
        self.set(i, value)

    # -- iteration ----------------------------------------------------------

    def linear_iter(self):
        """All elements in buffer order."""
        for v in self._data:
            yield v.item()

    def __iter__(self):
        return self.linear_iter()

    def dim_iter(self, d, base=0):
        """Offsets along dimension ``d`` starting at ``base``.

        Feed an offset from an outer dim_iter back in as ``base`` to walk
        nested dimensions; a full nest visits each offset exactly once.
        ``d`` is checked as in :meth:`stride`, and ``base`` as an offset
        into the buffer (BoundsError outside it); a ``base`` whose index
        along ``d`` is not 0 raises DomainError, as its walk would leave
        the dimension.  An empty tensor yields no offset.
        """
        _index(d, self.rank, "dimension", DomainError)
        size = self.size
        if size == 0:
            return range(0)
        step = self.stride(d)
        _index(base, size, "base")
        n = self.extents[d]
        if base // step % n:
            raise DomainError(f"base {base} has index {base // step % n} "
                              f"along dimension {d}, not 0")
        return range(base, base + step * n, step)

    # -- rank-specific interface ---------------------------------------------

    def rows(self) -> int:
        if self.rank != 2:
            raise RankError(f"rows() needs rank 2, tensor has rank {self.rank}")
        return self.extents[0]

    def columns(self) -> int:
        if self.rank != 2:
            raise RankError(f"columns() needs rank 2, tensor has rank {self.rank}")
        return self.extents[1]

    def norm(self) -> float:
        """Euclidean norm of a vector, via the nrm2 kernel."""
        if self.rank != 1:
            raise RankError(f"norm() needs rank 1, tensor has rank {self.rank}")
        return kernels.nrm2(self)

    # -- interop -------------------------------------------------------------

    def column_view(self):
        """The elements as a Fortran-ordered numpy view (no copy)."""
        return self._view

    def to_numpy(self):
        """An independent numpy copy in the natural index order."""
        return np.array(self.column_view())

    def __str__(self):
        return format_tensor(self)

    def __repr__(self):
        return f"Tensor(rank={self.rank}, extents={self.extents}, dtype={self.dtype})"


class _IndexProxy:
    """The indices of chained ``[]`` applications so far, each checked as
    it arrives; the last one reads or writes through ``get`` or ``set``."""

    __slots__ = ("_tensor", "_indices")

    def __init__(self, tensor, indices):
        self._tensor = tensor
        self._indices = indices

    def __getitem__(self, i):
        t, indices = self._tensor, self._indices + (i,)
        if len(indices) == t.rank:
            return t.get(*indices)
        _index(i, t.extents[len(self._indices)])
        return _IndexProxy(t, indices)

    def __setitem__(self, i, value):
        t = self._tensor
        if len(self._indices) + 1 != t.rank:
            raise RankError("chained assignment needs all indices")
        t.set(*self._indices, i, value)


def vector(n, fill=0.0, dtype=np.float64) -> Tensor:
    return Tensor(1, n, fill=fill, dtype=dtype)


def matrix(m, n=None, fill=0.0, dtype=np.float64) -> Tensor:
    if n is None:
        return Tensor(2, m, fill=fill, dtype=dtype)
    return Tensor(2, m, n, fill=fill, dtype=dtype)


def _fmt(v) -> str:
    return format(v, "g")


def format_tensor(t: Tensor) -> str:
    """Textual form: one line for a vector, one row per line for a matrix,
    labelled rank-2 slices for higher ranks, ``[empty]`` for size zero."""
    if t.size == 0:
        return "[empty]"
    if t.rank == 1:
        return " ".join(_fmt(t.value_at(off)) for off in t.dim_iter(0))
    if t.rank == 2:
        lines = []
        for r in t.dim_iter(0):
            lines.append(" ".join(_fmt(t.value_at(c)) for c in t.dim_iter(1, r)))
        return "\n".join(lines)
    # rank >= 3: one labelled rank-2 block per combination of trailing indices
    blocks = []
    trailing = t.extents[2:]
    for combo in np.ndindex(trailing):
        base = sum(i * t.stride(d + 2) for d, i in enumerate(combo))
        label = "[:, :, " + ", ".join(str(i) for i in combo) + "]"
        lines = [label]
        for r in t.dim_iter(0, base):
            row = range(r, r + t.stride(2), t.stride(1))
            lines.append(" ".join(_fmt(t.value_at(c)) for c in row))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
