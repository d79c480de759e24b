"""Differential tests over general expression trees.

One hypothesis strategy draws whole statements: trees of every kind
(scalar, vector, matrix) built from sums, scalings, scalar-valued
factors, sums of scalars, bare literals, dots, gemv/gemm/ger products
and transposed-matrix leaves, with extents down to zero.  Tensor-valued
trees run through ``assign``, ``accumulate`` and ``+=`` with the
destination added on either side, more than once, transposed and as an
overlapping ``Tensor.wrap`` view of its storage, or into a NaN-filled
destination; every tree also runs through ``evaluate``.  Each statement
runs on every backend in float32 and float64 and is checked against
``_oracle.py``: equal where every intermediate value is exact in the
element type, within a dtype-scaled bound elsewhere.  A statement that
puts the destination's storage inside a product must raise
AliasingError and write nothing (an empty view shares no storage).
Every call-log row names a kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazyblas import (
    AliasingError,
    Tensor,
    accumulate,
    assign,
    evaluate,
    kernels,
    lit,
    normalize,
    transpose,
)
from lazyblas.expr import Literal, Product, Sum, Term
from lazyblas.kernels import log, reset_log

from _oracle import oracle_eval

BACKENDS = [b for b in ("naive", "external-blas")
            if b in kernels.available_backends()]
combos = pytest.mark.parametrize(
    "backend,dtype",
    [(b, d) for b in BACKENDS for d in (np.float32, np.float64)])

KERNEL_ROWS = {"copy", "axpy", "dot", "gemv", "ger", "gemm"}
EXTENT = st.integers(0, 3)
COEF = st.sampled_from([1.0, -1.0, 0.5, 2.0, -0.25, 3.0])
SEED = st.integers(0, 2 ** 32 - 1)


# -- trees ------------------------------------------------------------------------
#
# A tree is drawn as a nested tuple (printed by hypothesis when a case
# fails) and built into an expression over seeded operands.  Kinds: "s"
# scalar, ("v", n) vector, ("m", m, n) matrix.


@st.composite
def trees(draw, kind, depth):
    how = draw(st.sampled_from(
        ["leaf"] if depth == 0 else
        ["leaf", "sum", "scale", "scalar-factor", "product", "product"]))
    if how == "leaf":
        if kind == "s":
            if draw(st.booleans()):
                return ("lit", draw(COEF))
            n = draw(EXTENT)
            return ("dot", draw(COEF), n, ("leaf", 1.0, (n,), False))
        trans = kind[0] == "m" and draw(st.booleans())
        return ("leaf", draw(COEF), kind[1:], trans)
    if how == "sum":
        return ("sum", draw(trees(kind, depth - 1)),
                draw(trees(kind, depth - 1)))
    if how == "scale":
        return ("scale", draw(COEF), draw(trees(kind, depth - 1)))
    if how == "scalar-factor":
        return ("scalar-factor", draw(trees("s", depth - 1)),
                draw(trees(kind, depth - 1)), draw(st.booleans()))
    k = draw(EXTENT)
    if kind == "s":
        return ("dot", draw(COEF), k, draw(trees(("v", k), depth - 1)))
    if kind[0] == "v":
        return ("gemv", draw(trees(("m", kind[1], k), depth - 1)),
                draw(trees(("v", k), depth - 1)))
    m, n = kind[1:]
    if draw(st.booleans()):
        return ("gemm", draw(trees(("m", m, k), depth - 1)),
                draw(trees(("m", k, n), depth - 1)))
    return ("ger", draw(trees(("v", m), depth - 1)), draw(COEF), n)


def build(d, ops):
    tag = d[0]
    if tag == "lit":
        return lit(d[1])
    if tag == "leaf":
        _, c, extents, trans = d
        if trans:  # stored transposed
            return c * transpose(ops(*reversed(extents)))
        return c * ops(*extents)
    if tag == "sum":
        return build(d[1], ops) + build(d[2], ops)
    if tag == "scale":
        return d[1] * build(d[2], ops)
    if tag == "scalar-factor":
        s, t = build(d[1], ops), build(d[2], ops)
        return s * t if d[3] else t * s
    if tag == "dot":
        return transpose(d[1] * ops(d[2])) * build(d[3], ops)
    if tag == "ger":
        return build(d[1], ops) * transpose(d[2] * ops(d[3]))
    return build(d[1], ops) * build(d[2], ops)  # gemv, gemm


class Operands:
    """Seeded tensors of one dtype holding integers in [-3, 3]."""

    def __init__(self, seed, dtype):
        self.rng = np.random.default_rng(seed)
        self.dtype = dtype

    def __call__(self, *extents):
        t = Tensor(len(extents), *extents, dtype=self.dtype)
        t.column_view()[...] = self.rng.integers(-3, 4, size=extents)
        return t


# -- statements ------------------------------------------------------------------


@st.composite
def statements(draw):
    """(kind, tree, mode, destination addends, alias in a product, view
    offset, NaN-filled destination)."""
    kind = draw(st.sampled_from(["s", "v", "m"]))
    if kind == "v":
        kind = ("v", draw(EXTENT))
    elif kind == "m":
        kind = ("m", draw(EXTENT), draw(EXTENT))
    tree = draw(trees(kind, draw(st.integers(0, 3))))
    if kind == "s":
        return kind, tree, "evaluate", (), None, 0, False
    mode = draw(st.sampled_from(["evaluate", "assign", "accumulate", "+="]))
    if mode == "evaluate":
        return kind, tree, mode, (), None, 0, False
    if mode == "assign" and draw(st.booleans()):  # dest is not read
        return kind, tree, mode, (), None, 0, True
    forms = ["dest", "view"]
    if kind[0] == "m" and kind[1] == kind[2]:
        forms.append("dest^T")
    addend = st.tuples(st.sampled_from(["left", "right"]), COEF,
                       st.sampled_from(forms))
    addends = tuple(draw(st.lists(addend, max_size=3)))
    in_product = draw(st.sampled_from([None, None, None, "dest", "view"]))
    size = int(np.prod(kind[1:]))
    offset = draw(st.integers(0, max(size - 1, 0)))
    return kind, tree, mode, addends, in_product, offset, False


def _destination(ops, extents, offset, nan):
    """The destination, a wrap of the front of a seeded buffer, and a view
    of the same extents ``offset`` elements further on, so that the two
    overlap (entirely for offset 0)."""
    size = int(np.prod(extents))
    buf = ops(2 * size + 1)._data
    dest = Tensor.wrap(extents, buf)
    if nan:
        dest.column_view()[...] = np.nan
    view = Tensor.wrap(extents, buf[offset:])
    return dest, view


def _with_destination(e, dest, view, addends, in_product, ops):
    for side, c, form in addends:
        t = c * (view if form == "view" else
                 transpose(dest) if form == "dest^T" else dest)
        e = t + e if side == "left" else e + t
    if in_product is not None:
        d = dest if in_product == "dest" else view
        if len(dest.extents) == 1:
            e = e + ops(d.extents[0], d.extents[0]) * d
        else:
            e = e + d * ops(d.extents[1], d.extents[1])
    return e


# -- exactness ----------------------------------------------------------------------


class _Abs:
    """A tensor's absolute values, as the oracle reads a leaf."""

    def __init__(self, tensor):
        self._view = np.abs(tensor.column_view())

    def column_view(self):
        return self._view


def _mirror(n):
    """``n`` with every coefficient, literal and element made absolute."""
    t = type(n)
    if t is Literal:
        return Literal(abs(n.value))
    if t is Term:
        return Term(abs(n.coef), _Abs(n.tensor), n.trans)
    return t(_mirror(n.left), _mirror(n.right))


def _subtrees(n):
    yield n
    if type(n) in (Sum, Product):
        yield from _subtrees(n.left)
        yield from _subtrees(n.right)


def _fraction_bits(n):
    """Bits below the binary point that any value computed in ``n`` can
    need: each coefficient adds its own, a product both sides'."""
    t = type(n)
    if t is Literal or t is Term:
        c = abs(n.value if t is Literal else n.coef)
        bits = 0
        while c != int(c):
            c *= 2
            bits += 1
        return bits
    left, right = _fraction_bits(n.left), _fraction_bits(n.right)
    return left + right if t is Product else max(left, right)


def _bound(n):
    """(|n| with absolute values everywhere, whether every intermediate
    value fits the element type's significand exactly)."""
    mirror = _mirror(n)
    peak = max(float(np.max(oracle_eval(s), initial=0.0))
               for s in _subtrees(mirror))
    return oracle_eval(mirror), peak * 2.0 ** _fraction_bits(n)


def check(got, want, magnitude, exact, dtype):
    if exact:
        np.testing.assert_array_equal(got, want)
    else:  # a forward-error bound scaled to the element type
        tol = 64 * np.finfo(dtype).eps * np.asarray(magnitude)
        assert np.all(np.abs(np.asarray(got) - want) <= tol)


# -- the property --------------------------------------------------------------------


def run(mode, dest, e):
    if mode == "evaluate":
        return evaluate(e)
    if mode == "assign":
        return assign(dest, e)
    if mode == "accumulate":
        return accumulate(dest, e)
    t = dest
    t += e
    return t


@combos
@settings(max_examples=250, deadline=None)
@given(statement=statements(), seed=SEED)
def test_general_trees_match_the_oracle_on_kernels(backend, dtype, statement,
                                                   seed):
    kernels.select_backend(backend)
    kind, tree, mode, addends, in_product, offset, nan = statement
    ops = Operands(seed, dtype)
    e = build(tree, ops)
    dest = None
    if mode != "evaluate":
        dest, view = _destination(ops, kind[1:], offset, nan)
        e = _with_destination(e, dest, view, addends, in_product, ops)
        before = dest._data.copy()
    n = normalize(e)
    want = oracle_eval(n)
    magnitude, peak = _bound(n)
    if mode in ("accumulate", "+="):
        want = want + dest.to_numpy()
        magnitude = magnitude + np.abs(dest.to_numpy())
        peak += float(np.max(np.abs(before), initial=0.0))
    exact = peak < 2.0 ** np.finfo(dtype).nmant
    reset_log()
    # an empty view shares no element with the destination
    if in_product == "dest" or in_product == "view" and dest.size:
        with pytest.raises(AliasingError):
            run(mode, dest, e)
        assert len(log().records) == 0 and log().allocations == 0
        assert dest._data.tobytes() == before.tobytes()
        return
    got = run(mode, dest, e)
    if kind == "s":
        assert isinstance(got, float)
    else:
        assert got is dest or mode == "evaluate"
        assert got.dtype == dtype and got.extents == tuple(kind[1:])
        got = got.to_numpy()
    if nan:
        assert not np.isnan(got).any()
    check(got, want, magnitude, exact, dtype)
    rows = {r.kernel for r in log().records}
    assert rows <= KERNEL_ROWS, rows
