"""Differential tests for multi-kernel lowering.

Hypothesis draws product chains, sums that carry ``beta*dest`` in either
position and scaled sums over tensors of any rank, with extents down to
zero; the forms that once went to a naive evaluator are pinned to their
kernel sequences.  Each statement runs on every available backend in float32 and
float64 and is checked three ways: the value against ``_oracle.py``, the
kernel sequence in the call log, and the temporaries in
``log().allocations``.

Operands hold small integers and coefficients are short binary
fractions, so every product and sum below is exact in float32: results
are compared for equality, whatever order a kernel sums in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazyblas import (
    Tensor,
    accumulate,
    assign,
    evaluate,
    kernels,
    lit,
    lower,
    normalize,
    transpose,
)
from lazyblas.kernels import log, reset_log

from _oracle import oracle_eval

BACKENDS = [b for b in ("naive", "external-blas")
            if b in kernels.available_backends()]
combos = pytest.mark.parametrize(
    "backend,dtype",
    [(b, d) for b in BACKENDS for d in (np.float32, np.float64)])

EXTENT = st.integers(0, 4)
COEF = st.sampled_from([1.0, -1.0, 0.5, 2.0, -0.25, 3.0])
MODE = st.sampled_from(["evaluate", "assign", "accumulate"])
SEED = st.integers(0, 2 ** 32 - 1)
EXAMPLES = settings(max_examples=60, deadline=None)


class Operands:
    """Seeded tensors of one dtype holding integers in [-3, 3]."""

    def __init__(self, seed, dtype):
        self.rng = np.random.default_rng(seed)
        self.dtype = dtype

    def __call__(self, *extents):
        t = Tensor(len(extents), *extents, dtype=self.dtype)
        t.column_view()[...] = self.rng.integers(-3, 4, size=extents)
        return t

    def matrix(self, rows, cols, trans):
        """A factor that reads as rows x cols, stored transposed if asked."""
        if trans:
            return transpose(self(cols, rows))
        return self(rows, cols)


def run_statement(mode, e, dest, dtype):
    """Run ``e`` in ``mode``; returns (result, expected, temporaries).

    The expectation is taken from float64 copies before anything runs;
    ``temporaries`` is the allocation count minus the result tensor that
    ``evaluate`` returns.
    """
    want = oracle_eval(normalize(e))
    if mode == "accumulate":
        want = want + dest.to_numpy()
    reset_log()
    if mode == "evaluate":
        out = evaluate(e)
    elif mode == "assign":
        out = assign(dest, e)
    else:
        out = accumulate(dest, e)
    temps = log().allocations
    if isinstance(out, Tensor):
        assert out.dtype == dtype
        temps -= mode == "evaluate"
        out = out.to_numpy()
    return out, want, temps


def kernel_sequence():
    return [r.kernel for r in log().records]


# -- product chains ----------------------------------------------------------------

# form -> kernels in order; every form needs exactly one temporary
CHAINS = {
    "(AB)C": ["gemm", "gemm"],
    "A(BC)": ["gemm", "gemm"],
    "(AB)x": ["gemm", "gemv"],
    "A(Bx)": ["gemv", "gemv"],
    "xT(Ay)": ["gemv", "dot"],
    "A(B+cC)": ["axpy", "axpy", "gemm"],
}


def _chain(form, ops, m, k, p, n, ta, c1, c2):
    a = c1 * ops.matrix(m, k, ta)
    if form == "(AB)C":
        return a * ops(k, p) * (c2 * ops(p, n)), (m, n)
    if form == "A(BC)":
        return a * (ops(k, p) * (c2 * ops(p, n))), (m, n)
    if form == "(AB)x":
        return a * ops(k, p) * ops(p), (m,)
    if form == "A(Bx)":
        return a * (ops(k, p) * (c2 * ops(p))), (m,)
    if form == "xT(Ay)":
        return transpose(ops(m)) * (a * ops(k)), ()
    return a * (ops(k, p) + c2 * ops(k, p)), (m, p)


@combos
@EXAMPLES
@given(form=st.sampled_from(sorted(CHAINS)), mode=MODE, seed=SEED,
       dims=st.tuples(EXTENT, EXTENT, EXTENT, EXTENT), ta=st.booleans(),
       c1=COEF, c2=COEF)
def test_chains_lower_to_kernels_through_one_temporary(
        backend, dtype, form, mode, seed, dims, ta, c1, c2):
    kernels.select_backend(backend)
    ops = Operands(seed, dtype)
    e, extents = _chain(form, ops, *dims, ta, c1, c2)
    if not extents:
        mode = "evaluate"
    dest = ops(*extents) if extents else None
    got, want, temps = run_statement(mode, e, dest, dtype)
    np.testing.assert_array_equal(got, want)
    # an empty contraction is still one kernel call: it zeroes dest
    assert kernel_sequence() == CHAINS[form]
    assert temps == 1


# -- beta*dest in either position -----------------------------------------------------


@combos
@EXAMPLES
@given(matvec=st.booleans(), dest_first=st.booleans(), nested=st.booleans(),
       accumulating=st.booleans(), seed=SEED,
       dims=st.tuples(EXTENT, EXTENT, EXTENT), ta=st.booleans(),
       tb=st.booleans(), alpha=COEF, beta=COEF)
def test_beta_dest_in_either_position_is_the_kernel_beta(
        backend, dtype, matvec, dest_first, nested, accumulating, seed, dims,
        ta, tb, alpha, beta):
    kernels.select_backend(backend)
    ops = Operands(seed, dtype)
    m, k, n = dims
    a = alpha * ops.matrix(m, k, ta)
    if nested:  # the left factor goes through a temporary first
        a = a * ops(k, k)
    right = ops(k) if matvec else ops.matrix(k, n, tb)
    dest = ops(m) if matvec else ops(m, n)
    prod = a * right
    e = beta * dest + prod if dest_first else prod + beta * dest
    mode = "accumulate" if accumulating else "assign"
    got, want, temps = run_statement(mode, e, dest, dtype)
    np.testing.assert_array_equal(got, want)
    # with k = 0 too: the kernel itself leaves beta*dest
    last = "gemv" if matvec else "gemm"
    assert kernel_sequence() == (["gemm"] if nested else []) + [last]
    assert temps == nested
    assert log().records[-1].beta == beta + accumulating


# -- scaled sums of any rank ------------------------------------------------------------


@combos
@EXAMPLES
@given(extents=st.lists(EXTENT, min_size=1, max_size=3),
       coefs=st.lists(COEF, min_size=1, max_size=3), mode=MODE, seed=SEED)
def test_scaled_sums_of_any_rank_lower_to_copy_and_axpy(
        backend, dtype, extents, coefs, mode, seed):
    kernels.select_backend(backend)
    ops = Operands(seed, dtype)
    e = None
    for c in coefs:
        term = c * ops(*extents)
        e = term if e is None else e + term
    dest = ops(*extents)
    got, want, temps = run_statement(mode, e, dest, dtype)
    np.testing.assert_array_equal(got, want)
    first = "copy" if mode == "assign" and coefs[0] == 1.0 else "axpy"
    assert kernel_sequence() == [first] + ["axpy"] * (len(coefs) - 1)
    assert temps == 0


# -- assign never reads the destination -------------------------------------------


def _nan_routes(ops):
    """(name, expression, destination, expected kernels) per assign route.
    Beta is 0 on every route, so NaNs in the destination must not reach
    the result."""
    a, b = ops(3, 4), ops(4, 2)
    x, y, z = ops(4), ops(3), ops(4)
    return [
        ("gemm", 0.5 * a * b, ops(3, 2), ["gemm"]),
        ("gemv", 0.5 * a * x, ops(3), ["gemv"]),
        ("ger", 0.5 * y * transpose(x), ops(3, 4), ["ger"]),
        ("copy", z, ops(4), ["copy"]),
        ("axpy", 2.0 * z, ops(4), ["axpy"]),
        ("sum", z + 2.0 * x, ops(4), ["copy", "axpy"]),
        ("chain", a * b * transpose(b), ops(3, 4), ["gemm", "gemm"]),
        ("empty-gemm", ops(3, 0) * ops(0, 2), ops(3, 2), ["gemm"]),
        ("empty-gemv", ops(3, 0) * ops(0), ops(3), ["gemv"]),
    ]


@combos
def test_assign_into_nan_destination_is_finite(backend, dtype):
    kernels.select_backend(backend)
    for name, e, dest, expected in _nan_routes(Operands(7, dtype)):
        dest.column_view()[...] = np.nan
        got, want, _ = run_statement("assign", e, dest, dtype)
        assert np.isfinite(got).all(), name
        np.testing.assert_array_equal(got, want, err_msg=name)
        assert kernel_sequence() == expected, name


# -- the forms the naive evaluator used to serve --------------------------------------


def _former_fallback_forms(ops):
    """name -> (destination, expression, kernels when assigning, kernels
    when accumulating, temporaries)."""
    a, b, c = ops(3, 3), ops(3, 3), ops(3, 3)
    x, y = ops(3), ops(3)
    buf = ops(9)._data
    d, q = Tensor.wrap((3, 3), buf), Tensor.wrap((3, 3), buf)
    return {
        "3c": (c, 3.0 * c, ["axpy"], ["axpy"], 0),
        "0.5ab+0.25c+a": (c, 0.5 * a * b + 0.25 * c + a,
                          ["gemm", "axpy"], ["gemm", "axpy"], 0),
        "xyT+0.5c": (c, x * transpose(y) + 0.5 * c, ["ger"], ["ger"], 0),
        "aT": (c, transpose(a), ["axpy"], ["axpy"], 0),
        "a+bT": (c, a + transpose(b), ["copy", "axpy"], ["axpy", "axpy"], 0),
        "cT": (c, transpose(c), ["axpy", "copy"], ["axpy", "axpy"], 1),
        "(xTy)a": (c, (transpose(x) * y) * a, ["dot", "axpy"],
                   ["dot", "axpy"], 0),
        "p+2q, q a view of d": (d, a + 2.0 * q, ["axpy", "copy", "axpy"],
                                ["axpy", "axpy", "axpy"], 1),
    }


@combos
@pytest.mark.parametrize("mode", ["assign", "accumulate"])
@pytest.mark.parametrize("form", sorted(_former_fallback_forms(
    Operands(0, np.float64))))
def test_former_fallback_forms_lower_to_kernels(backend, dtype, mode, form):
    kernels.select_backend(backend)
    dest, e, assigning, accumulating, temps = _former_fallback_forms(
        Operands(11, dtype))[form]
    got, want, allocated = run_statement(mode, e, dest, dtype)
    np.testing.assert_array_equal(got, want)
    assert kernel_sequence() == (assigning if mode == "assign"
                                 else accumulating)
    assert allocated == temps


@combos
def test_scalar_forms_evaluate_by_dots(backend, dtype):
    kernels.select_backend(backend)
    ops = Operands(12, dtype)
    x, y, z = ops(3), ops(3), ops(3)
    for e, expected in ((transpose(x) * y + transpose(z) * y, ["dot", "dot"]),
                        (lit(2.0), [])):
        got, want, temps = run_statement("evaluate", e, None, dtype)
        assert isinstance(got, float) and got == want
        assert kernel_sequence() == expected
        assert temps == 0


# -- the destination rule inside the one sum routine ---------------------------------


@combos
@pytest.mark.parametrize("mode", ["assign", "accumulate"])
def test_one_dest_term_twice_folds_once_per_occurrence(backend, dtype, mode):
    # one Term object occurs twice: its 0.5 folds into beta once per occurrence
    kernels.select_backend(backend)
    c = Operands(13, dtype)(3, 3)
    t = 0.5 * c
    beta = 1.0 + (mode == "accumulate")
    assert [op.args for op in lower(t + t, dest=c, mode=mode)] == [
        (0.0, c, c, beta, False)]
    got, want, temps = run_statement(mode, t + t, c, dtype)
    np.testing.assert_array_equal(got, want)
    assert kernel_sequence() == ["axpy"]
    assert temps == 0


@combos
@pytest.mark.parametrize("mode", ["assign", "accumulate"])
def test_one_view_term_twice_gets_one_temporary_per_occurrence(
        backend, dtype, mode):
    kernels.select_backend(backend)
    c = Operands(14, dtype)(3, 3)
    t = 0.5 * Tensor.wrap(c.extents, c._data)
    # both temporaries are written before anything writes c
    first = "copy" if mode == "assign" else "axpy"
    got, want, temps = run_statement(mode, t + t, c, dtype)
    np.testing.assert_array_equal(got, want)
    assert kernel_sequence() == ["axpy", "axpy", first, "axpy"]
    assert temps == 2


@combos
def test_accumulate_zero_times_dest_is_one_axpy_that_writes_nothing(
        backend, dtype):
    kernels.select_backend(backend)
    c = Operands(15, dtype)(3, 3)
    assert [op.args for op in lower(0.0 * c, dest=c, mode="accumulate")] == [
        (0.0, c, c, 1.0, False)]
    got, want, temps = run_statement("accumulate", 0.0 * c, c, dtype)
    np.testing.assert_array_equal(got, want)
    assert kernel_sequence() == ["axpy"]
    assert log().records[0].alpha == 0.0
    assert log().element_writes == 0
    assert temps == 0
