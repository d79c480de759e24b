"""Differential tests for multi-kernel lowering.

Hypothesis draws product chains, sums that carry ``beta*dest`` in either
position and scaled sums over tensors of any rank, with extents down to
zero.  Each statement runs on every available backend in float32 and
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

# form -> (kernels in order, which of the extents (m, k, p, n) the last
# product contracts over); every form needs exactly one temporary
CHAINS = {
    "(AB)C": (["gemm", "gemm"], 2),
    "A(BC)": (["gemm", "gemm"], 1),
    "(AB)x": (["gemm", "gemv"], 2),
    "A(Bx)": (["gemv", "gemv"], 1),
    "xT(Ay)": (["gemv", "dot"], None),
    "A(B+cC)": (["axpy", "axpy", "gemm"], 1),
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
    expected, inner = CHAINS[form]
    if mode == "assign" and dims[inner] == 0:
        # an empty contraction still zeroes dest, which the kernels skip
        expected = expected[:-1] + ["fallback"]
    assert kernel_sequence() == expected
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
    last = "gemv" if matvec else "gemm"
    if k == 0 and beta + accumulating != 1.0:
        # an empty contraction leaves beta*dest, which the kernels skip
        last = "fallback"
    assert kernel_sequence() == (["gemm"] if nested else []) + [last]
    assert temps == nested
    if last != "fallback":
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
