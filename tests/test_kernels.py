import gc
import math
import sys
import threading
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from lazyblas import (
    DomainError,
    ShapeError,
    Tensor,
    UnknownBackendError,
    kernels,
    matrix,
    vector,
)
from lazyblas.kernels import available_backends, log, reset_log, select_backend

from conftest import rand_tensor

HAVE_BLAS = "external-blas" in available_backends()
needs_blas = pytest.mark.skipif(not HAVE_BLAS, reason="scipy BLAS binding missing")


# -- copy ---------------------------------------------------------------------


def test_copy_ones():
    x = vector(4, fill=1.0)
    dest = vector(4)
    kernels.copy(x, dest)
    assert list(dest) == [1.0] * 4


def test_copy_is_deep():
    x = vector(3, fill=2.0)
    dest = vector(3)
    kernels.copy(x, dest)
    x.set(0, 5.0)
    assert dest.get(0) == 2.0


def test_copy_write_count():
    x = matrix(3, 4, fill=1.0)
    dest = matrix(3, 4)
    reset_log()
    kernels.copy(x, dest)
    assert log().element_writes == 12


def test_copy_shape_mismatch():
    with pytest.raises(ShapeError):
        kernels.copy(vector(3), vector(4))


# -- axpy ------------------------------------------------------------------------


def test_axpy_basic():
    x = vector(3, fill=1.0)
    y = vector(3)
    kernels.axpy(2.0, x, y)
    assert list(y) == [2.0, 2.0, 2.0]


def test_axpy_alpha_zero():
    y = vector(3, fill=5.0)
    kernels.axpy(0.0, vector(3, fill=9.0), y)
    assert list(y) == [5.0, 5.0, 5.0]


def test_axpy_exact_vs_loop(rng):
    x = rand_tensor(rng, 64)
    y = rand_tensor(rng, 64)
    expect = [2.5 * a + b for a, b in zip(x, y)]
    kernels.axpy(2.5, x, y)
    assert list(y) == expect  # bit-exact on the naive backend


def test_axpy_any_rank_flat_buffers(rng):
    x = rand_tensor(rng, 2, 3, 4)
    y = rand_tensor(rng, 2, 3, 4)
    expect = 1.5 * x.to_numpy() + y.to_numpy()
    kernels.axpy(1.5, x, y)
    np.testing.assert_array_equal(y.to_numpy(), expect)
    with pytest.raises(ShapeError):
        kernels.axpy(1.0, rand_tensor(rng, 2, 3), rand_tensor(rng, 3, 2))


BACKEND_DTYPES = [(b, d) for b in available_backends()
                  for d in (np.float32, np.float64)]


@pytest.mark.parametrize("backend,dtype", BACKEND_DTYPES)
@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_axpy_beta_is_axpby(backend, dtype, beta):
    # y <- alpha*x + beta*y; beta 0 never reads y, so its NaNs stay out
    select_backend(backend)
    x, y = Tensor(1, 7, dtype=dtype), Tensor(1, 7, dtype=dtype)
    x.column_view()[...] = np.arange(7) - 3  # small integers: exact
    y.column_view()[...] = np.nan if beta == 0.0 else 3.0
    want = 0.5 * x.to_numpy() + (0.0 if beta == 0.0 else beta * 3.0)
    reset_log()
    kernels.axpy(0.5, x, y, beta)
    np.testing.assert_array_equal(y.to_numpy(), want)
    assert y.to_numpy().dtype == dtype
    assert log().element_writes == 7
    # the row for beta 1 is a plain axpy's, byte for byte
    assert list(log().records) == [kernels.CallRecord(
        "axpy", ((7,), (7,)), 0.5, None if beta == 1.0 else beta)]


@pytest.mark.parametrize("backend,dtype", BACKEND_DTYPES)
@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_axpy_alpha_zero_never_reads_x(backend, dtype, beta):
    # as BLAS: y <- beta*y whatever x holds; zeros at beta 0, where the
    # naive backend once gave 0*inf = NaN
    select_backend(backend)
    x, y = Tensor(1, 3, dtype=dtype), Tensor(1, 3, dtype=dtype)
    x.column_view()[...] = [np.inf, 1.0, np.nan]
    y.column_view()[...] = [1.0, -2.0, 3.0]
    reset_log()
    kernels.axpy(0.0, x, y, beta)
    np.testing.assert_array_equal(y.to_numpy(), beta * np.array([1, -2, 3]))
    assert log().element_writes == (0 if beta == 1.0 else 3)
    assert list(log().records) == [kernels.CallRecord(
        "axpy", ((3,), (3,)), 0.0, None if beta == 1.0 else beta)]


@pytest.mark.parametrize("backend,dtype", BACKEND_DTYPES)
@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_axpy_trans_reads_a_matrix_transposed(backend, dtype, beta):
    select_backend(backend)
    a, c = Tensor(2, 2, 3, dtype=dtype), Tensor(2, 3, 2, dtype=dtype)
    a.column_view()[...] = np.arange(6).reshape(2, 3) - 2
    c.column_view()[...] = np.nan if beta == 0.0 else 3.0
    want = 0.5 * a.to_numpy().T + (0.0 if beta == 0.0 else beta * 3.0)
    reset_log()
    kernels.axpy(0.5, a, c, beta, True)
    np.testing.assert_array_equal(c.to_numpy(), want)
    assert log().element_writes == 6
    assert list(log().records) == [kernels.CallRecord(
        "axpy", ((2, 3), (3, 2)), 0.5, None if beta == 1.0 else beta,
        (True,))]
    with pytest.raises(ShapeError):
        kernels.axpy(1.0, a, Tensor(2, 2, 3, dtype=dtype), beta, True)
    with pytest.raises(ShapeError):
        kernels.axpy(1.0, vector(3, dtype=dtype), vector(3, dtype=dtype),
                     beta, True)


@pytest.mark.parametrize("backend,dtype", BACKEND_DTYPES)
@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_axpy_zero_extents_log_and_write_nothing(backend, dtype, beta):
    select_backend(backend)
    x, y = Tensor(2, 3, 0, dtype=dtype), Tensor(2, 3, 0, dtype=dtype)
    reset_log()
    kernels.axpy(0.5, x, y, beta)
    assert [r.kernel for r in log().records] == ["axpy"]
    assert log().records[0].beta == (None if beta == 1.0 else beta)
    assert log().element_writes == 0


def test_call_records_have_no_instance_dict():
    # slots keep a long-lived call log small
    kernels.dot(vector(2), vector(2))
    rec = log().records[-1]
    assert not hasattr(rec, "__dict__")
    assert (rec.kernel, rec.shapes, rec.trans) == ("dot", ((2,), (2,)), ())


def test_call_log_reads_as_a_sequence_of_records():
    reset_log()
    kernels.dot(vector(2), vector(2))
    snap = log().snapshot()
    kernels.axpy(2.0, vector(3), vector(3))
    assert len(snap.records) == 1 and len(log().records) == 2
    assert log().records[1:] == [kernels.CallRecord("axpy", ((3,), (3,)), 2.0)]
    assert [r.kernel for r in log().records] == ["dot", "axpy"]
    assert log().records[0] == snap.records[0]


def test_call_log_leaves_nothing_for_the_garbage_collector():
    # a long log must not lengthen collection pauses: it holds no Python
    # object per call, also when a destination's extents die with it
    x = vector(3)
    kernels.copy(x, Tensor(1, 3))
    gc.collect()
    gc.collect()
    n0 = len(gc.get_objects())
    for _ in range(1000):
        kernels.copy(x, Tensor(1, 3))
    gc.collect(0)
    assert len(gc.get_objects()) - n0 < 100


# -- the call log's records ---------------------------------------------------


def _round_trips():
    """(call, the record it logs): every field as passed, None where the
    row carries no scalar.  Calls of one shape with other scalars, flags
    or a carried beta must not share a record."""
    v, m = vector, matrix
    rec = kernels.CallRecord
    return [
        (lambda: kernels.copy(v(3), v(3)), rec("copy", ((3,), (3,)))),
        (lambda: kernels.copy(m(2, 3), m(2, 3)),
         rec("copy", ((2, 3), (2, 3)))),
        (lambda: kernels.axpy(0.1, v(3), v(3)),
         rec("axpy", ((3,), (3,)), 0.1)),
        (lambda: kernels.axpy(-3, v(3), v(3), 1.0),
         rec("axpy", ((3,), (3,)), -3.0)),
        (lambda: kernels.axpy(0.1, v(3), v(3), -0.25),
         rec("axpy", ((3,), (3,)), 0.1, -0.25)),
        (lambda: kernels.axpy(0.5, m(2, 2), m(2, 2), 0.0, True),
         rec("axpy", ((2, 2), (2, 2)), 0.5, 0.0, (True,))),
        (lambda: kernels.axpy(0.5, m(2, 2), m(2, 2), 0.0),
         rec("axpy", ((2, 2), (2, 2)), 0.5, 0.0)),
        (lambda: kernels.axpy(0.5, m(2, 3), m(3, 2), 1.0, True),
         rec("axpy", ((2, 3), (3, 2)), 0.5, None, (True,))),
        (lambda: kernels.dot(v(3), v(3)), rec("dot", ((3,), (3,)))),
        (lambda: kernels.dot(v(0), v(0)), rec("dot", ((0,), (0,)))),
        (lambda: kernels.nrm2(v(4)), rec("nrm2", ((4,),))),
        (lambda: kernels.gemv(False, 0.1, m(3, 2), v(2), -2.5, v(3)),
         rec("gemv", ((3, 2), (2,), (3,)), 0.1, -2.5, (False,))),
        (lambda: kernels.gemv(True, np.float32(0.5), m(3, 2), v(3), 1.0,
                              v(2)),
         rec("gemv", ((3, 2), (3,), (2,)), 0.5, 1.0, (True,))),
        (lambda: kernels.ger(0.1, v(3), v(2), m(3, 2)),
         rec("ger", ((3,), (2,), (3, 2)), 0.1)),
        (lambda: kernels.ger(1e300, v(3), v(2), m(3, 2), -0.5),
         rec("ger", ((3,), (2,), (3, 2)), 1e300, -0.5)),
        (lambda: kernels.ger(0.1, v(3), v(2), m(3, 2), 1.0),
         rec("ger", ((3,), (2,), (3, 2)), 0.1)),
        (lambda: kernels.gemm(False, True, 0.1, m(3, 2), m(4, 2), 2.0,
                              m(3, 4)),
         rec("gemm", ((3, 2), (4, 2), (3, 4)), 0.1, 2.0, (False, True))),
        (lambda: kernels.gemm(True, False, np.int64(3), m(2, 3), m(2, 4),
                              0.0, m(3, 4)),
         rec("gemm", ((2, 3), (2, 4), (3, 4)), 3.0, 0.0, (True, False))),
        (lambda: kernels.gemm(True, True, -1.5, m(2, 2), m(2, 2), 1.0,
                              m(2, 2)),
         rec("gemm", ((2, 2), (2, 2), (2, 2)), -1.5, 1.0, (True, True))),
        (lambda: kernels.gemm(False, False, -1.5, m(2, 2), m(2, 2), 1.0,
                              m(2, 2)),
         rec("gemm", ((2, 2), (2, 2), (2, 2)), -1.5, 1.0, (False, False))),
        (lambda: kernels.gemm(False, False, 0.75, m(0, 2), m(2, 3), 0.5,
                              m(0, 3)),
         rec("gemm", ((0, 2), (2, 3), (0, 3)), 0.75, 0.5, (False, False))),
    ]


@pytest.mark.parametrize("backend", available_backends())
def test_every_record_reads_back_as_passed(backend):
    select_backend(backend)
    cases = _round_trips()
    reset_log()
    for call, want in cases + cases[::-1]:
        call()
        assert log().records[-1] == want
    want = [w for _, w in cases + cases[::-1]]
    assert list(log().records) == want
    assert log().records == want
    counts = {}
    for w in want:
        counts[w.kernel] = counts.get(w.kernel, 0) + 1
    assert log().kernel_counts() == counts


def test_records_index_slice_iterate_and_compare():
    cases = _round_trips()
    want = [w for _, w in cases]
    for call, _ in cases:
        call()
    records = log().records
    n = len(want)
    assert len(records) == n
    for i in (0, 5, n - 1, -1, -n):
        assert records[i] == want[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            records[i]
    for s in (slice(1, 4), slice(None, None, -2), slice(-3, None),
              slice(n + 5, None), slice(None)):
        assert records[s] == want[s]
    assert list(iter(records)) == want
    assert records == want and records != want[:-1]
    assert records == kernels.CallRecords(want)  # not byte for byte
    assert records != kernels.CallRecords(want[1:])
    assert (records == 3) is False
    assert repr(records) == f"CallRecords({want!r})"
    assert records.index(want[2]) == 2 and want[3] in records


def test_a_snapshot_keeps_its_records_through_later_calls():
    kernels.gemm(False, False, 0.5, matrix(2, 2), matrix(2, 2), 0.25,
                 matrix(2, 2))
    snap = log().snapshot()
    want = list(snap.records)
    writes, allocs = snap.element_writes, snap.allocations
    kernels.axpy(2.0, vector(3), vector(3))
    assert len(log().records) == 2
    reset_log()
    kernels.dot(vector(3), vector(3))
    assert list(snap.records) == want == [kernels.CallRecord(
        "gemm", ((2, 2), (2, 2), (2, 2)), 0.5, 0.25, (False, False))]
    assert (snap.element_writes, snap.allocations) == (writes, allocs)


def test_reset_clears_the_buffer_the_kernels_append_to():
    buf = log().records._buf
    kernels.dot(vector(3), vector(3))
    reset_log()
    assert log().records._buf is buf and len(log().records) == 0
    kernels.nrm2(vector(3))
    assert [r.kernel for r in log().records] == ["nrm2"]


def test_counting_kernels_lets_other_threads_append():
    # a view held on the record buffer while counting would make a kernel
    # call in another thread fail to append its record
    x = vector(2)
    for _ in range(1000):
        kernels.dot(x, x)
    errors = []

    def work():
        try:
            for _ in range(2000):
                kernels.dot(x, x)
        except Exception as e:  # reported below
            errors.append(e)

    threads = [threading.Thread(target=work) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        while any(t.is_alive() for t in threads):
            log().kernel_counts()
        for t in threads:
            t.join(10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert log().kernel_counts() == {"dot": 1000 + 3 * 2000}


def test_a_record_takes_24_bytes():
    # 10^5 calls; a tuple row per call took 8.8 MB
    x = vector(2)
    reset_log()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(100_000):
            kernels.dot(x, x)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log().records) == 100_000
    assert grown <= 3.2e6


# -- alpha and beta -----------------------------------------------------------


# each kernel that takes scalars: its call, and its operands' extents,
# the destination last
SCALAR_KERNELS = {
    "axpy": (lambda a, b, t: kernels.axpy(a, t[0], t[1], b), [(3,), (3,)]),
    "gemv": (lambda a, b, t: kernels.gemv(False, a, t[0], t[1], b, t[2]),
             [(3, 2), (2,), (3,)]),
    "ger": (lambda a, b, t: kernels.ger(a, t[0], t[1], t[2], b),
            [(3,), (2,), (3, 2)]),
    "gemm": (lambda a, b, t: kernels.gemm(False, False, a, t[0], t[1], b,
                                          t[2]),
             [(3, 2), (2, 2), (3, 2)]),
}


def _scalar_call(kernel, alpha, beta, dtype=np.float64):
    """The kernel's operands, filled with thirds, and a call on them."""
    call, extents = SCALAR_KERNELS[kernel]
    tensors = [Tensor(len(e), *e, fill=1 / 3, dtype=dtype) for e in extents]
    return tensors, lambda: call(alpha, beta, tensors)


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("kernel", sorted(SCALAR_KERNELS))
@pytest.mark.parametrize("bad", [1j, None, "2", True, np.True_, 10**400,
                                 Decimal("0.5"), np.array(2.0), [2.0]],
                         ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("slot", ["alpha", "beta"])
def test_a_scalar_that_is_not_a_real_number_raises_first(backend, kernel,
                                                         bad, slot):
    select_backend(backend)
    alpha, beta = (bad, 0.5) if slot == "alpha" else (0.5, bad)
    tensors, call = _scalar_call(kernel, alpha, beta)
    before = [t.to_numpy() for t in tensors]
    reset_log()
    with pytest.raises(DomainError, match=slot):
        call()
    assert log().records == [] and log().element_writes == 0
    for t, b in zip(tensors, before):
        np.testing.assert_array_equal(t.to_numpy(), b)


@pytest.mark.parametrize("backend,dtype", BACKEND_DTYPES)
@pytest.mark.parametrize("kernel", sorted(SCALAR_KERNELS))
@pytest.mark.parametrize("alpha,beta", [
    (2, -1), (np.float32(0.1), np.float64(0.3)), (np.int64(3), 0.0),
    (Fraction(1, 3), Fraction(3, 4)), (-0.0, 1.0),
    (math.inf, 0.0)], ids=repr)
def test_real_scalars_compute_and_log_as_their_floats(backend, dtype, kernel,
                                                      alpha, beta):
    select_backend(backend)
    want, call = _scalar_call(kernel, float(alpha), float(beta), dtype)
    call()
    got, call = _scalar_call(kernel, alpha, beta, dtype)
    call()
    np.testing.assert_array_equal(got[-1].to_numpy(), want[-1].to_numpy())
    assert len(log().records) == 2 and log().records[1] == log().records[0]


# -- dot / nrm2 ---------------------------------------------------------------


def test_dot_ones():
    assert kernels.dot(vector(8, fill=1.0), vector(8, fill=1.0)) == 8.0


def test_dot_norm_squared(rng):
    x = rand_tensor(rng, 40)
    assert kernels.dot(x, x) == pytest.approx(x.norm() ** 2, rel=1e-12)


def test_dot_exact_vs_loop(rng):
    x = rand_tensor(rng, 64)
    y = rand_tensor(rng, 64)
    s = 0.0
    for a, b in zip(x, y):
        s += a * b
    assert kernels.dot(x, y) == s  # bit-exact on the naive backend


def test_dot_vs_kahan_oracle(rng):
    x = rand_tensor(rng, 1000)
    y = rand_tensor(rng, 1000)
    total = comp = 0.0
    for a, b in zip(x, y):
        term = a * b - comp
        tentative = total + term
        comp = (tentative - total) - term
        total = tentative
    assert kernels.dot(x, y) == pytest.approx(total, rel=1e-10)


def test_nrm2_345():
    assert kernels.nrm2(Tensor.from_nested([3.0, 4.0])) == 5.0


def test_nrm2_zero_vector():
    assert kernels.nrm2(vector(5)) == 0.0


def test_nrm2_no_overflow():
    x = vector(4, fill=1e200)
    assert kernels.nrm2(x) == pytest.approx(2e200, rel=1e-14)


# -- gemv -----------------------------------------------------------------------


def test_gemv_identity():
    a = Tensor(2, 3, fill=lambda i, j: 1.0 if i == j else 0.0)
    x = Tensor.from_nested([1.0, 2.0, 3.0])
    y = vector(3)
    kernels.gemv(False, 1.0, a, x, 0.0, y)
    assert list(y) == [1.0, 2.0, 3.0]


def test_gemv_trans_shape_rule(rng):
    a = rand_tensor(rng, 2, 3)
    x = rand_tensor(rng, 2)
    y = vector(3)
    kernels.gemv(True, 1.0, a, x, 0.0, y)
    ref = a.to_numpy().T @ x.to_numpy()
    np.testing.assert_allclose(y.to_numpy(), ref, rtol=1e-12)


def test_gemv_vs_loop_oracle(rng):
    a = rand_tensor(rng, 16, 16)
    x = rand_tensor(rng, 16)
    y = rand_tensor(rng, 16)
    expect = np.empty(16)
    for i in range(16):
        acc = 0.0
        for j in range(16):
            acc += a.get(i, j) * x.get(j)
        expect[i] = 0.7 * acc + 1.3 * y.get(i)
    kernels.gemv(False, 0.7, a, x, 1.3, y)
    np.testing.assert_allclose(y.to_numpy(), expect, rtol=1e-12)


def test_gemv_shape_error():
    with pytest.raises(ShapeError):
        kernels.gemv(False, 1.0, matrix(2, 3), vector(4), 0.0, vector(2))


# -- ger -------------------------------------------------------------------------


def test_ger_ones():
    a = matrix(2, 2)
    kernels.ger(1.0, vector(2, fill=1.0), vector(2, fill=1.0), a)
    assert a.to_numpy().tolist() == [[1.0, 1.0], [1.0, 1.0]]


def test_ger_alpha_zero(rng):
    a = rand_tensor(rng, 3, 3)
    before = a.to_numpy()
    kernels.ger(0.0, vector(3, fill=1.0), vector(3, fill=1.0), a)
    np.testing.assert_array_equal(a.to_numpy(), before)


@pytest.mark.parametrize("backend,dtype", BACKEND_DTYPES)
@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_ger_beta(backend, dtype, beta):
    # a <- alpha*x*yT + beta*a; beta 0 never reads a, so its NaNs stay out
    select_backend(backend)
    x, y = Tensor(1, 3, dtype=dtype), Tensor(1, 2, dtype=dtype)
    a = Tensor(2, 3, 2, dtype=dtype)
    x.column_view()[...] = [1.0, -2.0, 3.0]
    y.column_view()[...] = [2.0, -1.0]
    a.column_view()[...] = np.nan if beta == 0.0 else 3.0
    want = 0.5 * np.outer([1, -2, 3], [2, -1]) + (
        0.0 if beta == 0.0 else beta * 3.0)
    reset_log()
    kernels.ger(0.5, x, y, a, beta)
    np.testing.assert_array_equal(a.to_numpy(), want)
    assert log().element_writes == 6
    assert list(log().records) == [kernels.CallRecord(
        "ger", ((3,), (2,), (3, 2)), 0.5, None if beta == 1.0 else beta)]


def test_ger_vs_loops(rng):
    x = rand_tensor(rng, 8)
    y = rand_tensor(rng, 5)
    a = rand_tensor(rng, 8, 5)
    expect = a.to_numpy()
    for i in range(8):
        for j in range(5):
            expect[i, j] += 1.5 * (x.get(i) * y.get(j))
    kernels.ger(1.5, x, y, a)
    np.testing.assert_array_equal(a.to_numpy(), expect)


# -- gemm -----------------------------------------------------------------------


def test_gemm_identity_bit_exact(rng):
    a = rand_tensor(rng, 4, 4)
    eye = Tensor(2, 4, fill=lambda i, j: 1.0 if i == j else 0.0)
    c = matrix(4, 4)
    kernels.gemm(False, False, 1.0, a, eye, 0.0, c)
    np.testing.assert_array_equal(c.to_numpy(), a.to_numpy())


def test_gemm_double_transpose_identity(rng):
    a = rand_tensor(rng, 3, 5)
    b = rand_tensor(rng, 4, 3)
    c = matrix(5, 4)
    kernels.gemm(True, True, 1.0, a, b, 0.0, c)
    ref = (b.to_numpy() @ a.to_numpy()).T
    np.testing.assert_allclose(c.to_numpy(), ref, rtol=1e-12)


def test_gemm_paper_constants_vs_triple_loop(rng):
    n = 32
    a = rand_tensor(rng, n, n)
    b = rand_tensor(rng, n, n)
    c = rand_tensor(rng, n, n)
    an, bn, cn = a.to_numpy(), b.to_numpy(), c.to_numpy()
    expect = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for p in range(n):
                acc += an[i, p] * bn[p, j]
            expect[i, j] = 0.5 * acc + 4.0 * cn[i, j]
    kernels.gemm(False, False, 0.5, a, b, 4.0, c)
    np.testing.assert_allclose(c.to_numpy(), expect, rtol=1e-12)


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_gemm_and_gemv_empty_contraction_apply_beta(rng, backend):
    # as BLAS: C <- beta*C; beta 0 zero-fills without reading C, beta 1
    # writes nothing
    kernels.select_backend(backend)
    a, b, x = Tensor(2, 3, 0), Tensor(2, 0, 4), Tensor(1, 0)
    for beta in (2.0, 0.0, 1.0):
        c, y = rand_tensor(rng, 3, 4), rand_tensor(rng, 3)
        if beta == 0.0:
            c.column_view()[...] = np.nan
            y.column_view()[...] = np.nan
        want_c, want_y = beta * c.to_numpy(), beta * y.to_numpy()
        if beta == 0.0:
            want_c[...], want_y[...] = 0.0, 0.0
        reset_log()
        kernels.gemm(False, False, 1.0, a, b, beta, c)
        kernels.gemv(False, 1.0, a, x, beta, y)
        assert log().element_writes == (0 if beta == 1.0 else 12 + 3)
        np.testing.assert_array_equal(c.to_numpy(), want_c)
        np.testing.assert_array_equal(y.to_numpy(), want_y)


@pytest.mark.parametrize("backend,dtype", BACKEND_DTYPES)
@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_alpha_zero_reads_only_the_destination(backend, dtype, beta):
    # gemv, ger and gemm follow axpy: dest <- beta*dest, whatever the
    # other operands hold
    select_backend(backend)
    bad = Tensor(2, 3, 3, fill=np.nan, dtype=dtype)
    bad.column_view()[0, :] = np.inf
    v = Tensor(1, 3, fill=np.inf, dtype=dtype)
    for rank, run in (
            (1, lambda d: kernels.gemv(False, 0.0, bad, v, beta, d)),
            (2, lambda d: kernels.ger(0.0, v, v, d, beta)),
            (2, lambda d: kernels.gemm(True, False, 0.0, bad, bad, beta, d))):
        d = Tensor(rank, 3, fill=2.0, dtype=dtype)
        reset_log()
        run(d)
        np.testing.assert_array_equal(d._data, np.full(d.size, beta * 2.0))
        assert log().element_writes == (0 if beta == 1.0 else d.size)


def test_gemm_alpha0_beta1_bit_unchanged(rng):
    a = rand_tensor(rng, 4, 4)
    b = rand_tensor(rng, 4, 4)
    c = rand_tensor(rng, 4, 4)
    before = c.to_numpy()
    reset_log()
    kernels.gemm(False, False, 0.0, a, b, 1.0, c)
    assert log().element_writes == 0
    np.testing.assert_array_equal(c.to_numpy(), before)


def test_gemm_shape_error():
    with pytest.raises(ShapeError):
        kernels.gemm(False, False, 1.0, matrix(2, 3), matrix(4, 5), 0.0,
                     matrix(2, 5))


# -- backends ----------------------------------------------------------------


def test_naive_backend_logs_kernel_ids(rng):
    select_backend("naive")
    reset_log()
    kernels.dot(rand_tensor(rng, 4), rand_tensor(rng, 4))
    assert [r.kernel for r in log().records] == ["dot"]


def test_unknown_backend_lists_registered():
    with pytest.raises(UnknownBackendError) as exc:
        select_backend("gpu")
    assert "naive" in str(exc.value)


def test_instrumentation_neutrality(rng):
    x = rand_tensor(rng, 33)
    y0 = rand_tensor(rng, 33)
    y1 = Tensor.wrap((33,), y0.to_numpy().copy())
    reset_log()
    kernels.axpy(1.25, x, y0)
    log().reset()  # clearing instrumentation mid-flight changes nothing
    kernels.axpy(1.25, x, y1)
    np.testing.assert_array_equal(y0.to_numpy(), y1.to_numpy())


@needs_blas
@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-10), (np.float32, 1e-4)])
def test_backend_interchangeability(rng, dtype, rtol):
    m, k, n = 17, 23, 9

    def operands():
        return {
            "x": rand_tensor(rng, k, dtype=dtype),
            "y": rand_tensor(rng, k, dtype=dtype),
            "a": rand_tensor(rng, m, k, dtype=dtype),
            "b": rand_tensor(rng, k, n, dtype=dtype),
            "c": rand_tensor(rng, m, n, dtype=dtype),
            "v": rand_tensor(rng, m, dtype=dtype),
        }

    base = operands()
    results = {}
    for name in ("naive", "external-blas"):
        select_backend(name)
        ops = {key: Tensor.wrap(t.extents, t.to_numpy().ravel(order="F").copy())
               for key, t in base.items()}
        out = {}
        out["dot"] = kernels.dot(ops["x"], ops["y"])
        out["nrm2"] = kernels.nrm2(ops["x"])
        kernels.axpy(1.5, ops["x"], ops["y"])
        out["axpy"] = ops["y"].to_numpy()
        kernels.gemv(False, 0.5, ops["a"], ops["x"], 2.0, ops["v"])
        out["gemv"] = ops["v"].to_numpy()
        kernels.ger(0.7, ops["v"], ops["x"], ops["a"])
        out["ger"] = ops["a"].to_numpy()
        kernels.gemm(False, False, 0.5, ops["a"], ops["b"], 4.0, ops["c"])
        out["gemm"] = ops["c"].to_numpy()
        results[name] = out
    for key in results["naive"]:
        np.testing.assert_allclose(results["naive"][key],
                                   results["external-blas"][key], rtol=rtol,
                                   err_msg=key)


@needs_blas
def test_blas_backend_trans_flags(rng):
    select_backend("external-blas")
    a = rand_tensor(rng, 3, 5)
    x = rand_tensor(rng, 3)
    y = vector(5)
    kernels.gemv(True, 1.0, a, x, 0.0, y)
    np.testing.assert_allclose(y.to_numpy(), a.to_numpy().T @ x.to_numpy(),
                               rtol=1e-12)


def test_mixed_dtypes_rejected(rng):
    with pytest.raises(TypeError):
        kernels.dot(rand_tensor(rng, 4), rand_tensor(rng, 4, dtype=np.float32))


# each kernel's arguments: a scalar as itself, a tensor as its extents
KERNEL_ARGS = {
    "copy": [(3,), (3,)],
    "axpy": [1.0, (3,), (3,)],
    "gemv": [False, 1.0, (3, 2), (2,), 0.0, (3,)],
    "ger": [1.0, (3,), (2,), (3, 2), 0.0],
    "gemm": [False, False, 1.0, (3, 2), (2, 4), 0.0, (3, 4)],
}


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("kernel", sorted(KERNEL_ARGS))
def test_mixed_dtypes_raise_and_log_nothing(rng, backend, kernel):
    # float32 in each tensor position in turn, float64 elsewhere
    select_backend(backend)
    spec = KERNEL_ARGS[kernel]
    tensors = [j for j, a in enumerate(spec) if isinstance(a, tuple)]
    for odd in tensors:
        args = [rand_tensor(rng, *a, dtype=np.float32 if j == odd
                            else np.float64) if j in tensors else a
                for j, a in enumerate(spec)]
        before = [args[j].to_numpy() for j in tensors]
        reset_log()
        with pytest.raises(TypeError, match="mixed element types"):
            getattr(kernels, kernel)(*args)
        assert log().records == []
        assert log().element_writes == 0
        for j, b in zip(tensors, before):
            np.testing.assert_array_equal(args[j].to_numpy(), b)


@pytest.mark.parametrize("call", [
    lambda v, m, t: kernels.dot(m, m),
    lambda v, m, t: kernels.dot(t, t),
    lambda v, m, t: kernels.nrm2(m),
    lambda v, m, t: kernels.gemv(False, 1.0, v, v, 0.0, v),
    lambda v, m, t: kernels.gemv(False, 1.0, m, m, 0.0, v),
    lambda v, m, t: kernels.gemv(False, 1.0, t, v, 0.0, v),
    lambda v, m, t: kernels.ger(1.0, m, v, m, 0.0),
    lambda v, m, t: kernels.ger(1.0, v, v, t, 0.0),
    lambda v, m, t: kernels.gemm(False, False, 1.0, v, m, 0.0, m),
    lambda v, m, t: kernels.gemm(False, False, 1.0, m, m, 0.0, t),
], ids=["dot-matrix", "dot-rank3", "nrm2-matrix", "gemv-vector-a",
        "gemv-matrix-x", "gemv-rank3-a", "ger-matrix-x", "ger-rank3-a",
        "gemm-vector-a", "gemm-rank3-c"])
def test_wrong_rank_operands_raise_shape_error(call):
    v, m, t = vector(3), matrix(3, 3), Tensor(3, 3)
    reset_log()
    with pytest.raises(ShapeError):
        call(v, m, t)
    assert log().records == []
    assert log().element_writes == 0


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("kernel", ["gemm", "gemv", "ger", "axpy"])
def test_a_strided_wrap_destination_is_written_in_place(rng, backend, kernel):
    # buf[::2] is not contiguous, so a BLAS binding writes its result to a
    # copy, which must come back to the wrapped elements; the skipped
    # elements stay as they were
    select_backend(backend)
    a, b = rand_tensor(rng, 3, 2), rand_tensor(rng, 2, 3)
    x, y = rand_tensor(rng, 3), rand_tensor(rng, 2)
    extents, want, call = {
        "gemm": ((3, 3), lambda c: 2.0 * a.to_numpy() @ b.to_numpy() + 0.5 * c,
                 lambda c: kernels.gemm(False, False, 2.0, a, b, 0.5, c)),
        "gemv": ((2,), lambda c: 2.0 * a.to_numpy().T @ x.to_numpy() + 0.5 * c,
                 lambda c: kernels.gemv(True, 2.0, a, x, 0.5, c)),
        "ger": ((3, 2), lambda c: 2.0 * np.outer(x.to_numpy(), y.to_numpy())
                + 0.5 * c,
                lambda c: kernels.ger(2.0, x, y, c, 0.5)),
        "axpy": ((3, 2), lambda c: 2.0 * a.to_numpy() + 0.5 * c,
                 lambda c: kernels.axpy(2.0, a, c, 0.5)),
    }[kernel]
    size = math.prod(extents)
    buf = rng.random(2 * size)
    skipped = buf[1::2].copy()
    c = Tensor.wrap(extents, buf[::2])
    expect = want(c.to_numpy())
    call(c)
    np.testing.assert_allclose(c.to_numpy(), expect, rtol=1e-13)
    np.testing.assert_allclose(buf[::2], expect.ravel(order="F"), rtol=1e-13)
    np.testing.assert_array_equal(buf[1::2], skipped)
