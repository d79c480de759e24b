import gc

import numpy as np
import pytest

from lazyblas import (
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
    # a long log must not lengthen collection pauses: its rows are
    # untracked on the collector's first pass, also when a destination's
    # extents die with it
    x = vector(3)
    kernels.copy(x, Tensor(1, 3))
    gc.collect()
    gc.collect()
    n0 = len(gc.get_objects())
    for _ in range(1000):
        kernels.copy(x, Tensor(1, 3))
    gc.collect(0)
    assert len(gc.get_objects()) - n0 < 100


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


def test_gemm_zero_dimension_no_writes(rng):
    a = Tensor(2, 3, 0)
    b = Tensor(2, 0, 4)
    c = rand_tensor(rng, 3, 4)
    before = c.to_numpy()
    reset_log()
    kernels.gemm(False, False, 1.0, a, b, 2.0, c)
    assert log().element_writes == 0
    np.testing.assert_array_equal(c.to_numpy(), before)


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
