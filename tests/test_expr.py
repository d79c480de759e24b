import numpy as np
import pytest

from lazyblas import (
    AliasingError,
    SCALAR,
    ShapeError,
    Tensor,
    UnsupportedOperationError,
    accumulate,
    assign,
    evaluate,
    infer_kind,
    leaf,
    lit,
    lower,
    matrix,
    normalize,
    structurally_equal,
    transpose,
    vector,
)
from lazyblas import kernels
from lazyblas.expr import Literal, Product, ResultKind, Sum, Term
from lazyblas.kernels import log, reset_log

from _oracle import oracle_eval, result_as_numpy
from conftest import rand_tensor


# -- construction is lazy -----------------------------------------------------


def test_laziness_no_kernel_calls_no_writes(rng):
    a = rand_tensor(rng, 4, 4)
    b = rand_tensor(rng, 4, 4)
    x = rand_tensor(rng, 4)
    reset_log()
    e = 2.0 * a * b + transpose(a) * x * 0.0 + a  # noqa: F841 built, not run
    assert log().records == []
    assert log().element_writes == 0
    assert log().allocations == 0


def test_lit_and_leaf():
    assert evaluate(lit(0.5)) == 0.5
    a = Tensor.from_nested([[1.0, 2.0], [3.0, 4.0]])
    out = evaluate(leaf(a))
    np.testing.assert_array_equal(out.to_numpy(), a.to_numpy())
    assert out is not a


def test_lit_zero_times_tensor(rng):
    a = rand_tensor(rng, 3, 3)
    out = evaluate(lit(0.0) * leaf(a))
    assert out.extents == (3, 3)
    assert not out.to_numpy().any()


# -- normalization ---------------------------------------------------------------


def test_scalar_fold_exact(rng):
    a = rand_tensor(rng, 3, 3)
    for _ in range(25):
        alpha, beta = rng.random(), rng.random()
        n = normalize(lit(alpha) * (lit(beta) * leaf(a)))
        assert type(n) is Term
        assert n.coef == alpha * beta  # exact floating product
        assert n.tensor is a  # identical leaf, not a copy


def test_unscaled_leaf_coefficient_is_one(rng):
    n = normalize(leaf(rand_tensor(rng, 4)))
    assert n.coef == 1.0


def test_normalize_idempotent_random(rng):
    a = rand_tensor(rng, 3, 3)
    b = rand_tensor(rng, 3, 3)
    x = rand_tensor(rng, 3)
    exprs = [
        2.0 * a * (3.0 * b),
        transpose(x) * (0.5 * x),
        a + 2.0 * b + a * b,
        transpose(2.0 * a),
        x * transpose(x) + 7.0 * a,
    ]
    for e in exprs:
        once = normalize(e)
        assert structurally_equal(normalize(once), once)


def test_transpose_involution_normalizes_away(rng):
    a = rand_tensor(rng, 3, 3)
    n = normalize(transpose(transpose(leaf(a))))
    assert type(n) is Term and not n.trans


def test_transpose_of_scaled_leaf(rng):
    a = rand_tensor(rng, 2, 3)
    n = normalize(transpose(2.0 * a))
    assert type(n) is Term and n.trans and n.coef == 2.0


def test_transpose_rank3_rejected(rng):
    t = Tensor(3, 2, 2, 2)
    with pytest.raises(UnsupportedOperationError):
        normalize(transpose(leaf(t)))


def test_transpose_of_scaled_leaf_is_a_term_as_built(rng):
    a = rand_tensor(rng, 2, 3)
    e = transpose(2.0 * a)
    assert type(e) is Term and e.trans and e.coef == 2.0 and e.tensor is a
    assert normalize(e) is e
    with pytest.raises(UnsupportedOperationError):
        transpose(a * transpose(a))  # only leaves transpose


def test_operators_fold_scalars_bottom_up(rng):
    a, b = rand_tensor(rng, 3, 3), rand_tensor(rng, 3, 3)
    s, t = 0.1, 0.7
    e = s * transpose(a) * t * b  # ((s*aT)*t)*b
    assert type(e) is Product and type(e.right) is Term
    assert e.left.trans and e.left.coef == (s * 1.0) * t
    e = 2.0 * (a * b + 3 * a)  # a sum scales every addend
    assert type(e) is Sum and type(e.left) is Product
    assert e.left.left.coef == 2.0 and e.left.right.coef == 1.0
    assert e.right.coef == 2.0 * 3.0
    e = (a * b) * 0.5  # a product scales its left factor
    assert e.left.coef == 0.5 and e.right.coef == 1.0
    assert type(lit(2.0) * lit(3.0)) is Literal


def test_operators_scale_by_any_real_number_but_a_bool(rng):
    x, y = rand_tensor(rng, 4), rand_tensor(rng, 4)
    for e, scale in ((x * 2.0, 2.0), (2 * x, 2.0),
                     (np.float64(2.0) * x, 2.0),
                     (x * np.float32(0.5), 0.5)):
        want = result_as_numpy(oracle_eval(normalize(e)))
        np.testing.assert_array_equal(want, scale * x.to_numpy())
        np.testing.assert_array_equal(evaluate(e).to_numpy(), want)
    e = 2 * (x + y)
    np.testing.assert_allclose(
        evaluate(e).to_numpy(), result_as_numpy(oracle_eval(normalize(e))),
        rtol=1e-15)
    with pytest.raises(TypeError, match="bool"):
        True * x
    with pytest.raises(ShapeError, match=r"scalar and tensor\(rank 1\)"):
        infer_kind(2.0 + x)


# -- kind inference -----------------------------------------------------------


def test_kind_dot_is_scalar(rng):
    x, y = rand_tensor(rng, 5), rand_tensor(rng, 5)
    assert infer_kind(transpose(x) * y) is SCALAR


def test_kind_outer_is_matrix(rng):
    x, y = rand_tensor(rng, 4), rand_tensor(rng, 6)
    assert infer_kind(x * transpose(y)) == ResultKind((4, 6))


def test_kind_matrix_chain(rng):
    a = rand_tensor(rng, 4, 8)
    b = rand_tensor(rng, 8, 3)
    assert infer_kind(0.3 * a * b) == ResultKind((4, 3))


def test_kind_gemv(rng):
    a = rand_tensor(rng, 4, 8)
    x = rand_tensor(rng, 8)
    assert infer_kind(a * x) == ResultKind((4,))


def test_kind_add_mismatch(rng):
    with pytest.raises(ShapeError) as exc:
        infer_kind(leaf(rand_tensor(rng, 2, 3)) + leaf(rand_tensor(rng, 3)))
    msg = str(exc.value)
    assert "2, 3" in msg and "(3,)" in msg  # both offending kinds named


def test_kind_inner_dim_mismatch(rng):
    with pytest.raises(ShapeError):
        infer_kind(leaf(rand_tensor(rng, 2, 3)) * leaf(rand_tensor(rng, 4, 5)))


def test_kind_vector_products_need_exactly_one_transposed_side(rng):
    x, y = rand_tensor(rng, 3), rand_tensor(rng, 3)
    for e in (x * y, transpose(x) * transpose(y)):
        with pytest.raises(ShapeError, match="exactly one transposed side"):
            infer_kind(e)
    t, u = rand_tensor(rng, 2, 2, 2), rand_tensor(rng, 2, 2, 2)
    with pytest.raises(ShapeError, match="unsupported product between "
                       r"tensor\(rank 3\)\(2, 2, 2\) and tensor\(rank 3\)"):
        infer_kind(t * u)
    reset_log()
    with pytest.raises(ShapeError, match="unsupported product"):
        assign(rand_tensor(rng, 2, 2, 2), t * u)
    assert log().records == [] and log().element_writes == 0


def test_kind_soundness_random_family(rng):
    for _ in range(150):
        e, _ = _random_expr(rng, depth=4)
        kind = infer_kind(e)
        result = evaluate(e)
        if kind is SCALAR:
            assert isinstance(result, float)
        else:
            assert result.extents == kind.extents


# -- lowering patterns --------------------------------------------------------


def test_lower_copy(rng):
    x, y = rand_tensor(rng, 8), rand_tensor(rng, 8)
    ops = lower(x, dest=y, mode="assign")
    assert [op.kernel for op in ops] == ["copy"]


def test_lower_axpy(rng):
    x, y = rand_tensor(rng, 8), rand_tensor(rng, 8)
    ops = lower(2.0 * x, dest=y, mode="accumulate")
    assert [op.kernel for op in ops] == ["axpy"]
    assert ops[0].alpha == 2.0


def test_scaled_sum_makes_one_pass_per_addend(rng):
    # the first addend writes the destination at beta 0: no zero fill
    p, q, d = (rand_tensor(rng, 16, 16) for _ in range(3))
    reset_log()
    assign(d, 2.0 * p + 3.0 * q)
    assert log().element_writes == 2 * d.size
    x, y = rand_tensor(rng, 64), rand_tensor(rng, 64)
    reset_log()
    assign(y, 2.0 * x)
    assert log().element_writes == y.size
    ops = lower(2.0 * x, dest=y, mode="assign")
    assert [op.kernel for op in ops] == ["axpy"]
    assert ops[0].args == (2.0, x, y, 0.0, False)


@pytest.mark.parametrize("statement,mode,alpha,beta", [
    (lambda x, y: x + y, "assign", 1.0, 1.0),
    (lambda x, y: 2.0 * x + 3.0 * y, "assign", 2.0, 3.0),
    (lambda x, y: 3.0 * y + 2.0 * x, "assign", 2.0, 3.0),
    (lambda x, y: x + y, "accumulate", 1.0, 2.0),
])
def test_dest_beside_one_scaled_leaf_is_the_axpy_beta(
        rng, statement, mode, alpha, beta):
    x, y = rand_tensor(rng, 9), rand_tensor(rng, 9)
    want = alpha * x.to_numpy() + beta * y.to_numpy()
    ops = lower(statement(x, y), dest=y, mode=mode)
    assert [op.kernel for op in ops] == ["axpy"]
    assert ops[0].args == (alpha, x, y, beta, False)
    reset_log()
    (assign if mode == "assign" else accumulate)(y, statement(x, y))
    assert log().kernel_counts() == {"axpy": 1}
    assert log().element_writes == y.size
    np.testing.assert_array_equal(y.to_numpy(), want)


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_dest_addends_fold_into_one_axpy_beta(rng, backend):
    kernels.select_backend(backend)
    a, c = rand_tensor(rng, 3, 3), rand_tensor(rng, 3, 3)
    for e, args in (
            (3.0 * c, (0.0, c, c, 3.0, False)),  # no other addend
            (transpose(a) + c, (1.0, a, c, 1.0, True)),  # transposed leaf
            (c + 2.0 * transpose(a), (2.0, a, c, 1.0, True)),
            (c + 0.5 * c + 2.0 * transpose(a), (2.0, a, c, 1.5, True))):
        want = oracle_eval(normalize(e))
        ops = lower(e, dest=c)
        assert [op.kernel for op in ops] == ["axpy"]
        assert ops[0].args == args
        reset_log()
        assign(c, e)
        assert log().kernel_counts() == {"axpy": 1}
        assert log().allocations == 0
        np.testing.assert_allclose(c.to_numpy(), want, rtol=1e-15)


def test_lower_dot(rng):
    x, y = rand_tensor(rng, 8), rand_tensor(rng, 8)
    ops = lower(transpose(x) * y)
    assert [op.kernel for op in ops] == ["dot"]


def test_lower_without_destination_has_ops_only_for_a_dot(rng):
    x, y = rand_tensor(rng, 4), rand_tensor(rng, 4)
    a = rand_tensor(rng, 4, 4)
    ops = lower(transpose(x) * (a * y))  # the temporary's ops come first
    assert [op.kernel for op in ops] == ["gemv", "dot"]
    for e in (lit(2.0),                                  # a bare literal
              transpose(x) * y + transpose(y) * x,       # a sum of scalars
              (transpose(x) * y) * (transpose(y) * x)):  # a scalar product
        reset_log()
        with pytest.raises(UnsupportedOperationError, match="evaluate"):
            lower(e)
        assert len(log().records) == 0
        assert evaluate(e) == pytest.approx(oracle_eval(normalize(e)),
                                            rel=1e-14)


def test_lower_gemv_trans_and_beta(rng):
    a = rand_tensor(rng, 6, 6)
    x, y = rand_tensor(rng, 6), rand_tensor(rng, 6)
    ops = lower(2.0 * transpose(a) * x + 3.0 * y, dest=y, mode="assign")
    assert [op.kernel for op in ops] == ["gemv"]
    trans, alpha, _, _, beta, _ = ops[0].args
    assert trans and ops[0].alpha == alpha == 2.0 and beta == 3.0


def test_lower_ger(rng):
    x, y = rand_tensor(rng, 4), rand_tensor(rng, 5)
    a = rand_tensor(rng, 4, 5)
    ops = lower(1.5 * x * transpose(y), dest=a, mode="assign")
    assert [op.kernel for op in ops] == ["ger"]
    assert ops[0].alpha == 1.5 and ops[0].args == (1.5, x, y, a, 0.0)
    a.column_view()[...] = np.nan  # beta 0: the kernel does not read a
    reset_log()
    assign(a, 1.5 * x * transpose(y))
    assert log().element_writes == a.size
    np.testing.assert_array_equal(
        a.to_numpy(), 1.5 * np.multiply.outer(x.to_numpy(), y.to_numpy()))
    ops = lower(1.5 * x * transpose(y) + 0.5 * a, dest=a, mode="accumulate")
    assert [op.kernel for op in ops] == ["ger"] and ops[0].args[4] == 1.5


def test_lower_gemm_folds_split_scalars(rng):
    a = rand_tensor(rng, 4, 4)
    b = rand_tensor(rng, 4, 4)
    c = rand_tensor(rng, 4, 4)
    ops = lower(0.5 * transpose(a) * 4.0 * b, dest=c, mode="accumulate")
    assert [op.kernel for op in ops] == ["gemm"]
    op = ops[0]
    trans_a, trans_b, alpha, _, _, beta, _ = op.args
    assert trans_a and not trans_b
    assert op.alpha == alpha == 0.5 * 4.0
    assert beta == 1.0


def test_lower_double_transpose_no_trans_flag(rng):
    a = rand_tensor(rng, 4, 4)
    b = rand_tensor(rng, 4, 4)
    c = rand_tensor(rng, 4, 4)
    ops = lower(transpose(transpose(a)) * b, dest=c, mode="assign")
    assert ops[0].kernel == "gemm" and not ops[0].args[0]  # trans_a


def test_lower_beta_dest_spelling_assign(rng):
    a, b, c = (rand_tensor(rng, 4, 4) for _ in range(3))
    ops = lower(0.5 * a * b + 4.0 * c, dest=c, mode="assign")
    assert [op.kernel for op in ops] == ["gemm"]
    assert ops[0].args[5] == 4.0  # beta


def test_lower_beta_dest_spelling_accumulate(rng):
    a, b, c = (rand_tensor(rng, 4, 4) for _ in range(3))
    ops = lower(0.5 * a * b + 4.0 * c, dest=c, mode="accumulate")
    assert ops[0].kernel == "gemm" and ops[0].args[5] == 5.0  # beta: dest once more


def test_an_op_prints_as_its_call(rng):
    a, b, c = (rand_tensor(rng, 3, 3) for _ in range(3))
    x, y = rand_tensor(rng, 3), rand_tensor(rng, 3)
    ta, tx, ty = repr(a), repr(x), repr(y)
    assert [repr(op) for op in lower(2.0 * transpose(a) * b + c, c)] == [
        f"gemm(True, False, 2.0, {ta}, {b!r}, 1.0, {c!r})"]
    assert [repr(op) for op in lower(a * x + 3.0 * y, y)] == [
        f"gemv(False, 1.0, {ta}, {tx}, 3.0, {ty})"]
    assert [repr(op) for op in lower(0.5 * x * transpose(y), c)] == [
        f"ger(0.5, {tx}, {ty}, {c!r}, 0.0)"]
    assert [repr(op) for op in lower(x + 2.0 * transpose(transpose(y)), x)] \
        == [f"axpy(2.0, {ty}, {tx}, 1.0, False)"]
    assert [repr(op) for op in lower(transpose(a), c, "accumulate")] == [
        f"axpy(1.0, {ta}, {c!r}, 1.0, True)"]
    assert [repr(op) for op in lower(x, y)] == [f"copy({tx}, {ty})"]
    assert [repr(op) for op in lower(transpose(x) * y)] == [
        f"dot({tx}, {ty})"]
    assert [repr(op) for op in lower(3.0 * (transpose(x) * y))] == [
        f"3.0 * dot({tx}, {ty})"]
    assert str(lower(x, y)) == f"[copy({tx}, {ty})]"


def test_lower_shape_mismatch_names_extents(rng):
    a = rand_tensor(rng, 2, 3)
    b = rand_tensor(rng, 4, 5)
    with pytest.raises(ShapeError) as exc:
        evaluate(a * b)
    assert "3" in str(exc.value) and "4" in str(exc.value)


def test_lower_aliasing_rejected(rng):
    b = rand_tensor(rng, 4, 4)
    c = rand_tensor(rng, 4, 4)
    with pytest.raises(AliasingError):
        accumulate(c, c * b)
    with pytest.raises(AliasingError):
        assign(c, b * c)


def test_overlapping_wraps_as_multiplicands_rejected(rng):
    buf = rng.random(16)
    a = Tensor.wrap((4, 4), buf)
    c = Tensor.wrap((4, 4), buf)
    b = rand_tensor(rng, 4, 4)
    with pytest.raises(AliasingError):
        assign(c, a * a)
    with pytest.raises(AliasingError):
        assign(c, b * (a * b))  # nested: the temporary's factor overlaps
    y = Tensor.wrap((4,), buf[4:])
    x = Tensor.wrap((4,), buf[6:])  # shares two elements with y
    with pytest.raises(AliasingError):
        assign(y, b * x)


def test_wrap_of_owned_storage_is_an_alias(rng):
    # the storage test is skipped only when both tensors own their buffers
    a, b = rand_tensor(rng, 4, 4), rand_tensor(rng, 4, 4)
    w = Tensor.wrap(a.extents, a._data)
    with pytest.raises(AliasingError):
        assign(a, w * b)
    with pytest.raises(AliasingError):
        assign(w, b * a)
    x = rand_tensor(rng, 4)
    with pytest.raises(AliasingError):
        assign(Tensor.wrap((4,), x._data), a * x)


def test_additive_overlap_evaluates_alias_safe(rng):
    buf = rng.random(9)
    d = Tensor.wrap((3, 3), buf)
    q = Tensor.wrap((3, 3), buf)
    p = rand_tensor(rng, 3, 3)
    want = p.to_numpy() + 2.0 * q.to_numpy()
    reset_log()
    assign(d, p + 2.0 * q)  # a copy of p into d first would clobber q
    # so 2q is first written to a temporary, then d is written
    assert [r.kernel for r in log().records] == ["axpy", "copy", "axpy"]
    assert log().allocations == 1
    np.testing.assert_allclose(d.to_numpy(), want, rtol=1e-15)


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_a_destination_that_is_not_a_tensor_raises_before_anything_runs(
        rng, backend):
    kernels.select_backend(backend)
    x, y = rand_tensor(rng, 3), rand_tensor(rng, 3)
    before = x.to_numpy(), y.to_numpy()
    arr = np.zeros(3)
    for dest, e, name in ((None, transpose(x) * y, "NoneType"),
                          (arr, x + y, "ndarray"),
                          (x.to_numpy().tolist(), 2.0 * x, "list")):
        for run in (assign, accumulate):
            reset_log()
            with pytest.raises(TypeError, match=f"not {name}"):
                run(dest, e)
            assert log().records == []
            assert log().allocations == 0
            assert log().element_writes == 0
    assert not arr.any()
    np.testing.assert_array_equal(x.to_numpy(), before[0])
    np.testing.assert_array_equal(y.to_numpy(), before[1])


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_lower_with_a_destination_that_is_not_a_tensor_raises_first(
        rng, backend):
    # the TypeError that assign raises, not an AttributeError from the walk
    kernels.select_backend(backend)
    x, y = rand_tensor(rng, 3), rand_tensor(rng, 3)
    before = x.to_numpy(), y.to_numpy()
    arr = np.zeros(3)
    for dest, name in ((arr, "ndarray"), ([0.0, 0.0, 0.0], "list")):
        for e in (x + y, 2.0 * x, transpose(x) * y):
            for mode in ("assign", "accumulate"):
                reset_log()
                with pytest.raises(
                        TypeError,
                        match=f"^destination must be a Tensor, not {name}$"):
                    lower(e, dest, mode)
                assert log().records == []
                assert log().allocations == 0
                assert log().element_writes == 0
    assert not arr.any()
    np.testing.assert_array_equal(x.to_numpy(), before[0])
    np.testing.assert_array_equal(y.to_numpy(), before[1])


def test_disjoint_halves_of_one_buffer_lower_to_kernels(rng):
    buf = rng.random(32)
    a = Tensor.wrap((4, 4), buf[:16])
    c = Tensor.wrap((4, 4), buf[16:])
    want = a.to_numpy() @ a.to_numpy()
    reset_log()
    assign(c, a * a)
    accumulate(c, 2.0 * a)
    assert [r.kernel for r in log().records] == ["gemm", "axpy"]
    np.testing.assert_allclose(c.to_numpy(), want + 2.0 * a.to_numpy(),
                               rtol=1e-14)
    even = Tensor.wrap((4, 4), buf[0::2])  # interleaved, never overlapping
    odd = Tensor.wrap((4, 4), buf[1::2])
    want = even.to_numpy() @ even.to_numpy()
    reset_log()
    assign(odd, even * even)
    assert log().kernel_counts() == {"gemm": 1}
    np.testing.assert_allclose(odd.to_numpy(), want, rtol=1e-14)


def test_matrix_sum_is_a_copy_and_an_axpy(rng):
    a, b, c = (rand_tensor(rng, 3, 3) for _ in range(3))
    ops = lower(a + b, dest=c, mode="assign")
    assert [op.kernel for op in ops] == ["copy", "axpy"]
    assign(c, a + b)
    np.testing.assert_allclose(c.to_numpy(), a.to_numpy() + b.to_numpy(),
                               rtol=1e-15)


def test_nested_product_goes_through_a_temporary(rng):
    a = rand_tensor(rng, 3, 3)
    b = rand_tensor(rng, 3, 3)
    c = rand_tensor(rng, 3, 3)
    e = (a * b) * c  # nested product: no single kernel pattern
    reset_log()
    out = evaluate(e)
    assert log().kernel_counts() == {"gemm": 2}
    np.testing.assert_allclose(out.to_numpy(), result_as_numpy(oracle_eval(
        normalize(e))), rtol=1e-12)


def test_rank3_scaled_sum_is_axpys(rng):
    t = Tensor(3, 2, 2, 2, fill=lambda i, j, l: float(i + j + l))
    reset_log()
    out = evaluate(2.0 * t + t)
    assert log().kernel_counts() == {"axpy": 2}
    np.testing.assert_allclose(out.to_numpy(), 3.0 * t.to_numpy(), rtol=1e-15)


# -- evaluation ----------------------------------------------------------------


def test_evaluate_identity_right_factor():
    a = Tensor.from_nested([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(2, 2, fill=lambda i, j: 1.0 if i == j else 0.0)
    out = evaluate(2.0 * a * eye)
    np.testing.assert_array_equal(out.to_numpy(), 2.0 * a.to_numpy())


def test_evaluate_8x8_products_vs_oracle(rng):
    for _ in range(20):
        a = rand_tensor(rng, 8, 8)
        b = rand_tensor(rng, 8, 8)
        e = float(rng.random()) * a * b
        got = evaluate(e).to_numpy()
        want = oracle_eval(normalize(e))
        np.testing.assert_allclose(got, want, rtol=1e-12)


def test_evaluate_dot_value():
    x = vector(8, fill=1.0)
    assert evaluate(transpose(x) * x) == 8.0


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_scaled_dot_spellings_are_one_dot(rng, backend):
    kernels.select_backend(backend)
    x, y = rand_tensor(rng, 16), rand_tensor(rng, 16)
    want = 2.0 * (x.to_numpy() @ y.to_numpy())
    for e in (2.0 * transpose(x) * y, transpose(x) * (2.0 * y),
              (transpose(x) * y) * 2.0, transpose(2.0 * x) * y):
        reset_log()
        assert evaluate(e) == pytest.approx(want, rel=1e-14)
        assert [r.kernel for r in log().records] == ["dot"]


def test_accumulate_into_zeros_equals_source(rng):
    a = rand_tensor(rng, 3, 4)
    z = Tensor(2, 3, 4)
    accumulate(z, leaf(a))
    np.testing.assert_array_equal(z.to_numpy(), a.to_numpy())


def test_iadd_gemv_single_kernel(rng):
    c = rand_tensor(rng, 5, 5)
    x = rand_tensor(rng, 5)
    y = rand_tensor(rng, 5)
    want = y.to_numpy() + c.to_numpy() @ y.to_numpy()
    reset_log()
    x_new = x  # statement form: x += C*y
    x_new += c * y
    assert log().kernel_counts() == {"gemv": 1}
    np.testing.assert_allclose(
        x_new.to_numpy(), x.to_numpy(), rtol=1e-15)  # same object updated
    del want


def test_scale_in_place_is_one_axpy_with_alpha_zero(rng):
    c = rand_tensor(rng, 3, 3)
    before = c.to_numpy()
    reset_log()
    assign(c, 3.0 * c)  # dest <- 3*dest: axpy(0, c, c, 3) does not read x
    assert list(log().records) == [
        kernels.CallRecord("axpy", ((3, 3), (3, 3)), 0.0, 3.0)]
    assert log().allocations == 0
    np.testing.assert_allclose(c.to_numpy(), 3.0 * before, rtol=1e-15)


def test_sum_of_scalars_is_one_dot_per_addend(rng):
    x, y, z, w = (rand_tensor(rng, 5) for _ in range(4))
    reset_log()
    s = evaluate(transpose(x) * y + transpose(z) * w)  # no single dot
    assert log().kernel_counts() == {"dot": 2}
    assert log().allocations == 0
    want = x.to_numpy() @ y.to_numpy() + z.to_numpy() @ w.to_numpy()
    assert s == pytest.approx(want, rel=1e-14)


def test_assign_kind_mismatch(rng):
    with pytest.raises(ShapeError):
        assign(rand_tensor(rng, 3), leaf(rand_tensor(rng, 4)))
    with pytest.raises(ShapeError):
        assign(rand_tensor(rng, 3), transpose(rand_tensor(rng, 3)) *
               rand_tensor(rng, 3))


# -- allocation accounting ------------------------------------------------------


def test_wrapped_leaf_no_copy_until_result(rng):
    buf = rng.random(12)
    a = Tensor.wrap((3, 4), buf)
    reset_log()
    e = 2.0 * a  # noqa: F841
    assert log().allocations == 0
    out = evaluate(2.0 * a)
    assert log().allocations == 1  # only the fresh result buffer
    np.testing.assert_allclose(out.to_numpy(),
                               2.0 * buf.reshape((3, 4), order="F"), rtol=1e-15)


def test_gemm_result_single_allocation(rng):
    a = rand_tensor(rng, 6, 6)
    b = rand_tensor(rng, 6, 6)
    reset_log()
    out = evaluate(0.5 * a * b)
    assert log().allocations == 1
    assert log().kernel_counts() == {"gemm": 1}
    np.testing.assert_allclose(out.to_numpy(),
                               0.5 * (a.to_numpy() @ b.to_numpy()), rtol=1e-12)


# -- random well-formed expression family ----------------------------------------

KERNELS = {"copy", "axpy", "dot", "gemv", "ger", "gemm"}


def _random_expr(rng, depth, max_extent=6):
    """A well-formed expression plus its expected kind tag.

    Tags: 's' scalar, ('v', n) vector, ('m', m, n) matrix.
    """
    n = int(rng.integers(1, max_extent + 1))
    m = int(rng.integers(1, max_extent + 1))
    if depth == 0:
        roll = rng.random()
        if roll < 0.2:
            return lit(float(rng.random()) * 2 - 1), "s"
        if roll < 0.6:
            return leaf(rand_tensor(rng, n)), ("v", n)
        return leaf(rand_tensor(rng, m, n)), ("m", m, n)
    roll = rng.random()
    if roll < 0.35:  # sum of equal kinds
        e1, k1 = _random_expr(rng, depth - 1, max_extent)
        e2 = _conforming(rng, k1)
        return e1 + e2, k1
    if roll < 0.55:  # scalar scaling
        e, k = _random_expr(rng, depth - 1, max_extent)
        return float(rng.random()) * e, k
    # product around a random inner expression
    e, k = _random_expr(rng, depth - 1, max_extent)
    if k == "s":
        t = rand_tensor(rng, m, n)
        return e * leaf(t), ("m", m, n)
    if k[0] == "v":
        if rng.random() < 0.5:
            a = rand_tensor(rng, m, k[1])
            return leaf(a) * e, ("v", m)
        y = rand_tensor(rng, n)
        return e * transpose(leaf(y)), ("m", k[1], n)
    a = rand_tensor(rng, m, k[1])
    return leaf(a) * e, ("m", m, k[2])


def _conforming(rng, kind):
    if kind == "s":
        x = rand_tensor(rng, int(rng.integers(1, 6)))
        return transpose(leaf(x)) * leaf(x)
    if kind[0] == "v":
        return leaf(rand_tensor(rng, kind[1]))
    return leaf(rand_tensor(rng, kind[1], kind[2]))


def test_random_family_matches_oracle(rng):
    for _ in range(200):
        e, _ = _random_expr(rng, depth=int(rng.integers(1, 5)))
        want = oracle_eval(normalize(e))
        reset_log()
        got = result_as_numpy(evaluate(e))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)
        assert {r.kernel for r in log().records} <= KERNELS
