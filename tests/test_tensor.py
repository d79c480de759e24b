import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazyblas import (
    ArityError,
    BoundsError,
    DomainError,
    RankError,
    Tensor,
    format_tensor,
    matrix,
    vector,
)

from lazyblas.kernels import log, reset_log

from conftest import rand_tensor


# -- construction -----------------------------------------------------------


def test_square_fill_shorthand():
    a = Tensor(2, 3)
    assert a.extents == (3, 3)
    assert all(v == 0.0 for v in a)


def test_uniform_fill():
    x = Tensor(1, 8, fill=1.0)
    assert x.extents == (8,)
    assert list(x) == [1.0] * 8


def test_replicate_last_extent_rank4():
    t = Tensor(4, 3)
    assert t.extents == (3, 3, 3, 3)
    assert t.size == 81


def test_partial_extents_replicate():
    t = Tensor(3, 2, 4)
    assert t.extents == (2, 4, 4)


def test_create_errors():
    with pytest.raises(ArityError):
        Tensor(2)
    with pytest.raises(ArityError):
        Tensor(1, 2, 3)
    with pytest.raises(DomainError):
        Tensor(2, -1)
    with pytest.raises(DomainError):
        Tensor(0, 1)


def test_generator_identity_matrix():
    a = Tensor(2, 5, fill=lambda i, j: 1.0 if i == j else 0.0)
    for i in range(5):
        for j in range(5):
            assert a.get(i, j) == (1.0 if i == j else 0.0)


def test_generator_rank1_index():
    x = Tensor(1, 4, fill=lambda i: float(i))
    assert list(x) == [0.0, 1.0, 2.0, 3.0]


def test_generator_rank3_matches_get():
    t = Tensor(3, 2, 2, 2, fill=lambda i, j, l: float(i + j + l))
    for i in range(2):
        for j in range(2):
            for l in range(2):
                assert t.get(i, j, l) == i + j + l


# -- wrapping external storage ----------------------------------------------


def test_wrap_column_major_offset():
    buf = np.arange(6, dtype=np.float64)
    t = Tensor.wrap((2, 3), buf)
    assert not t.owns_storage
    assert t.get(1, 2) == buf[5]


def test_wrap_no_copy_aliasing_both_ways():
    buf = np.zeros(6)
    t = Tensor.wrap((2, 3), buf)
    t.set(0, 1, 7.0)
    assert buf[2] == 7.0
    buf[0] = -1.0
    assert t.get(0, 0) == -1.0


def test_wrap_leaves_buffer_on_destroy():
    buf = np.arange(4, dtype=np.float64)
    t = Tensor.wrap((4,), buf)
    del t
    assert list(buf) == [0.0, 1.0, 2.0, 3.0]


def test_wrap_size_mismatch():
    with pytest.raises(DomainError):
        Tensor.wrap((2, 3), np.zeros(5))


def test_wrap_accepts_longer_buffer():
    t = Tensor.wrap((2,), np.arange(5, dtype=np.float64))
    assert list(t) == [0.0, 1.0]


# -- nested literals ----------------------------------------------------------


def test_nested_literal_column_major_buffer():
    t = Tensor.from_nested([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert t.extents == (2, 3)
    assert list(t) == [1.0, 4.0, 2.0, 5.0, 3.0, 6.0]


def test_nested_literal_vector():
    x = Tensor.from_nested([1.0, 2.0, 3.0, 4.0])
    assert x.rank == 1
    assert list(x) == [1.0, 2.0, 3.0, 4.0]


def test_nested_literal_ragged_rejected():
    with pytest.raises(DomainError):
        Tensor.from_nested([[1.0, 2.0], [3.0, 4.0, 5.0]])


def test_nested_literal_get_round_trip():
    t = Tensor.from_nested([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert t.get(1, 0) == 4.0
    assert t.get(0, 2) == 3.0


def test_nested_literal_rank3():
    nested = [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]]
    t = Tensor.from_nested(nested)
    assert t.extents == (2, 2, 2)
    for i in range(2):
        for j in range(2):
            for l in range(2):
                assert t.get(i, j, l) == nested[i][j][l]


# -- strides and offsets -------------------------------------------------------


def test_stride_values():
    t = Tensor(3, 3, 4, 5)
    assert [t.stride(d) for d in range(4)] == [1, 3, 12, 60]


def test_stride_rank1():
    x = Tensor(1, 7)
    assert x.stride(0) == 1
    assert x.stride(1) == 7


def test_stride_end_equals_size():
    t = Tensor(2, 2, 3)
    assert t.stride(2) == t.size == 6


def test_stride_out_of_range():
    with pytest.raises(DomainError):
        Tensor(2, 2).stride(3)


def test_stride_recurrence_random_shapes(rng):
    for _ in range(20):
        rank = int(rng.integers(1, 5))
        extents = [int(rng.integers(1, 6)) for _ in range(rank)]
        t = Tensor(rank, *extents)
        for d in range(rank):
            assert t.stride(d + 1) == t.stride(d) * extents[d]


def test_offset_of_examples():
    t = Tensor(2, 2, 3)
    assert t.offset_of(1, 2) == 5
    assert t.offset_of(0, 0) == 0


def test_offset_of_errors():
    t = Tensor(2, 2, 3)
    with pytest.raises(ArityError):
        t.offset_of(1)
    with pytest.raises(BoundsError):
        t.offset_of(2, 0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4))
def test_offset_bijection_full_enumeration(extents):
    if math.prod(extents) > 4096:
        return
    t = Tensor(len(extents), *extents)
    offsets = sorted(t.offset_of(*idx) for idx in np.ndindex(tuple(extents)))
    assert offsets == list(range(t.size))


# -- element access -------------------------------------------------------------


def test_get_set():
    t = Tensor(2, 3)
    t.set(0, 0, 7.0)
    assert t.get(0, 0) == 7.0


def test_chained_index_matrix():
    t = Tensor.from_nested([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert t[1][2] == t.get(1, 2) == 6.0


def test_chained_index_vector():
    x = Tensor.from_nested([5.0, 6.0, 7.0, 8.0])
    assert x[3] == 8.0


def test_chained_index_assignment():
    t = Tensor(2, 2)
    t[1][0] = 9.0
    assert t.get(1, 0) == 9.0
    x = Tensor(1, 3)
    x[2] = 4.0
    assert x.get(2) == 4.0


def test_chained_index_bounds():
    t = Tensor(2, 2, 3)
    with pytest.raises(BoundsError):
        t[2]
    with pytest.raises(BoundsError):
        t[0][3]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=2 ** 30),
)
def test_chained_index_equals_get(extents, seed):
    rng = np.random.default_rng(seed)
    t = Tensor(len(extents), *extents, fill=lambda *idx: float(rng.random()))
    for idx in np.ndindex(tuple(extents)):
        ref = t
        for i in idx:
            ref = ref[i]
        assert ref == t.get(*idx)


# -- iteration ---------------------------------------------------------------


def test_linear_iter_sum():
    assert sum(Tensor(2, 2, 3, fill=1.0).linear_iter()) == 6.0


def test_linear_iter_order():
    t = Tensor.from_nested([[1.0, 2.0], [3.0, 4.0]])
    assert list(t.linear_iter()) == [1.0, 3.0, 2.0, 4.0]


def test_linear_iter_empty():
    assert list(Tensor(2, 0, 3).linear_iter()) == []


def test_dim_iter_rows():
    t = Tensor.from_nested([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    rows = []
    for r in t.dim_iter(0):
        rows.append([t.value_at(c) for c in t.dim_iter(1, r)])
    assert rows == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


def test_dim_iter_step_count():
    t = Tensor(2, 4, 7)
    assert len(t.dim_iter(0)) == 4
    assert len(t.dim_iter(1)) == 7


def test_dim_iter_rank1_equals_linear():
    x = Tensor(1, 5, fill=lambda i: float(i) * 2)
    assert [x.value_at(off) for off in x.dim_iter(0)] == list(x.linear_iter())


def test_dim_iter_out_of_range():
    with pytest.raises(DomainError):
        Tensor(2, 2).dim_iter(2)


@pytest.mark.parametrize("d", [True, False, 1.5, 1.0, "1", None], ids=repr)
def test_a_dimension_that_is_not_an_integer_raises(d):
    t = Tensor(2, 3, 4)
    with pytest.raises(DomainError, match="not an integer"):
        t.stride(d)
    with pytest.raises(DomainError, match="not an integer"):
        t.dim_iter(d)


def test_dimensions_and_bases_may_be_numpy_integers():
    t = Tensor(2, 3, 4)
    assert t.stride(np.int64(1)) == 3 and t.stride(np.int32(2)) == 12
    assert list(t.dim_iter(np.int64(1), np.int64(2))) == [2, 5, 8, 11]


@pytest.mark.parametrize("d,base", [(0, 12), (0, 100), (0, -1), (1, 12),
                                    (1, -3)])
def test_a_base_outside_the_buffer_raises(d, base):
    t = Tensor(2, 3, 4)
    with pytest.raises(BoundsError):
        t.dim_iter(d, base)


@pytest.mark.parametrize("d,base", [(0, 1), (0, 5), (1, 3), (1, 11)])
def test_a_base_off_the_start_of_its_dimension_raises(d, base):
    # from base 1 a walk down a column of a 3x4 matrix would wrap into
    # the next column
    t = Tensor(2, 3, 4)
    with pytest.raises(DomainError, match="along dimension"):
        t.dim_iter(d, base)


@pytest.mark.parametrize("base", [True, 1.0, "3"], ids=repr)
def test_a_base_that_is_not_an_integer_raises(base):
    with pytest.raises(DomainError, match="not an integer"):
        Tensor(2, 3, 4).dim_iter(0, base)


def test_every_base_an_outer_walk_yields_is_accepted():
    t = Tensor(3, 2, 3, 4)
    for d in range(3):
        step, n = t.stride(d), t.extents[d]
        for base in range(t.size):
            if base // step % n == 0:
                assert list(t.dim_iter(d, base)) == [base + k * step
                                                     for k in range(n)]
    assert list(Tensor(2, 0, 3).dim_iter(1, 5)) == []  # nothing to walk


def test_nested_dim_iter_full_coverage(rng):
    for _ in range(10):
        rank = int(rng.integers(1, 5))
        extents = [int(rng.integers(1, 5)) for _ in range(rank)]
        t = Tensor(rank, *extents)

        def visit(d, base):
            if d == rank:
                yield base
                return
            for off in t.dim_iter(d, base):
                yield from visit(d + 1, off)

        # iterate the last dimension innermost: offsets hit each cell once
        seen = sorted(visit(0, 0))
        assert seen == list(range(t.size))


# -- rank-specific interface -----------------------------------------------


def test_rows_columns():
    a = matrix(4, 8)
    assert a.rows() == 4
    assert a.columns() == 8


def test_rank_interface_rejected_on_wrong_rank():
    with pytest.raises(RankError):
        vector(3).rows()
    with pytest.raises(RankError):
        matrix(2, 2).norm()


def test_norm_345():
    x = Tensor.from_nested([3.0, 4.0])
    assert x.norm() == 5.0


def test_norm_ones_vs_sum_of_squares():
    for n in (1, 4, 9, 33):
        x = vector(n, fill=1.0)
        direct = math.sqrt(sum(v * v for v in x))
        assert x.norm() == pytest.approx(direct, rel=1e-14)


# -- formatting ----------------------------------------------------------------


def test_format_vector():
    assert format_tensor(Tensor.from_nested([1.0, 2.0, 3.0])) == "1 2 3"


def test_format_matrix():
    t = Tensor.from_nested([[1.0, 2.0], [3.0, 4.0]])
    assert format_tensor(t) == "1 2\n3 4"


def test_format_empty():
    assert format_tensor(Tensor(2, 0, 3)) == "[empty]"


def test_format_rank3_labelled_slices():
    t = Tensor(3, 2, 2, 2, fill=lambda i, j, l: float(i + 10 * j + 100 * l))
    text = format_tensor(t)
    assert "[:, :, 0]" in text and "[:, :, 1]" in text
    block0 = text.split("\n\n")[0].splitlines()
    assert block0[1:] == ["0 10", "1 11"]


def _parse_matrix(text):
    return [[float(v) for v in line.split()] for line in text.splitlines()]


def test_format_round_trip_rank2(rng):
    t = rand_tensor(rng, 3, 4)
    parsed = _parse_matrix(format_tensor(t))
    u = Tensor.from_nested(parsed)
    assert format_tensor(u) == format_tensor(t)


def test_format_round_trip_rank1(rng):
    t = rand_tensor(rng, 6)
    parsed = [float(v) for v in format_tensor(t).split()]
    u = Tensor.from_nested(parsed)
    assert format_tensor(u) == format_tensor(t)


# -- misc -----------------------------------------------------------------------


def test_zero_size_legal():
    t = Tensor(2, 0, 4)
    assert t.size == 0
    assert list(t) == []


def test_float32_variant():
    t = Tensor(2, 3, fill=1.0, dtype=np.float32)
    assert t.dtype == np.float32
    assert t.get(2, 2) == 1.0


# -- input domain: real float32/float64, writable --------------------------------

NOT_REAL = [np.int64, np.float16, np.complex128, "int32", bool]


@pytest.mark.parametrize("dtype", NOT_REAL,
                         ids=["int64", "float16", "complex128", "int32", "bool"])
def test_constructors_reject_other_element_types(dtype):
    with pytest.raises(DomainError):
        Tensor(2, 3, dtype=dtype)
    with pytest.raises(DomainError):
        Tensor.from_nested([[1, 2], [3, 4]], dtype=dtype)
    with pytest.raises(DomainError):
        Tensor.wrap((2, 3), np.zeros(6, dtype=dtype))


def test_constructors_reject_a_non_dtype():
    with pytest.raises(DomainError):
        Tensor(1, 3, dtype="no such type")


def test_wrap_rejects_read_only_buffer():
    buf = np.zeros(6)
    buf.flags.writeable = False
    with pytest.raises(DomainError):
        Tensor.wrap((2, 3), buf)


@pytest.mark.parametrize("dtype", [np.float32, "float64", np.dtype("f4"), "d"],
                         ids=["float32", "float64-name", "f4-dtype", "d-code"])
def test_real_dtype_spellings_accepted(dtype):
    assert Tensor(1, 2, dtype=dtype).dtype == np.dtype(dtype)
    assert Tensor.from_nested([1.0, 2.0], dtype=dtype).dtype == np.dtype(dtype)
    assert Tensor.wrap((2,), np.zeros(2, dtype=dtype)).dtype == np.dtype(dtype)


def test_zero_fill_keeps_negative_zero():
    t = Tensor(1, 3, fill=-0.0)
    assert all(np.signbit(t.column_view()))
    assert not any(np.signbit(Tensor(1, 3).column_view()))


# every value that becomes an element must be a real number: no NaN from
# None, no imaginary part dropped, no broadcast list, and no numpy error
NOT_REAL_VALUES = [None, 1 + 2j, [1.0, 2.0], "x", "1.5", True, np.complex64(1)]


@pytest.mark.parametrize("value", NOT_REAL_VALUES, ids=repr)
def test_elements_must_be_real_numbers(value):
    reset_log()
    with pytest.raises(DomainError, match="not a real number"):
        Tensor(1, 3, fill=value)
    with pytest.raises(DomainError, match="not a real number"):
        Tensor(2, 2, fill=lambda i, j: value if (i, j) == (1, 0) else 1.0)
    with pytest.raises(DomainError):  # a list leaf: "inconsistent nesting"
        Tensor.from_nested([1.0, value])
    with pytest.raises(DomainError):
        Tensor.from_nested([[1.0], [value]], dtype=np.float32)
    assert log().allocations == 0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2, np.float32(1.5),
                                   np.int64(3)], ids=repr)
def test_real_elements_are_accepted(value):
    want = np.full(2, float(value))
    np.testing.assert_array_equal(Tensor(1, 2, fill=value).to_numpy(), want)
    np.testing.assert_array_equal(
        Tensor(1, 2, fill=lambda i: value).to_numpy(), want)
    np.testing.assert_array_equal(
        Tensor.from_nested([value, value]).to_numpy(), want)


# -- element access: one checked path --------------------------------------

SHAPES = [(3,), (3, 3), (2, 3, 4)]


def _writes(t, idx, value):
    """Every way to write element ``idx`` of ``t``."""
    def chained():
        ref = t
        for i in idx[:-1]:
            ref = ref[i]
        ref[idx[-1]] = value
    return [lambda: t.set(*idx, value), chained]


@pytest.mark.parametrize("extents", SHAPES, ids=str)
@pytest.mark.parametrize("value", [None, "2.5", True], ids=repr)
def test_element_writes_must_be_real_numbers(extents, value):
    # set, t[i] = v and the chained forms check as the constructors do
    t = Tensor(len(extents), *extents, fill=1.0)
    last = tuple(e - 1 for e in extents)
    for write in _writes(t, last, value):
        with pytest.raises(DomainError, match="not a real number"):
            write()
    assert (t.to_numpy() == 1.0).all()


@pytest.mark.parametrize("extents", SHAPES, ids=str)
@pytest.mark.parametrize("value", [2, 2.5, np.float32(2.5), np.int64(2),
                                   np.nan], ids=repr)
def test_element_writes_of_real_numbers(extents, value):
    t = Tensor(len(extents), *extents)
    last = tuple(e - 1 for e in extents)
    for write in _writes(t, last, value):
        t.column_view()[...] = 0.0
        write()
        np.testing.assert_array_equal(t.get(*last), float(value))
        assert np.count_nonzero(t.to_numpy()) == 1


@pytest.mark.parametrize("extents", SHAPES, ids=str)
def test_value_at_checks_the_offset_against_the_buffer(extents):
    t = Tensor(len(extents), *extents, fill=lambda *idx: float(sum(idx)))
    assert t.value_at(t.size - 1) == sum(e - 1 for e in extents)
    assert t.value_at(np.int64(0)) == 0.0
    for off in (-1, t.size):
        with pytest.raises(BoundsError):
            t.value_at(off)
    for off in (True, 1.0, "0"):
        with pytest.raises(DomainError, match="not an integer"):
            t.value_at(off)


@pytest.mark.parametrize("extents", SHAPES, ids=str)
@pytest.mark.parametrize("bad,error", [(-1, BoundsError), (5, BoundsError),
                                       (True, DomainError),
                                       (1.0, DomainError),
                                       ("1", DomainError)], ids=repr)
def test_every_index_goes_through_one_check(extents, bad, error):
    # in each position: get, set, offset_of, t[i], chained reads and writes
    t = Tensor(len(extents), *extents, fill=1.0)
    for d in range(len(extents)):
        idx = [0] * len(extents)
        idx[d] = bad
        for access in [lambda: t.get(*idx), lambda: t.offset_of(*idx),
                       *_writes(t, idx, 2.0)]:
            with pytest.raises(error):
                access()
        with pytest.raises(error):  # a bad index raises as it arrives
            ref = t
            for i in idx[:d + 1]:
                ref = ref[i]
    assert (t.to_numpy() == 1.0).all()


@pytest.mark.parametrize("extents", SHAPES, ids=str)
def test_numpy_integers_index_like_ints(extents):
    t = Tensor(len(extents), *extents, fill=lambda *idx: float(sum(idx)))
    for idx in np.ndindex(extents):
        np_idx = [np.int64(i) if d % 2 else np.int32(i)
                  for d, i in enumerate(idx)]
        ref = t
        for i in np_idx:
            ref = ref[i]
        assert ref == t.get(*np_idx) == sum(idx)
        assert t.offset_of(*np_idx) == t.offset_of(*idx)
    t.set(*[np.int64(e - 1) for e in extents], -1.0)
    assert t.get(*[e - 1 for e in extents]) == -1.0


def test_a_matrix_index_out_of_range_raises_at_once():
    t = Tensor(2, 3)
    with pytest.raises(BoundsError):
        t[5]
    with pytest.raises(BoundsError):
        Tensor(3, 2, 3, 4)[0][3]
    with pytest.raises(RankError):  # a write needs every index
        t[0] = 1.0
    with pytest.raises(RankError):
        Tensor(3, 2, 3, 4)[0][0] = 1.0
