"""One dispatch path: a statement runs the same ``kernels.*`` call as a
direct call, and a statement that cannot run writes nothing.

Each case pairs a statement with the direct kernel call it lowers to.
Both run on their own copy of the same seeded operands, on every
backend in float32 and float64, and must leave the same call-log rows,
the same ``element_writes`` and the same result.  Operands hold small
integers and coefficients are short binary fractions, so every result
is exact and compared for equality.
"""

import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from lazyblas import Tensor, accumulate, assign, evaluate, kernels, transpose
from lazyblas.kernels import log, reset_log

BACKENDS = [b for b in ("naive", "external-blas")
            if b in kernels.available_backends()]
COMBOS = [(b, d) for b in BACKENDS for d in (np.float32, np.float64)]
K = kernels


def operands(extents, dtype, nan_dest=None):
    """Seeded tensors named as in ``extents``; ``nan_dest`` is NaN-filled."""
    rng = np.random.default_rng(2024)
    o = SimpleNamespace()
    for name, ext in extents.items():
        t = Tensor(len(ext), *ext, dtype=dtype)
        t.column_view()[...] = (np.nan if name == nan_dest
                                else rng.integers(-3, 4, size=ext))
        setattr(o, name, t)
    return o


VEC = {"x": (5,), "y": (5,)}
GEMV = {"a": (4, 3), "x": (3,), "y": (4,)}
GEMV_T = {"a": (3, 4), "x": (3,), "y": (4,)}
GER = {"x": (4,), "y": (3,), "a": (4, 3)}
GEMM = {"a": (4, 2), "b": (2, 3), "c": (4, 3)}
GEMM_TT = {"a": (2, 4), "b": (3, 2), "c": (4, 3)}


def case(name, kernel, extents, dest, stmt, direct, nan=False):
    return pytest.param(kernel, extents, dest, stmt, direct, nan, id=name)


def empty_contraction(kernel, dest, extents, beta):
    """gemm/gemv with a zero inner extent, beta 0 into NaN, 1 or 2."""
    if kernel == "gemm":
        stmt = {0.0: lambda o: assign(o.c, 0.5 * o.a * o.b),
                1.0: lambda o: accumulate(o.c, 0.5 * o.a * o.b),
                2.0: lambda o: assign(o.c, 0.5 * o.a * o.b + 2.0 * o.c)}
        direct = lambda o: K.gemm(False, False, 0.5, o.a, o.b, beta, o.c)
    else:
        stmt = {0.0: lambda o: assign(o.y, 0.5 * o.a * o.x),
                1.0: lambda o: accumulate(o.y, 0.5 * o.a * o.x),
                2.0: lambda o: assign(o.y, 0.5 * o.a * o.x + 2.0 * o.y)}
        direct = lambda o: K.gemv(False, 0.5, o.a, o.x, beta, o.y)
    return case(f"{kernel}-k0-beta{beta:g}", kernel, extents, dest,
                stmt[beta], direct, nan=beta == 0.0)


CASES = [
    case("copy", "copy", VEC, "y",
         lambda o: assign(o.y, o.x), lambda o: K.copy(o.x, o.y)),
    case("axpy", "axpy", VEC, "y",
         lambda o: accumulate(o.y, 0.5 * o.x),
         lambda o: K.axpy(0.5, o.x, o.y)),
    # axpy's beta: 0 for a scaled first addend, or the destination's
    # coefficient beside one scaled leaf
    case("axpy-beta0", "axpy", VEC, "y",
         lambda o: assign(o.y, 2.0 * o.x),
         lambda o: K.axpy(2.0, o.x, o.y, 0.0), nan=True),
    case("axpy-beta2", "axpy", VEC, "y",
         lambda o: assign(o.y, 0.5 * o.x + 2.0 * o.y),
         lambda o: K.axpy(0.5, o.x, o.y, 2.0)),
    case("axpy-acc-destlast", "axpy", VEC, "y",
         lambda o: accumulate(o.y, o.x + o.y),
         lambda o: K.axpy(1.0, o.x, o.y, 2.0)),
    case("axpy-beta-1", "axpy", VEC, "y",
         lambda o: assign(o.y, o.x + (-1.0) * o.y),
         lambda o: K.axpy(1.0, o.x, o.y, -1.0)),
    # y += x - y: the betas cancel to 0, so y is not read and the result
    # is exactly x, NaNs in y or not: an unscaled addend at beta 0 is a
    # copy
    case("copy-acc-cancel", "copy", VEC, "y",
         lambda o: accumulate(o.y, o.x + (-1.0) * o.y),
         lambda o: K.copy(o.x, o.y), nan=True),
    # the destination alone: alpha 0 does not read x
    case("axpy-dest-only", "axpy", VEC, "y",
         lambda o: assign(o.y, 3.0 * o.y),
         lambda o: K.axpy(0.0, o.y, o.y, 3.0)),
    case("axpy-T", "axpy", {"a": (3, 4), "c": (4, 3)}, "c",
         lambda o: assign(o.c, 2.0 * transpose(o.a)),
         lambda o: K.axpy(2.0, o.a, o.c, 0.0, True), nan=True),
    case("axpy-T-destfirst", "axpy", {"a": (3, 4), "c": (4, 3)}, "c",
         lambda o: assign(o.c, 0.5 * o.c + transpose(o.a)),
         lambda o: K.axpy(1.0, o.a, o.c, 0.5, True)),
    case("dot", "dot", VEC, None,
         lambda o: evaluate(transpose(o.x) * o.y),
         lambda o: K.dot(o.x, o.y)),
    case("dot-scaled", "dot", VEC, None,
         lambda o: evaluate(2.0 * transpose(o.x) * o.y),
         lambda o: 2.0 * K.dot(o.x, o.y)),
    case("gemv", "gemv", GEMV, "y",
         lambda o: assign(o.y, 0.5 * o.a * o.x + 0.25 * o.y),
         lambda o: K.gemv(False, 0.5, o.a, o.x, 0.25, o.y)),
    case("gemv-T", "gemv", GEMV_T, "y",
         lambda o: accumulate(o.y, 2.0 * transpose(o.a) * o.x),
         lambda o: K.gemv(True, 2.0, o.a, o.x, 1.0, o.y)),
    case("ger", "ger", GER, "a",
         lambda o: accumulate(o.a, 0.5 * o.x * transpose(o.y)),
         lambda o: K.ger(0.5, o.x, o.y, o.a)),
    case("ger-beta0", "ger", GER, "a",
         lambda o: assign(o.a, 0.5 * o.x * transpose(o.y)),
         lambda o: K.ger(0.5, o.x, o.y, o.a, 0.0), nan=True),
    case("ger-beta2", "ger", GER, "a",
         lambda o: assign(o.a, 2.0 * o.a + 0.5 * o.x * transpose(o.y)),
         lambda o: K.ger(0.5, o.x, o.y, o.a, 2.0)),
    case("gemm", "gemm", GEMM, "c",
         lambda o: assign(o.c, 0.5 * o.a * o.b + 0.25 * o.c),
         lambda o: K.gemm(False, False, 0.5, o.a, o.b, 0.25, o.c)),
    case("gemm-TT-destfirst", "gemm", GEMM_TT, "c",
         lambda o: assign(o.c, 2.0 * o.c + transpose(o.a) * transpose(o.b)),
         lambda o: K.gemm(True, True, 1.0, o.a, o.b, 2.0, o.c)),
    case("gemm-alpha0-beta1", "gemm", GEMM, "c",
         lambda o: accumulate(o.c, 0.0 * o.a * o.b),
         lambda o: K.gemm(False, False, 0.0, o.a, o.b, 1.0, o.c)),
    # zero extents: logged, nothing written
    case("copy-n0", "copy", {"x": (0,), "y": (0,)}, "y",
         lambda o: assign(o.y, o.x), lambda o: K.copy(o.x, o.y)),
    case("axpy-n0", "axpy", {"x": (2, 0), "y": (2, 0)}, "y",
         lambda o: accumulate(o.y, 0.5 * o.x),
         lambda o: K.axpy(0.5, o.x, o.y)),
    case("dot-n0", "dot", {"x": (0,), "y": (0,)}, None,
         lambda o: evaluate(transpose(o.x) * o.y),
         lambda o: K.dot(o.x, o.y)),
    case("gemv-m0", "gemv", {"a": (0, 3), "x": (3,), "y": (0,)}, "y",
         lambda o: assign(o.y, o.a * o.x), lambda o: K.gemv(
             False, 1.0, o.a, o.x, 0.0, o.y)),
    case("ger-m0", "ger", {"x": (0,), "y": (3,), "a": (0, 3)}, "a",
         lambda o: accumulate(o.a, o.x * transpose(o.y)),
         lambda o: K.ger(1.0, o.x, o.y, o.a)),
    case("gemm-n0", "gemm", {"a": (4, 2), "b": (2, 0), "c": (4, 0)}, "c",
         lambda o: assign(o.c, o.a * o.b),
         lambda o: K.gemm(False, False, 1.0, o.a, o.b, 0.0, o.c)),
] + [
    empty_contraction("gemm", "c", {"a": (4, 0), "b": (0, 3), "c": (4, 3)},
                      beta) for beta in (0.0, 1.0, 2.0)
] + [
    empty_contraction("gemv", "y", {"a": (4, 0), "x": (0,), "y": (4,)},
                      beta) for beta in (0.0, 1.0, 2.0)
]


@pytest.mark.parametrize("backend,dtype", COMBOS)
@pytest.mark.parametrize("kernel,extents,dest,stmt,direct,nan", CASES)
def test_statement_and_direct_call_leave_the_same_trace(
        backend, dtype, kernel, extents, dest, stmt, direct, nan):
    kernels.select_backend(backend)
    seen = []
    for run in (stmt, direct):
        o = operands(extents, dtype, dest if nan else None)
        reset_log()
        value = run(o)
        out = value if dest is None else getattr(o, dest).to_numpy()
        seen.append((list(log().records), log().element_writes, out))
    (rows, writes, out), (want_rows, want_writes, want) = seen
    assert [r.kernel for r in rows] == [kernel]
    assert rows == want_rows
    assert writes == want_writes
    if nan:
        assert not np.isnan(out).any()
    np.testing.assert_array_equal(out, want)


# -- the wrapped-module contract ---------------------------------------------

KERNELS = ("copy", "axpy", "dot", "gemv", "ger", "gemm")


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_logged_row_passes_through_the_module_functions(
        monkeypatch, backend):
    # as a tracer does: wrap kernels.<name> on the module, after import,
    # and each kernel method on the selected backend object
    be = kernels.select_backend(backend)
    calls, backend_calls = [], []

    def wrap(name, fn, sink):
        def counted(*args, **kwargs):
            sink.append((name, args, kwargs))
            return fn(*args, **kwargs)
        return counted

    arity = {name: len(inspect.signature(getattr(kernels, name)).parameters)
             for name in KERNELS}
    for name in KERNELS:
        monkeypatch.setattr(kernels, name,
                            wrap(name, getattr(kernels, name), calls))
        # in the instance dict, so that undoing it deletes the wrapper
        monkeypatch.setitem(vars(be), name,
                            wrap(name, getattr(be, name), backend_calls))
    o = operands({"a": (4, 4), "b": (4, 4), "c": (4, 4), "x": (4,),
                  "y": (4,), "z": (4,)}, np.float64)
    reset_log()
    assign(o.c, 0.5 * o.a * o.b + 0.25 * o.c)      # gemm carrying beta
    evaluate(transpose(o.x) * o.y)                  # dot
    o.y += 2.0 * o.x                                # axpy
    assign(o.c, o.a * o.b * o.a)                    # gemm, gemm
    evaluate(transpose(o.x) * (o.a * o.x))          # gemv, dot
    assign(o.z, o.x + 2.0 * o.y)                    # copy, axpy
    assign(o.c, o.x * transpose(o.y))               # ger
    rows = [r.kernel for r in log().records]
    assert rows == ["gemm", "dot", "axpy", "gemm", "gemm", "gemv", "dot",
                    "copy", "axpy", "ger"]
    assert [name for name, _, _ in calls] == rows
    assert [name for name, _, _ in backend_calls] == rows
    # every public argument, by position, as a tracer reads them (ger's
    # beta and axpy's trans too)
    for name, args, kwargs in calls:
        assert not kwargs and len(args) == arity[name]


# -- a statement that raises writes nothing ----------------------------------


MIXED = {
    # y, x, a, c float64; z, b float32
    "assign(y, x + z)": (lambda o: assign(o.y, o.x + o.z), "y"),
    "assign(c, a*b*b)": (lambda o: assign(o.c, o.a * o.b * o.b), "c"),
    "evaluate(b32*a64)": (lambda o: evaluate(o.b * o.a), None),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("statement", MIXED)
def test_mixed_element_types_raise_before_anything_runs(backend, statement):
    kernels.select_backend(backend)
    o = operands({"x": (5,), "y": (5,), "a": (3, 3), "c": (3, 3)},
                 np.float64)
    o.__dict__.update(vars(operands({"z": (5,), "b": (3, 3)}, np.float32)))
    o.y.column_view()[...] = 7.0
    run, dest = MIXED[statement]
    before = None if dest is None else getattr(o, dest)._data.tobytes()
    reset_log()
    with pytest.raises(TypeError, match="mixed element types"):
        run(o)
    assert len(log().records) == 0
    assert log().allocations == 0  # no temporary, no result
    assert log().element_writes == 0
    if dest is not None:
        assert getattr(o, dest)._data.tobytes() == before
