"""lazyblas: lazily evaluated tensor algebra lowered to BLAS-level kernels.

Arbitrary-rank dense tensors with column-major storage, a lazy
operator-overloading expression layer that pattern-matches statements
onto kernel calls (copy, axpy, dot, nrm2, gemv, ger, gemm) -- one call
where one kernel fits, a short sequence with temporaries otherwise -- a
pluggable backend (hand-written reference loops or an optimized BLAS via
scipy), and a benchmark harness comparing the two call styles.

>>> from lazyblas import matrix, assign, transpose
>>> A = matrix(4, 8, fill=1.0); B = matrix(4, 8, fill=1.0)
>>> C = matrix(8, 8)
>>> C += 0.5 * transpose(A) * 4.0 * B   # one gemm call, alpha = 2.0
"""

from .errors import (
    AliasingError,
    ArityError,
    BoundsError,
    DomainError,
    RankError,
    ShapeError,
    UnknownBackendError,
    UnsupportedOperationError,
)
from .tensor import Tensor, format_tensor, matrix, vector
from .kernels import (
    CallLog,
    available_backends,
    current_backend,
    log,
    reset_log,
    select_backend,
)
from .expr import (
    SCALAR,
    Literal,
    LoweredOp,
    Product,
    ResultKind,
    Sum,
    Term,
    Transposed,
    accumulate,
    assign,
    evaluate,
    infer_kind,
    leaf,
    lit,
    lower,
    normalize,
    structurally_equal,
    transpose,
)
from .bench import BenchRecord, BenchSpec, emit_csv, report_overhead
from .bench import run as run_bench

__all__ = [
    "AliasingError",
    "ArityError",
    "BenchRecord",
    "BenchSpec",
    "BoundsError",
    "CallLog",
    "DomainError",
    "Literal",
    "LoweredOp",
    "Product",
    "RankError",
    "ResultKind",
    "SCALAR",
    "ShapeError",
    "Sum",
    "Tensor",
    "Term",
    "Transposed",
    "UnknownBackendError",
    "UnsupportedOperationError",
    "accumulate",
    "assign",
    "available_backends",
    "current_backend",
    "emit_csv",
    "evaluate",
    "format_tensor",
    "infer_kind",
    "leaf",
    "lit",
    "log",
    "lower",
    "matrix",
    "normalize",
    "report_overhead",
    "reset_log",
    "run_bench",
    "select_backend",
    "structurally_equal",
    "transpose",
    "vector",
]
