"""Span tracing around lazyblas's public entry points, from outside the program.

``Tracer.install`` replaces module attributes and methods with wrappers
that record a span per call: statement id, span id, parent span id,
layer name, start and end in ``perf_counter_ns``.  Spans stay in memory
and are written out once the traced phase ends.  ``uninstall`` puts the
originals back.

A layer's self time is its span's duration minus the time its child
spans cover.  The wrappers' own cost lands in the parent's self time,
which is why the traced run also reports the tracing overhead.
"""

from __future__ import annotations

import csv
from time import perf_counter_ns

import lazyblas as lb
import lazyblas.expr
import lazyblas.kernels

KERNELS = ("copy", "axpy", "dot", "gemv", "ger", "gemm")
STMT, EXECUTE, LOWER, NORMALIZE, DISPATCH, BACKEND, ALLOC = range(7)
LAYERS = ("expr.build", "expr.execute", "expr.lower", "expr.normalize",
          "kernels.dispatch", "kernels.backend", "tensor.alloc")
_ABSENT = object()  # marks an attribute the owner did not define itself


def _work(kernel, args):
    """(flops, bytes) of one kernel call, computed from its shapes."""
    if kernel == "copy":
        x = args[0]
        return 0, 2 * x.size * x.dtype.itemsize
    if kernel in ("axpy", "dot"):
        x = args[1] if kernel == "axpy" else args[0]
        n, s = x.size, x.dtype.itemsize
        return 2 * n, (3 if kernel == "axpy" else 2) * n * s
    if kernel == "gemv":
        a = args[2]
        m, n = a.extents
        return 2 * m * n, (m * n + 2 * (m + n)) * a.dtype.itemsize
    if kernel == "ger":
        a = args[3]
        m, n = a.extents
        return 2 * m * n, (2 * m * n + m + n) * a.dtype.itemsize
    trans_a, a, c = args[0], args[3], args[6]
    m, n = c.extents
    k = a.extents[0] if trans_a else a.extents[1]
    return 2 * m * n * k, (m * k + k * n + 2 * m * n) * c.dtype.itemsize


class Tracer:
    def __init__(self):
        self.spans = []  # (stmt, span, parent, layer, kernel, start, end)
        self.flops = self.bytes = 0  # of the dispatched kernel calls
        self.stmt = -1
        self._stack = [-1]
        self._next = 0
        self._saved = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, layer, kernel=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans.append((self.stmt, sid, parent, layer, kernel, t0, t1))
                if layer == DISPATCH:
                    flops, nbytes = _work(kernel, args)
                    self.flops += flops
                    self.bytes += nbytes
        return traced

    def _replace(self, owner, name, layer, kernel=None):
        original = getattr(owner, name)
        self._saved.append((owner, name, owner.__dict__.get(name, _ABSENT)))
        setattr(owner, name, self._wrap(original, layer, kernel))

    def install(self, backend):
        """Wrap the entry points.  ``backend`` is the object that
        ``select_backend`` returned; its kernel methods are wrapped on the
        instance."""
        self._replace(lb, "assign", EXECUTE)
        self._replace(lb, "evaluate", EXECUTE)
        self._replace(lb.Tensor, "__iadd__", EXECUTE)
        self._replace(lazyblas.expr, "lower", LOWER)
        self._replace(lazyblas.expr, "normalize", NORMALIZE)
        for k in KERNELS:
            self._replace(lazyblas.kernels, k, DISPATCH, k)
            self._replace(backend, k, BACKEND, k)
        self._replace(lb.Tensor, "__init__", ALLOC)

    def uninstall(self):
        for owner, name, value in reversed(self._saved):
            if value is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, value)
        self._saved.clear()

    def statement(self, fn):
        """Run ``fn`` under a top-level span as the next statement; ids
        count statements from 0 in the order they run."""
        stmt_id = self.stmt = self.stmt + 1
        sid = self._next
        self._next = sid + 1
        self._stack.append(sid)
        t0 = perf_counter_ns()
        try:
            return fn()
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.spans.append((stmt_id, sid, -1, STMT, None, t0, t1))

    # -- output -------------------------------------------------------------

    def write(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(("stmt", "span", "parent", "layer", "kernel",
                        "start_ns", "end_ns"))
            for stmt, sid, parent, layer, kernel, t0, t1 in self.spans:
                w.writerow((stmt, sid, parent, LAYERS[layer], kernel or "",
                            t0, t1))

    def summarize(self):
        """Per-statement totals, ``{stmt: [stmt_ns, self_ns per layer,
        kernel calls, allocs]}``, and kernel call counts."""
        child = {}
        for _, _, parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0) + (t1 - t0)
        per_stmt = {}
        calls = dict.fromkeys(KERNELS, 0)
        for stmt, sid, _, layer, kernel, t0, t1 in self.spans:
            row = per_stmt.get(stmt)
            if row is None:
                row = per_stmt[stmt] = [0] * (len(LAYERS) + 3)
            row[1 + layer] += t1 - t0 - child.get(sid, 0)
            if layer == STMT:
                row[0] = t1 - t0
            elif layer == DISPATCH:
                row[-2] += 1
                calls[kernel] += 1
            elif layer == ALLOC:
                row[-1] += 1
        return per_stmt, calls
