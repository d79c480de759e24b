"""Statement forms and the three workloads built from them.

A form is one algebraic statement written with lazyblas's public API,
paired with the same computation written by hand against
``scipy.linalg.blas`` and numpy on the tensors' column views, and with a
float64 numpy reference computed from copies of the operands.  The
hand-written side never calls ``lazyblas.kernels``: a faster dispatch
layer must not speed up both sides of ``overhead_ratio``.

Operands take their values from the seed; shapes, dtypes and weights are
fixed per workload, so runs with different seeds do the same work.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy.linalg import blas

import lazyblas as lb
from lazyblas import Tensor, transpose

F64, F32 = np.dtype(np.float64), np.dtype(np.float32)


class Form:
    """One statement form.

    ``stmt`` runs the lazyblas statement and ``hand`` the hand-written
    equivalent; both return the result (a float, an array-like or the
    destination).  ``expect(before)`` gives ``(value, magnitude, k)`` in
    float64: the exact result, the same expression over absolute values
    (for the forward-error bound) and the longest accumulation length.
    ``before`` is a float64 copy of the destination taken just before the
    statement, for in-place forms.
    """

    def __init__(self, name, klass, kernel, flops, stmt, hand, expect, dtype,
                 dest=None, weight=1, mirror=None, flip=None, recurrence=None):
        self.name = name
        self.klass = klass
        self.kernel = kernel  # the single kernel the statement lowers to, or None
        self.flops = flops  # useful flops of the cheapest kernel route
        self.stmt = stmt
        self.hand = hand
        self.expect = expect
        self.dtype = dtype
        self.dest = dest  # column view of an in-place destination
        self.weight = weight  # statements of this form per round
        self.mirror = mirror  # dot with the operands swapped (symmetry check)
        self.flip = flip  # called after each round (alternating-sign updates)
        self.recurrence = recurrence  # (alpha, beta, C0, P, k) of C <- alpha*P + beta*C
        # executions, for the state and call-count checks
        self.lib = 0  # of ``stmt``
        self.hands = 0  # of ``hand``
        self.mirror_calls = 0


def _f64(view):
    return np.array(view, dtype=np.float64)


class Maker:
    """Makes seeded operands and the forms over them."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def tensor(self, dtype, *extents):
        t = Tensor(len(extents), *extents, dtype=dtype)
        flat = t.column_view().reshape(-1, order="F")  # a view: the buffer
        self.rng.standard_normal(dtype=dtype, out=flat)
        return t

    @staticmethod
    def blas(name, dtype):
        return getattr(blas, ("d" if dtype == F64 else "s") + name)

    # -- single-kernel forms ------------------------------------------------

    def dot(self, dt, n, coef=1.0):
        x, y = self.tensor(dt, n), self.tensor(dt, n)
        xv, yv = x.column_view(), y.column_view()
        ddot = self.blas("dot", dt)
        if coef == 1.0:
            def stmt(): return lb.evaluate(transpose(x) * y)
            def mirror(): return lb.evaluate(transpose(y) * x)
            def hand(): return ddot(xv, yv)
        else:
            def stmt(): return lb.evaluate(coef * transpose(x) * y)
            def mirror(): return lb.evaluate(coef * transpose(y) * x)
            def hand(): return coef * ddot(xv, yv)

        def expect(_):
            x64, y64 = _f64(xv), _f64(yv)
            return coef * (x64 @ y64), abs(coef) * (abs(x64) @ abs(y64)), n
        tag = "dot" if coef == 1.0 else "dot-scaled"
        return Form(f"{tag}/{dt}/{n}", "scalar", "dot", 2 * n, stmt, hand,
                    expect, dt, mirror=mirror)

    def axpy(self, dt, n, alpha=0.5):
        """``y += s*x`` with ``s`` alternating between +alpha and -alpha by
        round, so ``y`` stays bounded however long the run."""
        x, y = self.tensor(dt, n), self.tensor(dt, n)
        xv, yv = x.column_view(), y.column_view()
        daxpy = self.blas("axpy", dt)
        s = [alpha]

        def stmt():
            t = y
            t += s[0] * x
            return t

        def hand():
            return daxpy(xv, yv, a=s[0])

        def expect(before):
            x64 = _f64(xv)
            return before + s[0] * x64, abs(before) + abs(s[0] * x64), 1

        def flip():
            s[0] = -s[0]
        return Form(f"axpy/{dt}/{n}", "inplace", "axpy", 2 * n, stmt, hand,
                    expect, dt, dest=yv, flip=flip)

    def copy(self, dt, n):
        x, z = self.tensor(dt, n), self.tensor(dt, n)
        xv, zv = x.column_view(), z.column_view()

        def stmt(): return lb.assign(z, x)

        def hand():
            zv[...] = xv
            return zv

        def expect(_):
            x64 = _f64(xv)
            return x64, abs(x64), 0
        return Form(f"copy/{dt}/{n}", "inplace", "copy", 0, stmt, hand,
                    expect, dt, dest=zv)

    def gemv_beta(self, dt, m, n, alpha=0.5, beta=0.25):
        """``y <- alpha*A*x + beta*y``: one gemv carrying beta, and with
        beta < 1 a contracting recurrence with a closed form."""
        a, x, y = self.tensor(dt, m, n), self.tensor(dt, n), self.tensor(dt, m)
        av, xv, yv = a.column_view(), x.column_view(), y.column_view()
        dgemv = self.blas("gemv", dt)

        def stmt(): return lb.assign(y, alpha * a * x + beta * y)
        def hand(): return dgemv(alpha, av, xv, beta=beta, y=yv, overwrite_y=1)
        prod = _Product(av, xv)
        return Form(f"gemv-beta/{dt}/{m}x{n}", "inplace", "gemv", 2 * m * n,
                    stmt, hand, prod.beta_update(alpha, beta, n), dt, dest=yv,
                    recurrence=(alpha, beta, _f64(yv), prod, n))

    def gemm_beta(self, dt, m, k, n, alpha=0.5, beta=0.25, dest_first=False):
        """``C <- alpha*A*B + beta*C``.  Written with the ``C`` term last it
        is one gemm; ``dest_first`` spells it ``beta*C + alpha*A*B``."""
        a, b, c = self.tensor(dt, m, k), self.tensor(dt, k, n), self.tensor(dt, m, n)
        av, bv, cv = a.column_view(), b.column_view(), c.column_view()
        dgemm = self.blas("gemm", dt)
        if dest_first:
            def stmt(): return lb.assign(c, beta * c + alpha * a * b)
            tag, kernel = "gemm-beta-destfirst", None
        else:
            def stmt(): return lb.assign(c, alpha * a * b + beta * c)
            tag, kernel = "gemm-beta", "gemm"

        def hand(): return dgemm(alpha, av, bv, beta=beta, c=cv, overwrite_c=1)
        prod = _Product(av, bv)
        return Form(f"{tag}/{dt}/{m}x{k}x{n}", "inplace", kernel, 2 * m * n * k,
                    stmt, hand, prod.beta_update(alpha, beta, k), dt, dest=cv,
                    recurrence=(alpha, beta, _f64(cv), prod, k))

    def gemm_acc_t(self, dt, m, k, n, alpha=0.5, beta=0.25):
        """``C += s*transpose(A)*beta*B`` with ``s`` = +-alpha by round: the
        paper's headline statement, one gemm with trans_a and alpha*beta
        folded."""
        a, b, c = self.tensor(dt, k, m), self.tensor(dt, k, n), self.tensor(dt, m, n)
        av, bv, cv = a.column_view(), b.column_view(), c.column_view()
        dgemm = self.blas("gemm", dt)
        s = [alpha]

        def stmt():
            t = c
            t += s[0] * transpose(a) * beta * b
            return t

        def hand():
            return dgemm(s[0] * beta, av, bv, beta=1.0, c=cv, trans_a=1,
                         overwrite_c=1)
        prod = _Product(av.T, bv)

        def expect(before):
            p, mp = prod.get()
            g = s[0] * beta
            return before + g * p, abs(before) + abs(g) * mp, k

        def flip():
            s[0] = -s[0]
        return Form(f"gemm-acc-T/{dt}/{m}x{k}x{n}", "inplace", "gemm",
                    2 * m * n * k, stmt, hand, expect, dt, dest=cv, flip=flip)

    def ger_assign(self, dt, m, n, alpha=0.5):
        x, y, g = self.tensor(dt, m), self.tensor(dt, n), self.tensor(dt, m, n)
        xv, yv, gv = x.column_view(), y.column_view(), g.column_view()
        dger = self.blas("ger", dt)

        def stmt(): return lb.assign(g, alpha * x * transpose(y))

        def hand():
            gv[...] = 0.0
            return dger(alpha, xv, yv, a=gv, overwrite_a=1)
        prod = _Product(xv[:, None], yv[None, :])
        return Form(f"ger/{dt}/{m}x{n}", "inplace", "ger", 2 * m * n, stmt,
                    hand, prod.scaled(alpha, 1), dt, dest=gv)

    def eval_gemv(self, dt, m, n):
        a, x = self.tensor(dt, m, n), self.tensor(dt, n)
        av, xv = a.column_view(), x.column_view()
        dgemv = self.blas("gemv", dt)

        def stmt(): return lb.evaluate(a * x)
        def hand(): return dgemv(1.0, av, xv)
        prod = _Product(av, xv)
        return Form(f"eval-gemv/{dt}/{m}x{n}", "alloc", "gemv", 2 * m * n,
                    stmt, hand, prod.scaled(1.0, n), dt)

    def eval_gemm(self, dt, m, k, n):
        a, b = self.tensor(dt, m, k), self.tensor(dt, k, n)
        av, bv = a.column_view(), b.column_view()
        dgemm = self.blas("gemm", dt)

        def stmt(): return lb.evaluate(a * b)
        def hand(): return dgemm(1.0, av, bv)
        prod = _Product(av, bv)
        return Form(f"eval-gemm/{dt}/{m}x{k}x{n}", "alloc", "gemm",
                    2 * m * n * k, stmt, hand, prod.scaled(1.0, k), dt)

    def eval_ger(self, dt, m, n):
        x, y = self.tensor(dt, m), self.tensor(dt, n)
        xv, yv = x.column_view(), y.column_view()
        dger = self.blas("ger", dt)

        def stmt(): return lb.evaluate(x * transpose(y))

        def hand():
            return dger(1.0, xv, yv, a=np.zeros((m, n), dt, order="F"),
                        overwrite_a=1)
        prod = _Product(xv[:, None], yv[None, :])
        return Form(f"eval-ger/{dt}/{m}x{n}", "alloc", "ger", 2 * m * n, stmt,
                    hand, prod.scaled(1.0, 1), dt)

    # -- forms with no single-kernel route ---------------------------------

    def eval_chain(self, n):
        """``a*b*a``: two gemms by the cheapest route."""
        a, b = self.tensor(F64, n, n), self.tensor(F64, n, n)
        av, bv = a.column_view(), b.column_view()
        dgemm = self.blas("gemm", F64)

        def stmt(): return lb.evaluate(a * b * a)
        def hand(): return dgemm(1.0, dgemm(1.0, av, bv), av)

        def expect(_):
            a64, b64 = _f64(av), _f64(bv)
            return a64 @ b64 @ a64, abs(a64) @ abs(b64) @ abs(a64), 2 * n
        return Form(f"eval-aba/{F64}/{n}", "alloc", None, 4 * n ** 3, stmt,
                    hand, expect, F64)

    def eval_matvec_chain(self, n):
        """``a*(a*x)``: two gemvs, right to left."""
        a, x = self.tensor(F64, n, n), self.tensor(F64, n)
        av, xv = a.column_view(), x.column_view()
        dgemv = self.blas("gemv", F64)

        def stmt(): return lb.evaluate(a * (a * x))
        def hand(): return dgemv(1.0, av, dgemv(1.0, av, xv))

        def expect(_):
            a64, x64 = _f64(av), _f64(xv)
            return a64 @ (a64 @ x64), abs(a64) @ (abs(a64) @ abs(x64)), 2 * n
        return Form(f"eval-a(ax)/{F64}/{n}", "alloc", None, 4 * n * n, stmt,
                    hand, expect, F64)

    def quadratic(self, n):
        """``transpose(x)*(a*x)``: a gemv then a dot."""
        a, x = self.tensor(F64, n, n), self.tensor(F64, n)
        av, xv = a.column_view(), x.column_view()
        dgemv, ddot = self.blas("gemv", F64), self.blas("dot", F64)

        def stmt(): return lb.evaluate(transpose(x) * (a * x))
        def hand(): return ddot(xv, dgemv(1.0, av, xv))

        def expect(_):
            a64, x64 = _f64(av), _f64(xv)
            return x64 @ (a64 @ x64), abs(x64) @ (abs(a64) @ abs(x64)), 2 * n
        return Form(f"quadratic/{F64}/{n}", "scalar", None, 2 * n * n + 2 * n,
                    stmt, hand, expect, F64)

    def scaled_sum(self, extents, coefs, statement):
        """``dest <- c0*t0 + c1*t1 + ...`` over tensors of any rank, written
        by ``statement(dest, t0, t1, ...)``.  The cheapest route scales and
        accumulates the flat buffers: one flop per element for each non-unit
        coefficient and each addition."""
        ts = [self.tensor(F64, *extents) for _ in coefs]
        d = self.tensor(F64, *extents)
        flat = [t.column_view().reshape(-1, order="F") for t in ts]
        dv = d.column_view()
        dflat = dv.reshape(-1, order="F")
        daxpy = blas.daxpy

        def hand():
            np.multiply(flat[0], coefs[0], out=dflat)
            for c, f in zip(coefs[1:], flat[1:]):
                daxpy(f, dflat, a=c)
            return dv

        def expect(_):
            terms = [c * _f64(t.column_view()) for c, t in zip(coefs, ts)]
            return sum(terms), sum(abs(x) for x in terms), len(coefs)
        size = int(np.prod(extents))
        flops = size * (sum(c != 1.0 for c in coefs) + len(coefs) - 1)
        shape = "x".join(map(str, extents))
        terms = "+".join(f"{c:g}t" for c in coefs)
        return Form(f"sum[{terms}]/{F64}/{shape}", "inplace", None, flops,
                    partial(statement, d, *ts), hand, expect, F64, dest=dv)


class _Product:
    """Float64 ``L @ R`` and ``|L| @ |R|`` from copies of two operand views,
    computed once and in blocks of the inner dimension, so that a large
    float32 operand is never copied to float64 whole."""

    def __init__(self, left, right):
        self._left, self._right = left, right
        self._value = None

    def get(self):
        if self._value is None:
            left, right = self._left, self._right
            step = max(1, (1 << 20) // left.shape[0])
            p = mag = 0.0
            for j in range(0, left.shape[1], step):
                lb64 = np.array(left[:, j:j + step], dtype=np.float64)
                rb64 = np.array(right[j:j + step], dtype=np.float64)
                p = p + lb64 @ rb64
                mag = mag + np.abs(lb64, out=lb64) @ np.abs(rb64, out=rb64)
            self._value = (p, mag)
        return self._value

    def scaled(self, alpha, k):
        def expect(_):
            p, mp = self.get()
            return alpha * p, abs(alpha) * mp, k
        return expect

    def beta_update(self, alpha, beta, k):
        def expect(before):
            p, mp = self.get()
            return (alpha * p + beta * before,
                    abs(alpha) * mp + abs(beta) * abs(before), k)
        return expect


# ---------------------------------------------------------------------------
# workloads


def _odd(forms):
    """Run the first form twice per round: with an odd number of statements
    in a round the median latency falls inside one form's spread, not in
    the gap between the two middle forms."""
    forms[0].weight = 2
    return forms


def small_stmts(b):
    """Single-kernel forms at sizes where the BLAS call takes a few
    microseconds, so the expression and dispatch layers are most of each
    statement."""
    forms = []
    for dt, nvec in ((F64, 1024), (F32, 2048)):
        forms += [
            b.dot(dt, nvec),
            b.dot(dt, nvec, coef=2.0),
            b.axpy(dt, nvec),
            b.copy(dt, nvec),
            b.gemv_beta(dt, 64, 64),
            b.gemm_beta(dt, 32, 32, 32),
            b.gemm_acc_t(dt, 32, 24, 40),
            b.ger_assign(dt, 64, 48),
            b.eval_gemv(dt, 64, 64),
            b.eval_gemm(dt, 32, 32, 32),
            b.eval_ger(dt, 64, 48),
        ]
    return _odd(forms)


def large_kernels(b):
    """The same forms at sizes where the backend kernel does nearly all the
    work."""
    n20 = 2 ** 20
    forms = []
    for dt, ngemv in ((F64, 2048), (F32, 3072)):
        forms += [
            b.dot(dt, n20),
            b.dot(dt, n20, coef=2.0),
            b.axpy(dt, n20),
            b.copy(dt, n20),
            b.gemv_beta(dt, ngemv, ngemv),
            b.gemm_beta(dt, 1024, 1024, 1024),
            b.gemm_acc_t(dt, 768, 640, 768),
            b.ger_assign(dt, 1024, 1024),
            b.eval_gemv(dt, 2048, 1536),
            b.eval_gemm(dt, 512, 512, 512),
            b.eval_ger(dt, 1024, 1024),
        ]
    return _odd(forms)


def _sum_2p3q(d, p, q): return lb.assign(d, 2.0 * p + 3.0 * q)
def _sum_p2q4(d, p, q): return lb.assign(d, 0.5 * p + 0.25 * q)
def _scale_2x(d, x): return lb.assign(d, 2.0 * x)
def _sum_x2z(d, x, z): return lb.assign(d, x + 2.0 * z)


def fallback_forms(b):
    """Statements with no single-kernel route, weighted so that no form
    takes most of a round, and so that the median and the 99th percentile
    of a round's latencies fall inside one form's spread (``x+2z`` and
    ``a*(a*x)``), not in the gap between two forms."""
    specs = [
        (b.eval_chain(128), 1),
        (b.gemm_beta(F64, 128, 128, 128, dest_first=True), 2),
        (b.eval_matvec_chain(256), 24),
        (b.quadratic(256), 32),
        (b.scaled_sum((256, 256), (2.0, 3.0), _sum_2p3q), 128),
        (b.scaled_sum((32, 32, 32), (0.5, 0.25), _sum_p2q4), 256),
        (b.scaled_sum((4096,), (2.0,), _scale_2x), 640),
        (b.scaled_sum((4096,), (1.0, 2.0), _sum_x2z), 768),
    ]
    for form, weight in specs:
        form.weight = weight
    return [form for form, _ in specs]


WORKLOADS = {
    "small-stmts": small_stmts,
    "large-kernels": large_kernels,
    "fallback-forms": fallback_forms,
}
