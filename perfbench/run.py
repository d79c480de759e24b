"""Statement benchmark for lazyblas: one workload per process.

    python3 perfbench/run.py --workload small-stmts --seed 1 --seconds 10 --trace 0

Runs a closed loop with one caller over a fixed number of rounds; a round
runs every form of the workload (``forms.py``) its weight's number of
times.  Each statement is paired with the same computation written by
hand, alternating which of the two runs first, and both are timed
separately.  Results are checked outside the timing against float64
numpy.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
rounds once untraced and once with spans around lazyblas's entry points
(``spans.py``), reports the per-layer metrics and the tracing overhead,
and writes the spans to ``perfbench/traces/``.  ``--null`` puts the
hand-written call in the statement slot too (the null experiment for
``overhead_ratio``).
"""

from __future__ import annotations

import os
import time

_T0 = time.perf_counter()


def _process_age():
    """Seconds since this process started (Linux; 10 ms granularity in the
    start time), or 0 where /proc is missing."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)


_AGE_AT_T0 = _process_age()

# One BLAS thread: with OpenBLAS's default of one per core, some processes
# on a 2-vCPU machine run every threaded gemm ~5x slower for their whole
# life, so run-to-run spread would measure the mode, not the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Rounds per second of --seconds, so that the timed loop lasts about
# --seconds at the commit the benchmark was written for.  The count, not
# the duration, is fixed: peak_rss_mb then compares runs of equal work.
ROUNDS_PER_S = {"small-stmts": 1900, "large-kernels": 3.6, "fallback-forms": 5}
TRACE_ROUNDS_PER_S = {"small-stmts": 30, "large-kernels": 1, "fallback-forms": 0.5}
CLASSES = ("scalar", "alloc", "inplace")  # what a statement returns
# Share of rounds, the quickest by hand-written time, that rates and
# latencies are taken over (see ``end_to_end``).
QUICK_SHARE = 0.1
CHECK_EVERY = {"small-stmts": 64, "large-kernels": 4, "fallback-forms": 4}


def _import_program():
    if not (SRC / "lazyblas" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lazyblas sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lazyblas

    if Path(lazyblas.__file__).resolve().parent != SRC / "lazyblas":
        sys.exit(f"perfbench: imported lazyblas from {lazyblas.__file__}")
    return lazyblas


class Checker:
    """Output checks, run outside the timing.  Failures are collected as
    messages; any message makes the run incorrect."""

    def __init__(self):
        self.errors = {}  # check -> (its first failure message, times failed)
        self.checked = 0

    def fail(self, msg, key=None):
        first, times = self.errors.get(key or msg, (msg, 0))
        self.errors[key or msg] = (first, times + 1)

    def close(self, form, got, want, mag, k):
        """Forward-error bound for a length-k accumulation in the form's
        dtype, plus the float64 reference's own rounding."""
        self.checked += 1
        got = np.asarray(got, dtype=np.float64)
        if got.shape != np.shape(want):
            self.fail(f"{form.name}: result shape {got.shape}, want "
                      f"{np.shape(want)}", key=f"{form.name}: shape")
        elif not np.all(np.isfinite(got)):
            self.fail(f"{form.name}: non-finite result")
        else:
            u = np.finfo(form.dtype).eps / 2
            tol = 2 * (k + 2) * u * mag + 4 * u * np.abs(want) + 1e-300
            err = np.abs(got - want)
            if not np.all(err <= tol):
                self.fail(f"{form.name}: result off by "
                          f"{float(np.max(err / tol)):.3g}x the error bound",
                          key=f"{form.name}: result off")

    def sample(self, form, result, before):
        if form.klass == "alloc":
            result = result.column_view() if hasattr(result, "column_view") else result
        elif form.klass == "inplace":
            result = form.dest
        want, mag, k = form.expect(before)
        self.close(form, result, want, mag, k)
        if form.mirror is not None:
            self.close(form, form.mirror(), want, mag, k)
            form.mirror_calls += 1

    def final_state(self, form):
        """Every destination is finite, and a contracting recurrence
        C <- alpha*P + beta*C (beta < 1) after k steps equals
        beta^k C0 + alpha (1 - beta^k)/(1 - beta) P within its bound."""
        if form.dest is None:
            return
        if not np.all(np.isfinite(form.dest)):
            self.fail(f"{form.name}: destination not finite at the end")
            return
        if form.recurrence is None:
            return
        alpha, beta, c0, prod, inner = form.recurrence
        p, mp = prod.get()
        k = form.lib + form.hands  # both sides apply the update
        want = beta ** k * c0 + alpha * (1 - beta ** k) / (1 - beta) * p
        cmax = np.abs(c0) + abs(alpha) * mp / (1 - beta)
        u = np.finfo(form.dtype).eps / 2
        delta = 2 * (inner + 2) * u * (abs(alpha) * mp + beta * cmax) + 4 * u * cmax
        tol = 2 * delta / (1 - beta) + 1e-300
        err = np.abs(np.asarray(form.dest, dtype=np.float64) - want)
        if not np.all(err <= tol):
            self.fail(f"{form.name}: state after {k} steps off the closed form "
                      f"by {float(np.max(err / tol)):.3g}x the bound")


def _schedule(forms):
    return [f for f in forms for _ in range(f.weight)]


def _warm_up(schedule, null):
    for f in schedule:
        if null:
            f.hand()
            f.hands += 1
        else:
            f.stmt()
            f.lib += 1
        f.hand()
        f.hands += 1


def timed_loop(schedule, stmts, rounds, check_every, checker, round0=0):
    """Statement/hand pairs over ``rounds`` rounds; ``stmts[j]`` runs the
    statement of slot ``j``.  Which side of a pair runs first alternates
    from slot to slot and from round to round.  Rounds whose number is a
    multiple of ``check_every`` are checked (none if it is 0).  Returns
    statement and hand times in ns and failure flags, rounds x slots."""
    n = len(schedule)
    ts = array("q", bytes(8 * rounds * n))
    th = array("q", bytes(8 * rounds * n))
    failed = array("b", bytes(rounds * n))
    clock = time.perf_counter_ns
    flips = [f.flip for f in dict.fromkeys(schedule) if f.flip is not None]
    i = 0
    for r in range(round0, round0 + rounds):
        check = check_every and r % check_every == 0
        for j, f in enumerate(schedule):
            hand = f.hand
            hand_first = (r + j) & 1
            if hand_first:
                t0 = clock()
                kept = hand()
                th[i] = clock() - t0
            before = None
            if check and f.dest is not None:
                before = np.array(f.dest, dtype=np.float64)
            try:
                t0 = clock()
                res = stmts[j]()
                ts[i] = clock() - t0
            except Exception as exc:  # counted in ``failed``; the run goes on
                failed[i] = 1
                if not any(failed[:i]):
                    print(f"{f.name}: raised {exc!r}", file=sys.stderr)
            else:
                if check:
                    checker.sample(f, res, before)
            if not hand_first:
                t0 = clock()
                kept = hand()
                th[i] = clock() - t0
            # results are freed here, outside the timing, on both sides
            res = kept = None
            i += 1
        for flip in flips:
            flip()
    return ts, th, failed


def per_form_lines(schedule, ts, th):
    """Mean statement and hand-written time per form, for the log."""
    n = len(schedule)
    ts = np.frombuffer(ts, dtype=np.int64).reshape(-1, n)
    th = np.frombuffer(th, dtype=np.int64).reshape(-1, n)
    lines = []
    for f in dict.fromkeys(schedule):
        sel = [j for j, g in enumerate(schedule) if g is f]
        s_us, h_us = ts[:, sel].mean() / 1e3, th[:, sel].mean() / 1e3
        lines.append(f"  {f.name:34s} {f.klass:8s} stmt {s_us:11.2f} us  "
                     f"hand {h_us:11.2f} us  ratio {s_us / h_us:7.3f}")
    return lines


def end_to_end(schedule, ts, th, failed, setup_s):
    """The end-to-end metrics of one timed loop.

    The host shares its cores: for phases of a second or more, everything
    in the process (the hand-written calls too) runs 1.5-1.7x slower.
    Rates, latencies and gflops are therefore taken over the quickest
    decile of rounds as judged by the hand-written side alone, so that the
    selection does not depend on the statements being measured.
    ``overhead_ratio`` pairs the two sides within each round and is the
    median over all rounds.
    """
    n = len(schedule)
    ts = np.frombuffer(ts, dtype=np.int64).reshape(-1, n)
    th = np.frombuffer(th, dtype=np.int64).reshape(-1, n)
    ok = np.frombuffer(failed, dtype=np.int8).reshape(-1, n) == 0
    ts_ok = np.where(ok, ts, 0)
    hand_round = np.where(ok, th, 0).sum(axis=1)
    quick = hand_round <= np.quantile(hand_round, QUICK_SHARE)
    ts_q, ok_q = ts_ok[quick], ok[quick]
    lat = ts_q[ok_q]
    flops = np.array([f.flops for f in schedule], dtype=np.float64)

    def rate(sel):
        return 1e9 * ok_q[:, sel].sum() / ts_q[:, sel].sum()
    metrics = {
        "setup_s": (setup_s, "s"),
        "stmt_per_s": (rate(slice(None)), "stmt/s"),
        "stmt_p50_us": (np.percentile(lat, 50) / 1e3, "us"),
        "stmt_p99_us": (np.percentile(lat, 99) / 1e3, "us"),
    }
    for klass in CLASSES:
        sel = [j for j, f in enumerate(schedule) if f.klass == klass]
        metrics[f"{klass}_stmt_per_s"] = (rate(sel), "stmt/s")
    metrics["overhead_ratio"] = (
        float(np.median(ts_ok.sum(axis=1) / hand_round)), "ratio")
    metrics["gflops"] = ((ok_q * flops).sum() / ts_q.sum(), "GFLOP/s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    return metrics


def trace_run(lb, backend, schedule, rounds, checker, out_path):
    """One checked round, then untraced and traced rounds in turn, all
    paired with the hand-written calls.  The alternation makes the tracing
    overhead compare rounds run in the same phase of the host; the checks,
    which would evict the operands from cache, stay out of both.
    Returns the per-layer metrics, the statements run and those failed.

    Cross-checks, each total reached by two independent paths: kernel
    calls counted by the dispatch-span wrappers against the call log's
    records, and constructor spans against the log's allocation count.
    """
    from spans import KERNELS, LAYERS, Tracer

    log = lb.kernels.log()
    tracer = Tracer()
    plain = [f.stmt for f in schedule]
    traced = [partial(tracer.statement, f.stmt) for f in schedule]
    untraced_ns = traced_ns = 0
    logged = dict.fromkeys(KERNELS, 0)
    allocs = 0
    _, _, fails = timed_loop(schedule, plain, 1, 1, checker)
    failed = sum(fails)
    for r in range(rounds):
        ts, _, fails = timed_loop(schedule, plain, 1, 0, checker, round0=2 * r)
        untraced_ns += sum(ts)
        failed += sum(fails)
        n0, a0 = len(log.records), log.allocations
        tracer.install(backend)
        try:
            ts, _, fails = timed_loop(schedule, traced, 1, 0, checker,
                                      round0=2 * r + 1)
        finally:
            tracer.uninstall()
        traced_ns += sum(ts)
        failed += sum(fails)
        for rec in log.records[n0:]:
            if rec.kernel in logged:
                logged[rec.kernel] += 1
        allocs += log.allocations - a0
    for f in schedule:
        f.lib += 2 * rounds + 1
        f.hands += 2 * rounds + 1
    out_path.parent.mkdir(exist_ok=True)
    tracer.write(out_path)

    per_stmt, calls = tracer.summarize()
    for k in KERNELS:
        if logged[k] != calls[k]:
            checker.fail(f"trace: {calls[k]} {k} dispatch spans, call log "
                         f"grew by {logged[k]}")
    rows = np.array([per_stmt[s] for s in sorted(per_stmt)], dtype=np.float64)
    if rows[:, -1].sum() != allocs:
        checker.fail(f"trace: {rows[:, -1].sum():.0f} constructor spans, "
                     f"allocations grew by {allocs}")

    n_stmt = rows.shape[0]
    klass = np.array([schedule[s % len(schedule)].klass for s in sorted(per_stmt)])
    m = {}

    def layer_metrics(prefix, sel, layers):
        sub = rows[sel]
        cnt = sub.shape[0]
        m[f"{prefix}stmt_us"] = (sub[:, 0].sum() / cnt / 1e3, "us")
        for j, name in enumerate(LAYERS):
            if name in layers:
                m[f"{prefix}{name}_us"] = (sub[:, 1 + j].sum() / cnt / 1e3, "us")
        m[f"{prefix}kernels.calls_per_stmt"] = (sub[:, -2].sum() / cnt, "count")
        m[f"{prefix}tensor.allocs_per_stmt"] = (sub[:, -1].sum() / cnt, "count")
        m[f"{prefix}expr.single_kernel_share"] = (
            float(np.sum(sub[:, -2] == 1)) / cnt, "ratio")

    layer_metrics("", slice(None), LAYERS)
    for c in CLASSES:
        # the layers every statement of every class passes through
        layer_metrics(f"{c}.", klass == c, ("expr.build", "expr.execute"))
    for k in KERNELS:
        m[f"kernels.calls.{k}"] = (calls[k], "count")
    m["expr.kernel_free_stmts"] = (int(np.sum(rows[:, -2] == 0)), "count")
    m["kernels.log_records"] = (len(log.records), "count")
    m["kernels.flops_computed"] = (tracer.flops / n_stmt, "flop/stmt")
    m["kernels.bytes_computed"] = (tracer.bytes / n_stmt, "B/stmt")
    backend_ns = rows[:, 1 + LAYERS.index("kernels.backend")].sum()
    m["kernels.backend_gflops"] = (tracer.flops / backend_ns, "GFLOP/s")
    m["trace.untraced_stmt_us"] = (untraced_ns / n_stmt / 1e3, "us")
    m["trace.overhead_ratio"] = (traced_ns / untraced_ns, "ratio")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m, (2 * rounds + 1) * len(schedule), failed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("small-stmts", "large-kernels", "fallback-forms"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--null", action="store_true",
                   help="hand-written call in both slots (null experiment)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    w = args.workload

    lb = _import_program()
    import forms as forms_mod  # imports lazyblas

    backend = lb.select_backend("external-blas")
    forms = forms_mod.WORKLOADS[w](forms_mod.Maker(args.seed))
    schedule = _schedule(forms)
    _warm_up(schedule, args.null)
    setup_s = _AGE_AT_T0 + time.perf_counter() - _T0

    checker = Checker()
    start = time.perf_counter()
    if args.trace:
        rounds = max(1, round(args.seconds * TRACE_ROUNDS_PER_S[w]))
        path = HERE / "traces" / f"{w}-seed{args.seed}.csv"
        metrics, attempted, failed = trace_run(lb, backend, schedule, rounds,
                                               checker, path)
    else:
        rounds = max(1, round(args.seconds * ROUNDS_PER_S[w]))
        stmts = [f.hand if args.null else f.stmt for f in schedule]
        ts, th, fails = timed_loop(schedule, stmts, rounds, CHECK_EVERY[w],
                                   checker)
        metrics = end_to_end(schedule, ts, th, fails, setup_s)
        print("\n".join(per_form_lines(schedule, ts, th)), file=sys.stderr)
        attempted, failed = len(ts), int(sum(fails))
        for f in schedule:
            f.hands += 2 * rounds if args.null else rounds
            f.lib += 0 if args.null else rounds
    loop_s = time.perf_counter() - start

    for f in forms:
        checker.final_state(f)
    if w != "fallback-forms":
        # one kernel call per statement: the paper's claim
        expected = {}
        for f in forms:
            if f.lib + f.mirror_calls:
                expected[f.kernel] = (expected.get(f.kernel, 0) + f.lib
                                      + f.mirror_calls)
        logged = lb.kernels.log().kernel_counts()
        if logged != expected:
            checker.fail(f"call log {logged} != statements per kernel {expected}")

    for msg, times in checker.errors.values():
        print(f"CHECK FAILED ({times}x): {msg}", file=sys.stderr)
    print(f"{w} seed={args.seed} rounds={rounds} statements={attempted} "
          f"checked={checker.checked} loop={loop_s:.2f}s", file=sys.stderr)
    print(json.dumps({
        "correct": not checker.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
