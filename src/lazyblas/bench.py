"""Benchmark harness: expression syntax vs direct kernel calls.

For each requested size the same statement is timed twice -- once
through the lazy expression machinery, once as a straight call to the
kernel it should lower to -- on one seed-deterministic operand set per
size, shared by both variants (for gemv/gemm both variants update the
shared destination in turn).  One untimed warm-up run of each variant
absorbs cold caches before the timed repetitions.  Results go to CSV and
a ratio summary.

CLI::

    bench --op {dot|gemv|gemm} [--sizes 8,16,...] [--reps 10]
          [--backend {naive|external-blas}] [--out results.csv] [--seed N]

Exit codes: 0 success, 2 argument error, 3 backend unavailable.
"""

from __future__ import annotations

import argparse
import csv
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DomainError, UnknownBackendError
from .expr import assign, evaluate, transpose
from .tensor import Tensor, _integer

__all__ = ["BenchSpec", "BenchRecord", "run", "emit_csv", "report_overhead", "main"]

OPERATIONS = ("dot", "gemv", "gemm")

DEFAULT_SIZES = {
    "dot": tuple(2 ** p for p in range(3, 21)),
    "gemv": tuple(2 ** p for p in range(3, 12)),
    "gemm": tuple(2 ** p for p in range(3, 12)),
}

ALPHA, BETA = 0.5, 0.25


@dataclass
class BenchSpec:
    """What to time.  ``sizes`` (default: the operation's own list) must
    be positive and strictly increasing, and ``repetitions`` at least 1;
    each must be an integer (a bool is not one; a numpy integer is).  Any
    other value raises DomainError when the spec is built."""

    operation: str
    sizes: tuple = ()
    repetitions: int = 10
    backend: str = "naive"
    out: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.operation not in OPERATIONS:
            raise DomainError(
                f"unknown operation {self.operation!r}; choose from {OPERATIONS}"
            )
        if not self.sizes:
            self.sizes = DEFAULT_SIZES[self.operation]
        self.sizes = tuple(_integer(n, "size") for n in self.sizes)
        if any(n <= 0 for n in self.sizes):
            raise DomainError("sizes must be positive")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise DomainError("sizes must be strictly increasing")
        self.repetitions = _integer(self.repetitions, "repetitions")
        if self.repetitions < 1:
            raise DomainError("repetitions must be >= 1")


@dataclass
class BenchRecord:
    operation: str
    n: int
    variant: str  # "expression" | "direct"
    mean_us: float
    std_us: float
    reps: int


def _rand_tensor(rng, *extents):
    t = Tensor(len(extents), *extents)
    t.column_view()[...] = rng.random(extents)
    return t


def _make_operands(op, n, seed):
    """One operand set, deterministic per (op, n, seed).

    `run` builds one set per size and times both variants on it, so for
    gemv/gemm both variants update the same destination in turn.
    """
    rng = np.random.default_rng((seed, n, OPERATIONS.index(op)))
    if op == "dot":
        return _rand_tensor(rng, n), _rand_tensor(rng, n)
    if op == "gemv":
        return _rand_tensor(rng, n, n), _rand_tensor(rng, n), _rand_tensor(rng, n)
    return _rand_tensor(rng, n, n), _rand_tensor(rng, n, n), _rand_tensor(rng, n, n)


def _statement(op, operands, variant):
    """The timed body: one Table-style statement or one direct kernel call."""
    if op == "dot":
        x, y = operands
        if variant == "expression":
            return lambda: evaluate(transpose(x) * y)
        return lambda: kernels.dot(x, y)
    if op == "gemv":
        a, x, y = operands
        if variant == "expression":
            return lambda: assign(y, ALPHA * a * x + BETA * y)
        return lambda: kernels.gemv(False, ALPHA, a, x, BETA, y)
    a, b, c = operands
    if variant == "expression":
        return lambda: assign(c, ALPHA * a * b + BETA * c)
    return lambda: kernels.gemm(False, False, ALPHA, a, b, BETA, c)


def run(spec: BenchSpec) -> list:
    """Time every (size, variant) pair; returns one record per pair.
    The backend selected before the call is selected again after it."""
    previous = kernels.current_backend().name
    kernels.select_backend(spec.backend)
    try:
        variants = ("expression", "direct")
        records = []
        for n in spec.sizes:
            # One operand set for both variants: separate sets would leave the
            # first-allocated one out of cache when the timed reps begin.
            operands = _make_operands(spec.operation, n, spec.seed)
            bodies = {}
            times = {v: [] for v in variants}
            for variant in variants:
                bodies[variant] = _statement(spec.operation, operands, variant)
                bodies[variant]()  # warm-up, untimed
            # Interleave the variants rep by rep, alternating which goes first,
            # so machine drift (frequency scaling, co-tenants) and within-pair
            # position effects hit both variants equally instead of whichever
            # happened to run later.
            for rep in range(spec.repetitions):
                order = variants if rep % 2 == 0 else variants[::-1]
                for variant in order:
                    t0 = time.perf_counter_ns()
                    bodies[variant]()
                    t1 = time.perf_counter_ns()
                    times[variant].append((t1 - t0) / 1000.0)
            for variant in variants:
                mean = statistics.fmean(times[variant])
                std = (statistics.stdev(times[variant])
                       if len(times[variant]) > 1 else 0.0)
                records.append(BenchRecord(spec.operation, n, variant, mean,
                                           std, spec.repetitions))
        return records
    finally:
        kernels.select_backend(previous)


def emit_csv(records, path) -> None:
    """`operation,n,variant,mean_us,std_us,reps`, sorted by (operation, n, variant)."""
    rows = sorted(records, key=lambda r: (r.operation, r.n, r.variant))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["operation", "n", "variant", "mean_us", "std_us", "reps"])
        for r in rows:
            w.writerow([r.operation, r.n, r.variant,
                        f"{r.mean_us:.3f}", f"{r.std_us:.3f}", r.reps])


def report_overhead(records) -> dict:
    """Ratio expression/direct of mean times, keyed by (operation, n)."""
    by_key = {}
    for r in records:
        by_key.setdefault((r.operation, r.n), {})[r.variant] = r
    ratios = {}
    for key, variants in sorted(by_key.items()):
        if "expression" not in variants or "direct" not in variants:
            raise DomainError(f"missing counterpart variant for {key}")
        ratios[key] = variants["expression"].mean_us / variants["direct"].mean_us
    return ratios


def _print_overhead(records, file=None):
    file = file if file is not None else sys.stdout
    ratios = report_overhead(records)
    print(f"{'operation':<10}{'n':>10}{'overhead':>12}", file=file)
    for (op, n), ratio in ratios.items():
        print(f"{op:<10}{n:>10}{ratio:>12.3f}", file=file)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Time expression-syntax statements against direct kernel calls.",
    )
    parser.add_argument("--op", required=True, choices=OPERATIONS)
    parser.add_argument("--sizes", type=lambda s: [int(v) for v in s.split(",")],
                        default=None, help="comma-separated, strictly increasing")
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--backend", choices=("naive", "external-blas"),
                        default="naive")
    parser.add_argument("--out", default=None, help="CSV output path")
    parser.add_argument("--seed", type=int, default=0)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else int(exc.code or 0)

    try:
        spec = BenchSpec(args.op, tuple(args.sizes or ()), args.reps,
                         args.backend, args.out, args.seed)
    except DomainError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    try:
        kernels.select_backend(spec.backend)
    except UnknownBackendError as exc:
        print(f"bench: backend unavailable: {exc}", file=sys.stderr)
        return 3

    records = run(spec)
    if spec.out:
        try:
            emit_csv(records, spec.out)
        except OSError as exc:
            print(f"bench: cannot write {spec.out}: {exc}", file=sys.stderr)
            return 2
    _print_overhead(records)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
