"""Benchmark: does the expression syntax cost anything over direct calls?

Times the same statement both ways on identical operands and prints the
overhead ratio per size.  The same harness backs the `bench` console
script; run e.g.

    bench --op gemm --sizes 64,128,256 --reps 10 \
          --backend external-blas --out results.csv

Run with:  python3 demos/04_benchmark.py
"""

import os
import tempfile

from lazyblas import kernels
from lazyblas.bench import BenchSpec, emit_csv, report_overhead, run

backend = "external-blas" if "external-blas" in kernels._backends else "naive"
spec = BenchSpec("gemm", sizes=(32, 64, 128, 256), repetitions=10,
                 backend=backend, seed=0)
records = run(spec)

print(f"gemm on the {backend} backend, {spec.repetitions} reps per variant:")
print(f"{'n':>6} {'expression us':>15} {'direct us':>12} {'ratio':>8}")
by_key = {(r.n, r.variant): r for r in records}
for (op, n), ratio in report_overhead(records).items():
    e = by_key[(n, "expression")]
    d = by_key[(n, "direct")]
    print(f"{n:>6} {e.mean_us:>15.1f} {d.mean_us:>12.1f} {ratio:>8.3f}")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "gemm_demo.csv")
    emit_csv(records, path)
    print(f"\nCSV written to {path} (a directory of this run's own):")
    with open(path) as f:
        print(f.read(), end="")
