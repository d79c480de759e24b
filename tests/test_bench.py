import csv

import numpy as np
import pytest

from lazyblas import DomainError, bench, kernels
from lazyblas.bench import (
    BenchSpec,
    BenchRecord,
    _make_operands,
    emit_csv,
    main,
    report_overhead,
    run,
)


def test_spec_defaults_fill_size_grid():
    spec = BenchSpec("dot")
    assert spec.sizes[0] == 8 and spec.sizes[-1] == 2 ** 20
    assert BenchSpec("gemm").sizes[-1] == 2 ** 11


@pytest.mark.parametrize("bad", [
    dict(operation="axpy"),
    dict(operation="dot", sizes=(8, 8)),
    dict(operation="dot", sizes=(16, 8)),
    dict(operation="dot", sizes=(0, 8)),
    dict(operation="dot", repetitions=0),
    # sizes and repetitions are integers: no truncation, no parsing, no
    # bool, and no failure later inside run's range()
    dict(operation="dot", sizes=(8.7,)),
    dict(operation="dot", sizes=("8",)),
    dict(operation="dot", sizes=(True,)),
    dict(operation="dot", repetitions=2.5),
    dict(operation="dot", repetitions=True),
    dict(operation="dot", repetitions="3"),
])
def test_spec_validation(bad):
    with pytest.raises(DomainError):
        BenchSpec(**bad)


def test_spec_takes_numpy_integers_as_ints():
    spec = BenchSpec("dot", sizes=(np.int64(8), np.int32(16)),
                     repetitions=np.int64(2))
    assert spec.sizes == (8, 16) and spec.repetitions == 2
    assert all(type(v) is int for v in spec.sizes + (spec.repetitions,))


def test_run_record_count_and_fields():
    records = run(BenchSpec("dot", sizes=(8, 16, 32), repetitions=3))
    assert len(records) == 3 * 2  # |sizes| x {expression, direct}
    variants = {(r.n, r.variant) for r in records}
    assert variants == {(n, v) for n in (8, 16, 32)
                        for v in ("expression", "direct")}
    for r in records:
        assert r.operation == "dot" and r.reps == 3
        assert r.mean_us > 0.0 and r.std_us >= 0.0


def test_operands_deterministic_per_seed():
    a1, b1, c1 = _make_operands("gemm", 16, seed=7)
    a2, b2, c2 = _make_operands("gemm", 16, seed=7)
    np.testing.assert_array_equal(a1.to_numpy(), a2.to_numpy())
    np.testing.assert_array_equal(b1.to_numpy(), b2.to_numpy())
    np.testing.assert_array_equal(c1.to_numpy(), c2.to_numpy())
    a3, _, _ = _make_operands("gemm", 16, seed=8)
    assert not np.array_equal(a1.to_numpy(), a3.to_numpy())


def test_both_variants_compute_same_result():
    # The expression statement and the direct kernel call must do identical
    # math on identical operands, else the timing comparison is meaningless.
    from lazyblas.bench import _statement
    for op in ("dot", "gemv", "gemm"):
        results = {}
        for variant in ("expression", "direct"):
            operands = _make_operands(op, 16, seed=3)
            out = _statement(op, operands, variant)()
            results[variant] = (out if op == "dot"
                                else operands[-1].to_numpy().copy())
        if op == "dot":
            assert results["expression"] == pytest.approx(results["direct"],
                                                          rel=1e-12)
        else:
            np.testing.assert_allclose(results["expression"],
                                       results["direct"], rtol=1e-12)


@pytest.mark.parametrize("op", ["dot", "gemv", "gemm"])
def test_run_times_both_variants_on_one_operand_set(op, monkeypatch):
    # Separately allocated sets let cache state, not the expression path,
    # decide the overhead ratio; both variants must get the same tensors.
    seen = {}

    def recording_statement(_op, operands, variant):
        seen.setdefault(operands[0].extents[0], {})[variant] = operands
        return lambda: None  # nothing is computed or timed

    monkeypatch.setattr(bench, "_statement", recording_statement)
    run(BenchSpec(op, sizes=(8, 16), repetitions=1))
    assert sorted(seen) == [8, 16]
    for n, by_variant in seen.items():
        expression, direct = by_variant["expression"], by_variant["direct"]
        assert len(expression) == len(direct)
        assert all(e is d for e, d in zip(expression, direct)), n


def test_run_keeps_shared_destination_finite(monkeypatch):
    # Both variants update one destination C <- ALPHA*A*B + BETA*C in turn,
    # 2*(reps + 1) times per size: BETA must contract, or C overflows.
    kept = []
    statement = bench._statement

    def keeping_statement(op, operands, variant):
        kept.append(operands)
        return statement(op, operands, variant)

    monkeypatch.setattr(bench, "_statement", keeping_statement)
    run(BenchSpec("gemm", sizes=(8,), repetitions=300))
    c = kept[-1][-1]
    assert np.all(np.isfinite(c.to_numpy()))


@pytest.mark.skipif("external-blas" not in kernels.available_backends(),
                    reason="scipy BLAS unavailable")
def test_run_restores_the_selected_backend():
    kernels.select_backend("naive")
    run(BenchSpec("dot", sizes=(8,), repetitions=1, backend="external-blas"))
    assert kernels.current_backend().name == "naive"


def test_csv_layout(tmp_path):
    records = [BenchRecord("dot", 8, "expression", 1.234, 0.1, 10),
               BenchRecord("dot", 8, "direct", 1.0, 0.05, 10)]
    path = tmp_path / "out.csv"
    emit_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "operation,n,variant,mean_us,std_us,reps"
    assert len(lines) == 3  # header + one line per record
    assert lines[1] == "dot,8,direct,1.000,0.050,10"


def test_csv_sorted_for_shuffled_input(tmp_path):
    records = [BenchRecord("gemm", 32, "expression", 3.0, 0.0, 2),
               BenchRecord("dot", 16, "direct", 1.0, 0.0, 2),
               BenchRecord("dot", 8, "expression", 2.0, 0.0, 2),
               BenchRecord("dot", 8, "direct", 1.0, 0.0, 2)]
    path = tmp_path / "out.csv"
    emit_csv(records, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    keys = [(r["operation"], int(r["n"]), r["variant"]) for r in rows]
    assert keys == sorted(keys)


def test_csv_round_trip(tmp_path):
    records = run(BenchSpec("gemv", sizes=(8,), repetitions=2))
    path = tmp_path / "gemv.csv"
    emit_csv(records, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(records)
    by_variant = {r["variant"]: r for r in rows}
    orig = {r.variant: r for r in records}
    for variant, row in by_variant.items():
        # values are written with three decimals, so half an ulp of the
        # last digit plus binary-representation slack
        assert float(row["mean_us"]) == pytest.approx(orig[variant].mean_us,
                                                      abs=6e-4)
        assert int(row["reps"]) == 2


def test_report_overhead_arithmetic():
    records = [BenchRecord("dot", 8, "expression", 3.0, 0.0, 10),
               BenchRecord("dot", 8, "direct", 2.0, 0.0, 10)]
    assert report_overhead(records) == {("dot", 8): pytest.approx(1.5)}


def test_report_overhead_missing_counterpart():
    with pytest.raises(DomainError):
        report_overhead([BenchRecord("dot", 8, "expression", 3.0, 0.0, 10)])


def test_cli_success_writes_csv(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = main(["--op", "dot", "--sizes", "8,16", "--reps", "2",
                 "--out", str(out)])
    assert code == 0
    assert out.exists() and len(out.read_text().splitlines()) == 5
    stdout = capsys.readouterr().out
    assert "overhead" in stdout and "dot" in stdout


@pytest.mark.parametrize("argv", [
    ["--op", "cholesky"],           # not a supported operation
    ["--op", "dot", "--sizes", "16,8"],
    ["--op", "dot", "--reps", "0"],
    [],                              # --op is required
])
def test_cli_argument_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


def test_cli_backend_unavailable_exit_3(monkeypatch, capsys):
    monkeypatch.delitem(kernels._backends, "external-blas", raising=False)
    assert main(["--op", "dot", "--sizes", "8", "--reps", "1",
                 "--backend", "external-blas"]) == 3
    assert "backend" in capsys.readouterr().err


def test_cli_unwritable_output_exit_2(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "r.csv"
    assert main(["--op", "dot", "--sizes", "8", "--reps", "1",
                 "--out", str(target)]) == 2
    capsys.readouterr()
