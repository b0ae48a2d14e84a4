"""Benchmark harness: workloads, cell timing, tables, CSV."""

import csv
import io
import os
import signal
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from nfmatch import bench
from nfmatch.bench import (
    COMB2_VARIANTS,
    SEQ_TRIPLE_VARIANTS,
    BenchCell,
    BenchConfig,
    BenchError,
    BenchReport,
    comb2_functional,
    comb2_pattern,
    format_table,
    run_benchmarks,
    seq_triple_bench,
    sorted_list_matcher,
    write_csv,
)
from nfmatch.engine import MatchClause, match_all
from nfmatch.matchers import CONS, NIL, integer_matcher, multiset_matcher
from nfmatch.pattern import Constructor, Var, const_value_pattern
from nfmatch.values import Symbol, VList

from helpers import cli

X = Symbol("x")


def pairs(results):
    return [tuple(r) for r in results]


# --- comb2 workloads ---


def test_comb2_pattern_frozen_small():
    got = pairs(comb2_pattern(3))
    assert got == [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]


def test_comb2_functional_matches_pattern_order():
    assert pairs(comb2_functional(3)) == pairs(comb2_pattern(3))
    assert pairs(comb2_functional(1)) == []
    assert pairs(comb2_functional(2)) == [(1, 2), (2, 1)]


def test_comb2_variants_agree_as_multisets():
    for n in (4, 7):
        naive = Counter(pairs(comb2_pattern(n, "naive-multiset")))
        opt = Counter(pairs(comb2_pattern(n, "optimized-multiset")))
        func = Counter(pairs(comb2_functional(n)))
        assert naive == opt == func
        assert sum(opt.values()) == n * (n - 1)
        assert all(v == 1 for v in opt.values())


def test_comb2_unknown_variant():
    with pytest.raises(BenchError):
        comb2_pattern(3, "quadratic")


# --- seq-triple workload and the sorted-list matcher ---


def test_seq_triple_bench_zeros_have_no_triple():
    for variant in SEQ_TRIPLE_VARIANTS:
        results, elapsed = seq_triple_bench(30, variant)
        assert list(results) == []
        assert elapsed >= 0.0


def test_seq_triple_unknown_variant():
    with pytest.raises(BenchError):
        seq_triple_bench(10, "hashed")


def _triple_starts(target_tuple, matcher):
    from nfmatch.bench import _seq_triple_clause

    return match_all(VList.of(target_tuple), matcher, [_seq_triple_clause()])


def test_sorted_matcher_finds_runs():
    m = sorted_list_matcher(integer_matcher())
    assert _triple_starts((1, 2, 3, 5, 7), m) == [1]
    assert _triple_starts((0, 2, 4), m) == []
    assert _triple_starts((4, 5, 5, 6), m) == [4]
    assert _triple_starts((), m) == []
    # nil and a value pattern, the example extension's other two rules
    for pattern, target, want in (
        (Constructor(NIL, ()), (), [1]),
        (Constructor(NIL, ()), (1,), []),
        (const_value_pattern(VList.of((1, 2))), (1, 2), [1]),
        (const_value_pattern(VList.of((1, 2))), (1, 3), []),
    ):
        assert match_all(VList.of(target), m, [MatchClause(pattern, lambda: 1)]) == want


def test_sorted_matcher_agrees_with_multiset_on_distinct_inputs():
    ms = multiset_matcher(integer_matcher())
    sm = sorted_list_matcher(integer_matcher())
    for t in [(), (1,), (1, 2, 3), (2, 4, 6, 7, 8, 9), (1, 3, 4, 5, 9)]:
        assert sorted(_triple_starts(t, sm)) == sorted(set(_triple_starts(t, ms)))


def test_sorted_matcher_dedupes_equal_elements():
    # one decomposition per distinct value, by design
    m = sorted_list_matcher(integer_matcher())
    heads = match_all(
        VList.of((5, 5, 5)), m, [MatchClause(Constructor(CONS, (Var(X), Var(Symbol("r")))), lambda x, r: x)]
    )
    assert heads == [5]
    ms_heads = match_all(
        VList.of((5, 5, 5)),
        multiset_matcher(integer_matcher()),
        [MatchClause(Constructor(CONS, (Var(X), Var(Symbol("r")))), lambda x, r: x)],
    )
    assert ms_heads == [5, 5, 5]


def test_sorted_matcher_jumps_to_a_known_head(monkeypatch):
    # the engine hands the hoisted ,(+ x 1) and ,(+ x 2) over bound to x, so
    # the matcher bisects for them instead of walking every run
    jumps = []
    real = bench.bisect.bisect_left

    def spy(*args):
        jumps.append(args[1])
        return real(*args)

    monkeypatch.setattr(bench.bisect, "bisect_left", spy)
    m = sorted_list_matcher(integer_matcher())
    assert _triple_starts((1, 2, 3, 5, 6, 9), m) == [1]
    assert jumps == [2, 3, 3, 4, 4, 6, 7, 7, 10]


def test_sorted_matcher_large_input_is_fast():
    import time

    start = time.perf_counter()
    results, _ = seq_triple_bench(10_000, "sorted")
    assert list(results) == []
    assert time.perf_counter() - start < 1.0


# --- configuration checks ---


def test_config_validation():
    ok = BenchConfig(sizes=(4, 8), variants=("functional",))
    assert ok.repetitions == 5 and ok.timeout == 60.0 and ok.bench == "comb2"
    with pytest.raises(BenchError):
        run_benchmarks(BenchConfig(sizes=(), variants=("functional",)), out=io.StringIO())
    with pytest.raises(BenchError):
        run_benchmarks(BenchConfig(sizes=(8, 4), variants=("functional",)), out=io.StringIO())
    with pytest.raises(BenchError):
        run_benchmarks(BenchConfig(sizes=(4,), variants=("functional",), repetitions=0), out=io.StringIO())
    with pytest.raises(BenchError):
        run_benchmarks(BenchConfig(sizes=(4,), variants=("sorted",)), out=io.StringIO())
    with pytest.raises(BenchError):
        run_benchmarks(
            BenchConfig(sizes=(4,), variants=("functional",), bench="seq-triple"),
            out=io.StringIO(),
        )


def test_unknown_bench_rejected_before_any_fork(monkeypatch):
    def no_child(*args, **kwargs):
        raise AssertionError("a cell's child was started")

    monkeypatch.setattr(subprocess, "Popen", no_child)
    with pytest.raises(BenchError, match="unknown bench 'seq-tripel'"):
        run_benchmarks(
            BenchConfig(sizes=(4,), variants=("multiset",), bench="seq-tripel"),
            out=io.StringIO(),
        )


# --- cell execution, table, CSV ---


def test_run_benchmarks_small_grid(tmp_path):
    out = io.StringIO()
    csv_path = tmp_path / "rows.csv"
    cfg = BenchConfig(sizes=(4, 8), variants=COMB2_VARIANTS, repetitions=1)
    report = run_benchmarks(cfg, out=out, csv_path=str(csv_path))
    assert len(report.cells) == 6
    for cell in report.cells:
        assert cell.median_seconds is not None and cell.median_seconds >= 0
        assert cell.count == cell.n * (cell.n - 1)
    table = out.getvalue()
    assert table.splitlines()[0].startswith("comb2")
    assert "n=4" in table and "n=8" in table and "functional" in table
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["variant", "n", "median_seconds", "count"]
    assert len(rows) == 7
    assert {r[0] for r in rows[1:]} == set(COMB2_VARIANTS)
    assert all(r[3] and float(r[2]) >= 0 for r in rows[1:])


def test_timed_out_cell_becomes_na(tmp_path):
    out = io.StringIO()
    csv_path = tmp_path / "rows.csv"
    # naive comb2 at 1600 takes seconds; seq-triple's multiset cell, which
    # this test timed out before, now takes milliseconds
    cfg = BenchConfig(
        sizes=(1600,), variants=("naive-multiset",), repetitions=1, timeout=0.05, bench="comb2"
    )
    report = run_benchmarks(cfg, out=out, csv_path=str(csv_path))
    [cell] = report.cells
    assert cell.median_seconds is None and cell.count is None
    assert "n/a" in out.getvalue()
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[1][2] == "n/a" and rows[1][3] == ""


def test_a_cell_whose_child_prints_no_result_line_becomes_na(monkeypatch):
    monkeypatch.setattr(bench, "_CHILD", "import sys; print('partial', file=sys.stderr)")
    cfg = BenchConfig(sizes=(4,), variants=("functional",), repetitions=1)
    out = io.StringIO()
    [cell] = run_benchmarks(cfg, out=out).cells
    assert cell.median_seconds is None and cell.count is None
    assert "n/a" in out.getvalue()


def test_ctrl_c_in_a_cell_child_is_quiet_and_its_wait_stops_the_child(monkeypatch, capfd):
    # the parent interrupted while it waits kills the child before it
    # raises; the child's output is captured, so none reaches the terminal
    started = []

    def interrupted_communicate(self, input=None, timeout=None):
        started.append(self)
        with pytest.raises(subprocess.TimeoutExpired):
            self.wait(0.5)
        raise KeyboardInterrupt

    monkeypatch.setattr(subprocess.Popen, "communicate", interrupted_communicate)
    cfg = BenchConfig(
        sizes=(1600,), variants=("naive-multiset",), repetitions=1, timeout=60, bench="comb2"
    )
    with pytest.raises(KeyboardInterrupt):
        run_benchmarks(cfg, out=io.StringIO())
    [child] = started
    assert child.returncode == -signal.SIGKILL
    assert child.stdout is not None and child.stderr is not None
    assert capfd.readouterr() == ("", "")


def test_import_nfmatch_loads_no_multiprocessing():
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(bench.__file__)))
    code = "import sys, nfmatch; print('multiprocessing' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src_dir},
    )
    assert done.stdout == "False\n"


def test_time_cells_takes_turns_in_map_order(monkeypatch):
    calls = []

    def fake_cell(*cell):
        def run():
            calls.append(cell)
            return [0] * cell[2]

        return run

    monkeypatch.setattr(bench, "_cell", fake_cell)
    a, b = ("comb2", "functional", 2), ("comb2", "functional", 5)
    timed = bench.time_cells({a: 3, b: 1})
    assert calls == [a, b, a, a]
    assert {cell: count for cell, (_median, count) in timed.items()} == {a: 2, b: 5}


def test_format_table_mixed_cells():
    report = BenchReport(
        (
            BenchCell("comb2", "functional", 4, 0.001234, 12, 1),
            BenchCell("comb2", "functional", 8, None, None, 1),
        )
    )
    text = format_table(report)
    lines = text.splitlines()
    assert lines[0].split() == ["comb2", "n=4", "n=8"]
    assert "0.001s" in lines[1] and "n/a" in lines[1]


def test_cli_bench_subcommand(tmp_path):
    csv_path = tmp_path / "b.csv"
    code, out, err = cli(
        ["bench", "comb2", "--sizes", "4,8", "--variants", "functional",
         "--reps", "1", "--csv", str(csv_path)]
    )
    assert code == 0, err
    assert out.splitlines()[0].startswith("comb2")
    assert csv_path.exists()
    code, out, _ = cli(["bench", "seq-triple", "--sizes", "50", "--variants", "sorted", "--reps", "1"])
    assert code == 0
    assert "sorted" in out


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8))
def test_comb2_count_and_content_invariant(n):
    naive = Counter(pairs(comb2_pattern(n, "naive-multiset")))
    opt = Counter(pairs(comb2_pattern(n, "optimized-multiset")))
    func = Counter(pairs(comb2_functional(n)))
    assert naive == opt == func
    assert sum(opt.values()) == n * (n - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 30), max_size=8))
def test_sorted_matcher_triples_invariant(xs):
    t = tuple(sorted(xs))
    sm = sorted_list_matcher(integer_matcher())
    ms = multiset_matcher(integer_matcher())
    assert sorted(_triple_starts(t, sm)) == sorted(set(_triple_starts(t, ms)))


def test_cli_bench_rejects_bad_variant():
    code, out, err = cli(["bench", "comb2", "--sizes", "4", "--variants", "nope", "--reps", "1"])
    assert code == 1
    assert "variant" in err
    for sizes in ("x", "1.5"):
        code, out, err = cli(["bench", "comb2", "--sizes", sizes, "--reps", "1"])
        assert code == 2 and out == ""
        assert "--sizes" in err and "Traceback" not in err
    code, out, err = cli(["bench", "comb2", "--sizes", "0", "--reps", "1"])
    assert code == 1 and err == "error: sizes must be positive\n"


@pytest.mark.parametrize("timeout", ["nan", "inf", "1e300", "0", "-1"])
def test_cli_bench_rejects_a_timeout_out_of_range(timeout):
    code, out, err = cli(["bench", "comb2", "--sizes", "4", "--variants", "functional",
                          "--reps", "1", "--timeout", timeout])
    assert code == 2 and out == ""
    assert err.startswith("usage: ") and "Traceback" not in err
    assert err.endswith(f"argument --timeout: must be more than 0 and at most 1000000, got {timeout}\n")


def test_cli_bench_unwritable_csv_fails_before_any_cell(tmp_path, monkeypatch):
    def no_child(*args, **kwargs):
        raise AssertionError("a cell's child was started")

    monkeypatch.setattr(subprocess, "Popen", no_child)
    path = tmp_path / "no-such-dir" / "x.csv"
    code, out, err = cli(["bench", "comb2", "--sizes", "4", "--variants", "functional",
                          "--reps", "1", "--csv", str(path)])
    assert (code, out, err) == (1, "", f"error: cannot write {path}: No such file or directory\n")
