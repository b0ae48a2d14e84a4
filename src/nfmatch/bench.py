"""Benchmark harness: pair enumeration over a multiset (naive, optimized,
and a hand-written functional baseline) plus the sequential-triple check.

One builder, _cell, makes every cell's call with its input built, and one
clock, _timed, times that call and nothing else, with the cyclic collector
off; the public workload functions and the one runner, time_cells, all go
through both. time_cells times a set of cells in turns and takes each
cell's median. run_benchmarks hands it one (variant, n) cell at a time in a
child interpreter, so a runaway cell can be cut off at the configured
timeout and reported as "n/a".
"""

from __future__ import annotations

import bisect
import csv
import gc
import os
import statistics
import subprocess
import sys
from functools import partial
from time import perf_counter
from typing import NamedTuple, Optional

from .engine import MatchClause, match_all
from .errors import UnknownPatternConstructor
from .matchers import (
    CONS,
    NIL,
    SOMETHING,
    integer_matcher,
    multiset_matcher,
    register_matcher_extension,
    vp_value,
)
from .pattern import (
    WILDCARD,
    Constructor,
    ValuePattern,
    Var,
    Wildcard,
    env_get,
)
from .values import Symbol, VList, as_vlist, value_equal, without_index

COMB2_VARIANTS = ("naive-multiset", "optimized-multiset", "functional")
SEQ_TRIPLE_VARIANTS = ("multiset", "sorted")
_VARIANTS = {"comb2": COMB2_VARIANTS, "seq-triple": SEQ_TRIPLE_VARIANTS}

_X = Symbol("x")
_Y = Symbol("y")


class BenchConfig(NamedTuple):
    sizes: tuple
    variants: tuple
    repetitions: int = 5
    timeout: float = 60.0
    bench: str = "comb2"


class BenchCell(NamedTuple):
    bench: str
    variant: str
    n: int
    median_seconds: Optional[float]  # None = timed out ("n/a")
    count: Optional[int]
    repetitions: int


class BenchReport(NamedTuple):
    cells: tuple


class BenchError(ValueError):
    """A bad bench setting, or a CSV path that cannot be written."""


# ---------------------------------------------------------------------------
# comb2: all ordered pairs of distinct positions


def _comb2_clause():
    pattern = Constructor(
        CONS, (Var(_X), Constructor(CONS, (Var(_Y), WILDCARD)))
    )
    return MatchClause(pattern, lambda x, y: VList.of((x, y)))


def comb2_pattern(n: int, variant: str = "optimized-multiset") -> list:
    """Ordered pairs from (1..n) via the nested cons pattern."""
    if variant not in ("naive-multiset", "optimized-multiset"):
        raise BenchError(f"unknown pattern variant {variant!r}")
    return _timed(_cell("comb2", variant, n))[0]


def comb2_functional(n: int) -> list:
    """Hand-written baseline: for each head, pairs with earlier elements
    (in first-seen order) and then with the remaining tail.

    Builds the same pair values as the pattern variants so the comparison
    prices result construction equally.
    """
    return _timed(_cell("comb2", "functional", n))[0]


def _comb2_functional_run(xs: tuple) -> list:
    of = VList.of
    chunks = []
    hs = ()
    for i, x in enumerate(xs):
        chunk = [of((x, y)) for y in hs]
        chunk += [of((x, y)) for y in xs[i + 1 :]]
        chunks.append(chunk)
        hs = hs + (x,)
    return [p for chunk in chunks for p in chunk]


# ---------------------------------------------------------------------------
# sequential triple: x, x+1, x+2 somewhere in a multiset of zeros


def _seq_triple_clause():
    vp1 = ValuePattern(lambda env: env_get(env, _X) + 1, (_X,))
    vp2 = ValuePattern(lambda env: env_get(env, _X) + 2, (_X,))
    pattern = Constructor(
        CONS,
        (
            Var(_X),
            Constructor(CONS, (vp1, Constructor(CONS, (vp2, WILDCARD)))),
        ),
    )
    return MatchClause(pattern, lambda x: x)


def _distinct_run_starts(tt):
    # first index of each run of equal values, found by bisect jumps
    i = 0
    n = len(tt)
    while i < n:
        yield i
        i = bisect.bisect_right(tt, tt[i], i, n)


def sorted_list_matcher(m) -> "Matcher":
    """User-registered matcher for sorted integer lists.

    cons enumerates one decomposition per distinct element value (equal
    elements give identical head/rest splits, so duplicates are skipped
    with binary search). A head whose value cannot occur is rejected
    after O(log n) work instead of a full scan, which is what makes the
    sequential-triple search linear on sorted input.
    """

    def fn(p, t):
        tp = type(p)
        if tp is Constructor:
            cname = p.name
            if cname is CONS:
                tt = as_vlist(t)
                px, py = p.args
                if type(px) is ValuePattern and px.ready:
                    # head of known value: jump straight to its run
                    starts = []
                    if len(tt):
                        v = vp_value(px)
                        lo = bisect.bisect_left(tt, v)
                        if lo < len(tt) and tt[lo] == v:
                            starts = [lo]
                else:
                    starts = _distinct_run_starts(tt)
                if type(py) is Wildcard:
                    return [((px, m, tt[i]),) for i in starts]
                return [
                    ((px, m, tt[i]), (py, matcher, without_index(tt, i)))
                    for i in starts
                ]
            if cname is NIL:
                return [()] if len(as_vlist(t)) == 0 else []
            raise UnknownPatternConstructor(cname, "SortedList")
        if tp is ValuePattern:
            return [()] if value_equal(vp_value(p), t) else []
        return [((p, SOMETHING, t),)]

    matcher = register_matcher_extension(fn, f"(SortedList {m.name})")
    return matcher


def seq_triple_bench(n: int, variant: str = "multiset"):
    """Search n zeros for a sequential triple; returns (results, seconds)."""
    results, elapsed = _timed(_cell("seq-triple", variant, n))
    return VList.of(tuple(results)), elapsed


# ---------------------------------------------------------------------------
# cell execution


def _cell(bench: str, variant: str, n: int):
    """The call a (bench, variant, n) cell times, with its input built:
    calling it gives the cell's results."""
    if variant not in _VARIANTS.get(bench, ()):
        raise BenchError(f"unknown variant {variant!r} for bench {bench!r}")
    if bench == "seq-triple":
        m = integer_matcher()
        matcher = multiset_matcher(m) if variant == "multiset" else sorted_list_matcher(m)
        return partial(match_all, VList.of((0,) * n), matcher, [_seq_triple_clause()])
    xs = tuple(range(1, n + 1))
    if variant == "functional":
        return partial(_comb2_functional_run, xs)
    matcher = multiset_matcher(SOMETHING, optimized=variant == "optimized-multiset")
    return partial(match_all, VList.of(xs), matcher, [_comb2_clause()])


def _timed(run):
    """The one clock: (results, seconds) of one call of a cell's run. As in
    timeit, the cyclic collector is off during the call, so a cell's time is
    its own work and not the scanning of whatever else the process holds."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        return run(), perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def time_cells(rounds: dict) -> dict:
    """The one runner: rounds maps each (bench, variant, n) cell to its
    number of rounds, and gives each cell's (median seconds, result count).

    The cells take turns: in each round every cell with rounds left is timed
    once, in the map's order, so a slow spell of the machine slows every
    cell rather than one. Only a cell's count is kept, so no results stay
    alive into the next timed call."""
    times = {cell: [] for cell in rounds}
    counts = {}
    for rnd in range(max(rounds.values())):
        for cell, k in rounds.items():
            if rnd < k:
                results, elapsed = _timed(_cell(*cell))
                counts[cell] = len(results)
                del results
                times[cell].append(elapsed)
    return {cell: (statistics.median(ts), counts[cell]) for cell, ts in times.items()}


# a cell's child: sys.argv is [-c, source dir, bench, variant, n, repetitions]
_CHILD = """\
import sys; sys.path.insert(0, sys.argv[1])
from nfmatch.bench import time_cells
cell = (sys.argv[2], sys.argv[3], int(sys.argv[4]))
print(*time_cells({cell: int(sys.argv[5])})[cell])
"""
_SOURCE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_benchmarks(cfg: BenchConfig, out=None, csv_path: Optional[str] = None) -> BenchReport:
    """Run every (variant, n) cell, each in its own child interpreter,
    print a table, optionally write CSV.

    The CSV file is opened before any cell runs, so a path that cannot be
    written fails at once, as a BenchError."""
    _check_config(cfg)
    try:
        csv_file = None if csv_path is None else open(csv_path, "w", newline="")
    except OSError as err:
        raise BenchError(f"cannot write {csv_path}: {err.strerror}") from None
    try:
        report = BenchReport(tuple(_run_cell(cfg, v, n) for v in cfg.variants for n in cfg.sizes))
        text = format_table(report)
        if out is None:
            print(text, end="")
        else:
            out.write(text)
        if csv_file is not None:
            write_csv(report, csv_file)
    finally:
        if csv_file is not None:
            csv_file.close()
    return report


def _run_cell(cfg: BenchConfig, v: str, n: int) -> BenchCell:
    """Time one cell in a child interpreter that imports this package's
    source. A child still running at cfg.timeout, or that exits without its
    result line, gives an "n/a" cell; one still running when the wait for it
    is interrupted is killed, and its output, captured, is dropped."""
    argv = [sys.executable, "-c", _CHILD, _SOURCE_DIR, cfg.bench, v, str(n), str(cfg.repetitions)]
    median = count = None
    try:
        child = subprocess.run(argv, timeout=cfg.timeout, capture_output=True)
        fields = child.stdout.split()
        if child.returncode == 0 and len(fields) == 2:
            median, count = float(fields[0]), int(fields[1])
    except subprocess.TimeoutExpired:
        pass
    return BenchCell(cfg.bench, v, n, median, count, cfg.repetitions)


def _check_config(cfg: BenchConfig):
    if cfg.repetitions < 1:
        raise BenchError("repetitions must be at least 1")
    if not cfg.sizes or any(n < 1 for n in cfg.sizes):
        raise BenchError("sizes must be positive")
    if list(cfg.sizes) != sorted(cfg.sizes):
        raise BenchError("sizes must be ascending")
    allowed = _VARIANTS.get(cfg.bench)
    if allowed is None:
        raise BenchError(f"unknown bench {cfg.bench!r}")
    for v in cfg.variants:
        if v not in allowed:
            raise BenchError(f"unknown variant {v!r} for bench {cfg.bench!r}")


def format_table(report: BenchReport) -> str:
    """One row per variant, one column per size, medians in seconds."""
    if not report.cells:
        return "(no cells)\n"
    bench = report.cells[0].bench
    sizes = sorted({c.n for c in report.cells})
    variants = []
    for c in report.cells:
        if c.variant not in variants:
            variants.append(c.variant)
    by_key = {(c.variant, c.n): c for c in report.cells}
    header = [bench] + [f"n={n}" for n in sizes]
    rows = [header]
    for v in variants:
        row = [v]
        for n in sizes:
            cell = by_key.get((v, n))
            if cell is None or cell.median_seconds is None:
                row.append("n/a")
            else:
                row.append(f"{cell.median_seconds:.3f}s")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for r in rows:
        lines.append("  ".join(col.ljust(widths[i]) for i, col in enumerate(r)).rstrip())
    return "\n".join(lines) + "\n"


def write_csv(report: BenchReport, fh):
    """Write the report's rows to fh, a text file opened with newline=""."""
    writer = csv.writer(fh)
    writer.writerow(["variant", "n", "median_seconds", "count"])
    for c in report.cells:
        writer.writerow(
            [
                c.variant,
                c.n,
                "n/a" if c.median_seconds is None else f"{c.median_seconds:.6f}",
                "" if c.count is None else c.count,
            ]
        )

