"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from tracer import Tracer  # noqa: E402

ALL = workloads.WORKLOADS + workloads.PROBES


def _sample(workload: str, seed: int, n: int) -> list:
    """The first n ops of a workload's pass, bound to nfmatch."""
    kit = workloads.prepare(workload)
    return [run.Op(s, workloads.bind(s, kit)) for s in workloads.make_specs(workload, seed)[:n]]


@pytest.mark.parametrize("workload", ALL)
def test_same_seed_gives_same_inputs_and_result_counts(workload):
    assert workloads.make_specs(workload, 7) == workloads.make_specs(workload, 7)
    assert workloads.make_specs(workload, 7) != workloads.make_specs(workload, 8)
    runs = [run.run_passes(_sample(workload, 7, 12), seconds=0, warmup=0) for _ in range(2)]
    assert runs[0].outcomes == runs[1].outcomes
    assert runs[0].results == runs[1].results
    if workload in workloads.WORKLOADS:
        assert not runs[0].failures and sum(runs[0].results) > 0


def test_sizes_cover_each_kinds_range():
    specs = workloads.make_specs("enum-multiset", 3)
    sizes = [len(s.data) for s in specs if s.kind == "pairs"]
    assert min(sizes) <= 11 and max(sizes) >= 66


def test_multiset_oracles_on_hand_worked_cases():
    assert oracles.pairs((1, 1, 2)) == [(1, 1), (1, 2), (1, 1), (1, 2), (2, 1), (2, 1)]
    assert len(oracles.triples((1, 2, 3, 4))) == 24
    assert oracles.head_rest((1, 2, 3)) == [(1, (2, 3)), (2, (1, 3)), (3, (1, 2))]


def test_nonlinear_oracles_on_hand_worked_cases():
    assert oracles.seq_triple_all((1, 2, 3, 2)) == [1, 1]
    assert oracles.seq_triple_first((5, 1, 2, 3)) == 1
    assert oracles.seq_triple_first((1, 2)) is None
    assert oracles.dup_pairs((2, 8, 2)) == [2, 2]
    assert oracles.unique_first((1, 2, 1, 3, 2)) == (1, 2, 3)
    assert oracles.unique_last((1, 2, 1, 3, 2)) == (1, 3, 2)
    assert oracles.members_counted((1, 2, 3), (3, 1, 1)) == [1, 1, 3]
    assert oracles.succ_pairs((1, 2, 5, 9, 4)) == [1, 4]


def test_sat_oracle_on_hand_worked_cases():
    assert oracles.truth_table_sat(1, ()) is True
    assert oracles.truth_table_sat(1, ((),)) is False
    assert oracles.truth_table_sat(1, ((1,), (-1,))) is False
    assert oracles.truth_table_sat(2, ((1, 2), (-1,))) is True
    assert oracles.truth_table_sat(2, ((1, 2), (-1, 2), (1, -2), (-1, -2))) is False


def test_prime_oracles_on_hand_worked_cases():
    primes = oracles.sieve(100)
    assert primes[:10] == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert len(primes) == 25
    assert oracles.twin_primes(primes, 4) == [(3, 5), (5, 7), (11, 13), (17, 19)]
    assert oracles.prime_triplets(primes, 3) == [(5, 7, 11), (7, 11, 13), (11, 13, 17)]
    assert oracles.sexpr([[1, 2], 3, True, ()]) == "((1 2) 3 #t ())"


def _traced(workload: str, n: int):
    ops = _sample(workload, 5, n)
    before = tracer_mod.bindings()
    tracer = Tracer()
    tracer.install(workloads.prepare(workload).nf)
    try:
        p = run.run_passes(ops, seconds=0, tracer=tracer, warmup=0)
    finally:
        tracer.restore()
    return ops, p, tracer, tracer_mod.left_wrapped(before)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_outputs_match_untraced_and_nothing_stays_wrapped(workload):
    ops, traced, tracer, left = _traced(workload, 16)
    untraced = run.run_passes(ops, seconds=0, warmup=0)
    assert not traced.failures and not untraced.failures
    assert traced.outcomes == untraced.outcomes
    assert left == []


def test_left_wrapped_sees_a_wrapper_not_taken_out():
    nf = workloads.prepare("enum-multiset").nf
    before = tracer_mod.bindings()
    tracer = Tracer()
    tracer.install(nf)
    try:
        left = tracer_mod.left_wrapped(before)
        assert {"nfmatch.engine.match_all", "nfmatch.matchers.Matcher.fn",
                "nfmatch.values.LazySeq.tail", "nfmatch.lang.Evaluator._eval_vp"} <= set(left)
        # a wrapper that went in before the snapshot is still found
        assert "nfmatch.engine.match_all" in tracer_mod.left_wrapped(tracer_mod.bindings())
    finally:
        tracer.restore()
    assert tracer_mod.left_wrapped(before) == []


def test_enum_multiset_bypasses_value_patterns_and_language():
    _, _, tracer, _ = _traced("enum-multiset", 24)
    m = tracer.metrics(1)
    assert "pattern.vp_evals" not in m and "pattern.vp_self_s" not in m
    assert m["matchers.Multiset.decomps"] > 0 and m["body.calls"] > 0
    assert not any(n.startswith("lang.") for n in list(m) + list(tracer.span_names()))


@pytest.mark.parametrize("workload", ["nonlinear-search", "stream-fair"])
def test_language_layer_absent_outside_lang_programs(workload):
    _, _, tracer, _ = _traced(workload, 24)
    m = tracer.metrics(1)
    assert m["pattern.vp_evals"] > 0
    assert not any(n.startswith("lang.") for n in list(m) + list(tracer.span_names()))


def test_lang_programs_reach_the_language_layer():
    _, _, tracer, _ = _traced("lang-programs", 24)
    assert {"lang.run", "lang.parse"} <= tracer.span_names()
    m = tracer.metrics(1)
    assert m["lang.programs"] == 24
    assert list(m) == [n for n in tracer_mod.PER_LAYER if n in m]


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    (_, out_dur, out_self), (_, in_dur, in_self) = tracer.totals["outer"], tracer.totals["inner"]
    assert in_self == pytest.approx(in_dur)
    assert 0 <= out_self < out_dur - in_dur + 1e-4
    assert [s[3] for s in tracer.spans] == ["inner", "inner", "outer"]
    assert tracer.spans[0][1] == tracer.spans[2][0]


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    per_layer = list(tracer_mod.PER_LAYER) + ["trace.overhead"]
    assert [m["name"] for m in spec["per_layer"]] == per_layer
    assert [m["unit"] for m in spec["per_layer"]] == [run.per_layer_unit(n) for n in per_layer]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "enum-multiset", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
