"""End-to-end acceptance gate.

Nine checks, one per criterion the package must meet: CLI transcripts,
a frozen engine replay, oracle equivalence at scale, naive/optimized
agreement, benchmark counts and scaling bounds, SAT correctness, and
the presence of the per-module property suites. Each test prints one
verdict line (visible with -s or -rA).
"""

import random
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from nfmatch.bench import _run_once, comb2_functional, comb2_pattern, seq_triple_bench
from nfmatch.engine import (
    MatchClause,
    MatchingState,
    match_all,
    match_first,
    process_matching_state,
    stream_match_all,
)
from nfmatch.errors import MatchError
from nfmatch.examples import read_dimacs, sat
from nfmatch.matchers import CONS, SOMETHING, integer_matcher, multiset_matcher
from nfmatch.pattern import (
    WILDCARD,
    Constructor,
    ValuePattern,
    Var,
    env_get,
)
from nfmatch.values import Symbol, VList

from helpers import (
    cli,
    engine_env_multiset,
    gen_instance,
    oracle_env_multiset,
    truth_table_sat,
)

HERE = Path(__file__).parent
M = Symbol("m")


def verdict(num, name, ok, detail=""):
    line = f"[{num}/9] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# --- 1. CLI transcripts -----------------------------------------------------

PM_MAP = (
    "(define pm-map (lambda (f xs) (match-all xs (List Something)"
    " [(join _ (cons x _)) (f x)])))"
    " (pm-map (lambda (x) (+ x 10)) `(1 2 3 4))"
)
PM_CONCAT = (
    "(define pm-concat (lambda (xss) (match-all xss (List (List Something))"
    " [(join _ (cons (join _ (cons x _)) _)) x])))"
    " (pm-concat `((1 2) (3) (4 5)))"
)
PM_UNIQUE_SIMPLE = (
    "(define pm-unique-simple (lambda (xs) (match-all xs (List Eq)"
    " [(join _ (cons x (not (join _ (cons ,x _))))) x])))"
    " (pm-unique-simple `(1 2 3 2 4))"
)
PM_UNIQUE = (
    "(define pm-unique (lambda (xs) (match-all xs (List Eq)"
    " [(join (later (not (join _ (cons ,x _)))) (cons x _)) x])))"
    " (pm-unique `(1 2 3 2 4))"
)
TWINS = (
    "(take (match-all primes (List Integer)"
    " [(join _ (cons p (cons ,(+ p 2) _))) `(,p ,(+ p 2))]) 10)"
)
TRIPLETS = (
    "(take (match-all primes (List Integer)"
    " [(join _ (cons p (cons (and (or ,(+ p 2) ,(+ p 4)) m) (cons ,(+ p 6) _))))"
    " `(,p ,m ,(+ p 6))]) 8)"
)

GOLDEN = [
    (["eval", "(match-all '(1 2 3) (List Integer) [(cons x ts) `(,x ,ts)])"],
     "((1 (2 3)))"),
    (["eval", "(match-all '(1 2 3) (Multiset Integer) [(cons x ts) `(,x ,ts)])"],
     "((1 (2 3)) (2 (1 3)) (3 (1 2)))"),
    (["eval", "(match-all '(1 2 3) (List Integer) [(join hs ts) `(,hs ,ts)])"],
     "((() (1 2 3)) ((1) (2 3)) ((1 2) (3)) ((1 2 3) ()))"),
    (["eval", "(match-all '(1 2 5 9 4) (Multiset Integer) [(cons x (cons ,(+ x 1) _)) x])"],
     "(1 4)"),
    (["eval", "(match-all '(1 2 3) (List Integer) [(join _ (cons x _)) x])"],
     "(1 2 3)"),
    (["eval", "(match-all '[1 2] `[,Integer ,Integer] ['[x y] `(,x ,y)])"],
     "((1 2))"),
    (["eval", "(match-all '[1 2 3] `[,Integer ,Integer ,Integer] ['[x y z] `(,x ,y ,z)])"],
     "((1 2 3))"),
    (["eval", '(match-all \'(1 2 3) (List Integer) [(cons (or ,1 ,10) _) "OK"])'],
     '("OK")'),
    (["eval", "(match-all '(1 2 3) (List Integer) [(cons (and ,1 x) _) x])"],
     "(1)"),
    (["eval", "(match-all '(1 2 3) (List Integer) [(cons x (not (cons ,x _))) x])"],
     "(1)"),
    (["eval", "(match-all '(1 1 2 3) (List Integer) [(cons (later ,x) (cons x _)) x])"],
     "(1)"),
    (["eval", "(match-all '(2 8 2) (Multiset Integer) [(cons m (cons ,m _)) m])"],
     "(2 2)"),
    (["eval", "(match-all '(1 2 3) (Multiset Something) [(cons x xs) `(,x ,xs)])"],
     "((1 (2 3)) (2 (1 3)) (3 (1 2)))"),
    (["eval", PM_MAP], "(11 12 13 14)"),
    (["eval", PM_CONCAT], "(1 2 3 4 5)"),
    (["eval", PM_UNIQUE_SIMPLE], "(1 3 2 4)"),
    (["eval", PM_UNIQUE], "(1 2 3 4)"),
    (["eval", "--engine", "stream", TWINS],
     "((3 5) (5 7) (11 13) (17 19) (29 31) (41 43) (59 61) (71 73) (101 103) (107 109))"),
    (["eval", "--engine", "stream", TRIPLETS],
     "((5 7 11) (7 11 13) (11 13 17) (13 17 19) (17 19 23) (37 41 43) (41 43 47) (67 71 73))"),
]


def test_criterion_1_cli_transcripts():
    start = perf_counter()
    bad = []
    for args, want in GOLDEN:
        code, out, err = cli(args)
        if code != 0 or out != want + "\n":
            bad.append((args, want, code, out, err))
    elapsed = perf_counter() - start
    verdict(
        1,
        "CLI transcripts byte-identical",
        not bad and elapsed < 1.0,
        f"{len(GOLDEN)} cases in {elapsed:.2f}s" + (f"; first mismatch: {bad[0]}" if bad else ""),
    )


# --- 2. Frozen reduction replay ----------------------------------------------


def _vp_of(name):
    return ValuePattern(lambda env: env_get(env, name), (name,))


def test_criterion_2_reduction_replay():
    pattern = Constructor(CONS, (Var(M), Constructor(CONS, (_vp_of(M), WILDCARD))))
    matcher = multiset_matcher(integer_matcher(), optimized=False)
    state = MatchingState(((pattern, matcher, VList.of((2, 8, 2))),), ())
    states = [state]
    succ_lists = []
    for choice in (0, 0, 0, 1, 0, 0, 0):
        succ = process_matching_state(states[-1])
        succ_lists.append(succ)
        states.append(succ[choice])

    ok = [len(s.stack) for s in states] == [1, 2, 2, 1, 2, 1, 1, 0]
    ok = ok and [dict(s.env) for s in states[:3]] == [{}, {}, {}]
    ok = ok and [dict(s.env) for s in states[3:]] == [{M: 2}] * 5
    # the two picks from the remainder (8 2), in order
    first, second = succ_lists[3]
    ok = ok and first.stack[0][2] == 8 and list(first.stack[1][2]) == [2]
    ok = ok and second.stack[0][2] == 2 and list(second.stack[1][2]) == [8]
    ok = ok and succ_lists[5][0].stack[0][1] is SOMETHING
    ok = ok and states[-1].stack == ()
    try:
        process_matching_state(states[-1])
        ok = False
    except MatchError:
        pass
    clause = MatchClause(pattern, lambda m: m)
    for optimized in (True, False):
        got = match_all(
            VList.of((2, 8, 2)),
            multiset_matcher(integer_matcher(), optimized=optimized),
            [clause],
        )
        ok = ok and got == [2, 2]
    verdict(2, "reduction replay rows 1-8 and final (2 2)", ok)


# --- 3. Oracle equivalence at scale -------------------------------------------


def test_criterion_3_oracle_equivalence_1000():
    rng = random.Random(20260817)
    start = perf_counter()
    checked = 0
    failures = 0
    for _ in range(1000):
        pattern, matcher, kind, target = gen_instance(rng)
        want = oracle_env_multiset(pattern, kind, target)
        if engine_env_multiset(pattern, matcher, target) != want:
            failures += 1
            continue
        clause = MatchClause(pattern, lambda *a: a)
        strict = match_all(VList.of(target), matcher, [clause])
        first = match_first(VList.of(target), matcher, [clause])
        if first != (strict[0] if strict else None):
            failures += 1
            continue
        drained = list(stream_match_all(VList.of(target), matcher, clause))
        if Counter(map(repr, drained)) != Counter(map(repr, strict)):
            failures += 1
            continue
        checked += 1
    elapsed = perf_counter() - start
    verdict(
        3,
        "1000 random instances match the brute-force oracle",
        failures == 0 and checked == 1000 and elapsed < 30.0,
        f"{checked} ok, {failures} failing, {elapsed:.1f}s",
    )


# --- 4. Naive and optimized multiset agree ------------------------------------


def test_criterion_4_naive_optimized_agreement_500():
    rng = random.Random(977)
    naive = multiset_matcher(integer_matcher(), optimized=False)
    checked = 0
    failures = 0
    while checked + failures < 500:
        pattern, matcher, kind, target = gen_instance(rng)
        if kind != "multiset":
            continue
        if engine_env_multiset(pattern, matcher, target) == engine_env_multiset(
            pattern, naive, target
        ):
            checked += 1
        else:
            failures += 1
    verdict(
        4,
        "naive and optimized multiset matchers agree on 500 instances",
        failures == 0,
        f"{checked} ok, {failures} failing",
    )


# --- 5. comb2 counts -----------------------------------------------------------


def test_criterion_5_comb2_counts():
    ok = True
    detail = []
    for n in (4, 10, 50):
        naive = Counter(tuple(r) for r in comb2_pattern(n, "naive-multiset"))
        opt = Counter(tuple(r) for r in comb2_pattern(n, "optimized-multiset"))
        func = Counter(tuple(r) for r in comb2_functional(n))
        same = naive == opt == func
        count_ok = sum(opt.values()) == n * (n - 1)
        ok = ok and same and count_ok
        detail.append(f"n={n}: {sum(opt.values())} pairs")
    verdict(5, "comb2 yields n(n-1) identical pairs in all variants", ok, ", ".join(detail))


# --- 6. comb2 scaling ----------------------------------------------------------


def test_criterion_6_comb2_scaling():
    # cell: its rounds; the slow naive cell, far from its bound, takes fewer
    reps = {
        ("optimized-multiset", 400): 9,
        ("optimized-multiset", 800): 9,
        ("functional", 400): 9,
        ("functional", 800): 9,
        ("naive-multiset", 400): 5,
    }
    per_run = {cell: [] for cell in reps}
    # the cells take turns, so a slow spell of the machine slows every cell
    # rather than one; each cell's time is the median of its rounds
    for rnd in range(max(reps.values())):
        for (variant, n), k in reps.items():
            if rnd < k:
                elapsed, _count = _run_once("comb2", variant, n)
                per_run[(variant, n)].append(elapsed)
    cells = tuple(statistics.median(ts) for ts in per_run.values())
    opt400, opt800, func400, func800, naive400 = cells
    growth = opt800 / opt400
    speedup = naive400 / opt400
    gap = opt800 / func800
    ok = (
        all(t < 60.0 for t in cells)
        and growth <= 6.0
        and speedup >= 5.0
        and 1.0 < gap <= 10.0
    )
    verdict(
        6,
        "comb2 scaling bounds",
        ok,
        f"time(800)/time(400)={growth:.2f} (<=6), naive/optimized@400={speedup:.1f} (>=5), "
        f"optimized/functional@800={gap:.2f} (in (1,10])",
    )


# --- 7. Sequential triple scaling and the sorted-list matcher -------------------


def test_criterion_7_seq_triple():
    counts_ok = True
    reps = {400: 9, 800: 9, 1600: 3}
    per_run = {n: [] for n in reps}
    # the sizes take turns, so a slow spell of the machine slows every size
    # rather than one; each size's time is the median of its runs
    for rnd in range(max(reps.values())):
        for n, k in reps.items():
            if rnd < k:
                results, elapsed = seq_triple_bench(n, "multiset")
                counts_ok = counts_ok and len(results) == 0
                per_run[n].append(elapsed)
    times = {n: statistics.median(ts) for n, ts in per_run.items()}
    r400 = times[800] / times[400]
    r800 = times[1600] / times[800]
    sorted_results, sorted_time = seq_triple_bench(100_000, "sorted")
    ok = (
        counts_ok
        and r400 <= 6.0
        and r800 <= 6.0
        and len(sorted_results) == 0
        and sorted_time < 1.0
    )
    verdict(
        7,
        "sequential-triple scaling and sorted-list matcher",
        ok,
        f"t(800)/t(400)={r400:.2f}, t(1600)/t(800)={r800:.2f} (<=6), "
        f"sorted n=100000 in {sorted_time:.4f}s (<1s)",
    )


# --- 8. SAT against the truth table ---------------------------------------------


def _random_cnf(rng):
    clauses = []
    for _ in range(rng.randrange(6)):
        clause = tuple(
            rng.choice((1, -1)) * rng.randrange(1, 5) for _ in range(rng.randrange(4))
        )
        clauses.append(clause)
    return tuple(clauses)


def test_criterion_8_sat_oracle_500():
    rng = random.Random(424242)
    failures = 0
    for _ in range(500):
        cnf = _random_cnf(rng)
        if sat(tuple(range(1, 5)), cnf) is not truth_table_sat(4, cnf):
            failures += 1
    vars_, smoke = read_dimacs((HERE / "data" / "smoke.cnf").read_text())
    smoke_ok = sat(vars_, smoke) is truth_table_sat(len(vars_), smoke)
    verdict(
        8,
        "SAT agrees with the truth-table oracle",
        failures == 0 and smoke_ok,
        f"500 random CNFs, smoke file {'ok' if smoke_ok else 'WRONG'}",
    )


# --- 9. Per-module property suites ----------------------------------------------

PROPERTY_FILES = {
    "values": "test_values.py",
    "pattern": "test_pattern.py",
    "matchers": "test_matchers.py",
    "engine": "test_engine.py",
    "lang": "test_lang.py",
    "bench": "test_bench.py",
    "examples": "test_examples.py",
}


def test_criterion_9_property_suites():
    import importlib

    counts = {}
    for module, fname in PROPERTY_FILES.items():
        mod = importlib.import_module(fname[:-3])
        suites = [
            getattr(fn, "_hypothesis_internal_use_settings").max_examples
            for fn in vars(mod).values()
            if callable(fn) and hasattr(fn, "_hypothesis_internal_use_settings")
        ]
        counts[module] = (len(suites), min(suites, default=0))
    sized = all(n >= 1 and m >= 200 for n, m in counts.values())
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        + [str(HERE / f) for f in PROPERTY_FILES.values()],
        cwd=str(HERE.parent),
        capture_output=True,
        text=True,
    )
    verdict(
        9,
        "property suites (>=200 cases) green in every module",
        sized and run.returncode == 0,
        ", ".join(f"{m}:{n}x{cap}" for m, (n, cap) in counts.items())
        + ("" if run.returncode == 0 else f"; suite run failed:\n{run.stdout[-2000:]}"),
    )
