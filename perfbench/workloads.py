"""The benchmark's workloads: seeded inputs, the ops that run them, and how
each op's output is checked.

An op spec is plain data (a kind plus its inputs) made from the seed alone;
`make_specs` never touches nfmatch, so the program only ever sees generated
inputs. `prepare` builds the matchers, patterns and evaluator a workload
needs (this is the set-up that `setup_s` times), and `bind` turns a spec
into a zero-argument callable. Every op calls nfmatch through a module
attribute (`nfmatch.engine.match_all`, `nfmatch.lang.run_text`, ...) at call
time, so the tracer's wrappers on those attributes see it.

Sizes are drawn log-uniformly by stratum: each kind gets one size from each
of `count` equal slices of the log range, so every seed covers the whole
range and the per-pass work barely depends on the seed.
"""

from __future__ import annotations

import functools
import hashlib
import io
import math
import random
import sys
from contextlib import redirect_stderr
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import oracles

SRC = Path(__file__).resolve().parent.parent / "src"

# the workloads BENCHMARK.json lists, then the probe that `--workload all` adds
WORKLOADS = ("enum-multiset", "nonlinear-search", "stream-fair", "lang-programs")
PROBES = ("lang-deep",)

# primes far enough out for the largest twin and triplet requests below
PRIME_LIMIT = 60_000


@functools.cache
def primes() -> tuple:
    """The prime list the stream workload's lazy sequences are built from."""
    return oracles.sieve(PRIME_LIMIT)


def ensure_src() -> None:
    """Put the checkout's src/ first on sys.path, or exit if it is missing."""
    if not (SRC / "nfmatch" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nfmatch sources at {SRC}; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Spec(NamedTuple):
    kind: str
    data: tuple


def digest(obj) -> bytes:
    """A short fingerprint of a plain-Python output, for cheap comparison."""
    return hashlib.blake2b(repr(obj).encode(), digest_size=16).digest()


def _log_strata(rng: random.Random, lo: int, hi: int, count: int) -> list:
    a, b = math.log(lo), math.log(hi)
    return [round(math.exp(a + (i + rng.random()) * (b - a) / count)) for i in range(count)]


def _multiset(rng: random.Random, n: int) -> tuple:
    # half all-distinct, half duplicate-heavy (about eight copies per value)
    if rng.random() < 0.5:
        xs = list(range(n))
        rng.shuffle(xs)
        return tuple(xs)
    return tuple(rng.randrange(max(2, n // 8)) for _ in range(n))


def _small_range(rng: random.Random, n: int, span: int) -> tuple:
    return tuple(rng.randrange(span) for _ in range(n))


def _cnf(rng: random.Random) -> tuple:
    # sizes fixed by range, not tuned per seed: Davis-Putnam resolution is
    # exponential, and at 5 variables / 15 clauses the slowest of 1500 random
    # instances took about 30 ms, while 6 / 18 has instances taking 30 s
    nvars = rng.choice((3, 4, 5))
    nclauses = rng.randint(nvars + 1, 3 * nvars)
    cnf = tuple(
        tuple(rng.choice((1, -1)) * v for v in rng.sample(range(1, nvars + 1), 3))
        for _ in range(nclauses)
    )
    return (nvars, cnf)


def _quote(xs) -> str:
    return "'(" + " ".join(str(x) for x in xs) + ")"


# --- language corpus ----------------------------------------------------------

_LEN = (
    "(define len (lambda (xs) (match-first xs (List Integer) [(nil) 0] "
    "[(cons _ r) (+ 1 (len r))])))"
)
_SUM = (
    "(define sum (lambda (xs) (match-first xs (List Integer) [(nil) 0] "
    "[(cons x r) (+ x (sum r))])))"
)
_MSUM = (
    "(define msum (lambda (xs) (match-first xs (Multiset Integer) [(nil) 0] "
    "[(cons x r) (+ x (msum r))])))"
)
_TWINS = (
    "(take (match-all primes (List Integer) "
    "[(join _ (cons p (cons ,(+ p 2) _))) `(,p ,(+ p 2))]) {k})"
)


def _lang_program(rng: random.Random, kind: str, n: int) -> tuple:
    """(program text, engine mode, expected printed output) for one kind."""
    if kind == "defs":
        xs = _small_range(rng, n, 50)
        a, b = rng.randrange(1000), rng.randrange(1000)
        text = (
            "(define sq (lambda (x) (* x x))) (define add (lambda (a b) (+ a b))) "
            f"(map sq {_quote(xs)}) (add {a} {b})"
        )
        return text, "strict", [[x * x for x in xs], a + b]
    if kind == "recur":
        xs = _small_range(rng, n, 100)
        text = f"{_LEN} {_SUM} (len {_quote(xs)}) (sum {_quote(xs)})"
        return text, "strict", [len(xs), sum(xs)]
    if kind == "succ":
        xs = _small_range(rng, n, max(3, n // 2))
        text = f"(match-all {_quote(xs)} (Multiset Integer) [(cons x (cons ,(+ x 1) _)) x])"
        return text, "strict", [oracles.succ_pairs(xs)]
    if kind == "not":
        xs = _small_range(rng, n, max(3, n // 3))
        text = (
            f"(match-all {_quote(xs)} (List Integer) "
            "[(join _ (cons x (not (join _ (cons ,x _))))) x])"
        )
        return text, "strict", [oracles.unique_last(xs)]
    if kind == "later":
        xs = _small_range(rng, n, max(3, n // 3))
        text = (
            f"(match-all {_quote(xs)} (List Integer) "
            "[(join (later (not (join _ (cons ,x _)))) (cons x _)) x])"
        )
        return text, "strict", [oracles.unique_first(xs)]
    if kind == "tuple":
        xs = _small_range(rng, n, max(3, n // 2))
        bag = _small_range(rng, n, max(3, n // 2))
        text = (
            f"(match-all '[{_quote(xs)[1:]} {_quote(bag)[1:]}] "
            "`[,(List Integer) ,(Multiset Integer)] "
            "['[(join _ (cons x _)) (cons ,x _)] x])"
        )
        return text, "strict", [oracles.members_counted(xs, bag)]
    if kind == "stream-take":
        return _TWINS.format(k=n), "stream", [oracles.twin_primes(primes(), n)]
    if kind == "deep-count":
        text = (
            "(define count (lambda (xs) (match-first xs (List Integer) [(nil) 0] "
            f"[(cons _ r) (+ 1 (count r))]))) (count (iota {n}))"
        )
        return text, "strict", [n]
    if kind == "deep-msum":
        return f"{_MSUM} (msum (iota {n}))", "strict", [n * (n - 1) // 2]
    raise ValueError(f"unknown language program kind {kind!r}")


LANG_KINDS = frozenset(
    ("defs", "recur", "succ", "not", "later", "tuple", "stream-take", "deep-count", "deep-msum")
)

# kind -> (ops per pass, smallest size, largest size); a size is a list
# length, a number of stream results, or a recursion depth
_PLAN = {
    "enum-multiset": {
        "pairs": (250, 10, 70),
        "triples": (250, 4, 16),
        "head-rest": (250, 10, 200),
        "stream-pairs": (250, 10, 40),
    },
    "nonlinear-search": {
        "seq-all": (170, 8, 32),
        "seq-first": (170, 8, 60),
        "dups": (170, 8, 40),
        "unique-later": (170, 8, 40),
        "unique-not": (170, 8, 40),
        "sat": (170, 0, 0),
    },
    "stream-fair": {
        "twins": (520, 5, 60),
        "triplets": (520, 5, 30),
    },
    "lang-programs": {
        "defs": (150, 5, 40),
        "recur": (150, 5, 60),
        "succ": (150, 6, 30),
        "not": (150, 6, 30),
        "later": (150, 6, 30),
        "tuple": (150, 5, 25),
        "stream-take": (100, 3, 12),
    },
    # recursion through match bodies at the depths users write; on the
    # nfmatch this benchmark was written against, every depth from about
    # 200 up raises RecursionError
    "lang-deep": {
        "deep-count": (8, 50, 600),
        "deep-msum": (8, 50, 600),
    },
}


def make_specs(workload: str, seed: int) -> list:
    """The fixed op list of one pass, in a seeded order."""
    if workload not in _PLAN:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    specs = []
    for kind, (count, lo, hi) in _PLAN[workload].items():
        sizes = _log_strata(rng, lo, hi, count) if hi else [0] * count
        for n in sizes:
            if workload == "enum-multiset":
                specs.append(Spec(kind, _multiset(rng, n)))
            elif kind in ("seq-all", "seq-first"):
                specs.append(Spec(kind, _small_range(rng, n, n // 2 + 1)))
            elif kind == "dups":
                specs.append(Spec(kind, _small_range(rng, n, n // 4 + 2)))
            elif kind in ("unique-later", "unique-not"):
                specs.append(Spec(kind, _small_range(rng, n, n // 3 + 2)))
            elif kind == "sat":
                specs.append(Spec(kind, _cnf(rng)))
            elif workload == "stream-fair":
                specs.append(Spec(kind, (n,)))
            else:
                text, mode, expected = _lang_program(rng, kind, n)
                specs.append(Spec(kind, (text, mode, "".join(oracles.sexpr(v) + "\n" for v in expected))))
    rng.shuffle(specs)
    return specs


# --- oracles per kind -----------------------------------------------------------


def expected(spec: Spec):
    """The plain-Python output the op must produce, from the oracles."""
    k, d = spec.kind, spec.data
    if k == "pairs":
        return oracles.pairs(d)
    if k == "triples":
        return oracles.triples(d)
    if k == "head-rest":
        return oracles.head_rest(d)
    if k == "stream-pairs":
        return sorted(oracles.pairs(d))
    if k == "seq-all":
        return oracles.seq_triple_all(d)
    if k == "seq-first":
        return oracles.seq_triple_first(d)
    if k == "dups":
        return oracles.dup_pairs(d)
    if k == "unique-later":
        return oracles.unique_first(d)
    if k == "unique-not":
        return oracles.unique_last(d)
    if k == "sat":
        return oracles.truth_table_sat(*d)
    if k == "twins":
        return oracles.twin_primes(primes(), d[0])
    if k == "triplets":
        return oracles.prime_triplets(primes(), d[0])
    return (0, d[2])


def canon(spec: Spec, raw):
    """An op's raw output as plain Python, comparable with `expected`."""
    k = spec.kind
    if k == "head-rest":
        return [(x, tuple(ts)) for x, ts in raw]
    if k in ("stream-pairs", "twins", "triplets"):
        # fair search order is not search order; multiplicity still counts
        return sorted(raw)
    if k in ("unique-later", "unique-not"):
        return tuple(raw)
    return raw


def result_count(spec: Spec, raw) -> int:
    """Results delivered to the caller: clause-body values, a SAT verdict,
    or, for a language program, one per printed top-level value."""
    k = spec.kind
    if k == "sat":
        return 1
    if k == "seq-first":
        return 0 if raw is None else 1
    if k in LANG_KINDS:
        return raw[1].count("\n")
    return len(raw)


# --- set-up and binding ---------------------------------------------------------


class Kit(NamedTuple):
    nf: object
    clauses: dict
    matchers: dict


def prepare(workload: str) -> Kit:
    """Import nfmatch and build the workload's matchers, clauses and evaluator."""
    ensure_src()
    import nfmatch as nf
    from nfmatch import (
        CONS, JOIN, WILDCARD, And, Constructor, MatchClause, Or, Symbol,
        ValuePattern, Var, env_get, integer_matcher, list_matcher, multiset_matcher,
    )

    x, y, z, ts, p, m = (Symbol(s) for s in ("x", "y", "z", "ts", "p", "m"))

    def cons(a, b):
        return Constructor(CONS, (a, b))

    def plus(name, k):
        return ValuePattern(lambda env: env_get(env, name) + k, (name,))

    clauses = {}
    matchers = {}
    if workload == "enum-multiset":
        matchers["ms"] = multiset_matcher(integer_matcher())
        clauses["pairs"] = MatchClause(cons(Var(x), cons(Var(y), WILDCARD)), lambda x, y: (x, y))
        clauses["triples"] = MatchClause(
            cons(Var(x), cons(Var(y), cons(Var(z), WILDCARD))), lambda x, y, z: (x, y, z)
        )
        clauses["head-rest"] = MatchClause(cons(Var(x), Var(ts)), lambda x, ts: (x, ts))
    elif workload == "nonlinear-search":
        matchers["ms"] = multiset_matcher(integer_matcher())
        clauses["seq-all"] = clauses["seq-first"] = MatchClause(
            cons(Var(x), cons(plus(x, 1), cons(plus(x, 2), WILDCARD))), lambda x: x
        )
        clauses["dups"] = MatchClause(cons(Var(x), cons(plus(x, 0), WILDCARD)), lambda x: x)
    elif workload == "stream-fair":
        matchers["li"] = list_matcher(integer_matcher())
        clauses["twins"] = MatchClause(
            Constructor(JOIN, (WILDCARD, cons(Var(p), cons(plus(p, 2), WILDCARD)))),
            lambda p: (p, p + 2),
        )
        middle = And((Or((plus(p, 2), plus(p, 4))), Var(m)))
        clauses["triplets"] = MatchClause(
            Constructor(JOIN, (WILDCARD, cons(Var(p), cons(middle, cons(plus(p, 6), WILDCARD))))),
            lambda p, m: (p, m, p + 6),
        )
    else:
        # a CLI run builds one evaluator before reading its program
        nf.lang.Evaluator()
    return Kit(nf, clauses, matchers)


def _taking(open_stream, count):
    """An op taking `count` results (all when None) from a fresh stream."""

    def take():
        stream = open_stream()
        first = None
        out = []
        for v in stream:
            if first is None:
                first = perf_counter()
            out.append(v)
            if len(out) == count:
                break
        stream.close()
        return out, first

    return take


def bind(spec: Spec, kit: Kit):
    """A zero-argument callable running one op; returns (raw output, time
    the first result was in hand or None when that is the op's end)."""
    nf, k, d = kit.nf, spec.kind, spec.data
    eng, ex = nf.engine, nf.examples
    if k in ("pairs", "triples", "head-rest", "seq-all", "dups"):
        target, ms, clause = nf.VList.of(d), kit.matchers["ms"], kit.clauses[k]
        return lambda: (eng.match_all(target, ms, [clause]), None)
    if k == "stream-pairs":
        target, ms, clause = nf.VList.of(d), kit.matchers["ms"], kit.clauses["pairs"]
        return _taking(lambda: eng.stream_match_all(target, ms, clause), None)
    if k == "seq-first":
        target, ms, clause = nf.VList.of(d), kit.matchers["ms"], kit.clauses[k]
        return lambda: (eng.match_first(target, ms, [clause]), None)
    if k == "unique-later":
        target = nf.VList.of(d)
        return lambda: (ex.pm_unique(target), None)
    if k == "unique-not":
        target = nf.VList.of(d)
        return lambda: (ex.pm_unique_simple(target), None)
    if k == "sat":
        nvars, cnf = d
        variables = tuple(range(1, nvars + 1))
        return lambda: (ex.sat(variables, cnf), None)
    if k in ("twins", "triplets"):
        clause, li, plist = kit.clauses[k], kit.matchers["li"], primes()
        return _taking(
            lambda: eng.stream_match_all(nf.lazyseq_from_iter(iter(plist)), li, clause), d[0]
        )
    text, mode, _ = d
    lang = nf.lang

    def run_program():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stderr(err):
            code = lang.run_text(text, lang.Evaluator(engine_mode=mode), out=out)
        return (code, out.getvalue()), None

    return run_program
