"""Example applications: list combinators, a Davis-Putnam SAT solver, and
prime patterns over an infinite stream.

Each example drives the engine with patterns built directly from the
pattern AST, the same way the surface language does after analysis.
"""

from __future__ import annotations

from itertools import count, islice
from typing import Callable, Iterable

from .engine import MatchClause, match_all, match_first, stream_match_all
from .matchers import (
    CONS,
    JOIN,
    NIL,
    SOMETHING,
    eq_matcher,
    integer_matcher,
    list_matcher,
    multiset_matcher,
    tuple_matcher,
)
from .pattern import (
    WILDCARD,
    And,
    Constructor,
    Later,
    Not,
    Or,
    TuplePattern,
    ValuePattern,
    Var,
    env_get,
)
from .values import LazySeq, Symbol, VList, VTuple, lazyseq_from_iter

_X = Symbol("x")
_P = Symbol("p")
_M = Symbol("m")
_V = Symbol("v")
_VS = Symbol("vs")
_L = Symbol("l")


def _vp_of(name: Symbol, offset: int = 0) -> ValuePattern:
    if offset:
        return ValuePattern(lambda env: env_get(env, name) + offset, (name,))
    return ValuePattern(lambda env: env_get(env, name), (name,))


# ---------------------------------------------------------------------------
# List combinators


def _somewhere(*heads) -> Constructor:
    # (join _ (cons h1 (cons h2 ... _))): the heads at each position in turn
    p = WILDCARD
    for h in reversed(heads):
        p = Constructor(CONS, (h, p))
    return Constructor(JOIN, (WILDCARD, p))


# module constants, so that each pattern is compiled once and each matcher
# built once
_ANY_LIST = list_matcher(SOMETHING)
_ANY_LIST_LIST = list_matcher(_ANY_LIST)
_EQ_LIST = list_matcher(eq_matcher())
_INT_LIST = list_matcher(integer_matcher())
_EACH_X = _somewhere(Var(_X))
_EACH_INNER_X = _somewhere(_somewhere(Var(_X)))
_LAST_X = Constructor(
    JOIN, (WILDCARD, Constructor(CONS, (Var(_X), Not(_somewhere(_vp_of(_X))))))
)
_FIRST_X = Constructor(
    JOIN, (Later(Not(_somewhere(_vp_of(_X)))), Constructor(CONS, (Var(_X), WILDCARD)))
)


def pm_map(f: Callable, xs) -> VList:
    """Apply f to each element, written as a single join/cons pattern."""
    clause = MatchClause(_EACH_X, lambda x: f(x))
    return VList.of(tuple(match_all(xs, _ANY_LIST, [clause])))


def pm_concat(xss) -> VList:
    """Flatten one level by reaching into each inner list for its elements."""
    clause = MatchClause(_EACH_INNER_X, lambda x: x)
    return VList.of(tuple(match_all(xss, _ANY_LIST_LIST, [clause])))


def pm_unique_simple(xs) -> VList:
    """Keep the last occurrence of each element: no later x after this one."""
    clause = MatchClause(_LAST_X, lambda x: x)
    return VList.of(tuple(match_all(xs, _EQ_LIST, [clause])))


def pm_unique(xs) -> VList:
    """Keep the first occurrence of each element, via a later pattern."""
    clause = MatchClause(_FIRST_X, lambda x: x)
    return VList.of(tuple(match_all(xs, _EQ_LIST, [clause])))


# ---------------------------------------------------------------------------
# Davis-Putnam SAT solver


def delete(x: int, xs: Iterable) -> tuple:
    """Remove every occurrence of x."""
    return tuple(y for y in xs if y != x)


def assign_true(l: int, cnf: Iterable) -> tuple:
    """Set literal l true: drop satisfied clauses, strip -l elsewhere."""
    return tuple(delete(-l, c) for c in cnf if l not in c)


def delete_clauses_with(l: int, cnf: Iterable) -> tuple:
    """Drop every clause that contains the literal l."""
    return tuple(c for c in cnf if l not in c)


def resolve_on(v: int, cnf: Iterable) -> tuple:
    """All resolvents on v, deduplicated, with tautologies discarded."""
    pos = [c for c in cnf if v in c]
    neg = [c for c in cnf if -v in c]
    out = []
    for cp in pos:
        for cn in neg:
            seen = []
            for lit in tuple(delete(v, cp)) + tuple(delete(-v, cn)):
                if lit not in seen:
                    seen.append(lit)
            if any(-lit in seen for lit in seen):
                continue
            out.append(tuple(seen))
    return tuple(out)


_SAT_MATCHER = tuple_matcher(
    (multiset_matcher(integer_matcher()), multiset_matcher(multiset_matcher(integer_matcher())))
)

def _normalize_cnf(cnf) -> tuple:
    """Dedup literals within each clause and drop tautological clauses."""
    out = []
    for clause in cnf:
        lits = tuple(dict.fromkeys(clause))
        if any(-l in lits for l in lits):
            continue
        out.append(lits)
    return tuple(out)


# the six rules, in order: solved, contradiction, 1-literal, pure positive,
# pure negative, resolution; a body returns the verdict or the next step
def _sat_clauses():
    nil = Constructor(NIL, ())
    unit = Constructor(CONS, (Var(_L), nil))
    neg_v = ValuePattern(lambda env: -env_get(env, _V), (_V,))
    clause_with = lambda lit: Constructor(CONS, (Constructor(CONS, (lit, WILDCARD)), WILDCARD))
    cons_v_vs = Constructor(CONS, (Var(_V), Var(_VS)))
    return (
        MatchClause(TuplePattern((WILDCARD, nil)), lambda: True),
        MatchClause(TuplePattern((WILDCARD, Constructor(CONS, (nil, WILDCARD)))), lambda: False),
        MatchClause(
            TuplePattern((WILDCARD, Constructor(CONS, (unit, WILDCARD)))),
            lambda l: lambda vars, cnf: (delete(abs(l), vars), assign_true(l, cnf)),
        ),
        MatchClause(
            TuplePattern((cons_v_vs, Not(clause_with(neg_v)))),
            lambda v, vs: lambda vars, cnf: (tuple(vs), assign_true(v, cnf)),
        ),
        MatchClause(
            TuplePattern((cons_v_vs, Not(clause_with(_vp_of(_V))))),
            lambda v, vs: lambda vars, cnf: (tuple(vs), assign_true(-v, cnf)),
        ),
        MatchClause(
            TuplePattern((cons_v_vs, WILDCARD)),
            lambda v, vs: lambda vars, cnf: (
                tuple(vs),
                resolve_on(v, cnf)
                + delete_clauses_with(v, delete_clauses_with(-v, cnf)),
            ),
        ),
    )


_SAT_CLAUSES = _sat_clauses()


def sat(vars, cnf) -> bool:
    """Davis-Putnam satisfiability over integer-encoded literals."""
    vars = tuple(vars)
    # the rules below assume set-like clauses; a clause holding both l and -l
    # is always true and would let a literal outlive its variable's elimination
    cnf = _normalize_cnf(cnf)
    while True:
        target = VTuple((VList.of(vars), VList.of(tuple(VList.of(c) for c in cnf))))
        step = match_first(target, _SAT_MATCHER, _SAT_CLAUSES)
        if step is None:
            raise AssertionError("sat rules are exhaustive; no clause matched")
        if type(step) is bool:
            return step
        vars, cnf = step(vars, cnf)


def read_dimacs(text: str):
    """Parse DIMACS-lite text: a `p cnf V C` header, then 0-terminated clauses.

    Returns (vars, clauses) with vars = (1, ..., V).
    """
    nvars = None
    lits = []
    clauses = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed problem line: {line!r}")
            nvars = int(parts[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(lits))
                lits = []
            else:
                lits.append(lit)
    if lits:
        clauses.append(tuple(lits))
    if nvars is None:
        raise ValueError("missing 'p cnf V C' header")
    for c in clauses:
        for lit in c:
            if lit == 0 or abs(lit) > nvars:
                raise ValueError(f"literal {lit} out of range for {nvars} variables")
    return tuple(range(1, nvars + 1)), tuple(clauses)


# ---------------------------------------------------------------------------
# Prime patterns over an infinite stream


def is_prime(n: int) -> bool:
    """Deterministic trial division; ample for desk-scale streams."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_stream() -> LazySeq:
    """The infinite stream 2, 3, 5, 7, ..."""
    return lazyseq_from_iter(n for n in count(2) if is_prime(n))


_TWIN = _somewhere(Var(_P), _vp_of(_P, 2))
_TRIPLET = _somewhere(Var(_P), And((Or((_vp_of(_P, 2), _vp_of(_P, 4))), Var(_M))), _vp_of(_P, 6))


def twin_primes(k: int) -> VList:
    """First k pairs (p, p+2) of consecutive primes, in stream order."""
    clause = MatchClause(_TWIN, lambda p: VList.of((p, p + 2)))
    results = stream_match_all(primes_stream(), _INT_LIST, clause)
    return VList.of(tuple(islice(results, k)))


def prime_triplets(k: int) -> VList:
    """First k triples (p, m, p+6) with m prime at p+2 or p+4."""
    clause = MatchClause(_TRIPLET, lambda p, m: VList.of((p, m, p + 6)))
    results = stream_match_all(primes_stream(), _INT_LIST, clause)
    return VList.of(tuple(islice(results, k)))
