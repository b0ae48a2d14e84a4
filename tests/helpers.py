"""Shared test support: an independent brute-force decomposition oracle,
deterministic random pattern/target generators, and CLI capture."""

from __future__ import annotations

import io
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

from nfmatch.cli import run_cli
from nfmatch.engine import gen_match_results
from nfmatch.matchers import (
    CONS,
    JOIN,
    NIL,
    integer_matcher,
    list_matcher,
    multiset_matcher,
)
from nfmatch.pattern import (
    WILDCARD,
    Constructor,
    Not,
    ValuePattern,
    Var,
    Wildcard,
    const_value_pattern,
    env_get,
    env_to_dict,
)
from nfmatch.values import Symbol, VList, VTuple


def cli(args, stdin_text=None):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(list(args))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Brute-force oracle: enumerate decompositions by structural recursion,
# entirely independent of the engine and the matcher encodings.


def _merge(lhs, rhs):
    out = []
    for a in lhs:
        for b in rhs:
            d = dict(a)
            d.update(b)
            out.append(d)
    return out


def _eq_value(v, t):
    return v == t


def truth_table_sat(nvars, cnf) -> bool:
    """Exhaustive-assignment SAT oracle over variables 1..nvars."""
    from itertools import product

    for bits in product((False, True), repeat=nvars):
        assign = {i + 1: b for i, b in enumerate(bits)}
        if all(any(assign[abs(l)] == (l > 0) for l in clause) for clause in cnf):
            return True
    return False


def oracle_matches(p, kind, t):
    """All binding dicts for pattern p against target t under matcher kind.

    kind is "list", "multiset", or "integer"; list/multiset targets are
    Python tuples of ints.
    """
    tp = type(p)
    if tp is Var:
        return [{p.name: t}]
    if tp is Wildcard:
        return [{}]
    if tp is ValuePattern:
        v = p.value
        if kind == "integer":
            return [{}] if type(t) is int and _eq_value(v, t) else []
        if kind == "list":
            return [{}] if tuple(v) == t else []
        return [{}] if sorted(v) == sorted(t) else []
    if tp is Constructor:
        name = p.name
        if name is NIL:
            return [{}] if t == () else []
        if name is CONS:
            px, py = p.args
            if kind == "list":
                if not t:
                    return []
                return _merge(
                    oracle_matches(px, "integer", t[0]), oracle_matches(py, "list", t[1:])
                )
            out = []
            for i in range(len(t)):
                rest = t[:i] + t[i + 1 :]
                out.extend(
                    _merge(
                        oracle_matches(px, "integer", t[i]),
                        oracle_matches(py, "multiset", rest),
                    )
                )
            return out
        if name is JOIN:
            px, py = p.args
            out = []
            for k in range(len(t) + 1):
                out.extend(
                    _merge(
                        oracle_matches(px, "list", t[:k]), oracle_matches(py, "list", t[k:])
                    )
                )
            return out
    raise AssertionError(f"oracle cannot handle {p!r} under {kind}")


# ---------------------------------------------------------------------------
# Random instances


class _Names:
    def __init__(self):
        self.i = 0

    def fresh(self):
        self.i += 1
        return Symbol(f"v{self.i}")


def gen_element_pattern(rng, names):
    roll = rng.random()
    if roll < 0.4:
        return Var(names.fresh())
    if roll < 0.65:
        return WILDCARD
    return const_value_pattern(rng.randrange(4))


def gen_seq_pattern(rng, kind, names, depth):
    roll = rng.random()
    if depth > 0 and roll < 0.45:
        px = gen_element_pattern(rng, names)
        py = gen_seq_pattern(rng, kind, names, depth - 1)
        return Constructor(CONS, (px, py))
    if depth > 0 and kind == "list" and roll < 0.6:
        px = gen_seq_pattern(rng, "list", names, depth - 1)
        py = gen_seq_pattern(rng, "list", names, depth - 1)
        return Constructor(JOIN, (px, py))
    roll = rng.random()
    if roll < 0.3:
        return Var(names.fresh())
    if roll < 0.55:
        return WILDCARD
    if roll < 0.7:
        return Constructor(NIL, ())
    return const_value_pattern(
        VList.of(tuple(rng.randrange(4) for _ in range(rng.randrange(4))))
    )


def gen_instance(rng, naive=False, element=None):
    """One random (pattern, matcher, kind, target-tuple) instance; element
    is the element matcher (Integer by default)."""
    kind = rng.choice(("list", "multiset"))
    names = _Names()
    pattern = gen_seq_pattern(rng, kind, names, depth=3)
    target = tuple(rng.randrange(4) for _ in range(rng.randrange(7)))
    element = integer_matcher() if element is None else element
    matcher = (
        list_matcher(element)
        if kind == "list"
        else multiset_matcher(element, optimized=not naive)
    )
    return pattern, matcher, kind, target


# Instances whose value patterns read names bound earlier in the pattern
# (,v and ,(+ v k)), as cons heads, as list values, and inside not, where
# an inner binder may shadow an outer name. scope maps each name bound so
# far, in match order, to "int" or "seq"; shadowable holds the outer names
# a not subpattern may still rebind.


def _ref(name, k=0):
    if k:
        return ValuePattern(lambda env: env_get(env, name) + k, (name,))
    return ValuePattern(lambda env: env_get(env, name), (name,))


def _binder(rng, kind, scope, shadowable, names):
    outer = [n for n in shadowable if scope[n] == kind]
    if outer and rng.random() < 0.7:
        name = rng.choice(outer)
        shadowable.discard(name)
    else:
        name = names.fresh()
    scope[name] = kind
    return Var(name)


def gen_ref_element(rng, scope, shadowable, names):
    ints = [n for n, k in scope.items() if k == "int"]
    roll = rng.random()
    if ints and roll < 0.5:
        return _ref(rng.choice(ints), rng.choice((0, 0, 1, -1, 2)))
    if roll < 0.75:
        return _binder(rng, "int", scope, shadowable, names)
    if roll < 0.9:
        return WILDCARD
    return const_value_pattern(rng.randrange(4))


def gen_ref_seq(rng, kind, scope, shadowable, names, depth):
    roll = rng.random()
    if depth > 0 and roll < 0.45:
        px = gen_ref_element(rng, scope, shadowable, names)
        return Constructor(CONS, (px, gen_ref_seq(rng, kind, scope, shadowable, names, depth - 1)))
    if depth > 0 and roll < 0.65:
        # inner bindings stay inside; outer names may be rebound there once
        return Not(gen_ref_seq(rng, kind, dict(scope), set(scope), names, depth - 1))
    if depth > 0 and kind == "list" and roll < 0.9:
        if rng.random() < (0.1 if shadowable else 0.4):
            px = gen_ref_seq(rng, "list", scope, shadowable, names, depth - 1)
        else:
            px = _binder(rng, "seq", scope, shadowable, names)
        if type(px) is Var and rng.random() < (0.7 if shadowable else 0.4):
            # (join s ,s): the value pattern reads a binder of its own
            # constructor, which may shadow an outer s inside not
            return Constructor(JOIN, (px, _ref(px.name)))
        return Constructor(JOIN, (px, gen_ref_seq(rng, "list", scope, shadowable, names, depth - 1)))
    seqs = [n for n, k in scope.items() if k == "seq"]
    roll = rng.random()
    if seqs and roll < 0.35:
        return _ref(rng.choice(seqs))
    if roll < 0.6:
        return _binder(rng, "seq", scope, shadowable, names)
    if roll < 0.85:
        return WILDCARD
    return Constructor(NIL, ())


def gen_ref_instance(rng):
    """One random (pattern, matcher, kind, target-tuple) instance whose value
    patterns read earlier bindings."""
    kind = rng.choice(("list", "multiset", "naive-multiset"))
    names = _Names()
    if kind == "list" and rng.random() < 0.5:
        # start with a list binder, for a not further in to shadow
        scope: dict = {}
        px = _binder(rng, "seq", scope, set(), names)
        pattern = Constructor(JOIN, (px, gen_ref_seq(rng, "list", scope, set(), names, 3)))
    else:
        pattern = gen_ref_seq(rng, "list" if kind == "list" else "multiset", {}, set(), names, 4)
    target = tuple(rng.randrange(4) for _ in range(rng.randrange(7)))
    matcher = (
        list_matcher(integer_matcher())
        if kind == "list"
        else multiset_matcher(integer_matcher(), optimized=kind == "multiset")
    )
    return pattern, matcher, kind, target


def _norm_value(v):
    if type(v) is VList:
        return tuple(_norm_value(x) for x in v)
    if type(v) is VTuple:
        return tuple(_norm_value(x) for x in v.items)
    return v


def engine_env_multiset(pattern, matcher, target_tuple):
    """Engine results as a Counter of sorted (name, value) binding tuples."""
    envs = gen_match_results(pattern, matcher, VList.of(target_tuple))
    rows = []
    for env in envs:
        d = env_to_dict(env)
        rows.append(tuple(sorted((str(k), _norm_value(v)) for k, v in d.items())))
    return Counter(rows)


def oracle_env_multiset(pattern, kind, target_tuple):
    rows = []
    for d in oracle_matches(pattern, kind, target_tuple):
        rows.append(tuple(sorted((str(k), _norm_value(v)) for k, v in d.items())))
    return Counter(rows)
