"""Shared test support: an independent brute-force decomposition oracle,
a reference fair search, deterministic random pattern/target generators,
and CLI capture."""

from __future__ import annotations

import io
from collections import Counter, deque
from contextlib import redirect_stderr, redirect_stdout

from nfmatch.cli import run_cli
from nfmatch.engine import MatchClause, _step, gen_match_results, match_first
from nfmatch.matchers import (
    CONS,
    JOIN,
    NIL,
    SOMETHING,
    Matcher,
    eq_matcher,
    integer_matcher,
    list_matcher,
    multiset_matcher,
    register_matcher_extension,
    tuple_matcher,
    vp_value,
)
from nfmatch.pattern import (
    WILDCARD,
    And,
    Constructor,
    Later,
    Not,
    Or,
    TuplePattern,
    ValuePattern,
    Var,
    Wildcard,
    const_value_pattern,
    env_get,
    scoped,
)
from nfmatch.values import Symbol, VList, VTuple, as_vlist, is_seq, show_value, without_index


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
# Reference fair search: the dovetail order over the one-step rules of
# _step, for pinning the stream search's result order and first error.


def reference_dovetail(stack, env):
    """Final pair envs in dovetailed order, from the state (stack, env).

    Branch points, iterators of successor states, wait in a FIFO queue.
    Each round draws one successor from the oldest and steps it with _step
    while it has exactly one successor and its atom is not an or; a final
    state is yielded, a dead end dropped, and a step with other successors
    (an or, which always branches, or a lazy enumeration, which branches
    however many it yields) is queued as a new branch point. Then the
    drawn-from branch point goes to the back of the queue.

    As in the engine, a constructor's matcher is handed each value-pattern
    argument whose refs env binds and no binder in the constructor does
    bound to env, so a matcher that filters by a known value enumerates
    as it does in the searches.
    """
    queue = deque([iter([(stack, env)])])
    while queue:
        frame = queue.popleft()
        state = next(frame, None)
        if state is None:
            continue
        while state is not None:
            stack, env = state
            if not stack:
                yield env
                break
            p, m, t = stack[0]
            if type(p) is Constructor:
                stack = ((_bound_to(p, env), m, t),) + stack[1:]
            successors = _step(stack, env)
            if type(p) is Or or type(successors) is not list or len(successors) > 1:
                queue.append(iter(successors))
                break
            state = successors[0] if successors else None
        queue.append(frame)


def _bound_to(c, env):
    # c with its value-pattern arguments bound to env where the engine
    # evaluates them once per dispatch
    binders = {q.name for q, _ in scoped(c, ()) if type(q) is Var}
    names = {n for n, _ in env}
    return Constructor(c.name, [
        a.bound_to(env)
        if type(a) is ValuePattern and a.expr is not None and binders.isdisjoint(a.refs)
        and names.issuperset(a.refs) else a
        for a in c.args
    ])


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
    # scope is insertion-ordered and shadowable is not: draw in scope order,
    # so a seed draws the same instance under every hash seed
    outer = [n for n in scope if n in shadowable and scope[n] == kind]
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


def gen_ref_seq(rng, kind, scope, shadowable, names, depth, logical=False):
    if logical and depth > 0 and rng.random() < 0.3:
        return _gen_logical(rng, kind, scope, shadowable, names, depth - 1)
    roll = rng.random()
    if depth > 0 and roll < 0.45:
        px = gen_ref_element(rng, scope, shadowable, names)
        py = gen_ref_seq(rng, kind, scope, shadowable, names, depth - 1, logical)
        return Constructor(CONS, (px, py))
    if depth > 0 and roll < 0.65:
        # inner bindings stay inside; outer names may be rebound there once
        return Not(gen_ref_seq(rng, kind, dict(scope), set(scope), names, depth - 1, logical))
    if depth > 0 and kind == "list" and roll < 0.9:
        roll = rng.random()
        if roll < (0.1 if shadowable else 0.4):
            px = gen_ref_seq(rng, "list", scope, shadowable, names, depth - 1, logical)
        elif roll < (0.5 if shadowable else 0.8):
            # a _ prefix, often with the membership test (cons ,v _) after
            # it, which the searches decide in one batch
            px = WILDCARD
            if rng.random() < 0.6:
                ints = [n for n, k in scope.items() if k == "int"]
                if ints and rng.random() < 0.7:
                    e = _ref(rng.choice(ints), rng.choice((0, 0, 1)))
                else:
                    e = const_value_pattern(rng.randrange(4))
                return Constructor(JOIN, (px, Constructor(CONS, (e, WILDCARD))))
        else:
            px = _binder(rng, "seq", scope, shadowable, names)
        if type(px) is Var and rng.random() < (0.7 if shadowable else 0.4):
            # (join s ,s): the value pattern reads a binder of its own
            # constructor, which may shadow an outer s inside not
            return Constructor(JOIN, (px, _ref(px.name)))
        py = gen_ref_seq(rng, "list", scope, shadowable, names, depth - 1, logical)
        return Constructor(JOIN, (px, py))
    seqs = [n for n, k in scope.items() if k == "seq"]
    roll = rng.random()
    if seqs and roll < 0.35:
        return _ref(rng.choice(seqs))
    if roll < 0.6:
        return _binder(rng, "seq", scope, shadowable, names)
    if roll < 0.85:
        return WILDCARD
    return Constructor(NIL, ())


def _gen_logical(rng, kind, scope, shadowable, names, depth):
    # later; or, whose second branch binds the first's variables in the
    # same textual order but, deferred by later, in another match order;
    # a membership test beside other branch points; and, binding the whole
    # sequence before matching it again
    def sub():
        return gen_ref_seq(rng, kind, scope, shadowable, names, depth, True)

    roll = rng.random()
    if roll < 0.2:
        return Later(sub())
    if roll < 0.35 or 0.7 <= roll < 0.85:  # two ranges: the @example seeds keep their draws
        return _member_beside(rng, kind, scope, shadowable, names)
    if roll < 0.7:
        first = sub()
        return Or((first, _deferred(rng, first)))
    return And((_binder(rng, "seq", scope, shadowable, names), sub()))


def _member_beside(rng, kind, scope, shadowable, names):
    # (join _ (cons y (or (join _ (cons ,y _)) (join _ (cons _ _))))), with
    # (cons p r) for (join _ (cons p r)) over a multiset, and sometimes
    # ,(+ y 1) for ,y. Each y's membership test is a value batch, which the
    # fair search gives a round per target, dead ends included, in turn
    # with the branch points of the other ys and of the or's other branch
    def cons(p, rest):
        c = Constructor(CONS, (p, rest))
        return Constructor(JOIN, (WILDCARD, c)) if kind == "list" else c

    y = _binder(rng, "int", scope, shadowable, names)
    test = cons(_ref(y.name, rng.choice((0, 1))), WILDCARD)
    return cons(y, Or((test, cons(WILDCARD, WILDCARD))))


def _deferred(rng, p):
    # p with some constructor arguments wrapped in later
    if type(p) is not Constructor:
        return p
    args = (_deferred(rng, a) for a in p.args)
    return Constructor(p.name, tuple(Later(a) if rng.random() < 0.3 else a for a in args))


def gen_ref_instance(rng, logical=False):
    """One random (pattern, matcher, kind, target-tuple) instance whose value
    patterns read earlier bindings; with logical, later, or and and patterns
    appear too."""
    kind = rng.choice(("list", "multiset", "naive-multiset"))
    names = _Names()
    if kind == "list" and rng.random() < 0.5:
        # start with a list binder, for a not further in to shadow
        scope: dict = {}
        px = _binder(rng, "seq", scope, set(), names)
        py = gen_ref_seq(rng, "list", scope, set(), names, 3, logical)
        pattern = Constructor(JOIN, (px, py))
    else:
        seq_kind = "list" if kind == "list" else "multiset"
        pattern = gen_ref_seq(rng, seq_kind, {}, set(), names, 4, logical)
    target = tuple(rng.randrange(4) for _ in range(rng.randrange(7)))
    matcher = (
        list_matcher(integer_matcher())
        if kind == "list"
        else multiset_matcher(integer_matcher(), optimized=kind == "multiset")
    )
    return pattern, matcher, kind, target


def _int_like_fn(p, t):
    # a non-delegating extension matcher, called for every variable,
    # wildcard and value pattern; it compares as Python does (True equals 1)
    tp = type(p)
    if tp is ValuePattern:
        return [()] if vp_value(p) == t else []
    if tp is Var or tp is Wildcard:
        return [((p, SOMETHING, t),)]
    raise AssertionError(f"(IntLike) cannot match {p!r}")


INT_LIKE = register_matcher_extension(_int_like_fn, "(IntLike)")
SCALAR_ELEMENTS = (integer_matcher(), eq_matcher(), INT_LIKE)


def gen_scalar_instance(rng, logical=False):
    """A gen_ref_instance whose element matcher is drawn from Integer, Eq and
    an extension matcher, and whose target sometimes holds symbols and
    booleans among its integers."""
    pattern, _, kind, target = gen_ref_instance(rng, logical)
    element = rng.choice(SCALAR_ELEMENTS)
    if rng.random() < 0.4:
        others = (Symbol("a"), Symbol("b"), True, False)
        target = tuple(rng.choice(others) if rng.random() < 0.3 else x for x in target)
    if kind == "list":
        matcher = list_matcher(element)
    else:
        matcher = multiset_matcher(element, optimized=kind == "multiset")
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
        d = dict(env)
        rows.append(tuple(sorted((str(k), _norm_value(v)) for k, v in d.items())))
    return Counter(rows)


def oracle_env_multiset(pattern, kind, target_tuple):
    rows = []
    for d in oracle_matches(pattern, kind, target_tuple):
        rows.append(tuple(sorted((str(k), _norm_value(v)) for k, v in d.items())))
    return Counter(rows)


# ---------------------------------------------------------------------------
# The layered definition of multiset equality, a reference for the built-in
# Multiset matcher's value-pattern test, which decides it in one flat loop.

_LX, _LXS = Symbol("lx"), Symbol("lxs")
_LAYERED_CLAUSES = [
    MatchClause(TuplePattern((Constructor(NIL), Constructor(NIL))), lambda: True),
    MatchClause(
        TuplePattern((
            Constructor(CONS, (Var(_LX), Var(_LXS))),
            Constructor(CONS, (ValuePattern(lambda env: env_get(env, _LX), (_LX,)),
                               ValuePattern(lambda env: env_get(env, _LXS), (_LXS,)))),
        )),
        lambda x, xs: True,
    ),
    MatchClause(TuplePattern((WILDCARD, WILDCARD)), lambda: False),
]


def layered_multiset_matcher(m):
    """A multiset matcher whose ,v test for a target t is the match-first of
    [(nil) (nil)] -> #t, [(cons x xs) (cons ,x ,xs)] -> #t, [_ _] -> #f
    over [t v], with (List m) on t and this matcher on v: one nested search
    per element. It knows nil, cons (each element in turn) and value patterns."""
    name = f"(Multiset {m.name})"

    def fn(p, t):
        if type(p) is ValuePattern:
            v = vp_value(p)
            if not is_seq(v):
                raise TypeError(f"multiset matcher compared against non-list value {show_value(v)}")
            vv, tt = as_vlist(v), as_vlist(t)
            if len(vv) != len(tt):
                return []
            pair = tuple_matcher((list_matcher(m), matcher))
            return [()] if match_first(VTuple((tt, vv)), pair, _LAYERED_CLAUSES) else []
        if type(p) is Constructor and p.name is NIL:
            return [()] if len(as_vlist(t)) == 0 else []
        if type(p) is Constructor and p.name is CONS:
            px, py = p.args
            tt = as_vlist(t)
            return [((px, m, x), (py, matcher, without_index(tt, i))) for i, x in enumerate(tt)]
        return [((p, SOMETHING, t),)]

    matcher = Matcher(fn, name)
    return matcher
