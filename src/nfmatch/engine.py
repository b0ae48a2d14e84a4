"""The matching-state machine.

A matching state is a stack of matching atoms plus the bindings made so
far. One reduction step pops the top atom and either binds (Something),
handles a logical pattern (or/and/not/later), or asks the matcher to
decompose the target. An empty stack is a successful match.

The rules live in _reduce, which runs a state's deterministic steps and
stops at its next branch point. Three searches drive it over the induced
tree: strict depth-first collecting every result, first-result (stops
early), both over a LIFO stack of branch points, and a fair dovetailing
search over a FIFO queue of them, whose results stream on demand even
when some branches are infinite. _step is the one-step reference form of
the same rules, behind process_matching_state. Every state API validates
its states as match_all validates a pattern, the names a state's env binds
counting as binders before its stack's.

The searches run a compiled copy of each pattern (compile_pattern), made
on its first use and kept on it, so a pattern must not change once used.
Its variables have slots, in extraction order, so a search's env is a
tuple of values whose final form is the body's argument vector: match_all
maps the body over the results. A leaf batch (a final Each binding the
next slot) maps env + (t,) over its targets, and a permutation batch
(a final Choose, the Multiset cons of a chain of k variables, binding the
next k slots) maps env + p over the k-permutations p of its targets. A
value batch (a final Each of a value pattern against a matcher with an
equal) gives env once per target equal accepts: the depth-first search
tests the targets in one pass, in C; the fair search still draws one
target atom per round, so its order, dead ends included, is _step's.
Results the public API hands out list their bindings in extraction order.
A value-pattern function gets a pair env of its refs only, each at its
most recent binding, from the searches and _step alike. Matchers hand on
the pattern objects they are given.

_reduce evaluates a value pattern at most once per dispatch of its
enclosing constructor, and once for all the targets of an Each of that
constructor. A direct argument whose refs are all bound when the
constructor reaches its matcher is handed over bound to that env, and the
first decomposition that needs its value computes it for all of them
(Multiset cons, List join, any extension's constructors). List cons's
first argument is left unbound (Matcher.inline): its one decomposition
starts with that atom, which _reduce evaluates next, with the same env.
Every target of an Each meets its pattern first, under the env the Each
was made in, so _reduce binds an Each's constructor once, a List cons's
head too, and hands every target that one copy: (not (cons (cons ,(f v)
_) _)) over k clauses runs f once, not once per clause. A value batch
computes its value once, when its first target is drawn, for all its
targets. _reduce, _hits and vp_value skip a value pattern whose value is
known and hand any other to eval_value_pattern, the one place that
evaluates a bound copy against its own env and keeps its value. So
value-pattern functions must be deterministic and side-effect free; each
runs at most once per dispatch, Each or batch, never where _step would not
run it, and the results, their order and multiplicity are _step's.

Every built-in matcher (Something, Eq, Integer, Tuple, List, Multiset)
carries the delegates flag: Something binds a variable and skips a
wildcard, and the others hand one to Something unchanged, so _reduce
binds or skips it at once, without a matcher call; an extension matcher
(Matcher(fn, name), register_matcher_extension) is always called, and its
decompositions decide what a variable gets. Eq, Integer, List and
Multiset also carry their value-pattern test as equal(value, target), so
_reduce pops a value pattern against them, or stops at a dead end,
without a matcher call. Something's function raises for every pattern it
is handed. _step calls every matcher, as the reference does.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import compress, permutations, repeat, starmap
from typing import Callable, NamedTuple, Optional

from .errors import MatchError
from .matchers import SOMETHING, Choose, Each
from .pattern import (
    COMPILED,
    HOLE,
    _UNSET,
    And,
    BindingEnv,
    Constructor,
    Later,
    Not,
    Or,
    TuplePattern,
    ValuePattern,
    Var,
    Wildcard,
    _binds,
    const_value_pattern,
    eval_value_pattern,
    validate_pattern,
)
from .values import fold


class MatchingState(NamedTuple):
    stack: tuple
    env: BindingEnv


class MatchClause(NamedTuple):
    pattern: object
    body: Callable


_NONE = object()


def _step(stack, env):
    """Reference reduction step: successors of one non-final state.

    Returns a list of (stack, env) pairs, or a generator when the matcher
    enumerates decompositions lazily. env is a pair env in binding order.
    Patterns are assumed validated, so bindings are appended unchecked.
    """
    p, m, t = stack[0]
    tp = type(p)
    if tp is Var:
        if m is SOMETHING:
            return [(stack[1:], env + ((p.name, t),))]
    elif tp is Wildcard:
        if m is SOMETHING:
            return [(stack[1:], env)]
    elif tp is ValuePattern:
        p = const_value_pattern(eval_value_pattern(p, env))
    elif tp is Or:
        rest = stack[1:]
        return [(((b, m, t),) + rest, env) for b in p.args]
    elif tp is And:
        return [(tuple((a, m, t) for a in p.args) + stack[1:], env)]
    elif tp is Not:
        sub = _slotted(p.arg, tuple(n for n, _ in env))[0]
        if _exists(((sub, m, t),), tuple(v for _, v in env)):
            return []
        return [(stack[1:], env)]
    elif tp is Later:
        return [(stack[1:] + ((p.arg, m, t),), env)]
    enumeration = m.fn(p, t)
    rest = stack[1:]
    if type(enumeration) is list:
        return [(atoms + rest, env) for atoms in enumeration]
    return ((atoms + rest, env) for atoms in enumeration)


def _reduce(stack, env):
    """Run the deterministic reductions of one state, up to its next branch.

    Binds and skips against Something, evaluates value patterns (and
    decides one by its matcher's equal, if set), unfolds and/not/later,
    binds a constructor's hoistable value-pattern arguments to env before
    its matcher runs (once for all the targets of an Each of a
    constructor, which all meet it under env), and follows any matcher
    that returns exactly one decomposition. Returns the final env when
    the stack empties, a branch point [successor atom-lists iterator,
    remaining stack, env] when a step has several successors (or lazily
    enumerated ones), and [] at a dead end. Drawing from a branch point
    gives, in order, the results of the successor states _step would have
    produced.

    A variable or wildcard against a matcher that delegates (Something
    and the matchers that hand it there) is bound or skipped at once. A
    last atom whose Each binds a variable at the next slot that way gives
    the leaf batch [zip(targets), env]; one whose Each holds a value
    pattern against a matcher with an equal gives the value batch [atom
    iterator, (), env, _hits(...), env], and a Choose whose variables bind
    the next slots that way gives [atom iterator, (), env,
    permutations(targets, k), env]. A batch ends [source, env], and its
    results are env + x for each x of source; the fair search draws from a
    value or permutation batch as from the branch point of its first
    three, one atom per round, so that its order and dead ends are _step's.
    """
    while stack:
        p, m, t = stack[0]
        tp = type(p)
        if tp is Var:
            if m.delegates:
                k = p.slot
                env = env + (t,) if k == len(env) else _place(env, k, t)
                stack = stack[1:]
                continue
        elif tp is Wildcard:
            if m.delegates:
                stack = stack[1:]
                continue
        elif tp is Constructor:
            h = p.hoist
            if h and not h[0] and p.name in m.inline:
                h = h[1:]  # m follows it at once: evaluated at its atom
            if h:
                p = _bind_hoisted(p, h, env)
        elif tp is ValuePattern:
            v = p.value
            if v is _UNSET:
                v = eval_value_pattern(p, env)
                if m.equal is None:
                    p = const_value_pattern(v)
            equal = m.equal
            if equal is not None:
                if not equal(v, t):
                    return []
                stack = stack[1:]
                continue
        elif tp is Or:
            return [zip(zip(p.args, repeat(m), repeat(t))), stack[1:], env]
        elif tp is And:
            stack = tuple(zip(p.args, repeat(m), repeat(t))) + stack[1:]
            continue
        elif tp is Not:
            if _exists(((p.arg, m, t),), env):
                return []
            stack = stack[1:]
            continue
        elif tp is Later:
            stack = stack[1:] + ((p.arg, m, t),)
            continue
        enumeration = m.fn(p, t)
        te = type(enumeration)
        if te is list:
            if not enumeration:
                return []
            if len(enumeration) == 1:
                stack = enumeration[0] + stack[1:]
                continue
        elif te is Each:
            q = enumeration.p
            tq = type(q)
            if tq is Constructor:
                if q.hoist:
                    # every target meets q first, under env: one bound copy
                    # for all, a List cons's head too
                    q = _bind_hoisted(q, q.hoist, env)
                    enumeration = Each(q, enumeration.m, enumeration.targets)
            elif len(stack) == 1:
                if tq is Var:
                    if q.slot == len(env) and enumeration.m.delegates:
                        return [zip(enumeration.targets), env]
                elif tq is ValuePattern:
                    equal = enumeration.m.equal
                    if equal is not None:
                        hits = _hits(q, equal, enumeration.targets, env)
                        return [iter(enumeration), (), env, hits, env]
        elif te is Choose and len(stack) == 1 and enumeration.m.delegates:
            k, n = len(enumeration.heads), len(env)
            if [q.slot for q in enumeration.heads] == list(range(n, n + k)):
                return [iter(enumeration), (), env, permutations(enumeration.targets, k), env]
        return [iter(enumeration), stack[1:], env]
    return env


def _hits(q, equal, targets, env):
    """A value batch's source: () for each target that equal accepts against
    the value of q, in order. That value is computed once, when the first
    target is drawn, as _reduce computes it at the first atom (see
    eval_value_pattern). The loop over the other targets runs in C."""
    targets = iter(targets)
    t = next(targets, _NONE)
    if t is _NONE:
        return
    v = q.value
    if v is _UNSET:
        v = eval_value_pattern(q, env)
    if equal(v, t):
        yield ()
    yield from compress(repeat(()), map(partial(equal, v), targets))


def _place(env: tuple, k: int, t) -> tuple:
    # bind slot k out of order (later, an extension matcher's atom order,
    # a not's slots): holes fill any gap before it
    env += (HOLE,) * (k - len(env))
    return env[:k] + (t,) + env[k + 1 :]


def _bind_hoisted(p: Constructor, hoist: tuple, env) -> Constructor:
    """The constructor as its matcher sees it: each argument at a position
    in hoist whose refs env already binds becomes a value pattern bound to
    env, which every decomposition of this dispatch shares and evaluates at
    most once. hoist is p.hoist, less 0 where the matcher's inline names p
    (List cons), whose first argument is the atom _reduce evaluates next;
    for an Each of p it is all of p.hoist, the copy shared by its targets.
    A copy hoists nothing, so its dispatch binds nothing again.
    """
    args = p.args
    n = len(env)
    for i in hoist:
        a = args[i]
        for k in a.slots:
            if k >= n or env[k] is HOLE:
                break
        else:
            args = args[:i] + (a.bound_to(env),) + args[i + 1 :]
    return p if args is p.args else p.with_args(args)


def _root(stack, env) -> list:
    # a branch point with the start state as its one successor
    return [iter(((),)), stack, env]


def _dfs(stack, env):
    """Depth-first search from one state, yielding final environments.

    Branch points wait on a LIFO stack; the newest is drawn from first.
    A batch (leaf, value or permutation) is drained where it is made, its
    results mapped in C.
    """
    frames = [_root(stack, env)]
    while frames:
        successors, rest, env = frames[-1]
        for atoms in successors:
            r = _reduce(atoms + rest, env)
            if type(r) is tuple:
                yield r
            elif len(r) == 3:
                # draw from the new branch point first; this one resumes
                # where it stopped once that one runs dry
                frames.append(r)
                break
            elif r:
                yield from map(r[-1].__add__, r[-2])
        else:
            frames.pop()


def _exists(stack, env) -> bool:
    # existence subsearch for not patterns: only emptiness matters
    for _ in _dfs(stack, env):
        return True
    return False


def _dovetail(stack, env):
    """Fair search: yield final environments in dovetailed order.

    Branch points wait in a FIFO queue. Each round draws one successor
    from the oldest, reduces it to a final env (yielded) or to a new
    branch point (queued), then sends the drawn-from branch point to the
    back; a draw from a leaf batch is a result, and a value or permutation
    batch is the branch point it starts with. Every final state at finite
    depth is eventually reached, even when some branch points never run
    dry, as long as each run of deterministic steps ends, which holds when
    matchers decompose a pattern into smaller ones.
    """
    queue = deque((_root(stack, env),))
    while queue:
        frame = queue.popleft()
        atoms = next(frame[0], _NONE)
        if atoms is _NONE:
            continue
        if len(frame) == 2:  # a leaf batch: atoms is (target,)
            queue.append(frame)
            yield frame[1] + atoms
            continue
        r = _reduce(atoms + frame[1], frame[2])
        if type(r) is tuple:
            queue.append(frame)
            yield r
            continue
        if r:
            queue.append(r)
        queue.append(frame)


def _validated(s) -> tuple:
    # a state's (stack, env), once its patterns validate as match_all
    # validates a pattern, with the env's names as binders before them
    stack, env = tuple(s[0]), tuple(s[1])
    validate_pattern(TuplePattern([Var(n) for n, _ in env] + [a[0] for a in stack]))
    return stack, env


def process_matching_state(s) -> list:
    """One reduction step: all successor states of a non-final state.

    Materializes the successors; for matchers that enumerate lazily and
    endlessly, use the stream search instead.
    """
    stack, env = _validated(s)
    if not stack:
        raise MatchError("a final matching state has no successors")
    return [MatchingState(st, en) for (st, en) in _step(stack, env)]


def process_matching_states_all(ss) -> list:
    """Depth-first search from the given states; every final env, in order,
    listing a state's bindings, then its stack's in extraction order."""
    return [env for s in ss for env in _search_state(s)]


def process_matching_states_first(ss) -> Optional[BindingEnv]:
    """Like process_matching_states_all but stops at the first result."""
    for s in ss:
        for env in _search_state(s):
            return env
    return None


def _search_state(s):
    # the search from one validated state, its stack slotted after its env's names
    stack, env = _validated(s)
    slotted, names = _slotted(TuplePattern([a[0] for a in stack]), tuple(n for n, _ in env))
    stack = tuple((q, m, t) for q, (_, m, t) in zip(slotted.args, stack))
    for values in _dfs(stack, tuple(v for _, v in env)):
        yield tuple((n, v) for n, v in zip(names, values) if v is not HOLE)


def gen_match_results(pattern, matcher, target) -> list:
    """All binding environments for one pattern/matcher/target match, each
    listing its bindings in extraction order."""
    return list(_search_state((((pattern, matcher, target),), ())))


def compile_pattern(p):
    """The slotted copy of p that the searches run.

    Made on p's first use, after validation, and kept in p.compiled (a copy
    is marked COMPILED and returned as it is), so a pattern must not be
    changed once it has been matched. An invalid pattern raises on every use.
    """
    c = getattr(p, "compiled", None)
    if c is COMPILED:
        return p
    if c is None:
        validate_pattern(p)
        c = p.compiled = _slotted(p, ())[0]
        c.compiled = COMPILED
    return c


def _slotted(p, names: tuple):
    """A copy of p in which every variable carries its slot, and the name
    each slot is for.

    names (an env's, in binding order) hold slots 0, 1, ...; p's other
    binders take the next ones in extraction order, then each not's in
    turn. A binder that shadows a name in scope takes that name's slot: a
    not's subsearch has an env of its own, in which, once bound, the inner
    binding is what value patterns read, as with env_get's most recent
    binding first. A value pattern gets its refs' slots; a constructor, the
    arguments its dispatch may evaluate once: value patterns none of whose
    refs is bound anywhere in it (an inner binder may shadow an outer
    name), so their values are fixed then.
    """
    scope = {n: k for k, n in enumerate(names)}
    slot_names = list(names)
    # variables are counted in pre-order, so the ones in a constructor's
    # subtree are those counted after it; last maps a name to the count of
    # its last variable
    last = {}
    count = 0

    def slot(name) -> int:
        if name not in scope:
            scope[name] = len(slot_names)
            slot_names.append(name)
        return scope[name]

    def hoist(c: Constructor, before: int) -> tuple:
        return tuple(
            i for i, a in enumerate(c.args)
            if type(a) is ValuePattern and a.expr is not None
            and all(last.get(r, 0) <= before for r in a.refs)
        )

    def expand(q):
        # fold step, in pre-order: a copy of each leaf, and for each other
        # node the build of its copy from its subpatterns' copies
        nonlocal count
        t = type(q)
        if t is Constructor:
            before = count
            return (lambda args: q.with_args(args, hoist(q, before))), q.args
        if t is TuplePattern or t is Or or t is And:
            return t, q.args
        if t is Not:
            for n in _binds(q.arg):
                slot(n)
        if t is Not or t is Later:
            return (lambda args: t(args[0])), (q.arg,)
        if t is Var:
            v = Var(q.name)
            v.slot = slot(q.name)
            count += 1
            last[q.name] = count
            return None, v
        if t is ValuePattern and q.value is _UNSET:
            vp = q.bound_to(None)
            vp.slots = tuple([slot(r) for r in q.refs])
            return None, vp
        return None, q

    for n in _binds(p):
        slot(n)
    return fold(p, expand), slot_names


def match_all(target, matcher, clauses) -> list:
    """Evaluate each clause body over every match; concatenate clause outputs."""
    out = []
    for pattern, body in clauses:
        # not chained: no extra step per result
        out.extend(starmap(body, _dfs(((compile_pattern(pattern), matcher, target),), ())))
    return out


def match_first(target, matcher, clauses):
    """Body value of the first clause that matches; None when none does."""
    for pattern, body in clauses:
        for env in _dfs(((compile_pattern(pattern), matcher, target),), ()):
            return body(*env)
    return None


def stream_match_all(target, matcher, clause):
    """Generator of clause-body results under the fair dovetailing search.

    Stays productive on infinite search trees: any result at finite depth
    is eventually yielded. On finite trees it yields exactly match_all's
    results for the clause, generally in a different order.
    """
    pattern, body = clause
    yield from starmap(body, _dovetail(((compile_pattern(pattern), matcher, target),), ()))
