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
the same rules, behind process_matching_state.

_reduce evaluates a value pattern once per dispatch of its enclosing
constructor: a direct argument whose refs are all bound when the
constructor reaches its matcher is handed over bound to that env, and the
first decomposition that needs its value computes it for all of them. So
value-pattern functions must be deterministic and side-effect free; each
runs at most once per dispatch, never where _step would not run it, and
the results, their order and multiplicity are _step's.

Every built-in matcher (Eq, Integer, Tuple, List, Multiset) hands a
variable or wildcard to Something unchanged and carries the delegates
flag, so _reduce binds or skips one at once, without a matcher call; an
extension matcher (Matcher(fn, name), register_matcher_extension) is
always called, and its decompositions decide what a variable gets. _step
calls every matcher, as the reference does.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple, Optional

from .errors import MatchError
from .matchers import SOMETHING
from .pattern import (
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
    const_value_pattern,
    env_get,
    eval_value_pattern,
    extract_pattern_variables,
    validate_pattern,
)


class MatchingAtom(NamedTuple):
    pattern: object
    matcher: object
    target: object


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
    enumerates decompositions lazily. Patterns are assumed validated, so
    bindings are appended unchecked.
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
        if _exists(((p.arg, m, t),), env):
            return []
        return [(stack[1:], env)]
    elif tp is Later:
        return [(stack[1:] + ((p.arg, m, t),), env)]
    if m is SOMETHING:
        raise MatchError(f"the Something matcher cannot interpret {p!r}")
    enumeration = m.fn(p, t)
    rest = stack[1:]
    if type(enumeration) is list:
        return [(atoms + rest, env) for atoms in enumeration]
    return ((atoms + rest, env) for atoms in enumeration)


def _reduce(stack, env):
    """Run the deterministic reductions of one state, up to its next branch.

    Binds and skips against Something, evaluates value patterns, unfolds
    and/not/later, binds a constructor's hoistable value-pattern
    arguments to env before its matcher runs, and follows any matcher
    that returns exactly one decomposition. Returns the final env when
    the stack empties, a branch point [successor atom-lists iterator,
    remaining stack, env] when a step has several successors (or lazily
    enumerated ones), and [] at a dead end. Drawing from a branch point
    gives, in order, the results of the successor states _step would have
    produced.

    A variable or wildcard against Something or a matcher that delegates
    it there is bound or skipped at once. _dfs inlines this bind rule, and
    only it, for a drawn successor that is one variable atom and nothing
    else.
    """
    while stack:
        p, m, t = stack[0]
        tp = type(p)
        if tp is Var:
            if m is SOMETHING or m.delegates:
                env = env + ((p.name, t),)
                stack = stack[1:]
                continue
        elif tp is Wildcard:
            if m is SOMETHING or m.delegates:
                stack = stack[1:]
                continue
        elif tp is Constructor:
            if p.hoist:
                p = _bind_hoisted(p, env)
        elif tp is ValuePattern:
            if not p.has_value:
                if p.env is None:
                    p = const_value_pattern(eval_value_pattern(p, env))
                else:
                    # bound at its constructor's dispatch: compute once, keep
                    p.value = eval_value_pattern(p, p.env)
        elif tp is Or:
            return [iter([((b, m, t),) for b in p.args]), stack[1:], env]
        elif tp is And:
            stack = tuple((a, m, t) for a in p.args) + stack[1:]
            continue
        elif tp is Not:
            if _exists(((p.arg, m, t),), env):
                return []
            stack = stack[1:]
            continue
        elif tp is Later:
            stack = stack[1:] + ((p.arg, m, t),)
            continue
        if m is SOMETHING:
            raise MatchError(f"the Something matcher cannot interpret {p!r}")
        enumeration = m.fn(p, t)
        if type(enumeration) is list:
            if not enumeration:
                return []
            if len(enumeration) == 1:
                stack = enumeration[0] + stack[1:]
                continue
        return [iter(enumeration), stack[1:], env]
    return env


def _bind_hoisted(p: Constructor, env) -> Constructor:
    """The constructor as its matcher sees it: each hoistable argument whose
    refs env already binds becomes a value pattern bound to env, which
    every decomposition of this dispatch shares and evaluates at most once.
    """
    args = p.args
    for i in p.hoist:
        a = args[i]
        for r in a.refs:
            for n, _ in env:
                if n is r:
                    break
            else:
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
    A drawn successor that is a single variable to bind, with nothing
    after it, is a result without a _reduce call.
    """
    frames = [_root(stack, env)]
    while frames:
        successors, rest, env = frames[-1]
        for atoms in successors:
            if len(atoms) == 1 and not rest:
                p, m, t = atoms[0]
                if type(p) is Var and (m is SOMETHING or m.delegates):
                    yield env + ((p.name, t),)
                    continue
            r = _reduce(atoms + rest, env)
            if type(r) is tuple:
                yield r
            elif r:
                # draw from the new branch point first; this one resumes
                # where it stopped once that one runs dry
                frames.append(r)
                break
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
    back. Every final state at finite depth is eventually reached, even
    when some branch points never run dry, as long as each run of
    deterministic steps ends, which holds when matchers decompose a
    pattern into smaller ones.
    """
    queue = deque((_root(stack, env),))
    while queue:
        frame = queue.popleft()
        atoms = next(frame[0], _NONE)
        if atoms is _NONE:
            continue
        r = _reduce(atoms + frame[1], frame[2])
        if type(r) is tuple:
            queue.append(frame)
            yield r
            continue
        if r:
            queue.append(r)
        queue.append(frame)


def _as_raw(s) -> tuple:
    return (tuple(s[0]), tuple(s[1]))


def process_matching_state(s) -> list:
    """One reduction step: all successor states of a non-final state.

    Materializes the successors; for matchers that enumerate lazily and
    endlessly, use the stream search instead.
    """
    stack, env = _as_raw(s)
    if not stack:
        raise MatchError("a final matching state has no successors")
    return [MatchingState(st, en) for (st, en) in _step(stack, env)]


def process_matching_states_all(ss) -> list:
    """Depth-first search from the given states; every final env, in order."""
    out = []
    for s in ss:
        stack, env = _as_raw(s)
        out.extend(_dfs(stack, env))
    return out


def process_matching_states_first(ss) -> Optional[BindingEnv]:
    """Like process_matching_states_all but stops at the first result."""
    for s in ss:
        stack, env = _as_raw(s)
        for result in _dfs(stack, env):
            return result
    return None


def gen_match_results(pattern, matcher, target) -> list:
    """All binding environments for one pattern/matcher/target match."""
    validate_pattern(pattern)
    return list(_dfs(((pattern, matcher, target),), ()))


def _result_vector(env, names):
    # bindings usually arrive in extraction order; fall back to lookup
    # (later, or a matcher that emits atoms right to left). The loop beats
    # tuple(map(itemgetter(0), env)) == names on envs this small.
    if len(env) == len(names):
        vals = []
        k = 0
        for n, v in env:
            if n is not names[k]:
                break
            vals.append(v)
            k += 1
        else:
            return vals
    return [env_get(env, n) for n in names]


def match_all(target, matcher, clauses) -> list:
    """Evaluate each clause body over every match; concatenate clause outputs."""
    out = []
    append = out.append
    for pattern, body in clauses:
        validate_pattern(pattern)
        names = extract_pattern_variables(pattern)
        if names:
            for env in _dfs(((pattern, matcher, target),), ()):
                append(body(*_result_vector(env, names)))
        else:
            for _ in _dfs(((pattern, matcher, target),), ()):
                append(body())
    return out


def match_first(target, matcher, clauses):
    """Body value of the first clause that matches; None when none does."""
    for pattern, body in clauses:
        validate_pattern(pattern)
        names = extract_pattern_variables(pattern)
        for env in _dfs(((pattern, matcher, target),), ()):
            return body(*_result_vector(env, names))
    return None


def stream_match_all(target, matcher, clause):
    """Generator of clause-body results under the fair dovetailing search.

    Stays productive on infinite search trees: any result at finite depth
    is eventually yielded. On finite trees it yields exactly match_all's
    results for the clause, generally in a different order.
    """
    pattern, body = clause
    validate_pattern(pattern)
    names = extract_pattern_variables(pattern)
    for env in _dovetail(((pattern, matcher, target),), ()):
        yield body(*_result_vector(env, names))
