"""Matching-state reduction and the three searches over it."""

import math
import os
import random
import subprocess
import sys
from itertools import chain, count, islice

import pytest
from hypothesis import example, given, settings, strategies as st

from nfmatch import engine
from nfmatch.engine import (
    MatchClause,
    MatchingState,
    _step,
    gen_match_results,
    match_all,
    match_first,
    process_matching_state,
    process_matching_states_all,
    process_matching_states_first,
    stream_match_all,
)
from nfmatch.errors import ArityMismatch, MatchError, UnboundValuePatternRef, ValidationError
from nfmatch.examples import is_prime, prime_triplets, twin_primes
from nfmatch.matchers import (
    CONS,
    JOIN,
    NIL,
    SOMETHING,
    Choose,
    Each,
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
    const_value_pattern,
    env_get,
    extract_pattern_variables,
    validate_pattern,
)
from nfmatch.values import (
    Symbol,
    VList,
    VTuple,
    from_python,
    lazyseq_from_iter,
    parse_value,
    print_value,
    suffix_view,
    to_python,
)

from helpers import (
    INT_LIKE,
    cli,
    engine_env_multiset,
    gen_instance,
    gen_ref_instance,
    gen_scalar_instance,
    oracle_env_multiset,
    reference_dovetail,
)

X, Y, Z, M, TS = Symbol("x"), Symbol("y"), Symbol("z"), Symbol("m"), Symbol("ts")


def cons(px, py):
    return Constructor(CONS, (px, py))


def join(px, py):
    return Constructor(JOIN, (px, py))


def vp_of(name):
    return ValuePattern(lambda env: env_get(env, name), (name,))


# --- Frozen step-by-step replay ---
#
# Matching (cons m (cons ,m _)) against the multiset (2 8 2) with the
# layered (naive) multiset matcher, always taking the successor index
# given in CHOICES. The stack sizes, environments, and intermediate
# successor lists below were worked out by hand from the reduction rules.

REPLAY_CHOICES = [0, 0, 0, 1, 0, 0, 0]
REPLAY_SUCC_COUNTS = [3, 1, 1, 2, 1, 1, 1]
REPLAY_STACK_SIZES = [1, 2, 2, 1, 2, 1, 1, 0]


def _replay_states():
    pattern = cons(Var(M), cons(vp_of(M), WILDCARD))
    matcher = multiset_matcher(integer_matcher(), optimized=False)
    s = MatchingState(((pattern, matcher, VList.of((2, 8, 2))),), ())
    states = [s]
    succ_lists = []
    for choice in REPLAY_CHOICES:
        succ = process_matching_state(states[-1])
        succ_lists.append(succ)
        states.append(succ[choice])
    return states, succ_lists


def test_replay_stack_sizes_and_envs():
    states, succ_lists = _replay_states()
    assert [len(s.stack) for s in states] == REPLAY_STACK_SIZES
    assert [len(sl) for sl in succ_lists] == REPLAY_SUCC_COUNTS
    assert [dict(s.env) for s in states[:3]] == [{}, {}, {}]
    assert [dict(s.env) for s in states[3:]] == [{M: 2}] * 5


def test_replay_fourth_state_successors():
    states, succ_lists = _replay_states()
    # popping (cons ,m _) over the remainder (8 2): one successor per pick
    first, second = succ_lists[3]
    (p0, m0, t0), (q0, n0, r0) = first.stack
    assert type(p0) is ValuePattern and not p0.has_value
    assert m0 is integer_matcher() and t0 == 8
    assert type(q0) is type(WILDCARD) and list(r0) == [2]
    (p1, m1, t1), (q1, n1, r1) = second.stack
    assert t1 == 2 and list(r1) == [8]


def test_replay_wildcard_delegates_to_something():
    states, succ_lists = _replay_states()
    [(atom,)] = [s.stack for s in succ_lists[5]]
    assert atom[1] is SOMETHING


def test_replay_final_state_has_no_successors():
    states, _ = _replay_states()
    assert states[-1].stack == ()
    with pytest.raises(MatchError):
        process_matching_state(states[-1])


def test_replay_results_same_both_multisets():
    pattern = cons(Var(M), cons(vp_of(M), WILDCARD))
    clause = MatchClause(pattern, lambda m: m)
    t = VList.of((2, 8, 2))
    for optimized in (True, False):
        got = match_all(t, multiset_matcher(integer_matcher(), optimized=optimized), [clause])
        assert got == [2, 2]


# --- Search drift guard: the depth-first search over _reduce must visit
# the successor tree that _step defines, in the same order.


def _reference_search(stack, env):
    if not stack:
        yield env
        return
    p, m, t = stack[0]
    if type(p) is Not:
        # _step's own not rule runs its subsearch on _reduce; keep the
        # reference independent of it
        for _ in _reference_search(((p.arg, m, t),), env):
            return
        yield from _reference_search(stack[1:], env)
        return
    for nstack, nenv in _step(stack, env):
        yield from _reference_search(nstack, nenv)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dfs_matches_reference_search(seed):
    rng = random.Random(seed)
    pattern, matcher, kind, target = gen_instance(rng)
    start = ((pattern, matcher, VList.of(target)),)
    assert gen_match_results(pattern, matcher, VList.of(target)) == list(
        _reference_search(start, ())
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_engine_matches_oracle(seed):
    rng = random.Random(seed)
    pattern, matcher, kind, target = gen_instance(rng)
    assert engine_env_multiset(pattern, matcher, target) == oracle_env_multiset(
        pattern, kind, target
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_match_first_is_head_of_match_all(seed):
    rng = random.Random(seed)
    pattern, matcher, kind, target = gen_instance(rng)
    clause = MatchClause(pattern, lambda *a: a)
    both = match_all(VList.of(target), matcher, [clause])
    first = match_first(VList.of(target), matcher, [clause])
    assert first == (both[0] if both else None)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_stream_drained_equals_strict(seed):
    rng = random.Random(seed)
    pattern, matcher, kind, target = gen_instance(rng)
    clause = MatchClause(pattern, lambda *a: a)
    strict = match_all(VList.of(target), matcher, [clause])
    streamed = list(stream_match_all(VList.of(target), matcher, clause))
    assert sorted(map(repr, strict)) == sorted(map(repr, streamed))


# --- Value patterns evaluated once per constructor dispatch: the searches
# must still produce _step's results, in order and with multiplicity, when
# value patterns read earlier bindings (also under not, with shadowing).


def _outcome(run):
    try:
        return ("ok", list(run()))
    except Exception as err:  # both sides must fail the same way
        return ("error", type(err).__name__, str(err))


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hoisted_value_patterns_match_reference_search(seed):
    rng = random.Random(seed)
    pattern, matcher, kind, target = gen_ref_instance(rng)
    start = ((pattern, matcher, VList.of(target)),)
    got = _outcome(lambda: gen_match_results(pattern, matcher, VList.of(target)))
    assert got == _outcome(lambda: _reference_search(start, ()))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hoisted_value_patterns_stream_drained_equals_strict(seed):
    rng = random.Random(seed)
    pattern, matcher, kind, target = gen_ref_instance(rng)
    clause = MatchClause(pattern, lambda *a: a)
    strict = match_all(VList.of(target), matcher, [clause])
    streamed = list(stream_match_all(VList.of(target), matcher, clause))
    assert sorted(map(repr, strict)) == sorted(map(repr, streamed))


def test_value_pattern_reads_shadowing_binder_inside_not():
    # (join x ,x) binds x itself, so ,x must read the inner x, not the outer
    p = cons(Var(X), Not(join(Var(X), vp_of(X))))
    clause = MatchClause(p, lambda x: x)
    assert match_all(VList.of((1, 2, 2)), INT_LIST, [clause]) == []
    assert match_all(VList.of((1, 2, 3)), INT_LIST, [clause]) == [1]
    # here ,(+ x 1) is dispatched after the inner x is bound and reads it
    plus1 = ValuePattern(lambda env: env_get(env, X) + 1, (X,))
    p = cons(Var(X), Not(cons(Var(X), cons(plus1, WILDCARD))))
    clause = MatchClause(p, lambda x: x)
    ms = multiset_matcher(integer_matcher())
    start = ((p, ms, VList.of((5, 1, 2, 7))),)
    assert match_all(VList.of((5, 1, 2, 7)), ms, [clause]) == [1, 2]
    assert gen_match_results(p, ms, VList.of((5, 1, 2, 7))) == list(_reference_search(start, ()))


# --- Slot environments: a pattern is compiled once, bodies get the search's
# value vectors, and value-pattern functions only their refs


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_body_vectors_match_reference_search_with_later_or_and(seed):
    rng = random.Random(seed)
    pattern, matcher, kind, target = gen_ref_instance(rng, logical=True)
    t = VList.of(target)
    names = extract_pattern_variables(pattern)

    def reference():
        for env in _reference_search(((pattern, matcher, t),), ()):
            yield tuple(env_get(env, n) for n in names)

    clause = MatchClause(pattern, lambda *a: a)
    want = _outcome(reference)
    assert _outcome(lambda: match_all(t, matcher, [clause])) == want
    first = _outcome(lambda: [match_first(t, matcher, [clause])])
    assert first == _outcome(lambda: islice(chain(reference(), [None]), 1))
    streamed = _outcome(lambda: stream_match_all(t, matcher, clause))
    if want[0] == "ok":
        assert sorted(map(repr, streamed[1])) == sorted(map(repr, want[1]))
    else:
        assert streamed[0] == "error"


def test_bindings_out_of_order_take_their_own_slots():
    # y is bound before x (later), and x by a lazily enumerating extension
    # matcher, as the one atom of its successor
    ms = multiset_matcher(SHIFTED)
    clause = MatchClause(cons(Later(Var(X)), cons(Var(Y), WILDCARD)), lambda x, y: (x, y))
    t = VList.of((1, 2, 4))
    want = [(2, 3), (2, 5), (3, 2), (3, 5), (5, 2), (5, 3)]
    assert match_all(t, ms, [clause]) == want
    assert sorted(stream_match_all(t, ms, clause)) == want
    # ,x reads x's slot while a later slot is bound and x's is not yet
    p = cons(Later(Var(X)), cons(Var(Y), cons(vp_of(X), WILDCARD)))
    with pytest.raises(UnboundValuePatternRef):
        match_all(t, INT_LIST, [MatchClause(p, lambda x, y: y)])
    with pytest.raises(UnboundValuePatternRef):
        list(_reference_search(((p, INT_LIST, t),), ()))


def test_a_pattern_is_validated_on_its_first_use_only(monkeypatch):
    validated = []
    validate = engine.validate_pattern

    def counted(p):
        validated.append(p)
        validate(p)

    monkeypatch.setattr(engine, "validate_pattern", counted)
    p = cons(Var(X), cons(Var(Y), WILDCARD))
    clause = MatchClause(p, lambda x, y: (x, y))
    for _ in range(3):
        assert match_all(VList.of((1, 2)), INT_LIST, [clause]) == [(1, 2)]
    assert validated == [p]
    bad = cons(Var(X), Var(X))
    for _ in range(3):
        with pytest.raises(ValidationError):
            match_all(VList.of((1, 2)), INT_LIST, [MatchClause(bad, lambda x: x)])
    assert validated == [p, bad, bad, bad]


def test_value_pattern_function_is_handed_its_refs_only():
    seen = []

    def recorded(fn, refs):
        def expr(env):
            seen.append(env)
            return fn(env)

        return ValuePattern(expr, refs)

    sum_xy = recorded(lambda env: env_get(env, X) + env_get(env, Y), (X, Y))
    plus1 = recorded(lambda env: env_get(env, X) + 1, (X,))
    p = cons(Var(X), cons(Var(Y), cons(Var(M), cons(sum_xy, WILDCARD))))
    assert match_all(VList.of((1, 2, 5, 3)), INT_LIST, [MatchClause(p, lambda x, y, m: m)]) == [5]
    assert seen == [((X, 1), (Y, 2))]
    # under not, the innermost binder of x that is bound by then
    del seen[:]
    p = cons(Var(X), Not(cons(Var(X), cons(plus1, WILDCARD))))
    assert match_all(VList.of((5, 7, 8)), INT_LIST, [MatchClause(p, lambda x: x)]) == []
    assert seen == [((X, 7),)]
    del seen[:]
    p = cons(Var(X), Not(cons(plus1, cons(Var(X), WILDCARD))))
    assert match_all(VList.of((5, 6, 8)), INT_LIST, [MatchClause(p, lambda x: x)]) == []
    assert seen == [((X, 5),)]


def _counting_plus(name, k, calls):
    def expr(env):
        calls.append(1)
        return env_get(env, name) + k

    return ValuePattern(expr, (name,))


def test_value_pattern_runs_once_per_dispatch():
    calls = []
    p = cons(Var(X), cons(_counting_plus(X, 1, calls), cons(_counting_plus(X, 2, []), WILDCARD)))
    n = 60
    got = match_all(VList.of(tuple(range(n))), multiset_matcher(integer_matcher()),
                    [MatchClause(p, lambda x: x)])
    assert got == list(range(n - 2))
    assert len(calls) == n  # once per x, not once per (x, candidate) pair


def test_value_pattern_not_evaluated_without_candidates():
    def boom(env):
        raise AssertionError("evaluated with nothing to compare against")

    p = cons(ValuePattern(boom), WILDCARD)
    for matcher in (multiset_matcher(integer_matcher()), INT_LIST):
        assert match_all(VList.of(()), matcher, [MatchClause(p, lambda: 1)]) == []


def test_known_head_keeps_the_error_position():
    one = ValuePattern(lambda env: 1)
    clause = MatchClause(cons(one, WILDCARD), lambda: 7)
    ms = multiset_matcher(integer_matcher())
    target = VList.of((1, Symbol("a")))
    assert match_first(target, ms, [clause]) == 7
    with pytest.raises(TypeError, match="non-integer target"):
        match_all(target, ms, [clause])


# A Multiset of elements whose matcher has no equal (here Tuple) takes a
# known head one branch per element, as _step does: the strict searches
# keep their results and order, and the fair one is the reference's.

def _swapped():
    return ValuePattern(lambda env: VTuple((env_get(env, Y), env_get(env, X))), (X, Y))


KNOWN_PAIR_HEADS = {
    "swapped-rest": (lambda: cons(TuplePattern((Var(X), Var(Y))), cons(_swapped(), Var(R))), [
        "[1 2 ([1 2] [3 3] [3 3])]", "[2 1 ([1 2] [3 3] [3 3])]", "[2 1 ([1 2] [3 3] [3 3])]",
        "[1 2 ([1 2] [3 3] [3 3])]", "[3 3 ([1 2] [2 1] [1 2])]", "[3 3 ([1 2] [2 1] [1 2])]"]),
    "swapped-wild": (lambda: cons(TuplePattern((Var(X), Var(Y))), cons(_swapped(), WILDCARD)), [
        "[1 2]", "[2 1]", "[2 1]", "[1 2]", "[3 3]", "[3 3]"]),
    "const-rest": (lambda: cons(const_value_pattern(VTuple((1, 2))), Var(R)), [
        "[([2 1] [1 2] [3 3] [3 3])]", "[([1 2] [2 1] [3 3] [3 3])]"]),
    "const-then-pair": (
        lambda: cons(const_value_pattern(VTuple((1, 2))), cons(TuplePattern((Var(X), Var(Y))), Var(R))), [
        "[2 1 ([1 2] [3 3] [3 3])]", "[1 2 ([2 1] [3 3] [3 3])]", "[3 3 ([2 1] [1 2] [3 3])]",
        "[3 3 ([2 1] [1 2] [3 3])]", "[1 2 ([2 1] [3 3] [3 3])]", "[2 1 ([1 2] [3 3] [3 3])]",
        "[3 3 ([1 2] [2 1] [3 3])]", "[3 3 ([1 2] [2 1] [3 3])]"]),
}


@pytest.mark.parametrize("case", sorted(KNOWN_PAIR_HEADS))
def test_known_head_over_elements_without_equal(case):
    make, want = KNOWN_PAIR_HEADS[case]
    pairs = multiset_matcher(tuple_matcher((integer_matcher(), integer_matcher())))
    t = VList.of(tuple(VTuple(p) for p in ((1, 2), (2, 1), (1, 2), (3, 3), (3, 3))))
    clause = MatchClause(make(), lambda *a: a)

    def shown(results):
        return [print_value(VTuple(r)) for r in results]

    assert shown(match_all(t, pairs, [clause])) == want
    assert shown([match_first(t, pairs, [clause])]) == want[:1]
    streamed = shown(stream_match_all(t, pairs, clause))
    assert streamed == shown(_dovetailed(make(), pairs, t))
    assert sorted(streamed) == sorted(want)


# --- Logical patterns ---

INT_LIST = list_matcher(integer_matcher())


# --- Variables and wildcards: a built-in matcher hands them to Something,
# so the engine binds or skips them without calling it; an extension
# matcher is called for each one, and what it answers stands.


def _shifted_fn(p, t):
    # integers seen one up: a variable gets t + 1, a value pattern must
    # equal t + 1, and a wildcard accepts even targets only
    tp = type(p)
    if tp is Var:
        return [((p, SOMETHING, t + 1),)]
    if tp is type(WILDCARD):
        return [()] if t % 2 == 0 else []
    if tp is ValuePattern:
        return [()] if vp_value(p) == t + 1 else []
    raise MatchError(f"(Shifted) cannot match {p!r}")


SHIFTED = register_matcher_extension(_shifted_fn, "(Shifted)")


def test_only_builtin_matchers_delegate():
    builtins = (
        eq_matcher(),
        integer_matcher(),
        INT_LIST,
        multiset_matcher(integer_matcher()),
        multiset_matcher(integer_matcher(), optimized=False),
        tuple_matcher((integer_matcher(), INT_LIST)),
    )
    assert all(m.delegates for m in builtins)
    assert not SHIFTED.delegates
    assert not Matcher(_shifted_fn, "(Shifted)").delegates


def test_extension_matcher_decides_what_its_variables_get():
    ms = multiset_matcher(SHIFTED)
    t = VList.of((1, 2, 4))
    # y is the last atom of its successor: still the extension's to bind
    clause = MatchClause(cons(Var(X), cons(Var(Y), WILDCARD)), lambda x, y: (x, y))
    want = [(2, 3), (2, 5), (3, 2), (3, 5), (5, 2), (5, 3)]
    assert match_all(t, ms, [clause]) == want
    assert match_first(t, ms, [clause]) == want[0]
    assert sorted(stream_match_all(t, ms, clause)) == want
    # and its wildcards to accept: the odd head 1 is rejected
    clause = MatchClause(cons(WILDCARD, cons(Var(X), WILDCARD)), lambda x: x)
    assert match_all(t, ms, [clause]) == [2, 5, 2, 3]
    assert match_first(t, ms, [clause]) == 2
    assert sorted(stream_match_all(t, ms, clause)) == [2, 2, 3, 5]
    assert match_all(VList.of((1, 3)), ms, [clause]) == []
    assert match_first(VList.of((1, 3)), ms, [clause]) is None


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_extension_matcher_variables_match_reference_search(seed):
    rng = random.Random(seed)
    pattern, matcher, kind, target = gen_instance(rng, element=SHIFTED)
    start = ((pattern, matcher, VList.of(target)),)
    got = _outcome(lambda: gen_match_results(pattern, matcher, VList.of(target)))
    assert got == _outcome(lambda: _reference_search(start, ()))
    clause = MatchClause(pattern, lambda *a: a)
    strict = match_all(VList.of(target), matcher, [clause])
    streamed = list(stream_match_all(VList.of(target), matcher, clause))
    assert sorted(map(repr, strict)) == sorted(map(repr, streamed))


# --- Body arguments come in extract_pattern_variables order, also when the
# bindings were made in another order


def _right_to_left_fn(p, t):
    # a list matcher whose cons emits the tail atom before the head atom
    if type(p) is Constructor and p.name is CONS:
        if not len(t):
            return []
        return [((p.args[1], RIGHT_TO_LEFT, suffix_view(t, 1)), (p.args[0], SOMETHING, t[0]))]
    return [((p, SOMETHING, t),)]


RIGHT_TO_LEFT = register_matcher_extension(_right_to_left_fn, "(RightToLeft)")


@pytest.mark.parametrize(
    "pattern, matcher, want",
    [
        # later: y is bound before x
        (
            cons(Later(Var(X)), cons(Var(Y), WILDCARD)),
            multiset_matcher(integer_matcher()),
            [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)],
        ),
        # right to left: ts, then y, then x
        (
            cons(Var(X), cons(Var(Y), Var(TS))),
            RIGHT_TO_LEFT,
            [(1, 2, (3,))],
        ),
    ],
)
def test_body_arguments_in_extraction_order(pattern, matcher, want):
    t = VList.of((1, 2, 3))
    names = extract_pattern_variables(pattern)
    bound = [tuple(n for n, _ in env) for env in _reference_search(((pattern, matcher, t),), ())]
    assert bound and all(order != names for order in bound)  # not the order bound

    def body(*vs):
        return tuple(tuple(v) if type(v) is VList else v for v in vs)

    clause = MatchClause(pattern, body)
    assert match_all(t, matcher, [clause]) == want
    assert match_first(t, matcher, [clause]) == want[0]
    assert sorted(stream_match_all(t, matcher, clause)) == want


def test_or_tries_branches_in_order_and_duplicates():
    p = Or((const_value_pattern(1), WILDCARD))
    assert match_all(5, eq_matcher(), [MatchClause(p, lambda: "hit")]) == ["hit"]
    assert match_all(1, eq_matcher(), [MatchClause(p, lambda: "hit")]) == ["hit", "hit"]


def test_and_checks_all_conjuncts():
    p = cons(And((const_value_pattern(1), Var(X))), WILDCARD)
    clause = MatchClause(p, lambda x: x)
    assert match_all(VList.of((1, 2)), INT_LIST, [clause]) == [1]
    assert match_all(VList.of((2, 1)), INT_LIST, [clause]) == []


def test_not_sees_outer_bindings():
    # heads not repeated in the immediately following position
    p = cons(Var(X), Not(cons(vp_of(X), WILDCARD)))
    clause = MatchClause(p, lambda x: x)
    assert match_all(VList.of((1, 2, 3)), INT_LIST, [clause]) == [1]
    assert match_all(VList.of((1, 1, 3)), INT_LIST, [clause]) == []


def test_not_bindings_do_not_escape():
    p = cons(Not(const_value_pattern(9)), cons(Var(X), WILDCARD))
    clause = MatchClause(p, lambda x: x)
    assert match_all(VList.of((1, 2)), INT_LIST, [clause]) == [2]
    assert match_all(VList.of((9, 2)), INT_LIST, [clause]) == []


def test_later_defers_value_pattern():
    p = cons(Later(vp_of(X)), cons(Var(X), WILDCARD))
    clause = MatchClause(p, lambda x: x)
    assert match_all(VList.of((1, 1, 2, 3)), INT_LIST, [clause]) == [1]
    assert match_all(VList.of((1, 2, 3)), INT_LIST, [clause]) == []


def test_later_binder_feeds_body_in_extraction_order():
    p = cons(Later(Var(X)), cons(Var(Y), WILDCARD))
    clause = MatchClause(p, lambda x, y: (x, y))
    assert match_all(VList.of((1, 2, 3)), INT_LIST, [clause]) == [(1, 2)]


def test_non_linear_pairs_match_double_loop():
    p = cons(Var(M), cons(vp_of(M), WILDCARD))
    t = (2, 8, 2, 8, 8)
    want = [
        x
        for i, x in enumerate(t)
        for j, y in enumerate(t)
        if j != i and y == x
    ]
    got = match_all(VList.of(t), multiset_matcher(integer_matcher()), [MatchClause(p, lambda m: m)])
    assert sorted(got) == sorted(want) and len(got) == len(want)


# --- match-all / match-first surface behavior ---


def test_match_all_concatenates_clause_outputs():
    clauses = [
        MatchClause(cons(Var(X), WILDCARD), lambda x: ("head", x)),
        MatchClause(Constructor(Symbol("nil"), ()), lambda: ("empty",)),
        MatchClause(WILDCARD, lambda: ("any",)),
    ]
    assert match_all(VList.of((7,)), INT_LIST, clauses) == [("head", 7), ("any",)]
    assert match_all(VList.of(()), INT_LIST, clauses) == [("empty",), ("any",)]


def test_match_first_falls_through_clauses():
    clauses = [
        MatchClause(cons(const_value_pattern(9), WILDCARD), lambda: "nine"),
        MatchClause(cons(Var(X), WILDCARD), lambda x: x),
    ]
    assert match_first(VList.of((9, 1)), INT_LIST, clauses) == "nine"
    assert match_first(VList.of((1, 9)), INT_LIST, clauses) == 1
    assert match_first(VList.of(()), INT_LIST, clauses) is None


def test_validation_runs_before_matching():
    with pytest.raises(ValidationError):
        match_all(VList.of((1,)), INT_LIST, [MatchClause(cons(Var(X), Var(X)), lambda a, b: a)])


def test_something_rejects_structural_patterns():
    assert isinstance(SOMETHING, Matcher) and SOMETHING.delegates
    with pytest.raises(MatchError):
        gen_match_results(cons(Var(X), WILDCARD), SOMETHING, VList.of((1,)))
    for program, shown in (
        ("(match-all 1 Something [(cons x _) x])", "(cons x _)"),
        ("(match-all '(1 2) (Multiset Something) [(cons ,1 _) 1])", ",1"),
    ):
        code, out, err = cli(["eval", program])
        assert code == 1 and out == ""
        assert err.endswith(f"error: the Something matcher cannot interpret {shown}\n")


def test_process_matching_states_helpers():
    pattern = cons(Var(X), WILDCARD)
    s = MatchingState(((pattern, INT_LIST, VList.of((4, 5))),), ())
    envs = process_matching_states_all([s])
    assert [dict(e) for e in envs] == [{X: 4}]
    assert dict(process_matching_states_first([s])) == {X: 4}
    empty = MatchingState(((pattern, INT_LIST, VList.of(())),), ())
    assert process_matching_states_all([empty]) == []
    assert process_matching_states_first([empty]) is None
    assert dict(process_matching_states_first([empty, s])) == {X: 4}


def test_state_apis_validate_a_state_as_match_all_validates_a_pattern():
    # (cons x x) binds x twice, and so does (cons x _) in a state whose env
    # binds x: each state API raises, as match_all and gen_match_results do
    t = VList.of((1, 2))
    twice = cons(Var(X), Var(X))
    states = [
        MatchingState(((twice, INT_LIST, t),), ()),
        MatchingState(((cons(Var(X), WILDCARD), INT_LIST, t),), ((X, 0),)),
    ]
    apis = (process_matching_state, lambda s: process_matching_states_all([s]),
            lambda s: process_matching_states_first([s]))
    for s in states:
        for api in apis:
            with pytest.raises(ValidationError, match="variable 'x' bound more than once"):
                api(s)
    with pytest.raises(ValidationError):
        gen_match_results(twice, INT_LIST, t)
    with pytest.raises(ValidationError):
        match_all(t, INT_LIST, [MatchClause(twice, lambda a, b: a)])


def test_a_state_value_pattern_may_read_its_env():
    # a name the env binds counts as bound: its value pattern steps and
    # searches as it did before states were validated
    head, y = vp_of(X), Var(Y)
    for x, found in ((4, True), (3, False)):
        s = MatchingState(((cons(head, y), INT_LIST, VList.of((4, 5))),), ((X, x),))
        [after] = process_matching_state(s)
        rest = ((y, INT_LIST, VList.of((5,))),)
        assert after == MatchingState(((head, integer_matcher(), 4),) + rest, ((X, x),))
        assert process_matching_state(after) == ([MatchingState(rest, ((X, x),))] if found else [])
        want = ((X, 4), (Y, VList.of((5,))))
        assert process_matching_states_all([s]) == ([want] if found else [])
        assert process_matching_states_first([s]) == (want if found else None)


def test_a_value_pattern_gets_its_refs_only_from_every_api():
    # the reference step runs on pair envs, the searches on slot envs; a
    # value-pattern function gets the same pair env of its refs from both
    seen = []

    def x_again(env):
        seen.append(env)
        return env_get(env, X)

    p = cons(Var(Y), cons(Var(X), cons(ValuePattern(x_again, (X,)), WILDCARD)))
    state = MatchingState(((p, INT_LIST, VList.of((5, 1, 1))),), ())
    while state.stack:
        [state] = process_matching_state(state)
    assert seen == [((X, 1),)]
    del seen[:]
    assert match_all(VList.of((5, 1, 1)), INT_LIST, [MatchClause(p, lambda y, x: x)]) == [1]
    assert seen == [((X, 1),)]


def test_one_step_over_not_runs_its_subsearch():
    # a not atom is dropped when its pattern has no match, and leaves no
    # successor when it has one; its pattern reads the state's bindings,
    # and a binder inside it shadows them
    plus1 = ValuePattern(lambda env: env_get(env, X) + 1, (X,))
    cases = [
        (Not(cons(vp_of(X), WILDCARD)), lambda xs, x: not (xs and xs[0] == x)),
        (Not(cons(Var(X), cons(plus1, WILDCARD))),
         lambda xs, x: not (len(xs) > 1 and xs[1] == xs[0] + 1)),
    ]
    rest = ((Var(Y), SOMETHING, "r"),)
    for p, holds in cases:
        for xs in ((), (1,), (2, 3), (1, 2), (3, 1), (2, 2)):
            for x in (1, 2):
                s = MatchingState(((p, INT_LIST, VList.of(xs)),) + rest, ((X, x),))
                want = [MatchingState(rest, ((X, x),))] if holds(xs, x) else []
                assert process_matching_state(s) == want


def test_tuple_value_pattern_against_tuple_matcher():
    # ,v against a pair: v must be a tuple (or list) of the pair's arity,
    # equal item by item under the item matchers
    pair = tuple_matcher((integer_matcher(), INT_LIST))
    target = VTuple((1, VList.of((2, 3))))
    values = [
        VTuple((1, VList.of((2, 3)))),  # equal
        VList.of((1, VList.of((2, 3)))),  # equal, as a list
        VTuple((1, VList.of((3, 2)))),  # unequal
        VTuple((2, VList.of((2, 3)))),  # unequal
        VTuple((1,)),  # wrong arity
        VTuple((1, VList.of((2, 3)), 4)),  # wrong arity
        5,  # not a tuple
    ]
    for v in values:
        items = v.items if type(v) is VTuple else tuple(v) if type(v) is VList else None
        want = ["hit"] if items == (1, VList.of((2, 3))) else []
        clause = MatchClause(const_value_pattern(v), lambda: "hit")
        assert match_all(target, pair, [clause]) == want


def test_join_with_a_prefix_over_a_lazy_sequence():
    # every split of a finite lazy sequence, in order, then the end
    xs = (4, 5, 6)
    clause = MatchClause(join(Var(X), Var(Y)), lambda x, y: (tuple(x), tuple(y)))
    got = match_all(lazyseq_from_iter(iter(xs)), INT_LIST, [clause])
    assert got == [(xs[:k], xs[k:]) for k in range(len(xs) + 1)]
    # over an infinite one, the fair search takes the reference's order
    p = join(Var(Y), cons(Var(X), cons(vp_of(X), WILDCARD)))
    naturals = lazyseq_from_iter(i // 2 for i in count(0))
    clause = MatchClause(p, lambda y, x: (len(y), x))
    got = list(islice(stream_match_all(naturals, INT_LIST, clause), 5))
    assert got == [(2 * i, i) for i in range(5)]
    assert got == [(len(y), x) for y, x in islice(_dovetailed(p, INT_LIST, naturals), 5)]


def test_matching_atom_shape():
    # a matching atom is a plain (pattern, matcher, target) triple
    a = (Var(X), SOMETHING, 1)
    assert process_matching_state(MatchingState((a,), ())) == [MatchingState((), ((X, 1),))]


# --- Streaming over infinite targets ---


def test_stream_enumerates_infinite_target_fairly():
    p = join(WILDCARD, cons(Var(X), WILDCARD))
    naturals = lazyseq_from_iter(count(1))
    clause = MatchClause(p, lambda x: x)
    got = list(islice(stream_match_all(naturals, INT_LIST, clause), 20))
    assert got == list(range(1, 21))


def test_stream_skips_dead_branches():
    # every element equal to 2, drawn from an infinite stream: the search
    # must keep yielding even though most branches fail
    p = join(WILDCARD, cons(And((const_value_pattern(2), Var(X))), WILDCARD))
    src = lazyseq_from_iter(x % 3 for x in count(0))
    clause = MatchClause(p, lambda x: x)
    got = list(islice(stream_match_all(src, INT_LIST, clause), 5))
    assert got == [2, 2, 2, 2, 2]


# --- Value patterns against Eq, Integer, List and Multiset are decided by
# their equal in the engine, without a matcher call; the searches must
# still give _step's results, order, multiplicity and errors, also with
# non-integer elements and an extension element matcher that is called
# every time.


def _dovetailed(pattern, matcher, t):
    # the reference fair search's results, as body argument vectors
    names = extract_pattern_variables(pattern)
    for env in reference_dovetail(((pattern, matcher, t),), ()):
        yield tuple(env_get(env, n) for n in names)


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(135286)
@example(173309)
@example(219807)
def test_scalar_value_patterns_match_reference_search(seed):
    rng = random.Random(seed)
    pattern, matcher, kind, target = gen_scalar_instance(rng, logical=rng.random() < 0.3)
    t = VList.of(target)
    names = extract_pattern_variables(pattern)

    def reference():
        for env in _reference_search(((pattern, matcher, t),), ()):
            yield tuple(env_get(env, n) for n in names)

    clause = MatchClause(pattern, lambda *a: a)
    want = _outcome(reference)
    assert _outcome(lambda: match_all(t, matcher, [clause])) == want
    first = _outcome(lambda: [match_first(t, matcher, [clause])])
    assert first == _outcome(lambda: islice(chain(reference(), [None]), 1))
    # the fair search may meet another branch's error first: its order and
    # first error are the reference dovetail's
    streamed = _outcome(lambda: stream_match_all(t, matcher, clause))
    assert streamed == _outcome(lambda: _dovetailed(pattern, matcher, t))
    if want[0] == "ok":
        assert sorted(map(repr, streamed[1])) == sorted(map(repr, want[1]))


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_stream_order_matches_reference_dovetail(seed, scalar):
    rng = random.Random(seed)
    gen = gen_scalar_instance if scalar else gen_ref_instance
    pattern, matcher, kind, target = gen(rng, logical=True)
    t = VList.of(target)
    clause = MatchClause(pattern, lambda *a: a)
    want = _outcome(lambda: _dovetailed(pattern, matcher, t))
    assert _outcome(lambda: stream_match_all(t, matcher, clause)) == want


XS, R = Symbol("xs"), Symbol("r")


def _nested_element(rng):
    # mostly a short list of small integers; now and then a symbol or an
    # integer where a list belongs, or a symbol inside a list
    roll = rng.random()
    if roll < 0.05:
        return Symbol("a")
    if roll < 0.1:
        return rng.randint(0, 2)
    items = [rng.randint(0, 2) for _ in range(rng.randint(0, 2))]
    if items and rng.random() < 0.05:
        items[0] = Symbol("b")
    return VList.of(tuple(items))


def _reordered(rng, x):
    return VList.of(tuple(rng.sample(tuple(x), len(x)))) if type(x) is VList else x


def gen_nested_instance(rng):
    """A (Multiset (List Integer)) or (Multiset (Multiset Integer)) match with
    a known head (cons ,xs _) or a whole value ,v, and its target."""
    inner = rng.choice((
        list_matcher(integer_matcher()),
        multiset_matcher(integer_matcher()),
        multiset_matcher(integer_matcher(), optimized=False),
    ))
    target = [_nested_element(rng) for _ in range(rng.randint(0, 5))]
    whole = [_reordered(rng, x) if rng.random() < 0.5 else x for x in target]
    rng.shuffle(whole)
    if whole and rng.random() < 0.3:
        whole[rng.randrange(len(whole))] = _nested_element(rng)
    if target and rng.random() < 0.7:
        head = _reordered(rng, rng.choice(target))
    else:
        head = _nested_element(rng)
    head, whole = const_value_pattern(head), VList.of(tuple(whole))
    rest = ValuePattern(lambda env: suffix_view(whole, 1 if len(whole) else 0), (XS,))
    pattern = rng.choice((
        cons(Var(XS), cons(vp_of(XS), WILDCARD)),
        cons(Var(XS), cons(vp_of(XS), Var(R))),
        cons(head, WILDCARD),
        cons(head, Var(R)),
        cons(head, cons(Var(XS), WILDCARD)),
        const_value_pattern(whole),
        cons(Var(XS), rest),
    ))
    return pattern, multiset_matcher(inner), VList.of(tuple(target))


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nested_value_patterns_match_reference_search(seed):
    rng = random.Random(seed)
    pattern, matcher, t = gen_nested_instance(rng)
    names = extract_pattern_variables(pattern)

    def reference():
        for env in _reference_search(((pattern, matcher, t),), ()):
            yield tuple(env_get(env, n) for n in names)

    clause = MatchClause(pattern, lambda *a: a)
    want = _outcome(reference)
    assert _outcome(lambda: match_all(t, matcher, [clause])) == want
    first = _outcome(lambda: [match_first(t, matcher, [clause])])
    assert first == _outcome(lambda: islice(chain(reference(), [None]), 1))
    streamed = _outcome(lambda: stream_match_all(t, matcher, clause))
    if want[0] == "ok":
        assert sorted(map(repr, streamed[1])) == sorted(map(repr, want[1]))
    else:
        assert streamed[:2] == want[:2]


def test_builtins_but_tuple_and_something_decide_value_patterns():
    deciders = (
        eq_matcher(),
        integer_matcher(),
        INT_LIST,
        multiset_matcher(integer_matcher()),
        multiset_matcher(integer_matcher(), optimized=False),
    )
    assert all(m.equal is not None for m in deciders)
    others = (
        SOMETHING,
        tuple_matcher((integer_matcher(), INT_LIST)),
        SHIFTED,
        Matcher(_shifted_fn, "(Shifted)"),
    )
    assert all(m.equal is None for m in others)
    calls = []

    def counted(p, t):
        calls.append(type(p))
        return _shifted_fn(p, t)

    ext = register_matcher_extension(counted, "(Counted)")
    clause = MatchClause(const_value_pattern(3), lambda: "hit")
    assert match_all(2, ext, [clause]) == ["hit"]
    assert calls == [ValuePattern]
    v = ValuePattern(lambda env: env_get(env, X) + 1, (X,))
    clause = MatchClause(cons(Var(X), cons(v, WILDCARD)), lambda x: x)
    del calls[:]
    assert match_all(VList.of((1, 2, 4)), multiset_matcher(ext), [clause]) == [2]
    assert calls.count(ValuePattern) == 6


# --- Patterns nested deeper than the host stack extract, validate, compile
# and match, under the default recursion limit

DEEP = 10**4


def _nested(wrap, p):
    for _ in range(DEEP):
        p = wrap(p)
    return p


def _deep_tuple():
    matcher, target = integer_matcher(), 7
    for _ in range(DEEP):
        matcher, target = tuple_matcher((matcher,)), VTuple((target,))
    return _nested(lambda p: TuplePattern((p,)), Var(X)), matcher, target, [7]


DEEP_CASES = {
    # each and level also reads x, bound at the bottom
    "and": lambda: (_nested(lambda p: And((p, vp_of(X))), Var(X)), integer_matcher(), 7, [7]),
    "later": lambda: (_nested(Later, Var(X)), integer_matcher(), 7, [7]),
    # or in the first branch, and in the last
    "or": lambda: (
        _nested(lambda p: Or((p, Var(X))), Var(X)), integer_matcher(), 7, [7] * (DEEP + 1)),
    "or-last": lambda: (
        _nested(lambda p: Or((Var(X), p)), Var(X)), integer_matcher(), 7, [7] * (DEEP + 1)),
    "cons": lambda: (
        _nested(lambda p: cons(WILDCARD, p), cons(Var(X), WILDCARD)),
        INT_LIST, VList.of(tuple(range(DEEP + 3))), [DEEP]),
    "tuple": _deep_tuple,
}


@pytest.mark.parametrize("shape", sorted(DEEP_CASES))
def test_patterns_nested_deeper_than_the_host_stack(shape):
    pattern, matcher, target, want = DEEP_CASES[shape]()
    assert sys.getrecursionlimit() <= 1000
    assert extract_pattern_variables(pattern) == (X,)
    validate_pattern(pattern)
    clause = MatchClause(pattern, lambda x: x)
    assert match_all(target, matcher, [clause]) == want
    assert match_first(target, matcher, [clause]) == want[0]
    assert sorted(stream_match_all(target, matcher, clause)) == want


# each user of values.fold at depth 10^4: a pair (got, want)
_DEEP_TEXT = "(" * DEEP + "1" + ")" * DEEP
FOLD_USERS = {
    "hash": lambda: (
        hash(parse_value(_DEEP_TEXT)), hash(VList.of((parse_value(_DEEP_TEXT)[0],)))),
    "parse_value": lambda: (print_value(parse_value(_DEEP_TEXT)), _DEEP_TEXT),
    "python bridges": lambda: (
        print_value(from_python(to_python(parse_value(_DEEP_TEXT)))), _DEEP_TEXT),
    "compile not": lambda: (
        repr(engine.compile_pattern(_nested(Not, Var(X)))), "(not " * DEEP + "x" + ")" * DEEP),
    "compile later": lambda: (
        repr(engine.compile_pattern(_nested(Later, Var(X)))), "(later " * DEEP + "x" + ")" * DEEP),
    "pattern printer": lambda: (
        repr(_nested(lambda p: Or((p, Var(X))), WILDCARD)), "(or " * DEEP + "_" + " x)" * DEEP),
}


@pytest.mark.parametrize("user", sorted(FOLD_USERS))
def test_fold_users_ten_thousand_deep(user):
    assert sys.getrecursionlimit() <= 1000
    got, want = FOLD_USERS[user]()
    assert got == want


def _compile_work(depth: int) -> int:
    # bytecodes run compiling (cons x (cons ,x (cons ,x ... _))), depth ,x deep
    p = WILDCARD
    for _ in range(depth):
        p = cons(vp_of(X), p)
    p = cons(Var(X), p)
    ops = 0

    def count(frame, event, arg):
        nonlocal ops
        frame.f_trace_opcodes = True
        ops += event == "opcode"
        return count

    old = sys.gettrace()
    sys.settrace(count)
    try:
        c = engine.compile_pattern(p)
    finally:
        sys.settrace(old)
    assert c.args[1].hoist == (0,)  # each ,x reads the x bound above it
    return ops


def test_compiling_a_chain_of_hoisting_constructors_does_linear_work():
    work = {n: _compile_work(n) for n in (1000, 2000)}
    assert work[2000] <= 2.2 * work[1000], work


# --- match_all as map at the leaves ---
#
# An optimized multiset cons with a wildcard tail over two or more elements
# returns an Each. When it is the last atom and binds the next slot, both
# searches take its results without a _reduce call per target; the orders
# below, over the multiset (0 1 ... n-1), are those of the search that made
# a _reduce call per result.

INT = integer_matcher()

LEAF_PATTERNS = {
    "pairs": cons(Var(X), cons(Var(Y), WILDCARD)),
    "triples": cons(Var(X), cons(Var(Y), cons(Var(Z), WILDCARD))),
    # an Each with an atom after it
    "and": And((cons(Var(X), WILDCARD), cons(Var(Y), WILDCARD))),
    # an Each whose variable binds out of order
    "later": And((Later(cons(Var(X), WILDCARD)), cons(Var(Y), WILDCARD))),
    # a branch through a one-element list beside one through none
    "or": Or((And((cons(Var(X), WILDCARD), cons(Var(Y), WILDCARD))),
              cons(Var(X), cons(Var(Y), WILDCARD)))),
}

# (pattern, n): (strict order, fair order), each result as its digits
LEAF_ORDERS = {
    ("pairs", 0): ("", ""),
    ("pairs", 1): ("", ""),
    ("pairs", 2): ("01 10", "01 10"),
    ("pairs", 4): ("01 02 03 10 12 13 20 21 23 30 31 32", "01 02 10 03 12 20 13 21 30 23 31 32"),
    ("triples", 0): ("", ""),
    ("triples", 1): ("", ""),
    ("triples", 2): ("", ""),
    ("triples", 4): (
        "012 013 021 023 031 032 102 103 120 123 130 132 "
        "201 203 210 213 230 231 301 302 310 312 320 321",
        "012 013 021 102 023 031 103 120 201 032 123 130 "
        "203 210 301 132 213 230 302 310 231 312 320 321",
    ),
    ("and", 2): ("00 01 10 11", "00 01 10 11"),
    ("and", 3): ("00 01 02 10 11 12 20 21 22", "00 01 10 02 11 20 12 21 22"),
    ("later", 2): ("00 10 01 11", "00 10 01 11"),
    ("later", 3): ("00 10 20 01 11 21 02 12 22", "00 10 01 20 11 02 21 12 22"),
    ("or", 2): ("00 01 10 11 01 10", "00 01 01 10 10 11"),
    ("or", 3): (
        "00 01 02 10 11 12 20 21 22 01 02 10 12 20 21",
        "00 01 10 01 02 11 20 02 10 12 21 12 20 22 21",
    ),
}


@pytest.mark.parametrize("element", [integer_matcher(), SOMETHING], ids=["Integer", "Something"])
@pytest.mark.parametrize("name, n", sorted(LEAF_ORDERS))
def test_leaf_batches_keep_the_result_order(element, name, n):
    ms = multiset_matcher(element)
    clause = MatchClause(LEAF_PATTERNS[name], lambda *a: "".join(map(str, a)))
    t = VList.of(range(n))
    strict, fair = LEAF_ORDERS[name, n]
    assert " ".join(match_all(t, ms, [clause])) == strict
    assert match_first(t, ms, [clause]) == (strict.split() or [None])[0]
    assert " ".join(stream_match_all(t, ms, clause)) == fair


def test_a_wildcard_tail_cons_returns_each_over_two_or_more_elements():
    ms = multiset_matcher(INT)
    pattern = engine.compile_pattern(cons(Var(X), WILDCARD))
    assert type(ms.fn(pattern, VList.of((4, 5)))) is Each
    # one element or none: a list, which _reduce follows or drops at once
    assert ms.fn(pattern, VList.of((4,))) == [((pattern.args[0], INT, 4),)]
    assert ms.fn(pattern, VList.of(())) == []


def _reduce_calls(monkeypatch, n, search, pattern) -> int:
    calls = 0
    reduce = engine._reduce

    def counted(stack, env):
        nonlocal calls
        calls += 1
        return reduce(stack, env)

    monkeypatch.setattr(engine, "_reduce", counted)
    k = len(extract_pattern_variables(pattern))
    got = search(VList.of(range(n)), multiset_matcher(INT), MatchClause(pattern, lambda *a: a))
    monkeypatch.setattr(engine, "_reduce", reduce)
    assert len(got) == math.perm(n, k)
    return calls


@pytest.mark.parametrize("search, want", [
    # the root's: its chain of variables is one batch of n * (n - 1) results
    (lambda t, m, c: match_all(t, m, [c]), {20: 1, 40: 1}),
    # one for the root and one per x: the n - 1 results for each x are a leaf batch
    (lambda t, m, c: list(stream_match_all(t, m, c)), {20: 21, 40: 41}),
], ids=["strict", "fair"])
def test_pairs_take_a_reduction_per_first_element_not_per_result(monkeypatch, search, want):
    pattern = LEAF_PATTERNS["pairs"]
    assert {n: _reduce_calls(monkeypatch, n, search, pattern) for n in (20, 40)} == want


@pytest.mark.parametrize("search, want", [
    # the root's, as for pairs: n * (n - 1) * (n - 2) results in one batch
    (lambda t, m, c: match_all(t, m, [c]), {10: 1, 20: 1}),
    # the root's, one per x and one per (x, y): each (x, y) ends in a leaf batch
    (lambda t, m, c: list(stream_match_all(t, m, c)), {10: 101, 20: 401}),
], ids=["strict", "fair"])
def test_triples_take_one_strict_reduction(monkeypatch, search, want):
    pattern = LEAF_PATTERNS["triples"]
    assert {n: _reduce_calls(monkeypatch, n, search, pattern) for n in (10, 20)} == want


def test_a_chain_of_variables_is_one_reiterable_enumeration():
    ms = multiset_matcher(INT)
    pattern = engine.compile_pattern(LEAF_PATTERNS["triples"])
    x, tail = pattern.args
    choose = ms.fn(pattern, VList.of((4, 5, 4)))
    assert type(choose) is Choose
    # each element against x and its drop-one remainder against the tail,
    # as the nested cons enumerates them, every time it is iterated
    want = [
        ((x, INT, 4), (tail, ms, VList.of((5, 4)))),
        ((x, INT, 5), (tail, ms, VList.of((4, 4)))),
        ((x, INT, 4), (tail, ms, VList.of((4, 5)))),
    ]
    assert list(choose) == want
    assert list(choose) == want
    # one element: a list, which _reduce follows at once; a head that is not
    # a variable: the nested enumeration
    assert type(ms.fn(pattern, VList.of((4,)))) is list
    known = engine.compile_pattern(cons(Var(X), cons(vp_of(X), WILDCARD)))
    assert type(ms.fn(known, VList.of((4, 5)))) is not Choose


def _chain_of(names):
    p = WILDCARD
    for n in reversed(names):
        p = cons(Var(n), p)
    return p


def _second_first(ms):
    # a pair matcher that emits its second atom first
    def fn(p, t):
        if type(p) is TuplePattern:
            return [((p.args[1], INT, t[1]), (p.args[0], ms, t[0]))]
        return [((p, SOMETHING, t),)]

    return Matcher(fn, "(SecondFirst)")


# where a chain of variables stands: the whole pattern; before another atom;
# the last atom but after a binder of a later slot; under a not whose
# variables take the next slots, and under one whose variables come after a
# later binder's slot
_CHAIN_PLACES = {
    "whole": lambda c, ms, t: (c, ms, t),
    "after-a-later-slot": lambda c, ms, t: (
        TuplePattern([c, Var(Z)]), _second_first(ms), VTuple((t, 7))),
    "before-an-atom": lambda c, ms, t: (
        TuplePattern([c, Var(Z)]), tuple_matcher([ms, INT]), VTuple((t, 7))),
    "under-not": lambda c, ms, t: (
        TuplePattern([Var(Z), Not(c)]), tuple_matcher([INT, ms]), VTuple((7, t))),
    "under-not-first": lambda c, ms, t: (
        TuplePattern([Not(c), Var(Z)]), tuple_matcher([ms, INT]), VTuple((t, 7))),
}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 3), max_size=6),
    st.integers(2, 4),
    st.sampled_from(["Integer", "Something", "Shifted"]),
    st.sampled_from(sorted(_CHAIN_PLACES)),
)
def test_a_chain_of_variables_matches_the_reference_searches(elems, k, element, place):
    m = {"Integer": INT, "Something": SOMETHING, "Shifted": SHIFTED}[element]
    chain_p = _chain_of([Symbol(f"v{i}") for i in range(k)])
    pattern, matcher, target = _CHAIN_PLACES[place](chain_p, multiset_matcher(m), VList.of(elems))
    start = ((pattern, matcher, target),)
    reference = list(_reference_search(start, ()))
    names = extract_pattern_variables(pattern)
    vectors = [tuple(env_get(env, n) for n in names) for env in reference]
    clause = MatchClause(pattern, lambda *a: a)
    assert match_all(target, matcher, [clause]) == vectors
    assert match_first(target, matcher, [clause]) == (vectors or [None])[0]
    # bindings in extraction order, not in the order they were made
    assert [dict(e) for e in process_matching_states_all([MatchingState(start, ())])] == [
        dict(e) for e in reference
    ]
    assert list(stream_match_all(target, matcher, clause)) == list(
        _dovetailed(pattern, matcher, target)
    )


PICK = Symbol("pick")


def _pick(m, each: bool):
    # (pick x): each element of the target as x, matched by m; as an Each
    # or as the list of the same atoms
    def fn(p, t):
        if type(p) is Constructor:
            return Each(p.args[0], m, t) if each else [((p.args[0], m, e),) for e in t]
        return [((p, SOMETHING, t),)]

    return fn


@pytest.mark.parametrize("wrap", [
    lambda fn: Matcher(fn, "(Pick)"),
    lambda fn: register_matcher_extension(fn, "(Pick)"),
], ids=["Matcher", "registered"])
def test_an_each_from_an_extension_is_an_ordinary_enumeration(wrap):
    t = VList.of((1, 2, 3))
    pick_x = Constructor(PICK, (Var(X),))
    cases = [
        # a final Each binding the next slot: a leaf batch
        (INT, wrap, pick_x, t, [(1,), (2,), (3,)]),
        # the extension SHIFTED, not the engine, decides what x gets
        (SHIFTED, wrap, pick_x, t, [(2,), (3,), (4,)]),
        # an Each with an atom after it
        (INT, lambda fn: tuple_matcher([wrap(fn), INT]), TuplePattern([pick_x, Var(Y)]),
         VTuple((t, 7)), [(1, 7), (2, 7), (3, 7)]),
    ]
    for m, matcher_of, pattern, target, want in cases:
        clause = MatchClause(pattern, lambda *a: a)
        for each in (False, True):
            matcher = matcher_of(_pick(m, each))
            assert match_all(target, matcher, [clause]) == want
            assert match_first(target, matcher, [clause]) == want[0]
            assert list(stream_match_all(target, matcher, clause)) == want


def test_one_step_over_an_each_gives_its_atoms_as_successors():
    ms = multiset_matcher(INT)
    x = Var(X)
    s = MatchingState(((cons(x, WILDCARD), ms, VList.of((4, 5, 6))),), ((Y, 1),))
    succ = process_matching_state(s)
    assert succ == [MatchingState(((x, INT, k),), ((Y, 1),)) for k in (4, 5, 6)]
    assert list(Each(x, INT, (4, 5))) == [((x, INT, 4),), ((x, INT, 5),)]


# --- A last Each of a value pattern against a matcher with an equal is a
# value batch: the depth-first search tests its targets in one pass, the
# value computed once; the fair search still draws one atom per round.


def _counting(monkeypatch, owner, attr):
    # owner.attr wrapped to count its calls; returns the count list
    calls = []
    fn = getattr(owner, attr)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_a_value_batch_computes_its_value_once_and_stops_at_the_first_hit(monkeypatch):
    batches = _counting(monkeypatch, engine, "_hits")
    equal_calls = _counting(monkeypatch, INT, "equal")
    evals = []

    def x_again(env):
        evals.append(env)
        return env_get(env, X)

    member = join(WILDCARD, cons(ValuePattern(x_again, (X,)), WILDCARD))
    t = VList.of((1, 2, 1, 3, 1))
    # x = 1, then ,x against each of (2 1 3 1): one batch, one evaluation
    clause = MatchClause(cons(Var(X), member), lambda x: x)
    assert match_all(t, INT_LIST, [clause]) == [1, 1]
    assert (len(batches), len(evals), len(equal_calls)) == (1, 1, 4)
    # the not's subsearch ends at the first hit, (2 1): two equal calls
    del batches[:], evals[:], equal_calls[:]
    clause = MatchClause(cons(Var(X), Not(member)), lambda x: x)
    assert match_all(t, INT_LIST, [clause]) == []
    assert (len(batches), len(evals), len(equal_calls)) == (1, 1, 2)
    # the fair search draws an atom per round and evaluates it there
    del evals[:], equal_calls[:]
    clause = MatchClause(cons(Var(X), member), lambda x: x)
    assert list(stream_match_all(t, INT_LIST, clause)) == [1, 1]
    assert (len(evals), len(equal_calls)) == (4, 4)


def test_the_fair_search_gives_each_target_of_a_value_batch_a_round():
    # dead ends keep their rounds: drawing only the hits would give
    # 1 1 2 1 2 1 1 2 1
    pattern = join(WILDCARD, cons(Var(X), join(WILDCARD, cons(vp_of(X), WILDCARD))))
    t = VList.of((1, 2, 1, 2, 1, 3, 2, 1))
    got = list(stream_match_all(t, INT_LIST, MatchClause(pattern, lambda x: x)))
    assert got == [1, 2, 1, 1, 2, 2, 1, 1, 1]
    assert got == [x for x, in _dovetailed(pattern, INT_LIST, t)]


def test_a_value_batch_over_no_targets_never_computes_its_value(monkeypatch):
    batches = _counting(monkeypatch, engine, "_hits")
    evals = []

    def seven(env):
        evals.append(env)
        return 7

    pick = Matcher(_pick(INT, True), "(Pick)")
    clause = MatchClause(Constructor(PICK, (ValuePattern(seven, ()),)), lambda: "hit")
    for search in (match_all, match_first):
        assert search(VList.of(()), pick, [clause]) in ([], None)
    assert list(stream_match_all(VList.of(()), pick, clause)) == []
    assert len(batches) == 3 and evals == []
    # bound at its dispatch, the value is computed once for three targets
    assert match_all(VList.of((7, 8, 7)), pick, [clause]) == ["hit", "hit"]
    assert len(evals) == 1


def test_a_value_batch_raises_at_the_element_step_raises_at(monkeypatch):
    equal_calls = _counting(monkeypatch, INT, "equal")
    p = engine.compile_pattern(join(WILDCARD, cons(const_value_pattern(2), WILDCARD)))
    start = ((p, INT_LIST, VList.of((1, 2, Symbol("a"), 2))),)

    def drained(results):
        out = []
        try:
            for env in results:
                out.append(env)
        except TypeError as err:
            return out, str(err)
        return out, None

    got = drained(engine._dfs(start, ()))
    assert got == drained(_reference_search(start, ()))
    assert got == ([()], "integer matcher compared a value against non-integer target a")
    assert len(equal_calls) == 3


def test_an_extension_element_matcher_keeps_an_atom_per_target(monkeypatch):
    batches = _counting(monkeypatch, engine, "_hits")
    calls = _counting(monkeypatch, INT_LIKE, "fn")
    clause = MatchClause(cons(Var(X), Not(join(WILDCARD, cons(vp_of(X), WILDCARD)))),
                         lambda x: x)
    assert match_all(VList.of((3, 1, 3, 5)), list_matcher(INT_LIKE), [clause]) == []
    # the call that binds x = 3, then one per atom of ,x: against 1, then 3
    assert batches == [] and [args[1] for args in calls] == [3, 1, 3]
    assert [type(args[0]) for args in calls[1:]] == [ValuePattern, ValuePattern]


def test_the_differential_generators_reach_the_value_batch(monkeypatch):
    # the instances of test_scalar_value_patterns_match_reference_search
    # and test_stream_order_matches_reference_dovetail, over fixed seeds
    batches = _counting(monkeypatch, engine, "_hits")
    reached = {}
    for name in ("scalar", "stream-scalar", "stream-ref"):
        reached[name] = 0
        for seed in range(600):
            rng = random.Random(seed)
            if name == "scalar":
                pattern, matcher, _, target = gen_scalar_instance(rng, rng.random() < 0.3)
            else:
                gen = gen_scalar_instance if name == "stream-scalar" else gen_ref_instance
                pattern, matcher, _, target = gen(rng, logical=True)
            t = VList.of(target)
            clause = MatchClause(pattern, lambda *a: a)
            del batches[:]
            _outcome(lambda: match_all(t, matcher, [clause]))
            _outcome(lambda: stream_match_all(t, matcher, clause))
            reached[name] += bool(batches)
    assert min(reached.values()) >= 5, reached


def test_instance_generators_do_not_depend_on_the_hash_seed():
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.dirname(os.path.dirname(engine.__file__))
    script = (
        "import random\n"
        "from helpers import gen_ref_instance, gen_scalar_instance\n"
        "for seed in range(3000):\n"
        "    print(repr(gen_ref_instance(random.Random(seed), logical=True)))\n"
        "    print(repr(gen_scalar_instance(random.Random(seed), logical=True)))\n"
    )
    outs = [
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join((src_dir, tests_dir)),
                 "PYTHONHASHSEED": hash_seed},
        )
        for hash_seed in ("0", "1")
    ]
    assert [o.returncode for o in outs] == [0, 0], outs[0].stderr
    assert outs[0].stdout == outs[1].stdout


# --- (join _ (cons p q)): the List matcher gives each element and the
# suffix after it in one call, where the join gave every split and the
# cons was dispatched on each. The tables below were taken from that
# two-step form: the results and their order in each search, the error a
# search stops at, and the cells a lazy target is forced to.

SOMEWHERE = {
    "each": join(WILDCARD, cons(Var(X), WILDCARD)),
    "twin": join(WILDCARD, cons(Var(X), cons(ValuePattern(
        lambda env: env_get(env, X) + 2, (X,)), WILDCARD))),
    "rest": join(WILDCARD, cons(Var(X), Var(Y))),
    "pairs": join(WILDCARD, cons(Var(X), join(WILDCARD, cons(Var(Y), WILDCARD)))),
    "unique-not": join(WILDCARD, cons(Var(X), Not(join(WILDCARD, cons(vp_of(X), WILDCARD))))),
    "unique-later": join(Later(Not(join(WILDCARD, cons(vp_of(X), WILDCARD)))),
                         cons(Var(X), WILDCARD)),
}
SOMEWHERE_TARGET = (3, 1, 3, 5)

# (pattern, element matcher): the strict results over SOMEWHERE_TARGET[:n]
# for n = 0..4, each as x or x/y, and ", !E" where the search raises E.
# "raising" is Integer over a lazy target whose producer raises after its
# n elements (n = 1..4).
SOMEWHERE_STRICT = {
    ("each", "Integer"): ["", "3", "3, 1", "3, 1, 3", "3, 1, 3, 5"],
    ("each", "Something"): ["", "3", "3, 1", "3, 1, 3", "3, 1, 3, 5"],
    ("each", "raising"): ["!ValueError", "3, !ValueError", "3, 1, !ValueError",
                          "3, 1, 3, !ValueError"],
    ("twin", "Integer"): ["", "", "", "1", "1, 3"],
    ("twin", "Something"): ["", "", "!MatchError", "!MatchError", "!MatchError"],
    ("twin", "raising"): ["!ValueError", "!ValueError", "!ValueError", "1, !ValueError"],
    ("rest", "Integer"): ["", "3/()", "3/(1), 1/()", "3/(1 3), 1/(3), 3/()",
                          "3/(1 3 5), 1/(3 5), 3/(5), 5/()"],
    ("rest", "Something"): ["", "3/()", "3/(1), 1/()", "3/(1 3), 1/(3), 3/()",
                            "3/(1 3 5), 1/(3 5), 3/(5), 5/()"],
    ("rest", "raising"): ["!ValueError", "3/?, !ValueError", "3/?, 1/?, !ValueError",
                          "3/?, 1/?, 3/?, !ValueError"],
    ("pairs", "Integer"): ["", "", "3/1", "3/1, 3/3, 1/3", "3/1, 3/3, 3/5, 1/3, 1/5, 3/5"],
    ("pairs", "Something"): ["", "", "3/1", "3/1, 3/3, 1/3", "3/1, 3/3, 3/5, 1/3, 1/5, 3/5"],
    ("pairs", "raising"): ["!ValueError", "!ValueError", "3/1, !ValueError",
                           "3/1, 3/3, !ValueError"],
    ("unique-not", "Integer"): ["", "3", "3, 1", "1, 3", "1, 3, 5"],
    ("unique-not", "Something"): ["", "3", "!MatchError", "!MatchError", "!MatchError"],
    ("unique-not", "raising"): ["!ValueError"] * 4,
    ("unique-later", "Integer"): ["", "3", "3, 1", "3, 1", "3, 1, 5"],
    ("unique-later", "Something"): ["", "3", "3, !MatchError", "3, !MatchError",
                                    "3, !MatchError"],
    ("unique-later", "raising"): ["!ValueError", "3, !ValueError", "3, 1, !ValueError",
                                  "3, 1, !ValueError"],
}
# the fair order, where it is not the strict one: the pair whose x comes
# first in the list is not always found first
SOMEWHERE_FAIR = {
    ("pairs", "Integer", 4): "3/1, 3/3, 1/3, 3/5, 1/5, 3/5",
    ("pairs", "Something", 4): "3/1, 3/3, 1/3, 3/5, 1/5, 3/5",
    ("pairs", "raising", 4): "3/1, 3/3, 1/3, !ValueError",
}
SEARCHES = {
    "strict": lambda t, m, c: match_all(t, m, [c]),
    "first": lambda t, m, c: match_first(t, m, [c]),
    "fair": lambda t, m, c: list(islice(stream_match_all(t, m, c), 5000)),
}


def _raising_after(items):
    def produce():
        yield from items
        raise ValueError("producer failed")

    return lazyseq_from_iter(produce())


def _shown(v) -> str:
    # a suffix of a target whose producer raises cannot be printed
    try:
        return print_value(v)
    except ValueError:
        return "?"


def _searched(search, pattern, matcher, t) -> str:
    # the results a search gives, in order, then the error it stops at;
    # printed only once the search is over, so as not to force anything
    got, err = [], ""
    try:
        search(t, matcher, MatchClause(pattern, lambda *a: got.append(a)))
    except Exception as e:
        err = "!" + type(e).__name__
    return ", ".join(["/".join(map(_shown, a)) for a in got] + ([err] if err else []))


@pytest.mark.parametrize("search", sorted(SEARCHES))
@pytest.mark.parametrize("name, element", sorted(SOMEWHERE_STRICT))
def test_somewhere_keeps_results_order_and_errors(name, element, search):
    m = list_matcher(SOMETHING if element == "Something" else INT)
    for n, strict in enumerate(SOMEWHERE_STRICT[name, element], 1 if element == "raising" else 0):
        items = SOMEWHERE_TARGET[:n]
        if search == "strict":
            want = strict
        elif search == "first":
            want = strict.split(", ")[0]
        else:
            want = SOMEWHERE_FAIR.get((name, element, n), strict)
        if element == "raising":
            targets = [_raising_after(items)]
        else:
            targets = [VList.of(items), lazyseq_from_iter(items)]
        for t in targets:
            assert _searched(SEARCHES[search], SOMEWHERE[name], m, t) == want, (n, t)


def test_somewhere_errors_where_the_split_and_cons_did():
    # a target that is not a sequence: the join's TypeError
    with pytest.raises(TypeError, match="list matcher applied to int"):
        match_all(5, INT_LIST, [MatchClause(SOMEWHERE["each"], lambda x: x)])
    # a cons of three arguments: its ArityMismatch, after the results before it
    cons3 = join(WILDCARD, Constructor(CONS, (Var(X), WILDCARD, WILDCARD)))
    p = Or((SOMEWHERE["each"], cons3))
    want = {"strict": "1, 2, !ArityMismatch", "first": "1", "fair": "1, 2, !ArityMismatch"}
    for name, search in SEARCHES.items():
        for t in (VList.of((1, 2)), lazyseq_from_iter((1, 2))):
            assert _searched(search, p, INT_LIST, t) == want[name]


def _counting_primes():
    forced = [0]

    def produce():
        for p in count(2):
            if is_prime(p):
                forced[0] += 1
                yield p

    return lazyseq_from_iter(produce()), forced


@pytest.mark.parametrize("take, want", [
    (twin_primes, [4, 5, 12, 54]),
    (prime_triplets, [6, 7, 10, 62]),
    (lambda k, s: list(islice(stream_match_all(s, INT_LIST, MatchClause(
        SOMEWHERE["each"], lambda x: x)), k)), [2, 3, 6, 18]),
], ids=["twins", "triplets", "each"])
def test_somewhere_forces_the_cells_it_did(take, want):
    got = []
    for k in (1, 2, 5, 17):
        primes, forced = _counting_primes()
        take(k, primes)
        got.append(forced[0])
    assert got == want


def test_one_step_over_somewhere_gives_each_element_and_its_suffix():
    x, y = Var(X), Var(Y)
    rest = ((Var(Z), SOMETHING, "r"),)
    t = VList.of((4, 5))
    s = MatchingState(((join(WILDCARD, cons(x, y)), INT_LIST, t),) + rest, ((M, 1),))
    assert process_matching_state(s) == [
        MatchingState(((x, INT, 4), (y, INT_LIST, VList.of((5,)))) + rest, ((M, 1),)),
        MatchingState(((x, INT, 5), (y, INT_LIST, VList.of(()))) + rest, ((M, 1),)),
    ]
    # a wildcard tail adds no atom; an empty list has no successor
    s = MatchingState(((join(WILDCARD, cons(x, WILDCARD)), INT_LIST, t),), ())
    assert process_matching_state(s) == [
        MatchingState(((x, INT, 4),), ()), MatchingState(((x, INT, 5),), ())]
    s = MatchingState(((join(WILDCARD, cons(x, WILDCARD)), INT_LIST, VList.of(())),), ())
    assert process_matching_state(s) == []
    # over a lazy sequence, each cell's suffix is its own tail
    lazy = lazyseq_from_iter((4, 5))
    s = MatchingState(((join(WILDCARD, cons(x, y)), INT_LIST, lazy),), ())
    [a, b] = process_matching_state(s)
    assert a.stack[0] == (x, INT, 4) and a.stack[1][2] is lazy.tail()
    assert b.stack[0] == (x, INT, 5) and b.stack[1][2] == VList.of(())


def _rewrite_joins(p, f):
    # a copy of p in which the k-th join in pre-order, of prefix px and
    # suffix py (each rewritten first), has the arguments f(k, px, py)
    k = -1

    def walk(q):
        nonlocal k
        t = type(q)
        if t is Constructor:
            if q.name is not JOIN:
                return Constructor(q.name, [walk(a) for a in q.args])
            k += 1
            i = k
            return Constructor(JOIN, f(i, *[walk(a) for a in q.args]))
        if t is Or or t is And or t is TuplePattern:
            return t([walk(a) for a in q.args])
        if t is Not or t is Later:
            return t(walk(q.arg))
        return q

    return walk(p)


def _wild_prefixed(p):
    # p with each join prefix made _ in turn, unless p is then invalid: a
    # prefix that binds a variable some value pattern reads stays
    joins, wild = [], set()
    _rewrite_joins(p, lambda k, px, py: joins.append(k) or (px, py))
    for k in joins:
        q = _rewrite_joins(p, lambda i, px, py: (WILDCARD if i in wild or i == k else px, py))
        try:
            validate_pattern(q)
        except ValidationError:
            continue
        wild.add(k)
    return _rewrite_joins(p, lambda i, px, py: (WILDCARD if i in wild else px, py))


def _unfused(p):
    # p with each join's cons inside a one-branch and, where the List
    # matcher splits the list and then dispatches the cons on each suffix
    def wrap(k, px, py):
        return px, And((py,)) if type(py) is Constructor and py.name is CONS else py

    return _rewrite_joins(p, wrap)


def _somewhere_instance(seed):
    # the next list instance of one of the three generators that has a
    # (join _ (cons p q)) once every join prefix is made _ where it can be
    rng = random.Random(seed)
    gen = (gen_instance, gen_ref_instance, gen_scalar_instance)[seed % 3]
    while True:
        pattern, matcher, kind, target = (
            gen(rng) if gen is gen_instance else gen(rng, logical=True))
        if kind != "list":
            continue
        pattern, somewhere = _wild_prefixed(pattern), []
        _rewrite_joins(pattern, lambda k, px, py: somewhere.append(
            px is WILDCARD and type(py) is Constructor and py.name is CONS) or (px, py))
        if any(somewhere):
            return pattern, matcher, target


def _printed(outcome):
    # results as printed, so that lazy suffixes of two targets compare
    if outcome[0] != "ok":
        return outcome
    return "ok", [r if r is None else tuple(map(print_value, r)) for r in outcome[1]]


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**32 - 1).map(_somewhere_instance), st.booleans())
@example((SOMEWHERE["pairs"], INT_LIST, (0, 1, 2)), False)
@example((SOMEWHERE["pairs"], INT_LIST, (0, 1, 2)), True)
def test_wildcard_prefix_joins_match_the_unfused_reference_searches(instance, lazy):
    pattern, matcher, target = instance
    unfused = _unfused(pattern)
    names = extract_pattern_variables(pattern)

    def fresh():
        return lazyseq_from_iter(target) if lazy else VList.of(target)

    def reference():
        for env in _reference_search(((unfused, matcher, fresh()),), ()):
            yield tuple(env_get(env, n) for n in names)

    clause = MatchClause(pattern, lambda *a: a)
    want = _printed(_outcome(reference))
    assert _printed(_outcome(lambda: match_all(fresh(), matcher, [clause]))) == want
    first = _printed(_outcome(lambda: [match_first(fresh(), matcher, [clause])]))
    assert first == _printed(_outcome(lambda: islice(chain(reference(), [None]), 1)))
    assert _printed(_outcome(lambda: stream_match_all(fresh(), matcher, clause))) == _printed(
        _outcome(lambda: _dovetailed(unfused, matcher, fresh())))


# --- Which dispatches bind a value pattern to their env: those whose rule
# may share it among decompositions (a Multiset cons, a List join, a List
# cons's tail, which follows its head's branches), not a List cons's head,
# the atom its one decomposition reduces next.


def _bound_copies(monkeypatch) -> list:
    copies = []
    bound_to = ValuePattern.bound_to

    def counted(vp, env):
        if env is not None:
            copies.append(env)
        return bound_to(vp, env)

    monkeypatch.setattr(ValuePattern, "bound_to", counted)
    return copies


@pytest.mark.parametrize("lazy", [False, True])
def test_a_list_cons_head_is_evaluated_at_its_atom_unbound(monkeypatch, lazy):
    copies, calls = _bound_copies(monkeypatch), []
    p = join(WILDCARD, cons(Var(X), cons(_counting_plus(X, 2, calls), WILDCARD)))
    items = (3, 5, 7, 11, 13, 17, 19)
    t = lazyseq_from_iter(items) if lazy else VList.of(items)
    assert match_all(t, INT_LIST, [MatchClause(p, lambda x: x)]) == [3, 5, 11, 17]
    assert len(calls) == 6  # once per element with a successor
    assert copies == []


def test_shared_value_patterns_stay_bound(monkeypatch):
    copies, calls = _bound_copies(monkeypatch), []
    p = cons(Var(X), cons(_counting_plus(X, 1, calls), WILDCARD))
    got = match_all(VList.of((4, 1, 3, 2)), multiset_matcher(INT), [MatchClause(p, lambda x: x)])
    assert got == [1, 3, 2] and len(copies) == len(calls) == 4  # one per dispatch
    # a join shares ,a among its splits, a cons its tail among its head's branches
    a, r = Symbol("a"), Symbol("r")
    shared = ValuePattern(lambda env: calls.append(1) or env_get(env, a), (a,))
    for q, target, want in [
        (join(shared, Var(r)), "[(1 2) (1 2 3 4)]", ["(3 4)"]),
        (cons(Or((WILDCARD, WILDCARD)), shared), "[(2) (1 2)]", ["(2)", "(2)"]),
    ]:
        del copies[:], calls[:]
        p = TuplePattern([Var(a), q])
        got = match_all(parse_value(target), tuple_matcher([INT_LIST, INT_LIST]),
                        [MatchClause(p, lambda *v: print_value(v[-1]))])
        assert got == want and len(copies) == len(calls) == 1


# A List (cons x (cons ,bad _)), bad raising for x >= 3, alone, after a
# join and in an or: the strict results over each target (the fair ones are
# the same) and the error the searches stop at, as when every cons bound it.
BAD_TARGETS = [(), (5,), (5, 6), (1, 2), (1, 2, 3, 4), (0, 1, 2, 3, 1, 2)]
BAD_STRICT = {
    "cons": ["", "", "!ValueError", "1", "1", "0"],
    "somewhere": ["", "", "!ValueError", "1", "1, 2, !ValueError", "0, 1, 2, !ValueError"],
    "or": ["", "5", "5, !ValueError", "1, 1", "1, 1, 2, !ValueError",
           "0, 0, 1, 2, !ValueError"],
}


@pytest.mark.parametrize("search", sorted(SEARCHES))
@pytest.mark.parametrize("name", sorted(BAD_STRICT))
def test_a_raising_list_cons_head_errors_where_it_did(name, search):
    def bad(env):
        x = env_get(env, X)
        if x >= 3:
            raise ValueError(x)
        return x + 1

    inner = cons(Var(X), cons(ValuePattern(bad, (X,)), WILDCARD))
    pattern = {"cons": inner, "somewhere": join(WILDCARD, inner),
               "or": Or((cons(Var(X), WILDCARD), join(WILDCARD, inner)))}[name]
    for items, strict in zip(BAD_TARGETS, BAD_STRICT[name]):
        want = strict.split(", ")[0] if search == "first" else strict
        for t in (VList.of(items), lazyseq_from_iter(items)):
            assert _searched(SEARCHES[search], pattern, INT_LIST, t) == want, (items, t)


# --- The optimized Multiset (cons p nil), for a variable or wildcard p over
# an element matcher that delegates, decides by length: one atom over one
# element, no successor otherwise. Other heads (a value pattern, a
# constructor), a nil with arguments and extension element matchers branch
# per element as before; every search keeps the reference searches'
# results, order and errors, and the naive multiset's results.

NIL_P = Constructor(NIL, ())
NIL_1 = Constructor(NIL, (const_value_pattern(1),))

_UNIT_HEADS = {
    "var": lambda: Var(X),
    "wildcard": lambda: WILDCARD,
    "value": lambda: vp_of(Y),
    "constructor": lambda: cons(Var(X), WILDCARD),
}

# where the unit stands: after a binder of y, alone or as the clause of a
# multiset of multisets ('[y (cons (cons h nil) _)], the unit-clause rule)
_UNIT_PLACES = {
    "alone": lambda u, ms, m, t: (
        TuplePattern([Var(Y), u]), tuple_matcher([m, ms(m)]), VTuple((1, t))),
    "clause": lambda u, ms, m, t: (
        TuplePattern([Var(Y), cons(u, WILDCARD)]), tuple_matcher([m, ms(ms(m))]),
        VTuple((1, VList.of((t, VList.of(tuple(t)[:1]), VList.of(())))))),
}


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 2), max_size=4),
    st.sampled_from(sorted(_UNIT_HEADS)),
    st.sampled_from([NIL_P, NIL_1]),
    st.sampled_from(["Integer", "Something", "Shifted"]),
    st.sampled_from(sorted(_UNIT_PLACES)),
)
def test_a_unit_multiset_matches_the_reference_searches(elems, head, tail, element, place):
    m = {"Integer": INT, "Something": SOMETHING, "Shifted": SHIFTED}[element]
    unit = cons(_UNIT_HEADS[head](), tail)
    place = _UNIT_PLACES[place]
    pattern, matcher, target = place(unit, multiset_matcher, m, VList.of(elems))
    naive = place(unit, lambda e: multiset_matcher(e, optimized=False), m, VList.of(elems))[1]
    names = extract_pattern_variables(pattern)

    def reference():
        for env in _reference_search(((pattern, matcher, target),), ()):
            yield tuple(env_get(env, n) for n in names)

    clause = MatchClause(pattern, lambda *a: a)
    want = _outcome(reference)
    assert _outcome(lambda: match_all(target, matcher, [clause])) == want
    if m.delegates:  # the naive cons hands each element through m's variable rule
        assert _outcome(lambda: match_all(target, naive, [clause])) == want
    assert _outcome(lambda: [match_first(target, matcher, [clause])]) == _outcome(
        lambda: islice(chain(reference(), [None]), 1))
    assert _outcome(lambda: stream_match_all(target, matcher, clause)) == _outcome(
        lambda: _dovetailed(pattern, matcher, target))


def test_a_unit_multiset_of_a_variable_is_one_atom_or_none():
    ms = multiset_matcher(INT)
    x = Var(X)
    for items, want in [((), []), ((4,), [((x, INT, 4),)]), ((4, 5), []), ((4, 4, 4), [])]:
        assert ms.fn(cons(x, NIL_P), VList.of(items)) == want
        s = MatchingState(((cons(x, NIL_P), ms, VList.of(items)),), ())
        assert process_matching_state(s) == [MatchingState(a, ()) for a in want]
    # a head that could fail keeps one branch per element
    assert len(list(ms.fn(cons(const_value_pattern(4), NIL_P), VList.of((4, 4))))) == 2
    assert len(list(multiset_matcher(SHIFTED).fn(cons(x, NIL_P), VList.of((4, 5))))) == 2


def test_a_unit_multiset_raises_nils_arity_error_over_any_element():
    clause = MatchClause(cons(Var(X), NIL_1), lambda x: x)
    for optimized in (True, False):
        ms = multiset_matcher(INT, optimized=optimized)
        assert match_all(VList.of(()), ms, [clause]) == []
        assert list(stream_match_all(VList.of(()), ms, clause)) == []
        for items in ((4,), (4, 5), (4, 5, 6)):
            for run in (match_all, match_first, lambda t, m, c: list(stream_match_all(t, m, c[0]))):
                with pytest.raises(ArityMismatch, match="nil takes 0 arguments, got 1"):
                    run(VList.of(items), ms, [clause])
    # the fair search draws (cons _ (nil 1))'s per-element branches one round
    # after the cons, so both results of (| _ _) come before nil's error
    clause = MatchClause(Or((Or((WILDCARD, WILDCARD)), cons(WILDCARD, NIL_1))), lambda: 1)
    for items in ((1, 2), (1, 2, 3)):
        found = stream_match_all(VList.of(items), multiset_matcher(INT), clause)
        assert list(islice(found, 2)) == [1, 1]
        with pytest.raises(ArityMismatch, match="nil takes 0 arguments, got 1"):
            next(found)


def test_a_known_head_still_stops_at_the_first_hit_before_a_bad_element():
    src = "(match-first '(1 a) (Multiset Integer) [(cons ,1 _) 7])"
    assert cli(["eval", src]) == (0, "7\n", "")


# --- An Each of a constructor with hoisted value patterns: every target
# meets it under the same env, so one bound copy serves them all, and the
# value pattern runs at most once per Each, lazily, as the pure-literal rule
# (not (cons (cons ,(f v) _) _)) of the Davis-Putnam solver needs.

V, VS = Symbol("v"), Symbol("vs")
SAT_LIKE = tuple_matcher((multiset_matcher(INT), multiset_matcher(multiset_matcher(INT))))


def _pure(f):
    # '[(cons v vs) (not (cons (cons ,(f v) _) _))]
    lit = ValuePattern(f, (V,))
    return TuplePattern((cons(Var(V), Var(VS)), Not(cons(cons(lit, WILDCARD), WILDCARD))))


def _cnf(vars, clauses):
    return VTuple((VList.of(vars), VList.of(tuple(VList.of(c) for c in clauses))))


@pytest.mark.parametrize("clauses", ["Multiset", "List"])
def test_an_each_of_a_constructor_evaluates_its_value_pattern_once(clauses):
    # a List cons's head is evaluated at its atom, but the targets of an
    # Each share one bound copy of it too
    calls = []

    def neg(env):
        calls.append(env)
        return -env_get(env, V)

    pattern = _pure(neg)
    inner = {"Multiset": multiset_matcher(INT), "List": INT_LIST}[clauses]
    matcher = tuple_matcher((multiset_matcher(INT), multiset_matcher(inner)))
    t = _cnf((1, 2, 3), ((1, 2), (2, 3), (1, 3), (3,), (1, 2, 3), (1, -2)))
    clause = MatchClause(pattern, lambda v, vs: (v, tuple(vs)))
    want = {"Multiset": [(1, (2, 3)), (3, (1, 2))],
            "List": [(1, (2, 3)), (2, (1, 3)), (3, (1, 2))]}[clauses]
    names = extract_pattern_variables(pattern)
    reference = [tuple(env_get(env, n) for n in names)
                 for env in _reference_search(((pattern, matcher, t),), ())]
    assert [(v, tuple(vs)) for v, vs in reference] == want
    del calls[:]
    assert match_all(t, matcher, [clause]) == want
    assert len(calls) == 3  # once per not, not once per clause
    del calls[:]
    assert sorted(stream_match_all(t, matcher, clause)) == want
    assert len(calls) == 3


def test_an_each_of_a_constructor_over_nothing_never_evaluates_it():
    def boom(env):
        raise AssertionError("evaluated with nothing to compare against")

    unit = cons(ValuePattern(boom, (Y,)), WILDCARD)
    pick = Matcher(_pick(multiset_matcher(INT), True), "(Pick)")
    pattern = TuplePattern([Var(Y), Constructor(PICK, (unit,))])
    clause = MatchClause(pattern, lambda y: y)
    for items in ((), (VList.of(()),), (VList.of(()), VList.of(()))):
        t = VTuple((1, VList.of(items)))
        assert match_all(t, tuple_matcher([INT, pick]), [clause]) == []
        assert list(stream_match_all(t, tuple_matcher([INT, pick]), clause)) == []
    # nor does the pure-literal rule over empty clauses
    assert match_all(_cnf((1, 2), ((), ())), SAT_LIKE, [MatchClause(_pure(boom), lambda v, vs: v)]) == [1, 2]


def test_an_each_of_a_constructor_raises_as_the_reference_does():
    def bad(env):
        raise ValueError(env_get(env, V))

    pattern = _pure(bad)
    t = _cnf((1, 2), ((1, 2), (2,), (1,)))
    clause = MatchClause(pattern, lambda *a: a)
    want = _outcome(lambda: _reference_search(((pattern, SAT_LIKE, t),), ()))
    assert want == ("error", "ValueError", "1")
    assert _outcome(lambda: gen_match_results(pattern, SAT_LIKE, t)) == want
    assert _outcome(lambda: match_all(t, SAT_LIKE, [clause]))[:2] == want[:2]
    assert _outcome(lambda: stream_match_all(t, SAT_LIKE, clause)) == _outcome(
        lambda: _dovetailed(pattern, SAT_LIKE, t))


def test_an_each_of_a_constructor_that_binds_a_shadowing_name_hoists_nothing():
    # in (not (cons (join x ,x) _)), ,x reads the x its own join binds, not
    # the outer x: the join must not be bound to the not's env
    pattern = cons(Var(X), Not(cons(join(Var(X), vp_of(X)), WILDCARD)))
    assert engine.compile_pattern(pattern).args[1].arg.args[0].hoist == ()
    ms = multiset_matcher(INT_LIST)
    t = VList.of((VList.of((1,)), VList.of((1, 1)), VList.of((2, 3))))
    clause = MatchClause(pattern, lambda x: print_value(x))
    reference = [print_value(env_get(env, X))
                 for env in _reference_search(((pattern, ms, t),), ())]
    assert match_all(t, ms, [clause]) == reference == ["(1 1)"]
    assert list(stream_match_all(t, ms, clause)) == reference
