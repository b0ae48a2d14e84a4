"""Matching-state reduction and the three searches over it."""

import random
from itertools import count, islice

import pytest
from hypothesis import given, settings, strategies as st

from nfmatch.engine import (
    MatchClause,
    MatchingAtom,
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
from nfmatch.errors import MatchError, ValidationError
from nfmatch.matchers import (
    CONS,
    JOIN,
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
    ValuePattern,
    Var,
    const_value_pattern,
    env_get,
    env_to_dict,
    extract_pattern_variables,
)
from nfmatch.values import Symbol, VList, lazyseq_from_iter, suffix_view

from helpers import engine_env_multiset, gen_instance, gen_ref_instance, oracle_env_multiset

X, Y, M, TS = Symbol("x"), Symbol("y"), Symbol("m"), Symbol("ts")


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
    assert [env_to_dict(s.env) for s in states[:3]] == [{}, {}, {}]
    assert [env_to_dict(s.env) for s in states[3:]] == [{M: 2}] * 5


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
    bound = [tuple(n for n, _ in env) for env in gen_match_results(pattern, matcher, t)]
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
    with pytest.raises(MatchError):
        gen_match_results(cons(Var(X), WILDCARD), SOMETHING, VList.of((1,)))


def test_process_matching_states_helpers():
    pattern = cons(Var(X), WILDCARD)
    s = MatchingState(((pattern, INT_LIST, VList.of((4, 5))),), ())
    envs = process_matching_states_all([s])
    assert [env_to_dict(e) for e in envs] == [{X: 4}]
    assert env_to_dict(process_matching_states_first([s])) == {X: 4}
    empty = MatchingState(((pattern, INT_LIST, VList.of(())),), ())
    assert process_matching_states_all([empty]) == []
    assert process_matching_states_first([empty]) is None
    assert env_to_dict(process_matching_states_first([empty, s])) == {X: 4}


def test_matching_atom_shape():
    a = MatchingAtom(WILDCARD, SOMETHING, 1)
    assert a.pattern is WILDCARD and a.matcher is SOMETHING and a.target == 1


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
