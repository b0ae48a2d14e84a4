"""Pattern AST: variable extraction, validation, value-pattern evaluation."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from nfmatch.engine import MatchClause, compile_pattern, match_all
from nfmatch.errors import UnboundValuePatternRef, ValidationError
from nfmatch.matchers import integer_matcher, list_matcher
from nfmatch.pattern import (
    EMPTY_ENV,
    HOLE,
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
    env_bind,
    env_get,
    env_names,
    env_to_dict,
    eval_value_pattern,
    extract_pattern_variables,
    validate_pattern,
)
from nfmatch.values import Symbol, VList

from helpers import cli

A, B, C = Symbol("a"), Symbol("b"), Symbol("c")
CONS, JOIN = Symbol("cons"), Symbol("join")


def cons(px, py):
    return Constructor(CONS, (px, py))


def test_extract_in_order():
    p = cons(Var(A), cons(Var(B), Var(C)))
    assert extract_pattern_variables(p) == (A, B, C)


def test_extract_or_uses_first_branch():
    p = Or((cons(Var(A), Var(B)), cons(Var(A), Var(B))))
    assert extract_pattern_variables(p) == (A, B)


def test_extract_skips_not_and_wildcard():
    p = cons(Var(A), Not(cons(Var(B), WILDCARD)))
    assert extract_pattern_variables(p) == (A,)


def test_extract_later_transparent():
    p = cons(Later(Var(A)), Var(B))
    assert extract_pattern_variables(p) == (A, B)


def test_extract_and_union():
    p = And((Var(A), Var(B)))
    assert extract_pattern_variables(p) == (A, B)


def test_validate_accepts_linear():
    p = cons(Var(A), cons(Var(B), WILDCARD))
    validate_pattern(p)


def test_validate_rejects_duplicate_binding():
    with pytest.raises(ValidationError):
        validate_pattern(cons(Var(A), Var(A)))


def test_validate_rejects_mismatched_or_branches():
    with pytest.raises(ValidationError):
        validate_pattern(Or((Var(A), Var(B))))
    with pytest.raises(ValidationError):
        validate_pattern(Or((Var(A), WILDCARD)))


def test_validate_or_branches_may_rebind_same_names():
    validate_pattern(Or((cons(Var(A), WILDCARD), cons(Var(A), WILDCARD))))


def test_validate_not_scope():
    vp = ValuePattern(lambda env: env_get(env, A), (A,))
    # visible: a bound outside the not
    validate_pattern(cons(Var(A), Not(cons(vp, WILDCARD))))
    # a bound only inside a not is invisible outside it
    bad = cons(Not(Var(A)), ValuePattern(lambda env: env_get(env, A), (A,)))
    with pytest.raises(ValidationError):
        validate_pattern(bad)
    # inside the same not, inner binders are visible
    inner_vp = ValuePattern(lambda env: env_get(env, B), (B,))
    validate_pattern(cons(Var(A), Not(cons(Var(B), cons(inner_vp, WILDCARD)))))


def test_validate_unbound_vp_ref():
    vp = ValuePattern(lambda env: env_get(env, B), (B,))
    with pytest.raises(ValidationError):
        validate_pattern(cons(Var(A), vp))


def ref(name):
    return ValuePattern(lambda env: env_get(env, name), (name,))


# Invalid patterns with one fault each: the clause as a program writes it,
# the same pattern built in Python, the ValidationError's message, and what
# nfmatch eval reports. A program's value pattern reads only the variables
# visible where it stands, so there a hidden or missing binder is an
# unbound variable of the lexical environment.
INVALID = {
    "duplicate binder": (
        "(cons a a)", lambda: cons(Var(A), Var(A)),
        "variable 'a' bound more than once: a",
        "<eval>:1:1: error: variable 'a' bound more than once: a"),
    "duplicate binder through or": (
        "(cons a (or a a))", lambda: cons(Var(A), Or((Var(A), Var(A)))),
        "variable 'a' bound more than once: (or a a)",
        "<eval>:1:1: error: variable 'a' bound more than once: (or a a)"),
    "or branches disagree": (
        "(or (cons a _) (cons _ b))", lambda: Or((cons(Var(A), WILDCARD), cons(WILDCARD, Var(B)))),
        "alternative branches must bind the same variables in the same order: "
        "(or (cons a _) (cons _ b))",
        "<eval>:1:1: error: alternative branches must bind the same variables in the same order: "
        "(or (cons a _) (cons _ b))"),
    "unbound ref": (
        "(cons ,b _)", lambda: cons(ref(B), WILDCARD),
        "value pattern reads 'b', which no visible part of the pattern binds: ,<expr reading b>",
        "<eval>:1:42: error: unbound variable b"),
    "ref to a binder only inside not": (
        "(cons _ (and (not (cons a ,'(9))) ,a))",
        lambda: cons(WILDCARD, And((Not(cons(Var(A), const_value_pattern(VList.of((9,))))), ref(A)))),
        "value pattern reads 'a', which no visible part of the pattern binds: ,<expr reading a>",
        "<eval>:1:70: error: unbound variable a"),
}


@pytest.mark.parametrize("fault", sorted(INVALID))
def test_invalid_pattern_errors(fault):
    src, build, message, line = INVALID[fault]
    p = build()
    with pytest.raises(ValidationError) as err:
        validate_pattern(p)
    assert str(err.value) == message
    clause = MatchClause(p, lambda *a: a)
    with pytest.raises(ValidationError) as err:
        match_all(VList.of((1, 2)), list_matcher(integer_matcher()), [clause])
    assert str(err.value) == message
    program = f"(match-all '(1 2) (List Integer) [{src} 1])"
    assert cli(["eval", program]) == (1, "", line + "\n")


def test_invalid_pattern_nested_deeper_than_the_host_stack_raises_validation_error():
    assert sys.getrecursionlimit() <= 1000
    depth = 5000
    chain = Var(A)
    for _ in range(depth):
        chain = Or((chain, Var(A)))
    with pytest.raises(ValidationError) as e:
        validate_pattern(Or((chain, Var(B))))
    assert str(e.value) == (
        "alternative branches must bind the same variables in the same order: "
        + "(or " * (depth + 1) + "a" + " a)" * depth + " b)"
    )


def test_env_bind_get_shadowing():
    env = env_bind(EMPTY_ENV, A, 1)
    env = env_bind(env, B, 2)
    shadowed = env + ((A, 9),)  # not-scope overlays rebind without removal
    assert env_get(shadowed, A) == 9
    assert env_get(env, A) == 1
    assert env_names(env) == (A, B)
    assert env_to_dict(shadowed) == {A: 9, B: 2}


def test_eval_value_pattern():
    vp = ValuePattern(lambda env: env_get(env, A) + 1, (A,))
    env = env_bind(EMPTY_ENV, A, 41)
    assert eval_value_pattern(vp, env) == 42
    with pytest.raises(UnboundValuePatternRef):
        eval_value_pattern(vp, EMPTY_ENV)


def test_env_get_takes_a_name_as_a_string_or_a_symbol():
    env = ((A, 1), (B, 2), (A, 3))
    assert env_get(env, "b") == env_get(env, B) == 2
    assert env_get(env, "a") == env_get(env, A) == 3  # the innermost binding
    with pytest.raises(KeyError) as e:
        env_get(env, "c")
    assert e.value.args == (C,)


def test_a_one_ref_value_pattern_reads_its_slot():
    vp = compile_pattern(cons(Var(A), ValuePattern(lambda env: env, (A,)))).args[1]
    assert vp.slots == (0,)
    assert eval_value_pattern(vp, (5, 6)) == ((A, 5),)
    for env in ((HOLE,), (HOLE, 6), ()):
        with pytest.raises(UnboundValuePatternRef) as e:
            eval_value_pattern(vp, env)
        assert e.value.name is A


def test_const_value_pattern():
    vp = const_value_pattern(7)
    assert vp.has_value and vp.value == 7 and vp.refs == ()


names = st.sampled_from([A, B, C, Symbol("d"), Symbol("e")])


@st.composite
def linear_patterns(draw, depth=3):
    used = draw(st.lists(names, unique=True, max_size=5))
    fresh = iter(used)

    def build(d):
        choice = draw(st.integers(0, 5 if d > 0 else 3))
        if choice == 0:
            name = next(fresh, None)
            return Var(name) if name is not None else WILDCARD
        if choice == 1:
            return WILDCARD
        if choice == 2:
            return const_value_pattern(draw(st.integers(0, 3)))
        if choice == 3:
            return Constructor(Symbol("nil"), ())
        if choice == 4:
            return cons(build(d - 1), build(d - 1))
        return Constructor(JOIN, (build(d - 1), build(d - 1)))

    return build(depth)


@settings(max_examples=200)
@given(linear_patterns())
def test_generated_linear_patterns_validate(p):
    validate_pattern(p)
    seen = extract_pattern_variables(p)
    assert len(seen) == len(set(seen))


@settings(max_examples=200)
@given(linear_patterns())
def test_wrapping_preserves_extraction(p):
    base = extract_pattern_variables(p)
    assert extract_pattern_variables(Later(p)) == base
    assert extract_pattern_variables(Not(p)) == ()
    assert extract_pattern_variables(And((p,))) == base
    assert extract_pattern_variables(Or((p, p))) == base
    assert extract_pattern_variables(TuplePattern((p,))) == base
