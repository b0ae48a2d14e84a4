"""Matcher functions: decomposition enumerations and value comparisons."""

import gc
import random
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from nfmatch import engine
from nfmatch.engine import MatchClause, match_all
from nfmatch.errors import ArityMismatch, MatchError, UnknownPatternConstructor
from nfmatch.matchers import (
    CONS,
    JOIN,
    NIL,
    SOMETHING,
    Each,
    Matcher,
    eq_matcher,
    integer_matcher,
    list_matcher,
    multiset_matcher,
    register_matcher_extension,
    something,
    tuple_matcher,
)
from nfmatch.pattern import (
    WILDCARD,
    Constructor,
    TuplePattern,
    Var,
    const_value_pattern,
)
from nfmatch.values import EMPTY_LIST, LazySeq, Symbol, VList, VTuple, lazyseq_from_iter

from helpers import (
    INT_LIKE,
    cli,
    engine_env_multiset,
    gen_instance,
    layered_multiset_matcher,
    oracle_env_multiset,
)

X, Y = Symbol("x"), Symbol("y")
NIL_P = Constructor(NIL, ())


def cons(px, py):
    return Constructor(CONS, (px, py))


def join(px, py):
    return Constructor(JOIN, (px, py))


def vp(v):
    return const_value_pattern(v)


def atoms_of(enumeration):
    return [tuple(a) for a in enumeration]


# --- Eq / Integer ---


def test_eq_value_comparison():
    m = eq_matcher()
    assert atoms_of(m(vp(3), 3)) == [()]
    assert atoms_of(m(vp(3), 4)) == []
    assert atoms_of(m(vp(VList.of((1, 2))), VList.of((1, 2)))) == [()]


def test_eq_delegates_variables():
    m = eq_matcher()
    assert atoms_of(m(Var(X), 7)) == [((Var(X), SOMETHING, 7),)] or True
    [(atom,)] = atoms_of(m(Var(X), 7))
    assert atom[1] is SOMETHING and atom[2] == 7
    [(atom,)] = atoms_of(m(WILDCARD, 7))
    assert atom[1] is SOMETHING


def test_eq_rejects_constructors():
    with pytest.raises(UnknownPatternConstructor):
        eq_matcher()(cons(Var(X), WILDCARD), VList.of((1,)))


def test_integer_checks_target_kind():
    m = integer_matcher()
    assert atoms_of(m(vp(5), 5)) == [()]
    assert atoms_of(m(vp(5), 6)) == []
    assert atoms_of(m(vp(True), 1)) == []  # bool is not an integer here
    with pytest.raises(TypeError):
        m(vp(5), VList.of((5,)))


def test_matcher_identity_and_repr():
    assert something() is SOMETHING
    assert SOMETHING.name == "Something"
    assert integer_matcher() is integer_matcher()
    assert "Integer" in repr(integer_matcher())


# --- Tuple ---


def test_tuple_positional_pairing():
    m = tuple_matcher((integer_matcher(), eq_matcher()))
    t = VTuple((1, 2))
    [(a0, a1)] = atoms_of(m(TuplePattern((Var(X), Var(Y))), t))
    assert a0[2] == 1 and a1[2] == 2
    assert a0[1] is integer_matcher() and a1[1] is eq_matcher()


def test_tuple_accepts_vlist_targets():
    m = tuple_matcher((integer_matcher(), integer_matcher()))
    [(a0, a1)] = atoms_of(m(TuplePattern((Var(X), Var(Y))), VList.of((3, 4))))
    assert a0[2] == 3 and a1[2] == 4


def test_tuple_arity_mismatch():
    m = tuple_matcher((integer_matcher(), integer_matcher()))
    with pytest.raises(ArityMismatch):
        m(TuplePattern((Var(X),)), VTuple((1, 2)))
    with pytest.raises(ArityMismatch):
        m(TuplePattern((Var(X), Var(Y))), VTuple((1, 2, 3)))


def test_tuple_value_pattern_splits_componentwise():
    m = tuple_matcher((integer_matcher(), integer_matcher()))
    [(a0, a1)] = atoms_of(m(vp(VTuple((1, 2))), VTuple((1, 2))))
    assert a0[0].value == 1 and a1[0].value == 2
    assert atoms_of(m(vp(5), VTuple((1, 2)))) == []


def test_tuple_rejects_non_tuple_target():
    with pytest.raises(TypeError):
        tuple_matcher((integer_matcher(),))(TuplePattern((Var(X),)), 9)


# --- List ---


def test_list_cons_single_decomposition():
    m = list_matcher(integer_matcher())
    [(h, t)] = atoms_of(m(cons(Var(X), Var(Y)), VList.of((1, 2, 3))))
    assert h[2] == 1 and list(t[2]) == [2, 3]
    assert atoms_of(m(cons(Var(X), Var(Y)), VList.of(()))) == []


def test_list_cons_errors_keep_their_text():
    m = list_matcher(integer_matcher())
    for t, kind in ((7, "int"), (VTuple((1,)), "VTuple"), ("s", "str"), (X, "Symbol")):
        with pytest.raises(TypeError) as e:
            m(cons(Var(X), Var(Y)), t)
        assert str(e.value) == f"list matcher applied to {kind}"
    # the arity is checked first, whatever the target
    for args, t in (((Var(X),), 7), ((Var(X), Var(Y), Var(X)), lazyseq_from_iter((1, 2)))):
        with pytest.raises(ArityMismatch) as e:
            m(Constructor(CONS, args), t)
        assert str(e.value) == (
            f"pattern constructor cons takes 2 arguments, got {len(args)} ((List Integer))")


def test_list_nil():
    m = list_matcher(integer_matcher())
    assert atoms_of(m(NIL_P, VList.of(()))) == [()]
    assert atoms_of(m(NIL_P, VList.of((1,)))) == []
    with pytest.raises(ArityMismatch):
        m(Constructor(NIL, (Var(X),)), VList.of(()))


def test_list_join_enumerates_splits_in_order():
    m = list_matcher(integer_matcher())
    splits = atoms_of(m(join(Var(X), Var(Y)), VList.of((1, 2))))
    assert len(splits) == 3
    seen = [(list(a[2]), list(b[2])) for (a, b) in splits]
    assert seen == [([], [1, 2]), ([1], [2]), ([1, 2], [])]


def test_list_join_wildcard_prefix_skips_prefix_atoms():
    m = list_matcher(integer_matcher())
    for t in (VList.of((1, 2, 3)), lazyseq_from_iter((1, 2, 3))):
        splits = atoms_of(m(join(WILDCARD, Var(Y)), t))
        assert [len(s) for s in splits] == [1, 1, 1, 1]
        assert [list(s[0][2]) for s in splits] == [[1, 2, 3], [2, 3], [3], []]


def test_the_rest_of_a_lazy_last_cell_is_the_empty_list_itself():
    m = list_matcher(integer_matcher())
    last = lazyseq_from_iter((1,))
    [(_, (_, _, rest))] = atoms_of(m(cons(Var(X), Var(Y)), last))
    assert rest is last.tail() is EMPTY_LIST
    clause = MatchClause(cons(Var(X), Var(Y)), lambda x, y: y)
    assert [r is EMPTY_LIST for r in match_all(lazyseq_from_iter((1,)), m, [clause])] == [True]
    pair = lazyseq_from_iter((1, 2))
    each_cons = atoms_of(m(join(WILDCARD, cons(Var(X), Var(Y))), pair))
    assert each_cons[-1][1][2] is EMPTY_LIST
    splits = atoms_of(m(join(Var(X), Var(Y)), pair))
    assert splits[-1][1][2] is EMPTY_LIST


def test_list_join_lazy_targets_stay_productive():
    m = list_matcher(integer_matcher())
    naturals = lazyseq_from_iter(iter(range(1, 10**9)))
    gen = iter(m(join(Var(X), Var(Y)), naturals))
    first = [tuple(next(gen)) for _ in range(3)]
    prefixes = [list(s[0][2]) for s in first]
    assert prefixes == [[], [1], [1, 2]]
    assert type(first[0][1][2]) is LazySeq


def test_list_value_comparison_and_errors():
    m = list_matcher(integer_matcher())
    assert atoms_of(m(vp(VList.of((1, 2))), VList.of((1, 2)))) == [()]
    assert atoms_of(m(vp(VList.of((2, 1))), VList.of((1, 2)))) == []
    with pytest.raises(TypeError):
        m(cons(Var(X), Var(Y)), 5)
    with pytest.raises(UnknownPatternConstructor):
        m(Constructor(Symbol("snoc"), (Var(X), Var(Y))), VList.of((1,)))


def test_list_join_of_a_cons_after_a_wildcard_gives_each_element_and_its_suffix():
    m = list_matcher(integer_matcher())
    x, y = Var(X), Var(Y)
    each = join(WILDCARD, cons(x, WILDCARD))
    # a wildcard tail adds no atom: an Each over the list, also of one
    # element, as the split before it and the empty one made a branch point
    for n in (1, 3):
        e = m(each, VList.of(range(n)))
        assert type(e) is Each
        assert atoms_of(e) == [((x, integer_matcher(), k),) for k in range(n)]
    assert m(each, VList.of(())) == []
    # another tail: the element and the suffix after it, never a list
    for t in (VList.of((7, 8)), lazyseq_from_iter((7, 8))):
        e = m(join(WILDCARD, cons(x, y)), t)
        assert type(e) is not list
        assert [(a[2], list(b[2])) for a, b in e] == [(7, [8]), (8, [])]
    # what the rule does not cover is split as before
    cons3 = Constructor(CONS, (x, y, WILDCARD))
    assert len(atoms_of(m(join(WILDCARD, cons3), VList.of((7, 8))))) == 3
    assert len(atoms_of(m(join(Var(Y), cons(x, WILDCARD)), VList.of((7, 8))))) == 3


@pytest.mark.parametrize("n", [0, 1, 2, 10])
def test_list_join_of_a_cons_after_a_wildcard_is_one_matcher_call(n):
    # one call, where a split per suffix took one more for each suffix's cons
    # m is the shared (List Integer), so its fn is put back afterwards
    m = list_matcher(integer_matcher())
    fn, calls = m.fn, []
    m.fn = lambda p, t: calls.append(p) or fn(p, t)
    try:
        clause = MatchClause(join(WILDCARD, cons(Var(X), WILDCARD)), lambda x: x)
        for t in (VList.of(range(n)), lazyseq_from_iter(range(n))):
            calls.clear()
            assert match_all(t, m, [clause]) == list(range(n))
            assert len(calls) == 1
    finally:
        m.fn = fn


# --- Interning ---


def test_list_and_multiset_matchers_are_one_object_per_argument_and_variant():
    m = integer_matcher()
    assert list_matcher(m) is list_matcher(m)
    assert multiset_matcher(m) is multiset_matcher(m, optimized=True)
    assert multiset_matcher(m, optimized=False) is multiset_matcher(m, optimized=False)
    assert multiset_matcher(m) is not multiset_matcher(m, optimized=False)
    assert list_matcher(m) is not list_matcher(eq_matcher())
    assert list_matcher(list_matcher(m)) is list_matcher(list_matcher(m))


def test_building_an_interned_matcher_again_leaves_no_objects_behind():
    multiset_matcher(integer_matcher())
    list_matcher(integer_matcher())
    gc.disable()
    try:
        before = len(gc.get_objects())
        for _ in range(100):
            multiset_matcher(integer_matcher())
            list_matcher(integer_matcher())
        after = len(gc.get_objects())
    finally:
        gc.enable()
    assert after - before == 0


def test_an_extension_matcher_and_its_list_matcher_die_together():
    def decompose(p, t):
        return []

    ext = register_matcher_extension(decompose, "Ext")
    lm = list_matcher(ext)
    assert list_matcher(ext) is lm
    alive = [weakref.ref(decompose), weakref.ref(ext.fn), weakref.ref(lm.fn)]
    del decompose, ext, lm
    gc.collect()
    assert [r() for r in alive] == [None, None, None]


def test_eq_compares_interned_matchers_as_the_same_value():
    assert cli(["eval", "(eq? (List Integer) (List Integer))"]) == (0, "#t\n", "")
    assert cli(["eval", "(eq? (Multiset (List Eq)) (Multiset (List Eq)))"]) == (0, "#t\n", "")
    assert cli(["eval", "(eq? (List Integer) (Multiset Integer))"]) == (0, "#f\n", "")


# --- Multiset ---


def test_multiset_cons_picks_each_element_left_to_right():
    m = multiset_matcher(integer_matcher())
    picks = atoms_of(m(cons(Var(X), Var(Y)), VList.of((1, 2, 3))))
    assert [p[0][2] for p in picks] == [1, 2, 3]
    assert [sorted(p[1][2]) for p in picks] == [[2, 3], [1, 3], [1, 2]]


def test_multiset_cons_wildcard_tail_shortcut():
    m = multiset_matcher(integer_matcher())
    picks = atoms_of(m(cons(Var(X), WILDCARD), VList.of((1, 2, 3))))
    assert [len(p) for p in picks] == [1, 1, 1]
    assert [p[0][2] for p in picks] == [1, 2, 3]


def test_multiset_nil_and_unknown_constructor():
    m = multiset_matcher(integer_matcher())
    assert atoms_of(m(NIL_P, VList.of(()))) == [()]
    assert atoms_of(m(NIL_P, VList.of((1,)))) == []
    with pytest.raises(UnknownPatternConstructor):
        m(join(Var(X), Var(Y)), VList.of((1, 2)))


def test_multiset_value_comparison_ignores_order():
    m = multiset_matcher(integer_matcher())
    assert atoms_of(m(vp(VList.of((2, 1, 2))), VList.of((1, 2, 2)))) == [()]
    assert atoms_of(m(vp(VList.of((2, 1))), VList.of((1, 2, 2)))) == []
    assert atoms_of(m(vp(VList.of((1, 1, 2))), VList.of((1, 2, 2)))) == []


def test_multiset_value_comparison_nests():
    m = multiset_matcher(multiset_matcher(integer_matcher()))
    v = VList.of((VList.of((3,)), VList.of((1, 2))))
    t = VList.of((VList.of((2, 1)), VList.of((3,))))
    assert atoms_of(m(vp(v), t)) == [()]
    t_bad = VList.of((VList.of((2, 2)), VList.of((3,))))
    assert atoms_of(m(vp(v), t_bad)) == []


def test_multiset_value_comparison_rejects_non_list():
    with pytest.raises(TypeError):
        multiset_matcher(integer_matcher())(vp(5), VList.of((5,)))


_ELEMENT_MATCHERS = (
    (integer_matcher(), "int"),
    (eq_matcher(), "any"),
    (something(), "any"),
    (multiset_matcher(integer_matcher()), "ints"),
    (multiset_matcher(integer_matcher(), optimized=False), "ints"),
    (list_matcher(integer_matcher()), "ints"),
    (tuple_matcher((integer_matcher(), integer_matcher())), "pair"),
)


def _element(rng, kind):
    # mostly what the element matcher expects, sometimes anything
    if kind == "any" or rng.random() < 0.1:
        kind = rng.choice(("int", "ints", "pair", "sym"))
    if kind == "int":
        return rng.randint(0, 3)
    if kind == "ints":
        return VList.of(tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 3))))
    if kind == "pair":
        return VTuple((rng.randint(0, 2), rng.randint(0, 2)))
    return Symbol(rng.choice("ab"))


def _outcome(matcher, v, t):
    try:
        return atoms_of(matcher(vp(v), t))
    except Exception as e:
        return (type(e).__name__, str(e))


def test_multiset_value_comparison_agrees_with_the_layered_definition():
    rng = random.Random(8)
    for _ in range(3000):
        m, kind = rng.choice(_ELEMENT_MATCHERS)
        t = [_element(rng, kind) for _ in range(rng.randint(0, 6))]
        v = list(t)
        rng.shuffle(v)
        if v and rng.random() < 0.4:
            v[rng.randrange(len(v))] = _element(rng, kind)
        if rng.random() < 0.1:
            v.append(_element(rng, kind))
        v, t = VList.of(tuple(v)), VList.of(tuple(t))
        if rng.random() < 0.05:
            v = _element(rng, "int")
        want = _outcome(layered_multiset_matcher(m), v, t)
        for optimized in (True, False):
            assert _outcome(multiset_matcher(m, optimized), v, t) == want, (m, v, t)


def test_multiset_value_comparison_of_long_lists_stays_off_the_host_stack():
    assert sys.getrecursionlimit() <= 1000
    same = "(match-all (iota 2000) (Multiset Integer) [,(iota 2000) 1])"
    reversed_ = "(match-all (iota 500) (Multiset Integer) [,(iota 500 499 -1) 1])"
    assert cli(["eval", same]) == (0, "(1)\n", "")
    assert cli(["eval", reversed_]) == (0, "(1)\n", "")


def test_naive_multiset_same_picks_as_optimized():
    opt = multiset_matcher(integer_matcher())
    naive = multiset_matcher(integer_matcher(), optimized=False)
    for t in [(), (1,), (1, 2), (3, 1, 2), (2, 2, 1, 3)]:
        tt = VList.of(t)
        a = atoms_of(opt(cons(Var(X), Var(Y)), tt))
        b = atoms_of(naive(cons(Var(X), Var(Y)), tt))
        assert [p[0][2] for p in a] == [q[0][2] for q in b]
        assert [list(p[1][2]) for p in a] == [list(q[1][2]) for q in b]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_naive_and_optimized_engines_agree(seed):
    rng = random.Random(seed)
    pattern, matcher, kind, target = gen_instance(rng, naive=False)
    if kind != "multiset":
        return
    _, naive_matcher, _, _ = gen_instance(random.Random(seed), naive=True)
    got_opt = engine_env_multiset(pattern, matcher, target)
    got_naive = engine_env_multiset(pattern, naive_matcher, target)
    assert got_opt == got_naive


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matchers_agree_with_brute_force_oracle(seed):
    rng = random.Random(seed)
    pattern, matcher, kind, target = gen_instance(rng)
    assert engine_env_multiset(pattern, matcher, target) == oracle_env_multiset(
        pattern, kind, target
    )


# --- Extensions ---


def _singleton_fn(p, t):
    # matches any one-element list, delegating the element to Something
    if type(p) is Constructor and p.name is CONS:
        if len(t) == 1:
            return [((p.args[0], SOMETHING, t[0]), (p.args[1], SOMETHING, VList.of(())))]
        return []
    return [((p, SOMETHING, t),)]


def test_register_matcher_extension_roundtrip():
    m = register_matcher_extension(_singleton_fn, "(Singleton)")
    assert isinstance(m, Matcher) and m.name == "(Singleton)"
    out = match_all(VList.of((9,)), m, [MatchClause(cons(Var(X), WILDCARD), lambda x: x)])
    assert list(out) == [9]
    assert list(match_all(VList.of((1, 2)), m, [MatchClause(cons(Var(X), WILDCARD), lambda x: x)])) == []


def test_register_matcher_extension_validates_atoms():
    bad_shape = register_matcher_extension(lambda p, t: [((p, t),)], "(Bad)")
    with pytest.raises(MatchError):
        atoms_of(bad_shape(Var(X), 1))
    bad_matcher = register_matcher_extension(lambda p, t: [((p, 42, t),)], "(Bad)")
    with pytest.raises(MatchError):
        atoms_of(bad_matcher(Var(X), 1))
    bad_pattern = register_matcher_extension(lambda p, t: [((7, SOMETHING, t),)], "(Bad)")
    with pytest.raises(MatchError):
        atoms_of(bad_pattern(Var(X), 1))
    none_result = register_matcher_extension(lambda p, t: None, "(Bad)")
    with pytest.raises(MatchError):
        none_result(Var(X), 1)


def test_multiset_value_equality_decides_integers_without_a_search(monkeypatch):
    searches = []
    exists = engine._exists

    def counted(stack, env):
        searches.append(1)
        return exists(stack, env)

    monkeypatch.setattr(engine, "_exists", counted)
    n = 300
    t = VList.of(tuple(range(n)))
    clause = MatchClause(vp(VList.of(tuple(range(n - 1, -1, -1)))), lambda: 1)
    assert match_all(t, multiset_matcher(integer_matcher()), [clause]) == [1]
    assert searches == []
    assert match_all(t, multiset_matcher(INT_LIKE), [clause]) == [1]
    assert len(searches) == n * (n + 1) // 2
    prog = "(match-all (iota 2000) (Multiset Integer) [,(iota 2000 1999 -1) 1])"
    assert cli(["eval", prog]) == (0, "(1)\n", "")
    assert len(searches) == n * (n + 1) // 2
