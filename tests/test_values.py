"""Values: lists, views, lazy sequences, equality, printing, parsing."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from nfmatch.errors import DepthExceeded
from nfmatch.values import (
    EMPTY_LIST,
    LazySeq,
    Symbol,
    VList,
    VTuple,
    as_vlist,
    cons_value,
    from_python,
    lazy_tails,
    lazyseq_from_iter,
    list_concat,
    parse_value,
    print_value,
    repeat_value,
    suffix_view,
    tails,
    to_python,
    unjoin,
    value_equal,
    value_kind,
    without_index,
)


# Oracles: independent reference computations over plain Python tuples.


def oracle_tails(t: tuple) -> list:
    return [t[i:] for i in range(len(t) + 1)]


def oracle_unjoin(t: tuple) -> list:
    return [(t[:i], t[i:]) for i in range(len(t) + 1)]


def oracle_without_index(t: tuple, i: int) -> tuple:
    return t[:i] + t[i + 1 :]


def as_tuple(v) -> tuple:
    return tuple(as_tuple(x) if type(x) in (VList, LazySeq) else x for x in v)


# Value strategies for round-trip properties.

atoms = st.one_of(
    st.integers(-1000, 1000),
    st.booleans(),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.sampled_from([Symbol("a"), Symbol("cons"), Symbol("x1"), Symbol("+")]),
)


def _to_value(x):
    if isinstance(x, list):
        return VList.of(tuple(_to_value(i) for i in x))
    if isinstance(x, tuple):
        return VTuple(tuple(_to_value(i) for i in x))
    return x


values = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
    ),
    max_leaves=12,
).map(_to_value)

int_lists = st.lists(st.integers(0, 9), max_size=8).map(tuple)


@settings(max_examples=200)
@given(int_lists)
def test_tails_matches_oracle(t):
    xs = VList.of(t)
    got = [as_tuple(s) for s in tails(xs)]
    assert got == oracle_tails(t)


@settings(max_examples=200)
@given(int_lists)
def test_unjoin_matches_oracle(t):
    xs = VList.of(t)
    got = [(as_tuple(pair.items[0]), as_tuple(pair.items[1])) for pair in unjoin(xs)]
    assert got == oracle_unjoin(t)


@settings(max_examples=200)
@given(int_lists, st.integers(0, 7))
def test_without_index_matches_oracle(t, i):
    if i >= len(t):
        return
    assert as_tuple(without_index(VList.of(t), i)) == oracle_without_index(t, i)


@settings(max_examples=200)
@given(int_lists, st.integers(0, 8))
def test_suffix_view_matches_slice(t, k):
    if k > len(t):
        return
    assert as_tuple(suffix_view(VList.of(t), k)) == t[k:]


@settings(max_examples=200)
@given(int_lists, st.integers(0, 7))
def test_views_compose(t, i):
    if i >= len(t):
        return
    view = without_index(VList.of(t), i)
    expected = oracle_without_index(t, i)
    assert len(view) == len(expected)
    assert [view[j] for j in range(len(view))] == list(expected)
    for k in range(len(expected) + 1):
        assert as_tuple(suffix_view(as_vlist(view), k)) == expected[k:]


@settings(max_examples=200)
@given(values)
def test_print_parse_round_trip(v):
    printed = print_value(v)
    assert print_value(parse_value(printed)) == printed


def test_print_forms():
    assert print_value(VList.of((1, 2, 3))) == "(1 2 3)"
    assert print_value(VTuple((1, 2))) == "[1 2]"
    assert print_value(Symbol("abc")) == "abc"
    assert print_value("a\nb") == '"a\\nb"'
    assert print_value(True) == "#t"
    assert print_value(False) == "#f"
    assert print_value(EMPTY_LIST) == "()"
    assert print_value(VList.of((VList.of(()), VTuple(())))) == "(() [])"


def test_parse_forms():
    assert as_tuple(parse_value("(1 2 3)")) == (1, 2, 3)
    assert type(parse_value("[1 2]")) is VTuple
    assert parse_value("#t") is True
    assert parse_value('"hi"') == "hi"
    assert type(parse_value("abc")) is Symbol


def test_parse_value_edge_cases():
    for bad in ("(1 2", "(1 2]", ")", '"abc', "1 2", ""):
        with pytest.raises(ValueError):
            parse_value(bad)
    braces = parse_value("{1 2}")
    assert type(braces) is VList and as_tuple(braces) == (1, 2)
    nested = parse_value("[1 [2]]")
    assert type(nested) is VTuple and nested[0] == 1
    assert type(nested[1]) is VTuple and nested[1].items == (2,)


def test_values_nested_ten_thousand_deep_parse_and_print():
    depth = 10_000
    for opener, closer, kind in (("(", ")", VList), ("[", "]", VTuple)):
        text = opener * depth + "1" + closer * depth
        v = parse_value(text)
        for _ in range(depth):
            assert type(v) is kind and len(v) == 1
            v = v[0]
        assert v == 1
        assert print_value(parse_value(text)) == text
    with pytest.raises(ValueError):
        parse_value("(" * depth + "'a" + ")" * depth)
    with pytest.raises(ValueError):
        parse_value("(" * depth)


def test_equality_kind_table():
    cases = [
        (1, 1, True),
        (1, 2, False),
        (True, 1, False),
        (False, 0, False),
        (Symbol("a"), "a", False),
        ("a", "a", True),
        (VList.of((1, 2)), VList.of((1, 2)), True),
        (VList.of((1, 2)), VTuple((1, 2)), False),
        (VTuple((1, 2)), VTuple((1, 2)), True),
        (VList.of((1,)), VList.of((1, 1)), False),
        (EMPTY_LIST, VList.of(()), True),
    ]
    for a, b, want in cases:
        assert value_equal(a, b) is want, (a, b)
        assert value_equal(b, a) is want, (b, a)


def test_list_and_lazyseq_same_kind():
    finite = lazyseq_from_iter(iter([1, 2, 3]))
    assert value_kind(finite) == "seq" == value_kind(VList.of((1, 2, 3)))
    assert value_equal(finite, VList.of((1, 2, 3)))


def test_lazyseq_memoizes_side_effects():
    calls = []

    def gen():
        for i in range(3):
            calls.append(i)
            yield i

    seq = lazyseq_from_iter(gen())
    assert list(seq) == [0, 1, 2]
    assert list(seq) == [0, 1, 2]
    assert calls == [0, 1, 2]


def test_lazyseq_producer_error_is_raised_on_every_force():
    def gen():
        yield 1
        raise ValueError("producer failed")

    seq = lazyseq_from_iter(gen())
    for _ in range(3):
        with pytest.raises(ValueError, match="producer failed"):
            list(seq)
    assert seq.head == 1


def test_value_equal_force_budget():
    with pytest.raises(DepthExceeded):
        value_equal(repeat_value(0), repeat_value(0))
    assert value_equal(repeat_value(0), VList.of((0, 0, 1))) is False


def test_lazy_tails_finite():
    got = [as_tuple(s) for s in lazy_tails(VList.of((1, 2, 3)))]
    assert got == [(1, 2, 3), (2, 3), (3,), ()]


def test_lazy_tails_infinite_prefix():
    naturals = lazyseq_from_iter(itertools.count(1))
    suffixes = lazy_tails(naturals)
    first = list(itertools.islice(iter(suffixes), 3))
    for k, s in enumerate(first):
        assert list(itertools.islice(iter(s), 2)) == [k + 1, k + 2]


def test_cons_and_concat():
    assert as_tuple(cons_value(1, VList.of((2, 3)))) == (1, 2, 3)
    assert as_tuple(cons_value(1, lazyseq_from_iter(iter([2])))) == (1, 2)
    assert as_tuple(list_concat(VList.of((1,)), VList.of((2, 3)))) == (1, 2, 3)


@settings(max_examples=200)
@given(int_lists, int_lists)
def test_concat_matches_oracle(a, b):
    assert as_tuple(list_concat(VList.of(a), VList.of(b))) == a + b


def test_python_bridges():
    v = from_python([1, (2, 3), [4]])
    assert print_value(v) == "(1 [2 3] (4))"
    assert to_python(v) == [1, (2, 3), [4]]
