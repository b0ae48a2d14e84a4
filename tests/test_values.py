"""Values: lists, views, lazy sequences, equality, printing, parsing."""

import gc
import io
import itertools
import sys
import timeit
import traceback

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
    lazyseq_from_iter,
    list_concat,
    parse_value,
    print_value,
    repeat_value,
    seq_uncons,
    suffix_view,
    to_python,
    value_equal,
    value_kind,
    without_index,
)


# Oracles: independent reference computations over plain Python tuples.


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


def test_iterating_a_window_does_not_step_over_the_elements_before_it():
    n = 10**6
    xs = VList.of(range(n))

    def cost(view, k) -> float:
        # the best of 5 timings of reaching element k of the view
        return min(timeit.repeat(lambda: next(itertools.islice(view, k, None)), number=200, repeat=5))

    near_start, near_end = suffix_view(xs, 10), suffix_view(xs, n - 10)
    assert list(near_end) == list(range(n - 10, n))
    assert cost(near_end, 0) <= 4 * cost(near_start, 0)
    # and the element after a skipped one
    near_start, near_end = without_index(near_start, 1), without_index(near_end, 1)
    assert list(near_end) == [n - 10] + list(range(n - 8, n))
    assert cost(near_end, 1) <= 4 * cost(near_start, 1)


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


view_steps = st.lists(
    st.tuples(st.sampled_from(("suffix", "drop", "hash")), st.integers(0, 9)), max_size=12
)


def assert_like(view, model):
    # a window on one tuple, with the model's length, elements and indexes
    assert type(view._base) is tuple
    assert len(view) == len(model)
    assert list(view) == model
    assert [view[j] for j in range(-len(model), len(model))] == model + model


@settings(max_examples=300)
@given(int_lists, view_steps)
def test_views_compose(t, steps):
    # each step takes a suffix of, drops one element from, or hashes (which
    # may copy) the latest view; every view made along the way stays equal
    # to its Python-list model
    views = [(VList.of(t), list(t))]
    for op, k in steps:
        view, model = views[-1]
        if op == "hash":
            assert hash(view) == hash(VList.of(model))
        elif op == "suffix":
            k %= len(model) + 1
            views.append((suffix_view(view, k), model[k:]))
        elif model:
            k %= len(model)
            views.append((without_index(view, k), model[:k] + model[k + 1 :]))
        assert_like(*views[-1])
    for view, model in views:
        assert_like(view, model)


def test_a_drop_chain_ten_thousand_deep_stays_flat():
    n = 10_000
    xs = VList.of(range(n + 2))
    for _ in range(n):
        xs = without_index(xs, 1)
    assert sys.getrecursionlimit() <= 1000
    assert_like(xs, [0, n + 1])


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
        assert value_equal(parse_value(text), parse_value(text))
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


def test_an_iterator_cell_error_is_raised_again_and_the_iterator_not_redrawn():
    drawn = []

    class Flaky:
        # fails on its third draw, and would go on after that
        def __iter__(self):
            return self

        def __next__(self):
            drawn.append(len(drawn))
            if len(drawn) == 3:
                raise KeyError("third")
            return len(drawn)

    seq = lazyseq_from_iter(Flaky())
    second = seq.tail()
    errors = []
    for _ in range(3):
        with pytest.raises(KeyError) as e:
            second.tail()
        errors.append(e.value)
    assert errors[0] is errors[1] is errors[2]
    assert drawn == [0, 1, 2]
    assert (seq.head, second.head, seq.tail()) == (1, 2, second)
    with pytest.raises(KeyError):
        lazyseq_from_iter({}[k] for k in (0,))  # the first draw fails at once


def test_a_failed_cell_raises_with_a_traceback_that_does_not_grow():
    def gen():
        yield 1
        raise ValueError("producer failed")

    def depth_after(forces: int) -> int:
        cell = lazyseq_from_iter(gen())
        for _ in range(forces):
            try:
                cell.tail()
            except ValueError as err:
                tb = err.__traceback__
        # a force would raise again: perfbench's lazy_forced counts such cells
        assert cell._thunk is not None
        return len(traceback.extract_tb(tb))

    assert depth_after(1000) == depth_after(2)


def test_sequences_from_iterators_leave_nothing_for_the_collector():
    from nfmatch.lang import Evaluator, run_text

    program = "(match-all primes (List Integer) [(join _ (cons p (cons ,(+ p 2) _))) p])"
    gc.collect()
    gc.disable()
    try:
        for n in range(100):
            list(itertools.islice(lazyseq_from_iter(iter(range(10))), n % 12))
        Evaluator()
        out = io.StringIO()
        assert run_text(program, Evaluator(engine_mode="stream", max_results=3), out=out) == 0
        assert out.getvalue() == "(3 5 11)\n"
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_lazy_sequence_ends_in_the_empty_list():
    last = lazyseq_from_iter(iter([1]))
    assert last.tail() is EMPTY_LIST
    head, rest = seq_uncons(last)
    assert head == 1 and rest is EMPTY_LIST
    cell = cons_value(0, lazyseq_from_iter(iter([1, 2])))
    seen = []
    while type(cell) is LazySeq:
        seen.append(cell.head)
        cell = cell.tail()
    assert seen == [0, 1, 2] and cell is EMPTY_LIST


def test_value_equal_force_budget():
    with pytest.raises(DepthExceeded):
        value_equal(repeat_value(0), repeat_value(0))
    assert value_equal(repeat_value(0), VList.of((0, 0, 1))) is False
    with pytest.raises(DepthExceeded):
        as_vlist(repeat_value(0))
    assert as_vlist(lazyseq_from_iter(range(3))) == VList.of((0, 1, 2))


def test_print_and_to_python_force_budget():
    # counted across the whole value: two lazy halves of 600000 elements
    # are over the budget, one is not
    half = lazyseq_from_iter(range(600_000))
    assert len(to_python(VTuple((half, 1)))[0]) == 600_000
    assert print_value(VTuple((half,))).startswith("[(0 1 2 ")
    for convert in (print_value, to_python):
        with pytest.raises(DepthExceeded):
            convert(VList.of((1, repeat_value(0))))
        with pytest.raises(DepthExceeded):
            convert(VTuple((half, half)))


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


def test_hash_and_python_bridges_ten_thousand_deep():
    assert sys.getrecursionlimit() <= 1000
    depth = 10_000
    for opener, closer, kind, pykind in (("(", ")", VList, list), ("[", "]", VTuple, tuple)):
        text = opener * depth + "1" + closer * depth
        v = parse_value(text)
        assert hash(v) == hash(parse_value(text))
        p = to_python(v)
        for _ in range(depth):
            assert type(p) is pykind and len(p) == 1
            p = p[0]
        assert p == 1
        w = from_python(to_python(v))
        assert value_equal(w, v) and hash(w) == hash(v)
    nested = []
    for _ in range(depth):
        nested = [nested, 2]
    assert print_value(from_python(nested)).startswith("((((")
    with pytest.raises(TypeError, match="float"):
        from_python([[[1.5]]])


def test_equal_values_hash_equal_whatever_their_windows():
    inner = VList.of((1, 2, 3))
    base = VList.of((0, inner, VTuple((4, inner)), Symbol("a"), 5))
    flat = VList.of((inner, VTuple((4, VList.of((1, 2, 3)))), 5))
    view = without_index(suffix_view(base, 1), 2)
    assert view == flat and hash(view) == hash(flat)
    assert hash(without_index(inner, 1)) == hash(VList.of((1, 3)))
    assert hash(suffix_view(inner, 2)) == hash(VList.of((3,)))
    assert len({view, flat, VList.of((inner, 5))}) == 2


def test_integers_of_any_length_print_the_same_under_any_digit_limit():
    # print_value and show_value, and the CLI's result line, give the same
    # text whatever the interpreter's int/str digit limit; with no limit
    # it is str()'s, and show_value keeps the first 100 characters
    import os
    import subprocess

    import nfmatch

    script = (
        "import sys\n"
        "from nfmatch.values import VList, print_value, show_value\n"
        "for x in (10**4300, 1 - 10**5000, 7**9000 * 10**700, 12345, -(2**20000)):\n"
        "    s = print_value(x)\n"
        "    assert sys.get_int_max_str_digits() or s == str(x)\n"
        "    assert show_value(x) == (s if len(s) <= 100 else s[:100] + '...')\n"
        "    assert print_value(VList.of((x, -x))) == f'({s} {print_value(-x)})'\n"
        "    print(s)\n"
    )
    src_dir = os.path.dirname(os.path.dirname(nfmatch.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    outs = []
    for limit in ({}, {"PYTHONINTMAXSTRDIGITS": "0"}, {"PYTHONINTMAXSTRDIGITS": "640"}):
        for argv in (["-c", script], ["-m", "nfmatch", "eval", "(+ 1 " + "9" * 4300 + ")"]):
            done = subprocess.run(
                [sys.executable, *argv], capture_output=True, text=True, timeout=60,
                env={**env, "PYTHONPATH": src_dir, **limit},
            )
            assert (done.returncode, done.stderr) == (0, ""), limit
            outs.append(done.stdout)
    assert outs[0::2] == [outs[0]] * 3 and outs[1::2] == ["1" + "0" * 4300 + "\n"] * 3
    assert outs[0].splitlines()[3] == "12345"
