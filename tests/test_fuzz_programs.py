"""Program fuzz: random bounded programs through the CLI never escape as
a Python exception or a traceback, under either engine, and the strict
engine prints the same bytes with the optimized and the naive
(--naive-multiset) Multiset. Without --max-results, the strict and the
stream engine exit alike, and where strict prints only lists of atoms,
each form's results are the same multiset under both.

Programs are drawn from literals, quoted lists and tuples, builtins (any of
them called with 0 to 3 arguments too), if, lambda application, map,
quasiquote and match-all / match-first with random patterns and matchers
(a non-matcher among them). There is no define, repeat or primes, and a
call's head is a builtin name, a lambda written in place or a non-function
literal, never a variable; so no function can reach itself and every
program terminates. Some matches are chains of known heads over
(Multiset Integer), (cons x (cons ,(+ x 1) (cons ,(+ x 2) _))) and the
like, over int lists with duplicates and negatives and sometimes a #t or a
symbol among them, which the optimized Multiset looks up by value.
"""

import re
from collections import Counter

from hypothesis import given, settings, strategies as st

from helpers import cli

_INTS = st.integers(-3, 9).map(str)
_ATOMS = st.one_of(_INTS, st.sampled_from(("#t", "#f", '"s"', "a", "b", str(2**70))))
_NAMES = ("x", "y", "z")
_UNARY = ("car", "cdr", "neg", "abs", "-", "list")
_BINARY = ("+", "*", "-", "=", "<", ">", "eq?", "cons", "append", "take", "list")
_VALUE_BUILTINS = _UNARY + _BINARY + ("Integer", "Something", "Eq", "map")


@st.composite
def _datum(draw, depth=2):
    """Quoted data: an atom, or a short list ( ) or tuple [ ] of data."""
    if depth == 0 or draw(st.booleans()):
        return draw(_ATOMS)
    items = draw(st.lists(_datum(depth - 1), max_size=4))
    open_, close = draw(st.sampled_from(("()", "[]")))
    return open_ + " ".join(items) + close


_INT_LISTS = st.lists(st.integers(0, 3).map(str), max_size=5).map(lambda xs: f"'({' '.join(xs)})")


@st.composite
def _matcher(draw, depth=2):
    roll = draw(st.integers(0, 11))
    if depth == 0 or roll < 2:
        return draw(st.sampled_from(("Integer", "Something", "Eq")))
    if roll < 4:
        return "(List Integer)"
    if roll < 6:
        return "(Multiset Integer)"
    if roll < 8:
        return f"({draw(st.sampled_from(('List', 'Multiset')))} {draw(_matcher(depth - 1))})"
    if roll < 11:
        parts = draw(st.lists(_matcher(depth - 1), min_size=1, max_size=3))
        return "`[" + " ".join("," + m for m in parts) + "]"
    return draw(st.sampled_from(("5", "'(1 2)", "car", "(list Integer 1)")))  # not a matcher


@st.composite
def _pattern(draw, scope, depth=3):
    roll = draw(st.integers(0, 14))
    if depth == 0 or roll < 3:
        return draw(st.sampled_from(("_",) + _NAMES))
    if roll < 5:
        return "," + draw(_expr(scope + _NAMES, 1))
    args = lambda n: " ".join(draw(_pattern(scope, depth - 1)) for _ in range(n))  # noqa: E731
    if roll < 7:
        return f"(cons {args(2)})"
    if roll == 7:
        return f"(join {args(2)})"
    if roll == 8:
        return draw(st.sampled_from(("(nil)", "()", "(foo _)")))
    if roll == 9:
        return f"({draw(st.sampled_from(('or', 'and')))} {args(draw(st.integers(1, 3)))})"
    if roll == 10:
        return f"(not {args(1)})"
    if roll == 11:
        return f"(later {args(1)})"
    return f"'[{args(draw(st.integers(0, 3)))}]"


@st.composite
def _match(draw, scope, depth):
    kind = draw(st.sampled_from(("match-all", "match-first")))
    target = draw(st.one_of(_INT_LISTS, _datum().map(lambda d: "'" + d), _expr(scope, depth - 1)))
    clauses = []
    for _ in range(draw(st.integers(1, 2))):
        clauses.append(f"[{draw(_pattern(scope))} {draw(_expr(scope + _NAMES, depth - 1))}]")
    return f"({kind} {target} {draw(_matcher())} {' '.join(clauses)})"


_CHAIN_HEADS = ("(+ x 1)", "(+ x 2)", "(- x 1)", "x", "2", "#t", "'a", "y")


@st.composite
def _chain(draw, depth):
    """(cons ,v1 (cons ,v2 ... end)): 1 to depth known heads, any of them
    under not or later; returns the pattern and the names it binds."""
    head = draw(st.sampled_from(_CHAIN_HEADS))
    if depth > 1 and draw(st.booleans()):
        tail, names = draw(_chain(depth - 1))
    else:
        tail, names = draw(st.sampled_from((("_", ()), ("r", ("r",)), ("(cons z _)", ("z",)))))
    p = f"(cons ,{head} {tail})"
    wrap = draw(st.sampled_from(("", "", "not", "later")))
    if wrap == "not":
        return f"(not {p})", ()
    return (f"({wrap} {p})" if wrap else p), names


@st.composite
def _chain_match(draw):
    """A match of (cons x <chain>) over (Multiset Integer)."""
    elems = draw(st.lists(st.integers(-2, 4).map(str), max_size=8))
    if draw(st.integers(0, 5)) == 0:
        elems.insert(draw(st.integers(0, len(elems))), draw(st.sampled_from(("#t", "a"))))
    y = draw(st.sampled_from(("", "y")))  # ,y reads the clause's y when there is one
    chain, names = draw(_chain(3))
    pattern = f"(cons {y or '_'} (cons x {chain}))" if y else f"(cons x {chain})"
    names = ("x",) + ((y,) if y else ()) + names
    kind = draw(st.sampled_from(("match-all", "match-first")))
    body = "`(" + " ".join("," + n for n in names) + ")"
    return f"({kind} '({' '.join(elems)}) (Multiset Integer) [{pattern} {body}])"


@st.composite
def _expr(draw, scope=(), depth=3):
    roll = draw(st.integers(0, 20))
    if depth == 0 or roll < 5:
        leaves = [_ATOMS.filter(lambda a: a not in ("a", "b")), _datum().map(lambda d: "'" + d),
                  st.sampled_from(_VALUE_BUILTINS)]
        if scope:
            leaves.append(st.sampled_from(scope))
        return draw(st.one_of(leaves))
    sub = lambda: draw(_expr(scope, depth - 1))  # noqa: E731
    if roll < 8:
        return f"({draw(st.sampled_from(_UNARY))} {sub()})"
    if roll < 11:
        return f"({draw(st.sampled_from(_BINARY))} {sub()} {sub()})"
    if roll == 11:
        return f"(iota {draw(st.sampled_from(('0', '3', '-1', str(2**70))))})"
    if roll == 12:
        return f"(if {sub()} {sub()} {sub()})"
    if roll == 13:
        params = draw(st.lists(st.sampled_from(("p", "q")), max_size=2, unique=True))
        body = draw(_expr(scope + tuple(params), depth - 1))
        argc = draw(st.sampled_from((len(params),) * 4 + (0, 1, 2)))
        args = " ".join(sub() for _ in range(argc))
        return f"((lambda ({' '.join(params)}) {body}) {args})"
    if roll == 14:
        fn = draw(st.one_of(
            st.sampled_from(_UNARY + ("5",)),
            _expr(scope + ("p",), depth - 1).map(lambda b: f"(lambda (p) {b})"),
        ))
        return f"(map {fn} {sub()})"
    if roll == 15:
        return "`(" + " ".join(draw(st.sampled_from(("1", "a", ",{}", "[,{} 2]"))).format(sub())
                              for _ in range(draw(st.integers(0, 3)))) + ")"
    if roll == 16:
        return f"({draw(st.sampled_from(('5', '#t', chr(39) + '(1)')))} {sub()})"  # not a function
    if roll == 17:  # any builtin, at any arity, so each one's arity errors are drawn
        args = " ".join(sub() for _ in range(draw(st.integers(0, 3))))
        return f"({draw(st.sampled_from(_VALUE_BUILTINS))} {args})"
    if roll == 20:
        return draw(_chain_match())
    return draw(_match(scope, depth))


def _check(program, max_results):
    # exit 0 or 1 with no traceback under both engines, and the same output
    # from the optimized and the naive strict Multiset
    runs = {}
    for flags in (["--engine", "strict"], ["--engine", "stream"], ["--naive-multiset"]):
        args = flags + ["--max-results", str(max_results), "eval", program]
        runs[flags[-1]] = code, out, err = cli(args)
        assert code in (0, 1), (args, err)
        assert "Traceback" not in err, (args, err)
    assert runs["--naive-multiset"] == runs["strict"], program


_ATOM_LIST = re.compile(r"\([^()\[\]]*\)")


def _engines_agree(program):
    strict = cli(["eval", program])
    stream = cli(["--engine", "stream", "eval", program])
    assert strict[0] == stream[0], (program, strict, stream)
    lines = strict[1].splitlines()
    if strict[0] == 0 and all(_ATOM_LIST.fullmatch(line) for line in lines):
        bags = [Counter(line[1:-1].split()) for line in lines]
        assert [Counter(line[1:-1].split()) for line in stream[1].splitlines()] == bags, program


@settings(max_examples=300, deadline=None)
@given(_expr(), st.integers(1, 4))
def test_random_programs_exit_cleanly(program, max_results):
    _check(program, max_results)
    _engines_agree(program)


_PATTERNS = ("(cons x _)", "(cons x (cons y _))", "(join _ (cons x _))", "(cons x (cons ,(+ x p) y))",
             "(join _ (cons x (not (join _ (cons ,x _)))))", "(join (later (cons ,p _)) (cons x y))")
_BODIES = ("x", "(+ x p)", "(* x p)", "((lambda (q) (- q p)) x)", "(if (< x p) p x)")


@st.composite
def _bodies_in_a_lambda(draw):
    """Matches whose bodies and protos read a lambda's parameter p: two
    forms, each a list of integers when it succeeds."""
    forms = []
    for _ in range(2):
        target = draw(_INT_LISTS)
        clauses = " ".join(f"[{draw(st.sampled_from(_PATTERNS))} {draw(st.sampled_from(_BODIES))}]"
                           for _ in range(draw(st.integers(1, 2))))
        m = draw(st.sampled_from(("(List Integer)", "(Multiset Integer)")))
        forms.append(f"((lambda (p) (match-all {target} {m} {clauses})) {draw(st.integers(0, 3))})")
    return " ".join(forms)


@settings(max_examples=100, deadline=None)
@given(_bodies_in_a_lambda())
def test_bodies_in_a_lambda_agree_under_both_engines(program):
    _engines_agree(program)


@settings(max_examples=200, deadline=None)
@given(_chain_match(), st.integers(1, 4))
def test_known_head_chains_agree_with_the_naive_multiset(program, max_results):
    _check(program, max_results)
