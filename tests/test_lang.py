"""Surface language: reader, analyzer, evaluator, REPL."""

import io
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr

import pytest
from hypothesis import given, settings, strategies as st

import nfmatch
from nfmatch.cli import run_cli
from nfmatch.lang import (
    _BUILTINS,
    Apply,
    ClauseTemplate,
    Define,
    Evaluator,
    If,
    Lambda,
    LangError,
    MatchExpr,
    ParseError,
    Ref,
    _span,
    cli_form,
    parse_program,
    repl,
    run_text,
)
from nfmatch.values import (
    Symbol,
    VList,
    VTuple,
    lazyseq_from_iter,
    parse_value,
    print_value,
    value_equal,
)

from helpers import cli


def ev(src, **kw):
    results = list(Evaluator(**kw).eval_forms(parse_program(src)))
    return results[-1]


def fails(src, **kw):
    with pytest.raises(LangError) as e:
        ev(src, **kw)
    return str(e.value)


# --- Reader ---


def test_atoms_and_arithmetic():
    assert ev("(+ 1 2 3)") == 6
    assert ev("(- 10 4)") == 6
    assert ev("(- 6)") == -6
    assert ev("(* 2 3 4)") == 24
    assert ev("#t") is True
    assert ev("#f") is False
    assert ev('"hi\\nthere"') == "hi\nthere"
    assert ev("; comment\n42 ; trailing") == 42


def test_brackets_are_interchangeable_but_balanced():
    assert ev("[+ 1 2]") == 3
    assert ev("{+ 1 2}") == 3
    with pytest.raises(ParseError) as e:
        parse_program("(+ 1 2]")
    assert "mismatch" in str(e.value)


def test_incomplete_input_is_flagged():
    with pytest.raises(ParseError) as e:
        parse_program("(+ 1")
    assert e.value.incomplete
    with pytest.raises(ParseError) as e:
        parse_program('"never closed')
    assert e.value.incomplete
    with pytest.raises(ParseError) as e:
        parse_program('(if 1 2) "abc')
    assert e.value.incomplete


def test_extra_closer_is_an_error():
    with pytest.raises(ParseError) as e:
        parse_program(")")
    assert not e.value.incomplete


def test_parse_error_spans_point_at_source():
    with pytest.raises(ParseError) as e:
        parse_program("(huh\n  ]", "prog.nf")
    msg = str(e.value)
    assert msg.startswith("prog.nf:2:")


def test_quote_forms():
    assert cli_form(ev("'(1 2 3)")) == "(1 2 3)"
    assert cli_form(ev("'[1 2 3]")) == "(1 2 3)"
    assert cli_form(ev("'()")) == "()"
    assert ev("'x") is not None
    assert cli_form(ev("`(1 ,(+ 1 1) 3)")) == "(1 2 3)"


def test_nested_quasiquote_rejected():
    with pytest.raises(ParseError):
        parse_program("`(1 `(2))")


def test_stray_unquote_rejected():
    with pytest.raises(ParseError):
        parse_program(",x")


# The reader's outcomes pinned, as parse_program reads each top-level form:
# a symbol as sym: and its name, an application as its parts in the brackets
# it was written with, each then @line:column:start-end; a literal as its
# value (quoted data after a quote mark, a string as its repr); an error as
# message, span and flag.


_CLOSERS = {"(": ")", "[": "]", "{": "}"}


def _at(handle):
    return "@{}:{}:{}-{}".format(*_span(handle)[1:])


def _show(e):
    if type(e) is Ref:
        return "sym:" + repr(str.__str__(e.name)) + _at(e.span)
    if type(e) is Apply:
        opener = e.span[0][0][e.span[1]]
        return opener + " ".join(map(_show, (e.fn, *e.args))) + _CLOSERS[opener] + _at(e.span)
    v = e.value
    if type(v) is str:
        return repr(v)
    return ("'" if type(v) in (Symbol, VList) else "") + print_value(v)


def _read_outcome(text):
    try:
        return " ".join(map(_show, parse_program(text, "f")))
    except ParseError as e:
        s = e.span
        return (f"error {e.message!r} {s.file}:{s.line}:{s.column}:{s.start}-{s.end} "
                f"incomplete={e.incomplete}")


READER_TABLE = [
    ('  a\tb\r\nc ; comment\n d',
     "sym:'a'@1:3:2-3 sym:'b'@1:5:4-5 sym:'c'@2:1:7-8 sym:'d'@3:2:20-21"),
    ('a\x0bb c\x0cd e\xa0f',
     "sym:'a\\x0bb'@1:1:0-3 sym:'c\\x0cd'@1:5:4-7 sym:'e\\xa0f'@1:9:8-11"),
    ('\x0ca \xa0b\x0c',
     "sym:'\\x0ca'@1:1:0-2 sym:'\\xa0b\\x0c'@1:4:3-6"),
    ('; only a comment',
     ''),
    ('',
     ''),
    ('foo bar-baz? ->x . @x ~y',
     "sym:'foo'@1:1:0-3 sym:'bar-baz?'@1:5:4-12 sym:'->x'@1:14:13-16 sym:'.'@1:18:17-18 sym:'@x'@1:20:19-21 sym:'~y'@1:23:22-24"),
    ('#t #f',
     '#t #f'),
    ('(a #true)',
     "error 'unknown token #true' f:1:4:3-8 incomplete=False"),
    ('#',
     "error 'unknown token #' f:1:1:0-1 incomplete=False"),
    ('1_000 +5 -7 ٣ 1_ _1 \x0b5',
     "1000 5 -7 3 sym:'1_'@1:15:14-16 sym:'_1'@1:18:17-19 5"),
    ("a'b c`d e,f",
     "error 'unquote outside quasiquote or pattern' f:1:10:9-11 incomplete=False"),
    ('ab"cd"ef',
     "sym:'ab'@1:1:0-2 'cd' sym:'ef'@1:7:6-8"),
    ('a;b\nc',
     "sym:'a'@1:1:0-1 sym:'c'@2:1:4-5"),
    ('"a\\nb\\tc\\r\\"d\\\\"',
     '\'a\\nb\\tc\\r"d\\\\\''),
    ('"bad \\q escape',
     "error 'unknown string escape \\\\q' f:1:1:0-7 incomplete=False"),
    ('"abc',
     "error 'unterminated string' f:1:1:0-4 incomplete=True"),
    ('"abc\\',
     "error 'unterminated string' f:1:1:0-5 incomplete=True"),
    ('"line1\nline2" x\n  y',
     "'line1\\nline2' sym:'x'@2:8:14-15 sym:'y'@3:3:18-19"),
    ('"\\\n"',
     "error 'unknown string escape \\\\\\n' f:1:1:0-3 incomplete=False"),
    ('(a (b c) [d] {e})',
     "(sym:'a'@1:2:1-2 (sym:'b'@1:5:4-5 sym:'c'@1:7:6-7)@1:4:3-8 [sym:'d'@1:11:10-11]@1:10:9-12 {sym:'e'@1:15:14-15}@1:14:13-16)@1:1:0-17"),
    ("'x `(a ,b) ,@c",
     "error 'unquote outside quasiquote or pattern' f:1:12:11-14 incomplete=False"),
    ("'  ; c\n  (a\n b)",
     "'(a b)"),
    ("''x",
     "error 'quote is not allowed inside quoted data' f:1:2:1-3 incomplete=False"),
    ("a'b c`d",
     "sym:'a'@1:1:0-1 'b sym:'c'@1:5:4-5 'd"),
    ("'x `(a ,b) `,c",
     "'x (sym:'list'@1:5:4-10 'a sym:'b'@1:9:8-9)@1:5:4-10 sym:'c'@1:14:13-14"),
    ('`[1 ,@c "s" #t] \'{a [b] "s" #f}',
     '[sym:\'list\'@1:2:1-15 1 sym:\'@c\'@1:6:5-7 \'s\' #t]@1:2:1-15 \'(a (b) "s" #f)'),
    ('(a\n  (b\n    c))\n  d',
     "(sym:'a'@1:2:1-2 (sym:'b'@2:4:6-7 sym:'c'@3:5:12-13)@2:3:5-14)@1:1:0-15 sym:'d'@4:3:18-19"),
    ('(a (b',
     'error "missing \')\' before end of input" f:1:4:3-5 incomplete=True'),
    ('[a\n b\n',
     'error "missing \']\' before end of input" f:1:1:0-6 incomplete=True'),
    (')',
     'error "unexpected \')\'" f:1:1:0-1 incomplete=False'),
    ('a\n ]',
     'error "unexpected \']\'" f:2:2:3-4 incomplete=False'),
    ('(a]',
     'error "mismatched brackets: \'(\' closed by \']\'" f:1:3:2-3 incomplete=False'),
    ("'(a\n}",
     'error "mismatched brackets: \'(\' closed by \'}\'" f:2:1:4-5 incomplete=False'),
    ("'",
     "error 'unexpected end of input' f:1:2:1-1 incomplete=True"),
    ("(a '",
     "error 'unexpected end of input' f:1:5:4-4 incomplete=True"),
    ("x\n  ' ; c\n",
     "error 'unexpected end of input' f:3:1:10-10 incomplete=True"),
    ("'\n)",
     'error "unexpected \')\'" f:2:1:2-3 incomplete=False'),
    ("(a ')",
     'error "unexpected \')\'" f:1:5:4-5 incomplete=False'),
    ('(a #x)',
     "error 'unknown token #x' f:1:4:3-5 incomplete=False"),
    ('(f "x"',
     'error "missing \')\' before end of input" f:1:1:0-6 incomplete=True'),
    ('{"s" "t\\q"',
     "error 'unknown string escape \\\\q' f:1:6:5-9 incomplete=False"),
]


def test_reader_outcomes_are_pinned():
    for text, want in READER_TABLE:
        assert _read_outcome(text) == want, text


_BLANKS = (" ", "  ", "\t", "\n", "\r\n", "; note\n", " ;\r\n")
_ATOMS = ("a", "bc", "12", "-3", "#t", '"s"', '"two\nlines"', '"esc\\n"', '"x\r\ny"',
          "(lambda (x y)\n  (if x y 0))",
          "(match-all xs (List Integer)\n  [(cons x (cons ,(+ k 1) _)) (f x)])")
_STRAYS = (")", "]", "(", "'", '"open', '"x\\q"', "#x", ",", "(if)", "(lambda x x)", "[x]",
           "(match-all 1 Integer [1 2])")


def _random_text(rng, depth=3):
    if depth and rng.random() < 0.5:
        shape = rng.choice("([{")
        inner = "".join(rng.choice(_BLANKS) + _random_text(rng, depth - 1)
                        for _ in range(rng.randrange(4)))
        return rng.choice(("", "", "'", "`", ",")) + shape + inner + _CLOSERS[shape]
    return rng.choice(_ATOMS)


def _parts(e):
    # the expressions right inside e, the code of a clause's value patterns included
    te = type(e)
    if te is Apply:
        return (e.fn, *e.args)
    if te is If:
        return (e.cond, e.then, e.els)
    if te is Lambda:
        return e.body
    if te is Define:
        return (e.expr,)
    if te is MatchExpr:
        return (e.target, e.matcher, *e.clauses)
    if te is ClauseTemplate:
        return (e.body, *[vp.expr for vp in e.protos])
    return ()


def test_spans_agree_with_a_count_of_the_text_before_them():
    # line and column of every node that keeps a span (Ref, Apply and
    # MatchExpr) and of every parse error, against a naive count over the
    # text before the start offset
    rng = random.Random(17)
    kept = set()

    def check(span, text):
        before = text[:span.start]
        assert (span.line, span.column) == (
            before.count("\n") + 1, len(before) - before.rfind("\n")), (text, span)

    for _ in range(400):
        parts = [_random_text(rng) + rng.choice(_BLANKS) for _ in range(rng.randrange(1, 5))]
        if rng.random() < 0.3:  # malformed
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(_STRAYS))
        text = "".join(parts)
        try:
            todo = parse_program(text, "f")
        except ParseError as e:
            check(e.span, text)
            todo = []
        while todo:
            e = todo.pop()
            if type(e) in (Ref, Apply, MatchExpr):
                check(_span(e.span), text)
                kept.add(type(e))
            todo.extend(_parts(e))
    assert kept == {Ref, Apply, MatchExpr}


PARSE_VALUE_TABLE = [
    ('1 )', 'ValueError trailing input at offset 2'),
    ('   ', 'ValueError unexpected end of input'),
    ('', 'ValueError unexpected end of input'),
    ('[1 (2 3)] ', 'value [1 (2 3)]'),
    ('1 "abc', 'ValueError trailing input at offset 2'),
    ("'x", 'ValueError quote is not allowed inside quoted data'),
    ('(1 2', "ValueError missing ')' before end of input"),
    ('"a\\q"', 'ValueError unknown string escape \\q'),
    ('{1 #t} ; c\n', 'value (1 #t)'),
    ('1 #bad', 'ValueError trailing input at offset 2'),
]


def test_parse_value_outcomes_are_pinned():
    for text, want in PARSE_VALUE_TABLE:
        try:
            got = "value " + print_value(parse_value(text))
        except ValueError as e:
            got = f"ValueError {e}"
        assert got == want, text


# The analyzer's errors pinned as the line run_text prints.

ANALYZER_TABLE = [
    ("(())", "f:1:2: parse error: empty application"),
    ("(if 1 2)", "f:1:1: parse error: if takes a condition and two branches"),
    ("(lambda (x))", "f:1:1: parse error: lambda takes a parameter list and a body"),
    ("(define x)", "f:1:1: parse error: define takes a name and one expression"),
    ("(define (f) 1)", "f:1:1: parse error: define takes a name and one expression"),
    ("(if #t (define x 1) 0)", "f:1:8: parse error: define is only allowed at the top level"),
    ("(match-all 1 Integer)",
     "f:1:1: parse error: match-all takes a target, a matcher, and at least one clause"),
    ("(match-first 1 Integer)",
     "f:1:1: parse error: match-first takes a target, a matcher, and at least one clause"),
    ("(lambda x x)", "f:1:9: parse error: lambda parameters must be a list of names"),
    ("(lambda (x 1) x)", "f:1:9: parse error: lambda parameters must be names"),
    ("(lambda (x y x) x)", "f:1:9: parse error: lambda parameters must be distinct"),
    ("`(1 '2)", "f:1:5: parse error: quote inside quasiquote is not supported"),
    ("`(1 `2)", "f:1:5: parse error: nested quasiquote is not supported"),
    (",x", "f:1:1: parse error: unquote outside quasiquote or pattern"),
    ("'(a ,b)", "f:1:5: parse error: unquote is not allowed inside quoted data"),
    ("(match-all 1 Integer x)", "f:1:22: parse error: a match clause is [pattern body]"),
    ("(match-all 1 Integer [x])", "f:1:22: parse error: a match clause is [pattern body]"),
    ("(match-all 1 Integer [`x 1])",
     "f:1:23: parse error: quasiquote is not allowed inside a pattern"),
    ("(match-all 1 Integer ['x 1])",
     "f:1:23: parse error: a quoted pattern must be a tuple of patterns"),
    ("(match-all 1 Integer [(1 x) 1])",
     "f:1:23: parse error: a pattern constructor must be a symbol"),
    ("(match-all 1 Integer [(not x y) 1])", "f:1:23: parse error: not takes one pattern"),
    ("(match-all 1 Integer [(later) 1])", "f:1:23: parse error: later takes one pattern"),
    ("(match-all 1 Integer [(cons 1 _) 1])",
     "f:1:29: parse error: a bare literal is not a pattern; write ,1 for a value pattern"),
    ("(+ 1\n  (lambda (x)\n    (if)))",
     "f:3:5: parse error: if takes a condition and two branches"),
    ("(define a 1) (define b (define c 2))",
     "f:1:24: parse error: define is only allowed at the top level"),
    # two errors each; the first in analysis order is reported.
    # a clause before the target
    ("(match-all (if) Integer x)", "f:1:25: parse error: a match clause is [pattern body]"),
    # a value pattern's code before the rest of its pattern
    ("(match-all 1 Integer [(cons ,(if) 1) 1])",
     "f:1:30: parse error: if takes a condition and two branches"),
    # a clause's body before the next clause
    ("(match-all 1 Integer [x (if)] y)",
     "f:1:25: parse error: if takes a condition and two branches"),
    # a later clause's quoted data before the target
    ("(match-first 1 (if) [x x] [(cons ,'(,y) _) 1])",
     "f:1:37: parse error: unquote is not allowed inside quoted data"),
    # an unquoted lambda before a later quasiquoted item
    ("`(,(lambda x x) (1 ,`,(if)))",
     "f:1:12: parse error: lambda parameters must be a list of names"),
    # a reader error anywhere wins over any analysis error
    ("(if 1 2) )", "f:1:10: parse error: unexpected ')'"),
    ('(if 1 2) "abc', "f:1:10: parse error: unterminated string"),
    # a form before its parts, found however late its closing bracket comes
    ("(if (lambda x x) 2)", "f:1:1: parse error: if takes a condition and two branches"),
    # a clause before a target that holds a match with an error of its own
    ("(match-all (match-first 1 (if) x) Integer [x (if)])",
     "f:1:46: parse error: if takes a condition and two branches"),
]


def test_analyzer_errors_are_pinned():
    for text, want in ANALYZER_TABLE:
        with pytest.raises(ParseError) as e:
            parse_program(text, "f")
        assert str(e.value) == want, text


# --- Analyzer / core forms ---


def test_if_and_truthiness():
    assert ev("(if #t 1 2)") == 1
    assert ev("(if #f 1 2)") == 2
    assert ev("(if 0 1 2)") == 1  # only #f is false
    assert ev("(if '() 1 2)") == 1


def test_lambda_closures_and_define():
    src = """
    (define make-adder (lambda (n) (lambda (k) (+ n k))))
    (define add3 (make-adder 3))
    (add3 4)
    """
    assert ev(src) == 7


def test_a_lambda_body_runs_each_expression_and_gives_the_last():
    assert ev("((lambda (x) 1 x) 5)") == 5
    assert "car of an empty list" in fails("((lambda (x) (car '()) x) 5)")


def test_recursion_via_define():
    src = """
    (define fact (lambda (n) (if (= n 0) 1 (* n (fact (- n 1))))))
    (fact 10)
    """
    assert ev(src) == 3628800


def test_deep_non_tail_recursion():
    src = """
    (define depth (lambda (n) (if (= n 0) 0 (+ 1 (depth (- n 1))))))
    (depth 10000)
    """
    assert ev(src) == 10000


def test_define_only_at_top_level():
    with pytest.raises(ParseError):
        parse_program("(if #t (define x 1) 0)")


def test_unbound_variable():
    assert "unbound variable" in fails("(no-such-thing 1)")


def test_builtin_arity_and_type_errors():
    assert fails("(car)")
    assert fails("(+ 1 \"two\")")
    assert fails("(car 5)")


def test_list_builtins():
    assert cli_form(ev("(cons 1 '(2 3))")) == "(1 2 3)"
    assert ev("(car '(1 2))") == 1
    assert cli_form(ev("(cdr '(1 2))")) == "(2)"
    assert cli_form(ev("(append '(1) '(2 3) '(4))")) == "(1 2 3 4)"
    assert cli_form(ev("(list 1 (+ 1 1) 3)")) == "(1 2 3)"
    assert cli_form(ev("(iota 4)")) == "(0 1 2 3)"
    assert cli_form(ev("(iota 3 5)")) == "(5 6 7)"
    assert cli_form(ev("(iota 3 0 10)")) == "(0 10 20)"
    assert cli_form(ev("(iota 3 0 0)")) == "(0 0 0)"
    assert cli_form(ev("(iota 2 7 -3)")) == "(7 4)"
    assert cli_form(ev("(take (repeat 9) 3)")) == "(9 9 9)"
    assert cli_form(ev("(map (lambda (x) (* x x)) '(1 2 3))")) == "(1 4 9)"
    assert ev("(eq? 2 (+ 1 1))") is True
    assert ev("(abs (neg 4))") == 4


# --- Match expressions ---


def test_match_all_basic():
    out = ev("(match-all '(1 2 3) (Multiset Integer) [(cons x rs) `(,x ,rs)])")
    assert cli_form(out) == "((1 (2 3)) (2 (1 3)) (3 (1 2)))"


def test_match_all_multiple_clauses_concatenate():
    out = ev(
        "(match-all '(1 2) (List Integer) [(cons x _) x] [(join _ (cons y _)) (neg y)])"
    )
    assert cli_form(out) == "(1 -1 -2)"


def test_match_first_and_no_match():
    assert ev("(match-first '(1 2) (List Integer) [(cons x _) x])") == 1
    assert ev("(match-first '(9) (List Integer) [(cons x _) #f])") is False
    msg = fails("(match-first '() (List Integer) [(cons x _) x])")
    assert "match" in msg


def test_value_patterns_read_clause_bindings():
    out = ev("(match-all '(2 8 2) (Multiset Integer) [(cons m (cons ,m _)) m])")
    assert cli_form(out) == "(2 2)"


def test_value_patterns_read_lexical_scope():
    src = """
    (define firsts-after (lambda (k xs)
      (match-all xs (List Integer) [(join _ (cons ,k (cons x _))) x])))
    (firsts-after 2 '(1 2 5 2 7))
    """
    assert cli_form(ev(src)) == "(5 7)"


def test_value_patterns_read_clause_variables_through_if_and_lambda():
    # x is read inside an if, so the value pattern waits for it
    out = ev("(match-all '(1 2) (List Integer) [(cons x (cons ,(if (= x 1) 2 0) _)) x])")
    assert cli_form(out) == "(1)"
    # the lambda's x shadows the clause's, so the value pattern reads no
    # clause variable and runs before x is bound
    src = "(match-all '(6 1) (List Integer) [(cons ,((lambda (x) (+ x 1)) 5) x) x])"
    assert cli_form(ev(src)) == "((1))"
    clause = parse_program(src)[0].clauses[0]
    assert [vp.refs for vp in clause.protos] == [()]


def test_value_pattern_expressions_evaluate():
    out = ev("(match-all '(1 2 3) (List Integer) [(cons _ (cons ,(+ 1 1) _)) \"ok\"])")
    assert cli_form(out) == '("ok")'


def test_tuple_patterns():
    out = ev("(match-all '[1 2] `[,Integer ,Integer] ['[x y] `(,y ,x)])")
    assert cli_form(out) == "((2 1))"


def test_or_and_not_later_in_language():
    base = "(match-all '(1 2 3) (List Integer) [%s x])"
    assert cli_form(ev(base % "(cons (or ,1 ,10) (cons x _))")) == "(2)"
    assert cli_form(ev(base % "(cons (and ,1 x) _)")) == "(1)"
    assert cli_form(ev(base % "(cons x (not (cons ,x _)))")) == "(1)"
    out = ev("(match-all '(1 1 2) (List Integer) [(cons (later ,x) (cons x _)) x])")
    assert cli_form(out) == "(1)"


def test_duplicate_binding_reported_as_lang_error():
    assert "bound more than once" in fails(
        "(match-all '(1 1) (List Integer) [(cons x (cons x _)) x])"
    )


def test_bare_literal_pattern_rejected():
    with pytest.raises(ParseError) as e:
        parse_program("(match-all '(1) (List Integer) [(cons 1 _) 0])")
    assert "literal" in str(e.value)


def test_matcher_expressions_are_values():
    src = """
    (define M (Multiset Integer))
    (match-all '(1 2) M [(cons x _) x])
    """
    assert cli_form(ev(src)) == "(1 2)"


def test_naive_multiset_flag_changes_nothing_observable():
    src = "(match-all '(3 1 2) (Multiset Integer) [(cons x _) x])"
    assert cli_form(ev(src)) == cli_form(ev(src, naive_multiset=True))


def test_stream_mode_matches_strict_on_finite_targets():
    src = "(match-all '(1 2 3 4) (Multiset Integer) [(cons x (cons y _)) `(,x ,y)])"
    strict = ev(src)
    streamed = ev(src, engine_mode="stream")
    assert sorted(map(cli_form, strict)) == sorted(map(cli_form, streamed))


def test_stream_mode_max_results_truncates():
    src = "(match-all primes (List Integer) [(join _ (cons p _)) p])"
    out = ev(src, engine_mode="stream", max_results=5)
    assert cli_form(out) == "(2 3 5 7 11)"


def test_match_first_same_in_stream_mode():
    src = "(match-first '(4 5 6) (Multiset Integer) [(cons m (cons ,(+ m 1) _)) m])"
    assert ev(src) == ev(src, engine_mode="stream")


def test_strict_mode_infinite_target_guarded_by_max_results():
    src = "(match-all primes (List Integer) [(cons p _) p])"
    assert cli_form(ev(src, max_results=1)) == "(2)"


# --- Printing ---


def test_cli_form_prints_tuples_as_lists():
    assert cli_form(VTuple((1, VTuple((2, 3))))) == "(1 (2 3))"
    assert cli_form(lazyseq_from_iter([VTuple((1, 2))])) == "((1 2))"
    assert cli_form(VList.of((True, False, "s"))) == '(#t #f "s")'


# --- run_text / REPL ---


def test_run_text_prints_results_and_skips_defines():
    out = io.StringIO()
    code = run_text("(define x 2) (+ x 3) (* x x)", Evaluator(), out=out)
    assert code == 0
    assert out.getvalue() == "5\n4\n"


def test_map_calls_builtins_and_reports_call_errors():
    cases = (
        ("(map neg '(1 2))", 0, "(-1 -2)\n", ""),
        ("(map (lambda (a b) a) '(1 2))", 1, "", "function takes 2 argument(s), got 1"),
        ("(map 5 '(1 2))", 1, "", "not a function: 5"),
    )
    for src, want_code, want_out, want_err in cases:
        out = io.StringIO()
        err = io.StringIO()
        with redirect_stderr(err):
            code = run_text(src, Evaluator(), out=out)
        assert code == want_code, src
        assert out.getvalue() == want_out
        assert want_err in err.getvalue()


def test_map_with_too_few_arguments_is_an_arity_error():
    code, out, err = cli(["eval", "(map)"])
    assert (code, out, err) == (1, "", "<eval>:1:1: error: map takes 2 argument(s), got 0\n")
    assert cli(["eval", "(map neg)"])[2] == "<eval>:1:1: error: map takes 2 argument(s), got 1\n"


def test_every_builtin_at_any_arity_gives_a_value_or_one_error_line():
    # matched against _ so that a lazy value such as (repeat 1) is not printed
    for name in map(str, _BUILTINS):
        for n in range(4):
            src = f"(match-first ({name}{' 1' * n}) Something [_ 0])"
            code, out, err = cli(["eval", src])
            assert (code, out, err) == (0, "0\n", "") or (
                code == 1 and out == "" and err.startswith("<eval>:1:14: error: ")
                and err.count("\n") == 1), (src, err)


# A match node keeps its clause list between evaluations where it can; each
# evaluation must still see its own lexical env, evaluator and errors.


def test_a_match_in_a_function_reads_each_call_s_arguments():
    src = ("(define f (lambda (n xs) (match-all xs (List Integer) "
           "[(join _ (cons x (cons ,(+ x n) _))) x]))) (f 1 '(1 2 3 5)) (f 2 '(1 2 3 5))")
    assert cli(["eval", src]) == (0, "(1 2)\n(3)\n", "")
    src = ("(define g (lambda (xs) (match-all xs (Multiset Integer) [(cons x (cons ,x _)) x]))) "
           "(g '(1 2 1 3 3)) (g '(4 4))")
    assert cli(["eval", src]) == (0, "(1 1 3 3)\n(4 4)\n", "")


def test_stream_matches_of_one_node_keep_their_own_arguments():
    src = ("(define s (lambda (k) (match-all primes (List Integer) "
           "[(join _ (cons p (cons ,(+ p k) _))) p]))) (define a (s 2)) (define b (s 4)) "
           "(take a 3) (take b 3) (take a 5)")
    want = "(3 5 11)\n(7 13 19)\n(3 5 11 17 29)\n"
    assert cli(["--engine", "stream", "eval", src]) == (0, want, "")


def test_an_invalid_pattern_in_a_function_fails_on_every_call():
    stdin = io.StringIO("(define h (lambda () (match-all 1 Integer [(cons y y) y])))\n(h)\n(h)\n")
    stdout = io.StringIO()
    err = io.StringIO()
    with redirect_stderr(err):
        assert repl(Evaluator(), stdin=stdin, stdout=stdout) == 0
    assert err.getvalue() == "<repl>:1:22: error: variable 'y' bound more than once: y\n" * 2


def test_one_parsed_program_runs_in_each_evaluator_s_own_globals():
    program = parse_program(
        "(match-all '(1 2 3 5) (List Integer) [(join _ (cons x (cons ,(+ x k) _))) x]) "
        "(match-first '(4 5) (List Integer) [(cons x (cons ,x _)) 0] [(cons x _) (+ x k)])"
    )
    results = []
    for k in (1, 2):
        evaluator = Evaluator()
        list(evaluator.eval_forms(parse_program(f"(define k {k})")))
        results.append([cli_form(v) for v in evaluator.eval_forms(program)])
    assert results == [["(1 2)", "5"], ["(3)", "6"]]


def test_stream_error_after_first_result_exits_cleanly():
    src_dir = os.path.dirname(os.path.dirname(nfmatch.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "nfmatch", "eval", "--engine", "stream",
         "(match-all '(1 a 1) (Multiset Integer) [(cons ,1 _) 1])"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src_dir},
    )
    assert run.returncode == 1
    assert "<eval>:1:1: error: integer matcher compared" in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [
    ("eval", "(+ 1 2)"),
    ("bench", "comb2", "--sizes", "5", "--variants", "functional", "--reps", "1",
     "--csv", "/dev/full"),
], ids=["eval", "bench"])
def test_a_full_output_is_an_error_line_not_a_traceback(args, unbuffered):
    src_dir = os.path.dirname(os.path.dirname(nfmatch.__file__))
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "nfmatch", *args],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src_dir, "PYTHONUNBUFFERED": unbuffered},
        )
    assert done.returncode == 1
    assert done.stderr == "error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("script", [
    '"$0" -m nfmatch repl <&-',
    'echo "(+ 1 2)" | "$0" -m nfmatch repl >&-',
], ids=["stdin-closed", "stdout-closed"])
def test_repl_with_a_closed_stream_ends_without_a_traceback(script):
    # sh runs the script with $0 the Python interpreter
    src_dir = os.path.dirname(os.path.dirname(nfmatch.__file__))
    done = subprocess.run(
        ["sh", "-c", script, sys.executable], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src_dir},
    )
    assert "Traceback" not in done.stderr
    assert done.returncode in (0, 1)


class _FailingStdout(io.TextIOBase):
    # an output whose every write fails as a full device or a closed pipe does
    def __init__(self, err):
        self.err = err

    def writable(self):
        return True

    def write(self, s):
        raise self.err


_IO_PROGRAMS = {
    "value": ("(+ 1 2)", 0),
    "runtime-error": ("(car 1)", 1),
    # 10^4300: 4301 digits, past the interpreter's default int/str limit
    "big-integer": ("(+ 1 " + "9" * 4300 + ")", 0),
}
_IO_STREAMS = {
    "stdin-none": (None, io.StringIO),
    "stdout-none": (io.StringIO, lambda: None),
    "stdout-enospc": (io.StringIO, lambda: _FailingStdout(OSError(28, "No space left on device"))),
    "stdout-broken-pipe": (io.StringIO, lambda: _FailingStdout(BrokenPipeError(32, "Broken pipe"))),
}


@pytest.mark.parametrize("program", sorted(_IO_PROGRAMS))
@pytest.mark.parametrize("streams", sorted(_IO_STREAMS))
@pytest.mark.parametrize("command", ["eval", "run", "repl"])
def test_cli_io_faults_end_in_an_exit_code_not_a_traceback(
        monkeypatch, tmp_path, command, streams, program):
    text, code = _IO_PROGRAMS[program]
    make_stdin, make_stdout = _IO_STREAMS[streams]
    path = tmp_path / "prog.nf"
    path.write_text(text + "\n")
    argv = {"eval": ["eval", text], "run": ["run", str(path)], "repl": ["repl"]}[command]
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdin", make_stdin and make_stdin(text + "\n"))
    monkeypatch.setattr(sys, "stdout", make_stdout())
    monkeypatch.setattr(sys, "stderr", err)
    got = run_cli(argv)
    assert "Traceback" not in err.getvalue()
    if streams.startswith("stdout-") and streams != "stdout-none":
        # the first write fails: one error line naming the fault
        assert got == 1 and err.getvalue().endswith(f"{sys.stdout.err}\n")
    elif command == "repl":
        assert got == 0  # the REPL reports an error and reads on to the end
    else:
        assert got == code


_IO_COMMANDS = {
    "examples-sat": lambda path: ["examples", "sat", str(path)],
    "examples-twin-primes": lambda path: ["examples", "twin-primes", "3"],
    "bench-comb2": lambda path: ["bench", "comb2", "--sizes", "10", "--reps", "1"],
}


@pytest.mark.parametrize("streams", sorted(_IO_STREAMS))
@pytest.mark.parametrize("command", sorted(_IO_COMMANDS))
def test_cli_io_faults_in_examples_and_bench_end_in_an_exit_code(
        monkeypatch, tmp_path, command, streams):
    make_stdin, make_stdout = _IO_STREAMS[streams]
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 2 2\n1 -2 0\n2 0\n")
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdin", make_stdin and make_stdin(""))
    monkeypatch.setattr(sys, "stdout", make_stdout())
    monkeypatch.setattr(sys, "stderr", err)
    got = run_cli(_IO_COMMANDS[command](path))
    assert "Traceback" not in err.getvalue()
    assert got in (0, 1, 2)
    if streams.startswith("stdout-") and streams != "stdout-none":
        # the first write fails: one error line naming the fault
        assert got == 1 and err.getvalue().endswith(f"{sys.stdout.err}\n")
    else:
        assert (got, err.getvalue()) == (0, "")


def test_an_integer_literal_reads_the_same_under_any_digit_limit(tmp_path):
    too_long = tmp_path / "big.nf"
    too_long.write_text("(+ 1 " + "1" * 5000 + ")\n")
    # 4200 digits: within the default limit of 4300, over a lowered one of 640;
    # it must equal its value rebuilt from 600-digit chunks, which int() reads
    within = tmp_path / "within.nf"
    digits = "".join(str(1 + i * 7 % 9) for i in range(4200))
    rebuilt = digits[:600]
    for i in range(600, 4200, 600):
        rebuilt = f"(+ (* {rebuilt} 1{'0' * 600}) {digits[i:i + 600]})"
    within.write_text(f"(= -{digits[0]}_{digits[1:]} (- 0 {rebuilt}))\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    src_dir = os.path.dirname(os.path.dirname(nfmatch.__file__))
    for path, expected in (
        (too_long, (1, "", f"{too_long}:1:6: parse error: integer literal too long (5000 characters)\n")),
        (within, (0, "#t\n", "")),
    ):
        for limit in ({}, {"PYTHONINTMAXSTRDIGITS": "0"}, {"PYTHONINTMAXSTRDIGITS": "640"}):
            done = subprocess.run(
                [sys.executable, "-m", "nfmatch", "run", str(path)],
                capture_output=True, text=True, timeout=60,
                env={**env, "PYTHONPATH": src_dir, **limit},
            )
            assert (done.returncode, done.stdout, done.stderr) == expected, (path, limit)
    # never a symbol, and an integer of up to 4300 characters still reads
    assert cli(["eval", "(+ 1 -" + "1" * 4300 + ")"]) == (
        1, "", "<eval>:1:6: parse error: integer literal too long (4301 characters)\n")
    assert cli(["eval", "(+ 1 " + "1" * 4300 + ")"]) == (0, "1" * 4299 + "2\n", "")
    assert cli(["eval", "'(+5 -5 1_0 1x +)"]) == (0, "(5 -5 10 1x +)\n", "")


def test_quoted_data_ten_thousand_deep_prints_without_traceback():
    depth = 10_000
    src_dir = os.path.dirname(os.path.dirname(nfmatch.__file__))

    def run(expr):
        return subprocess.run(
            [sys.executable, "-m", "nfmatch", "eval", expr],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src_dir},
        )

    nested = "(" * depth + "1" + ")" * depth
    done = run("'" + nested)
    assert (done.returncode, done.stdout, done.stderr) == (0, nested + "\n", "")
    done = run("'" * depth + "a")
    assert done.returncode == 1
    assert "parse error: quote is not allowed inside quoted data" in done.stderr
    assert "Traceback" not in done.stderr
    assert cli_form(parse_value("[" * depth + "]" * depth)) == "(" * depth + ")" * depth
    out = io.StringIO()
    assert sys.getrecursionlimit() <= 1000
    assert run_text(f"(define a '{nested}) (eq? a a)", Evaluator(), out=out) == 0
    assert out.getvalue() == "#t\n"


# Input nested past the walkers that still recurse on the host stack
_TOO_DEEP_PROBES = {
    "value pattern recursion": (
        "(define f (lambda (n) (if (= n 0) 0 (match-first n Integer [,(f (- n 1)) n] [_ n])))) (f 400)"),
}
_STREAM_PROBE = (
    "(define f (lambda (n) (if (= n 0) 0 (car (match-all (list n) (List Integer) "
    "[(cons x _) (+ 1 (f (- x 1)))]))))) (f 400)")


@pytest.mark.parametrize("args", [("eval", _TOO_DEEP_PROBES[k]) for k in sorted(_TOO_DEEP_PROBES)]
                         + [("eval", "--engine", "stream", _STREAM_PROBE)],
                         ids=sorted(_TOO_DEEP_PROBES) + ["stream body recursion"])
def test_too_deep_input_is_an_error_line_not_a_traceback(args):
    src_dir = os.path.dirname(os.path.dirname(nfmatch.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "nfmatch", *args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src_dir},
    )
    assert done.returncode == 1
    assert done.stderr == "error: nested too deeply for the host stack\n"


def test_quasiquote_nested_deeper_than_the_host_stack_evaluates():
    nested = "(" * 3000 + "1" + ")" * 3000
    src_dir = os.path.dirname(os.path.dirname(nfmatch.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "nfmatch", "eval", "`" + nested],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src_dir},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, nested + "\n", "")


def test_patterns_nested_deeper_than_the_host_stack_evaluate():
    depth = 10**4
    program = "(match-all 1 Integer [" + "(and " * depth + "x" + ")" * depth + " x])"
    assert sys.getrecursionlimit() <= 1000
    assert cli(["eval", program]) == (0, "(1)\n", "")


def test_code_nested_deeper_than_the_host_stack_evaluates():
    depth = 10**4
    deep = "(+ 1 " * depth + "x" + ")" * depth
    programs = (
        f"(define x 1) {deep}",
        f"(match-first 1 Integer [x {deep}])",
        f"(define x 1) (match-first {depth + 1} Integer [(and ,{deep} y) y])",
    )
    assert sys.getrecursionlimit() <= 1000
    for src in programs:
        assert cli(["eval", src]) == (0, f"{depth + 1}\n", ""), src[:40]
    # a chain of quasiquote and unquote marks
    assert cli(["eval", "`," * depth + "7"]) == (0, "7\n", "")


def test_repl_reports_too_deep_input_and_reads_on():
    nested = "(+ 1 " * 3000 + "1" + ")" * 3000
    eval_deep = _TOO_DEEP_PROBES["value pattern recursion"]
    stdin = io.StringIO(f"{nested}\n{eval_deep}\n(+ 1 2)\n")
    stdout = io.StringIO()
    err = io.StringIO()
    assert sys.getrecursionlimit() <= 1000
    with redirect_stderr(err):
        assert repl(Evaluator(), stdin=stdin, stdout=stdout) == 0
    assert err.getvalue() == "error: nested too deeply for the host stack\n"
    assert stdout.getvalue() == "nf> 3001\nnf> nf> 3\nnf> \n"


def test_a_value_too_large_for_memory_is_an_error_line():
    assert cli(["eval", "(iota 9223372036854775807)"]) == (1, "", "error: out of memory\n")


def test_value_patterns_run_only_where_a_candidate_needs_them():
    code, out, err = cli(["eval", "(match-all '() (Multiset Integer) [(cons ,(car '()) _) 1])"])
    assert (code, out, err) == (0, "()\n", "")
    assert ev("(match-first '(1 a) (Multiset Integer) [(cons ,1 _) 7])") == 7


def test_run_text_reports_errors_on_stderr():
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stderr(err):
        code = run_text("(+ 1 nope)", Evaluator(), "f.nf", out=out)
    assert code == 1
    assert "unbound variable" in err.getvalue()
    assert out.getvalue() == ""


def test_repl_session_with_continuation_and_recovery():
    stdin = io.StringIO("(+ 1\n2)\n(bad-name)\n(* 2 3)\n")
    stdout = io.StringIO()
    err = io.StringIO()
    with redirect_stderr(err):
        code = repl(Evaluator(), stdin=stdin, stdout=stdout)
    assert code == 0
    out = stdout.getvalue()
    assert "... " in out  # continuation prompt for the open paren
    assert "3\n" in out and "6\n" in out
    assert "unbound variable" in err.getvalue()


def test_the_repl_reads_a_one_line_form_once(monkeypatch):
    read = []
    parse = nfmatch.lang.parse_program

    def counted(*args):
        read.append(args)
        return parse(*args)

    monkeypatch.setattr(nfmatch.lang, "parse_program", counted)
    stdout = io.StringIO()
    assert repl(Evaluator(), stdin=io.StringIO("(+ 1 2)\n"), stdout=stdout) == 0
    assert stdout.getvalue() == "nf> 3\nnf> \n"
    assert read == [("(+ 1 2)\n", "<repl>")]


def test_repl_waits_for_an_open_form_even_after_a_malformed_one():
    # the open (+ 1 is a reader error, which wins over the if's analysis
    # error, so the buffer is read on; once complete, the if is reported
    stdin = io.StringIO("(if 1 2) (+ 1\n2)\n(* 2 3)\n")
    stdout = io.StringIO()
    err = io.StringIO()
    with redirect_stderr(err):
        assert repl(Evaluator(), stdin=stdin, stdout=stdout) == 0
    assert stdout.getvalue() == "nf> ... nf> 6\nnf> \n"
    assert err.getvalue() == "<repl>:1:1: parse error: if takes a condition and two branches\n"


def test_repl_stream_error_is_reported_on_every_force():
    # the failed producer must not leave a silently truncated sequence behind
    stdin = io.StringIO(
        "(define r (match-all '(1 a 1) (Multiset Integer) [(cons ,1 _) 1]))\nr\nr\n"
    )
    stdout = io.StringIO()
    err = io.StringIO()
    with redirect_stderr(err):
        code = repl(Evaluator(engine_mode="stream"), stdin=stdin, stdout=stdout)
    assert code == 0
    assert "(1)" not in stdout.getvalue()
    assert err.getvalue().count("integer matcher compared") == 2


def test_cli_eval_and_engine_flags_both_positions():
    for args in (
        ["eval", "(match-all '(1 2 3) (Multiset Integer) [(cons x _) x])"],
        ["--engine", "strict", "eval", "(match-all '(1 2 3) (Multiset Integer) [(cons x _) x])"],
        ["eval", "--engine", "stream", "--max-results", "3",
         "(match-all '(1 2 3) (Multiset Integer) [(cons x _) x])"],
    ):
        code, out, err = cli(args)
        assert code == 0, err
        assert set(out.strip("()\n").split()) == {"1", "2", "3"}


def test_cli_exit_codes(tmp_path):
    assert cli(["eval", "(+ 1"])[0] == 1
    assert cli(["eval", "(undefined)"])[0] == 1
    assert cli(["run", "/no/such/file.nf"])[0] == 1
    assert cli(["eval", ""])[0] == 0
    not_utf8 = tmp_path / "not-utf8.nf"
    not_utf8.write_bytes(b"\xff\xfe(+ 1 2)")
    code, out, err = cli(["run", str(not_utf8)])
    assert code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_cli_run_prints_a_file_s_results_and_reports_its_parse_errors(tmp_path):
    good = tmp_path / "good.nf"
    good.write_text("(define x 2)\n(+ x 3)\n(match-all '(1 2) (List Integer) [(cons y _) y])\n")
    assert cli(["run", str(good)]) == (0, "5\n(1)\n", "")
    bad = tmp_path / "bad.nf"
    bad.write_text("(+ 1 2)\n  (if 1)\n")
    assert cli(["run", str(bad)]) == (
        1, "", f"{bad}:2:3: parse error: if takes a condition and two branches\n")


# --- Properties ---

nested_values = st.recursive(
    st.integers(-9, 99), lambda c: st.lists(c, max_size=4), max_leaves=12
)


def _render(v, brackets="()"):
    if isinstance(v, list):
        op, cl = brackets[0], brackets[1]
        return op + " ".join(_render(x, brackets) for x in v) + cl
    return str(v)


def _render_mixed(v, rng):
    if isinstance(v, list):
        op, cl = rng.choice(("()", "[]", "{}"))
        return op + " ".join(_render_mixed(x, rng) for x in v) + cl
    return str(v)


@settings(max_examples=200)
@given(nested_values)
def test_printed_form_reparses_to_the_same_value(v):
    first = ev("'" + _render(v))
    again = ev("'" + cli_form(first)) if isinstance(v, list) else first
    assert value_equal(first, again)
    assert cli_form(first) == cli_form(again)


@settings(max_examples=200)
@given(nested_values, st.integers(0, 2**32 - 1))
def test_bracket_shape_never_changes_the_value(v, seed):
    plain = ev("'" + _render(v))
    mixed = ev("'" + _render_mixed(v, random.Random(seed)))
    assert value_equal(plain, mixed)


# --- One evaluation loop: match bodies and map calls are evaluator tasks ---


def test_recursion_through_match_bodies_and_map_ten_thousand_deep():
    programs = (
        ("(define count (lambda (xs) (match-first xs (List Integer) [(nil) 0] "
         "[(cons _ r) (+ 1 (count r))]))) (count (iota 10000))", "10000\n"),
        ("(define f (lambda (n) (if (= n 0) 0 (car (match-all (list n) (List Integer) "
         "[(cons x _) (+ 1 (f (- x 1)))]))))) (f 10000)", "10000\n"),
        ("(define g (lambda (n) (if (= n 0) 0 (car (map (lambda (x) (+ 1 (g (- x 1)))) "
         "(list n)))))) (g 10000)", "10000\n"),
        # match-first draws one branch of each Multiset cons step
        ("(define msum (lambda (xs) (match-first xs (Multiset Integer) [(nil) 0] "
         "[(cons x r) (+ x (msum r))]))) (msum (iota 10000))", "49995000\n"),
        # each r drops one element from a view that already drops one
        ("(define rm (lambda (xs n) (if (= n 0) (car xs) (match-first xs (Multiset Integer) "
         "[(cons ,(car (cdr xs)) r) (rm r (- n 1))])))) (rm (iota 12000) 10000)", "0\n"),
    )
    assert sys.getrecursionlimit() <= 1000
    for src, want in programs:
        assert cli(["eval", src]) == (0, want, ""), src


def test_multiset_cons_builds_only_the_rests_match_first_draws(monkeypatch):
    from nfmatch import matchers

    rests = []
    without_index = matchers.without_index

    def counted(xs, i):
        rests.append(i)
        return without_index(xs, i)

    monkeypatch.setattr(matchers, "without_index", counted)
    src = ("(define rm (lambda (xs n) (if (= n 0) (car xs) (match-first xs (Multiset Integer) "
           "[(cons _ r) (rm r (- n 1))])))) (rm (iota 10001) 10000)")
    assert ev(src) == 10000
    assert len(rests) == 10000  # one per level, not one per element per level


def test_evaluator_is_freed_without_the_cycle_collector():
    import gc
    import weakref

    src = """
    (map (lambda (x) (* x x)) '(1 2 3))
    (match-all '(1 2 3) (Multiset Integer) [(cons x (cons ,(+ x 1) _)) x])
    (match-first '(4 5) (List Integer) [(cons x _) (list x)])
    """
    gc.disable()
    try:
        evaluator = Evaluator()
        results = list(evaluator.eval_forms(parse_program(src)))
        assert cli_form(VList.of(results)) == "((1 4 9) (1 2) (4))"
        ref = weakref.ref(evaluator)
        del evaluator
        assert ref() is None
    finally:
        gc.enable()


def test_match_all_bodies_run_after_the_search():
    # the body fails at the first result and the search at the second
    # element; the search runs to its end first, so its error is reported
    msg = fails("(match-all '(1 a) (Multiset Integer) [(cons ,1 _) (car '())])")
    assert "integer matcher compared a value against non-integer target a" in msg
    assert "car of an empty list" not in msg


def test_max_results_runs_only_the_bodies_it_keeps():
    src = "(match-all '(1 2) (List Integer) [(join _ (cons x _)) (if (= x 2) (car '()) x)])"
    assert cli(["--max-results", "1", "eval", src]) == (0, "(1)\n", "")
    assert cli(["eval", src])[0] == 1


def test_max_results_stops_the_strict_search_before_a_later_error():
    # x = 2 raises in its value pattern, after the two results of x = 1
    src = "(match-all '(1 1 2) (Multiset Integer) [(cons x (cons ,(if (= x 2) (car '()) x) _)) x])"
    assert cli_form(ev(src, max_results=1)) == "(1)"
    assert cli_form(ev(src, max_results=2)) == "(1 1)"
    assert "car of an empty list" in fails(src, max_results=3)
    assert "car of an empty list" in fails(src)
    assert cli(["--max-results", "1", "eval", src]) == (0, "(1)\n", "")


def test_max_results_keeps_the_first_results_in_clause_order():
    src = "(match-all '(1 2 3) (List Integer) [(join _ (cons x _)) x] [(join _ (cons y _)) (* 10 y)])"
    assert cli_form(ev(src)) == "(1 2 3 10 20 30)"
    for n in range(1, 8):
        assert cli_form(ev(src, max_results=n)) == cli_form(VList.of((1, 2, 3, 10, 20, 30)[:n]))


def test_max_results_below_one_is_a_usage_error():
    src = "(match-all '(1 2 3) (List Integer) [(join _ (cons x _)) x])"
    for engine in ("strict", "stream"):
        for n in ("0", "-1"):
            code, out, err = cli(["--engine", engine, "--max-results", n, "eval", src])
            assert (code, out) == (2, "")
            assert f"--max-results: must be at least 1, got {n}" in err
            assert "Traceback" not in err
    with pytest.raises(ValueError, match="at least 1"):
        Evaluator(max_results=0)


def test_a_lazy_matcher_list_is_refused():
    src_dir = os.path.dirname(os.path.dirname(nfmatch.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "nfmatch", "eval", "(match-all '(1) (repeat Integer) [_ 1])"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src_dir},
    )
    assert run.returncode == 1
    assert "<eval>:1:1: error: a matcher list must be a finite list" in run.stderr
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("src", ["(repeat 1)", "(cdr (repeat 1))"])
def test_an_infinite_result_ends_in_one_error_line(src):
    # printing draws at most the force budget of lazy elements, then stops
    src_dir = os.path.dirname(os.path.dirname(nfmatch.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "nfmatch", "eval", src],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src_dir},
    )
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == (
        "error: a value whose lazy sequences hold more than 1000000 elements "
        "cannot be printed or converted\n"
    )


def test_an_infinite_lazy_sequence_is_not_forced_into_a_list():
    src_dir = os.path.dirname(os.path.dirname(nfmatch.__file__))
    for src in ("(match-all (repeat 1) (Multiset Integer) [(cons x _) x])",
                "(append '(1) (repeat 2))"):
        run = subprocess.run(
            [sys.executable, "-m", "nfmatch", "eval", src],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src_dir},
        )
        assert run.returncode == 1, src
        assert "<eval>:1:1: error: a lazy sequence longer than 1000000 elements" in run.stderr
        assert "Traceback" not in run.stderr


# --- Compiled clauses ---


def test_a_clause_is_compiled_on_its_first_evaluation():
    # an invalid pattern in a branch never taken is never validated
    assert ev("(if #f (match-all '(1) (List Integer) [(cons x x) 1]) 2)") == 2
    msg = fails("(if #t (match-all '(1) (List Integer) [(cons x x) 1]) 2)")
    assert "variable 'x' bound more than once" in msg


def test_a_clause_without_value_patterns_reuses_its_compiled_pattern(monkeypatch):
    from nfmatch import engine

    seen = []
    clause_results = engine.clause_results

    def spy(target, matcher, clauses):
        seen.extend(c.pattern for c in clauses)
        return clause_results(target, matcher, clauses)

    monkeypatch.setattr(engine, "clause_results", spy)
    src = """
    (define heads (lambda (xs) (match-all xs (List Integer) [(cons x _) x] [(cons _ (cons ,1 _)) 0])))
    (list (heads '(1 2)) (heads '(3 1)) (heads '(4)))
    """
    assert cli_form(ev(src)) == "((1) (3 0) (4))"
    assert len(seen) == 6
    assert seen[0] is seen[2] is seen[4]
    assert seen[1] is not seen[3]  # value patterns bound to each call's env


def test_value_patterns_read_the_binders_of_their_not():
    assert cli_form(ev("(match-all '(1 2 3) (List Integer) [(cons x (not (join y ,y))) x])")) == "(1)"
    assert cli_form(ev("(match-all '(1 2 2) (List Integer) [(cons x (not (join y ,y))) x])")) == "()"


# --- Functions, builtins and matchers as values ---


def test_opaque_values_print_and_compare_by_identity():
    for src, want in (
        ("(lambda (x) x)", "#<function of 1 arguments>\n"),
        ("+", "#<builtin +>\n"),
        ("(Multiset Integer)", "#<matcher (Multiset Integer)>\n"),
        ("(list car Something)", "(#<builtin car> #<matcher Something>)\n"),
        ("(eq? (lambda (x) x) 1)", "#f\n"),
        ("(eq? car car)", "#t\n"),
        ("(eq? (list car) (list car))", "#t\n"),
        ("(eq? (lambda (x) x) (lambda (x) x))", "#f\n"),
    ):
        assert cli(["eval", src]) == (0, want, ""), src
    for src, want in (
        ("(neg +)", "<eval>:1:1: error: neg expects an integer, got #<builtin +>\n"),
        ("((list (lambda (x) x)) 1)",
         "<eval>:1:1: error: not a function: (#<function of 1 arguments>)\n"),
        ("(eq? (repeat 1) (repeat 1))",
         "<eval>:1:1: error: lazy comparison exceeded its force budget\n"),
        ("(match-all 1 5 [x x])", "<eval>:1:1: error: not a matcher: 5\n"),
        ("(match-all 1 (list Integer 5) [x x])",
         "<eval>:1:1: error: a matcher list may only contain matchers\n"),
        ("(match-all 1 primes [x x])",
         "<eval>:1:1: error: a matcher list must be a finite list, not a lazy sequence\n"),
        ("(match-all 5 (List Integer) [(nil) 1])",
         "<eval>:1:1: error: list matcher applied to int\n"),
    ):
        assert cli(["eval", src]) == (1, "", want), src


def test_repl_prints_a_function_and_goes_on():
    stdin = io.StringIO("(lambda (x) x)\n(+ 1 2)\n")
    stdout = io.StringIO()
    with redirect_stderr(io.StringIO()):
        assert repl(Evaluator(), stdin=stdin, stdout=stdout) == 0
    assert "#<function of 1 arguments>\n" in stdout.getvalue()
    assert "3\n" in stdout.getvalue()


def test_error_messages_show_only_the_start_of_an_infinite_list():
    for src, want in (
        ("(+ 1 (repeat 1))", "+ expects an integer, got (1 1 1"),
        ("(match-all (list (repeat 1)) (List Integer) [(cons ,1 _) 1])",
         "non-integer target (1 1 1"),
    ):
        code, out, err = cli(["eval", src])
        assert (code, out) == (1, ""), src
        assert want in err and err.endswith(" 1 1...\n") and len(err) < 200, err


def test_error_messages_name_symbols_as_written():
    for src, want in (
        ("(match-all '(1 2) (List Integer) [(foo x) x])", "has no pattern constructor 'foo'"),
        ("(match-all '(1 2) (List Integer) [(cons x x) x])", "variable 'x' bound more than once"),
        ("(match-all '(a) (List Integer) [(cons ,1 _) 1])", "non-integer target a"),
        ("(match-all '(1) (Multiset Integer) [,5 1])", "non-list value 5"),
        # the value pattern reads x through a value pattern of a match inside it
        ("(match-all '(1 2) (List Integer) [(cons ,(match-first 1 Integer [,x 2] [_ 0]) x) x])",
         "value pattern references unbound variable 'x'"),
    ):
        msg = fails(src)
        assert want in msg and "Symbol(" not in msg, msg
