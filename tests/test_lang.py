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
from nfmatch.lang import (
    Evaluator,
    LangError,
    ParseError,
    cli_form,
    parse_program,
    repl,
    run_text,
)
from nfmatch.values import VList, VTuple, parse_value, value_equal

from helpers import cli


def ev(src, **kw):
    results = Evaluator(**kw).eval_program(parse_program(src))
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


def test_cli_exit_codes():
    assert cli(["eval", "(+ 1"])[0] == 1
    assert cli(["eval", "(undefined)"])[0] == 1
    assert cli(["run", "/no/such/file.nf"])[0] == 1
    assert cli(["eval", ""])[0] == 0


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
