"""A seeded generator of language programs, and the recorder of their runs.

The programs follow the program fuzz's grammar (tests/test_fuzz_programs.py:
literals, quoted data, builtins at any arity, if, lambda application, map,
quasiquote, and match-all / match-first with random patterns and
matchers), plus what the fuzz leaves out:
- top-level defines, whose values later forms call by name;
- self-recursion through match-first bodies, over short lists and counts;
- closures returned from closures;
- takes over the lazy list primes.

Every program terminates: a function refers only to the globals defined
before it and to itself, and recursion goes down a list or a count.

    PYTHONPATH=src python tests/lang_corpus.py > tests/data/lang_corpus.json

records each program's exit code, stdout and stderr under the strict
engine, --engine stream and --naive-multiset, in process through run_cli.
"""

import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

SEED = 30
COUNT = 320
MODES = {"strict": [], "stream": ["--engine", "stream"], "naive": ["--naive-multiset"]}

_ATOMS = [str(i) for i in range(-3, 10)] + ["#t", "#f", '"s"', "a", "b", str(2**70)]
_UNARY = ("car", "cdr", "neg", "abs", "-", "list")
_BINARY = ("+", "*", "-", "=", "<", ">", "eq?", "cons", "append", "take", "list")
_VALUE_BUILTINS = _UNARY + _BINARY + ("Integer", "Something", "Eq", "map")
_NAMES = ("x", "y", "z")


def _datum(rng, depth=2):
    if depth == 0 or rng.random() < 0.5:
        return rng.choice(_ATOMS)
    items = " ".join(_datum(rng, depth - 1) for _ in range(rng.randrange(5)))
    return "(" + items + ")" if rng.random() < 0.5 else "[" + items + "]"


def _ints(rng, size=5):
    return "'(" + " ".join(str(rng.randrange(-1, 5)) for _ in range(rng.randrange(size + 1))) + ")"


def _matcher(rng, depth=2):
    roll = rng.randrange(12)
    if depth == 0 or roll < 2:
        return rng.choice(("Integer", "Something", "Eq"))
    if roll < 4:
        return "(List Integer)"
    if roll < 6:
        return "(Multiset Integer)"
    if roll < 8:
        return f"({rng.choice(('List', 'Multiset'))} {_matcher(rng, depth - 1)})"
    if roll < 11:
        return "`[" + " ".join("," + _matcher(rng, depth - 1) for _ in range(rng.randint(1, 3))) + "]"
    return rng.choice(("5", "'(1 2)", "car", "(list Integer 1)"))  # not a matcher


def _pattern(rng, scope, depth=3):
    roll = rng.randrange(15)
    if depth == 0 or roll < 3:
        return rng.choice(("_",) + _NAMES)
    if roll < 5:
        return "," + _expr(rng, scope + _NAMES, 1)
    args = lambda n: " ".join(_pattern(rng, scope, depth - 1) for _ in range(n))  # noqa: E731
    if roll < 7:
        return f"(cons {args(2)})"
    if roll == 7:
        return f"(join {args(2)})"
    if roll == 8:
        return rng.choice(("(nil)", "()", "(foo _)"))
    if roll == 9:
        return f"({rng.choice(('or', 'and'))} {args(rng.randint(1, 3))})"
    if roll == 10:
        return f"(not {args(1)})"
    if roll == 11:
        return f"(later {args(1)})"
    return f"'[{args(rng.randint(0, 3))}]"


def _match(rng, scope, depth):
    kind = rng.choice(("match-all", "match-first"))
    roll = rng.randrange(3)
    target = (_ints(rng) if roll == 0 else "'" + _datum(rng) if roll == 1
              else _expr(rng, scope, depth - 1))
    clauses = " ".join(f"[{_pattern(rng, scope)} {_expr(rng, scope + _NAMES, depth - 1)}]"
                       for _ in range(rng.randint(1, 2)))
    return f"({kind} {target} {_matcher(rng)} {clauses})"


def _expr(rng, scope=(), depth=3, calls=()):
    """An expression that may read the names in scope and call the unary
    functions in calls."""
    roll = rng.randrange(23)
    sub = lambda: _expr(rng, scope, depth - 1, calls)  # noqa: E731
    if depth == 0 or roll < 5:
        leaves = [lambda: rng.choice(_ATOMS[:-3] + _ATOMS[-1:]), lambda: "'" + _datum(rng),
                  lambda: rng.choice(_VALUE_BUILTINS)]
        if scope:
            leaves.append(lambda: rng.choice(scope))
        return rng.choice(leaves)()
    if roll < 8:
        return f"({rng.choice(_UNARY)} {sub()})"
    if roll < 11:
        return f"({rng.choice(_BINARY)} {sub()} {sub()})"
    if roll == 11:
        return f"(iota {rng.choice(('0', '3', '-1', str(2**70)))})"
    if roll == 12:
        return f"(if {sub()} {sub()} {sub()})"
    if roll == 13:
        params = rng.sample(("p", "q"), rng.randint(0, 2))
        body = _expr(rng, scope + tuple(params), depth - 1, calls)
        argc = rng.choice((len(params),) * 4 + (0, 1, 2))
        return f"((lambda ({' '.join(params)}) {body}) {' '.join(sub() for _ in range(argc))})"
    if roll == 14:
        fn = (rng.choice(_UNARY + ("5",)) if rng.random() < 0.5
              else f"(lambda (p) {_expr(rng, scope + ('p',), depth - 1, calls)})")
        return f"(map {fn} {sub()})"
    if roll == 15:
        return "`(" + " ".join(rng.choice(("1", "a", ",{}", "[,{} 2]")).format(sub())
                              for _ in range(rng.randrange(4))) + ")"
    if roll == 16:
        return f"({rng.choice(('5', '#t', chr(39) + '(1)'))} {sub()})"  # not a function
    if roll == 17:
        args = " ".join(sub() for _ in range(rng.randrange(4)))
        return f"({rng.choice(_VALUE_BUILTINS)} {args})"
    if roll == 18 and calls:
        return f"({rng.choice(calls)} {sub()})"
    if roll == 19:
        return _primes(rng)
    return _match(rng, scope, depth)


def _primes(rng):
    k = rng.randint(0, 6)
    return rng.choice((
        f"(take primes {k})",
        f"(map (lambda (p) (* p p)) (take primes {k}))",
        "(match-first primes (List Integer) "
        f"[(join _ (cons p (cons ,(+ p {rng.choice((2, 4, 6))}) _))) p])",
        f"(match-all (take primes {k + 4}) (List Integer) "
        "[(join _ (cons p (cons ,(+ p 2) _))) `(,p ,(+ p 2))])",
        f"(take (match-all (take primes {k + 6}) (Multiset Integer) "
        f"[(cons p (cons ,(+ p 2) _)) p]) {k})",
    ))


def _recursive(rng, name):
    """The define of a unary function that recurs through match-first
    bodies, down a list or a count."""
    op = rng.choice(("+", "*", "cons", "list"))
    if rng.random() < 0.6:
        m = rng.choice(("(List Integer)", "(Multiset Integer)", "(List Something)"))
        base = rng.choice(("0", "1", "'()", "x0"))
        body = rng.choice((f"({op} x ({name} r))", f"({op} ({name} r) x)",
                           f"(if (< x 2) ({name} r) ({op} x ({name} r)))"))
        first = rng.choice(("(cons x r)", "(cons x (cons ,x r))" if "Multiset" in m else "(cons x r)"))
        extra = f" [(cons x (cons ,(+ x 1) r)) (list x ({name} r))]" if rng.random() < 0.3 else ""
        return (f"(define {name} (lambda (xs) (match-first xs {m} [(nil) {base}]{extra} "
                f"[{first} {body}] [_ 'odd])))")
    return (f"(define {name} (lambda (n) (if (< n 1) 0 (match-first n Integer "
            f"[,{rng.randint(0, 3)} 100] [k ({op} k ({name} (- k 1)))]))))")


def _closures(rng, name):
    """A closure returned from a closure returned from a closure."""
    body = _expr(rng, ("a", "b", "c"), 2)
    return f"(define {name} (lambda (a) (lambda (b) (lambda (c) {body}))))"


def _int(rng, ints, lists, depth, calls=()):
    """A well-typed integer expression over int names and list names."""
    roll = rng.randrange(12 if depth > 0 else 2)
    i = lambda: _int(rng, ints, lists, depth - 1, calls)  # noqa: E731
    if roll == 0 or (roll == 1 and not ints):
        return str(rng.randrange(-2, 10))
    if roll == 1:
        return rng.choice(ints)
    if roll == 2:
        return f"({rng.choice(('+', '*', '-'))} {i()} {i()})"
    if roll == 3:
        return f"(if ({rng.choice(('<', '>', '='))} {i()} {i()}) {i()} {i()})"
    if roll == 4:
        p = rng.choice(("p", "q"))
        return f"((lambda ({p}) {_int(rng, ints + (p,), lists, depth - 1, calls)}) {i()})"
    if roll == 5 and calls:
        return f"({rng.choice(calls)} {i()})"
    if roll <= 6:
        return f"(abs {i()})"
    l = _list(rng, ints, lists, depth - 1, calls)
    if roll == 7:
        empty = i()
        return (f"(match-first {l} (List Integer) [(nil) {empty}] "
                f"[(cons x _) {_int(rng, ints + ('x',), lists, depth - 1, calls)}])")
    if roll == 8:
        return f"(car (cons {i()} {l}))"
    if roll == 9:
        body = _int(rng, ints + ("x", "y"), lists, depth - 1, calls)
        return f"(match-first {l} (Multiset Integer) [(cons x (cons y _)) {body}] [_ {i()}])"
    return f"(+ {i()} {i()})"


def _list(rng, ints, lists, depth, calls=()):
    """A well-typed list-of-integers expression."""
    roll = rng.randrange(12 if depth > 0 else 3)
    i = lambda: _int(rng, ints, lists, depth - 1, calls)  # noqa: E731
    l = lambda: _list(rng, ints, lists, depth - 1, calls)  # noqa: E731
    if roll == 0 or (roll == 1 and not lists):
        return _ints(rng, 6)
    if roll == 1:
        return rng.choice(lists)
    if roll == 2:
        return f"(iota {rng.randrange(6)} {rng.randrange(-2, 3)})"
    if roll == 3:
        p = rng.choice(("p", "q"))
        return f"(map (lambda ({p}) {_int(rng, ints + (p,), lists, depth - 1, calls)}) {l()})"
    if roll == 4:
        return f"({rng.choice(('cons', 'append'))} {i() if rng.random() < 0.5 else l()} {l()})"
    if roll == 5:
        return f"(take {rng.choice(('primes', l()))} {rng.randrange(6)})"
    if roll == 6:
        k = _int(rng, ints + ("x",), lists, 1, calls)
        target = l()
        return (f"(match-all {target} (Multiset Integer) [(cons x (cons ,{k} _)) "
                f"{_int(rng, ints + ('x',), lists, depth - 1, calls)}])")
    if roll == 7:
        target, rest = l(), rng.choice(("_", "(not (join _ (cons ,x _)))"))
        return (f"(match-all {target} (List Integer) [(join _ (cons x {rest})) "
                f"{_int(rng, ints + ('x',), lists, depth - 1, calls)}])")
    if roll == 8:
        return (f"(match-all {l()} (List Integer) "
                "[(join (later (not (join _ (cons ,x _)))) (cons x _)) x] [(cons x (cons y _)) (+ x y)])")
    if roll == 9:
        return f"(match-all {l()} (Multiset Integer) [(cons x (cons y _)) `(,x ,y)])"
    if roll == 10:
        return f"(match-first {l()} (List Integer) [(cons _ r) r] [_ {l()}])"
    return f"(if ({rng.choice(('<', '='))} {i()} {i()}) {l()} {l()})"


def _typed(rng):
    """A program whose forms are mostly well typed: int functions and
    list-valued globals, then expressions over them."""
    forms, calls, lists = [], (), ()
    for i in range(rng.randrange(4)):
        if rng.random() < 0.5:
            forms.append(f"(define g{i} (lambda (n) {_int(rng, ('n',), lists, 3, calls)}))")
            calls += (f"g{i}",)
        else:
            forms.append(f"(define l{i} {_list(rng, (), lists, 2, calls)})")
            lists += (f"l{i}",)
    for _ in range(rng.randint(1, 3)):
        forms.append(_int(rng, (), lists, 3, calls) if rng.random() < 0.5
                     else _list(rng, (), lists, 3, calls))
    return " ".join(forms)


def program(rng) -> str:
    if rng.random() < 0.6:
        return _typed(rng)
    forms, calls = [], []
    for i in range(rng.randrange(4)):
        name = f"f{i}"
        roll = rng.randrange(4)
        if roll == 0:
            forms.append(_recursive(rng, name))
            arg = _ints(rng, 7) if "xs" in forms[-1] else str(rng.randint(-1, 9))
            forms.append(f"({name} {arg})")
        elif roll == 1:
            forms.append(_closures(rng, name))
            forms.append(f"((({name} {_expr(rng, (), 1)}) {rng.randint(0, 3)}) {_ints(rng)})")
            continue
        elif roll == 2:
            forms.append(f"(define {name} (lambda (v) {_expr(rng, ('v',), 3, tuple(calls))}))")
        else:
            forms.append(f"(define {name} {_expr(rng, (), 2, tuple(calls))})")
            continue
        calls.append(name)
    for _ in range(rng.randint(1, 3)):
        forms.append(_expr(rng, (), 3, tuple(calls)))
    return " ".join(forms)


def run(args) -> list:
    from nfmatch.cli import run_cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(list(args))
    return [code, out.getvalue(), err.getvalue()]


def record(seed=SEED, count=COUNT) -> list:
    rng = random.Random(seed)
    rows = []
    while len(rows) < count:
        text = program(rng)
        rows.append({"program": text, **{m: run(f + ["eval", text]) for m, f in MODES.items()}})
    return rows


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=0)
    sys.stdout.write("\n")
