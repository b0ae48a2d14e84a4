"""Surface language: s-expression reader, analyzer, evaluator, and REPL.

Programs are s-expressions with three interchangeable bracket shapes
(each must close with its own shape), cut into tokens by one regex and
assembled by one loop. Expressions cover literals, `if`, `lambda`,
top-level `define`, application, quote/quasiquote, and the match-all /
match-first forms whose clause patterns compile to the pattern AST and
whose value patterns compile to closures over the lexical environment.

The evaluator runs on an explicit work stack, so deep non-tail recursion
(benchmark-scale helpers) does not hit the host recursion limit. Match
bodies and map's calls are tasks on that stack too: a strict match-all
runs as (list body1 ... bodyn) over its search's results, match-first as
the one body it picked, and (map f xs) as (list (f x1) ... (f xn)), so
recursion through them stays off the host stack. Code, quoted data and
clause patterns of any nesting depth are analyzed by folds (values.fold),
and patterns are validated, compiled and matched without recursion; only
a not nested in a not nests its subsearch. Two walkers still recurse on
the host stack, at run time: value patterns (run from inside the search)
and the bodies of a stream match-all (run as its lazy result is forced),
each of which starts a nested run. run_text, and so repl, reports a
program that overflows the host stack as one error line.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from itertools import islice
from typing import NamedTuple, Optional

from .errors import (
    ArityMismatch,
    DepthExceeded,
    DuplicateBinding,
    MatchError,
    UnboundValuePatternRef,
    ValidationError,
)
from . import engine
from .examples import primes_stream
from .matchers import (
    SOMETHING,
    Matcher,
    eq_matcher,
    integer_matcher,
    list_matcher,
    multiset_matcher,
    tuple_matcher,
)
from .pattern import (
    WILDCARD,
    And,
    Constructor,
    Later,
    Not,
    Or,
    TuplePattern,
    ValuePattern,
    Var,
    extract_pattern_variables,
    scoped,
)
from .values import (
    EMPTY_LIST,
    LazySeq,
    Symbol,
    VList,
    VTuple,
    as_vlist,
    cons_value,
    fold,
    is_seq,
    lazyseq_from_iter,
    list_concat,
    print_value,
    repeat_value,
    seq_uncons,
    show_value,
    value_equal,
    value_kind,
)


class SourceSpan(NamedTuple):
    file: str
    line: int
    column: int
    start: int
    end: int


class ParseError(Exception):
    """Malformed program text; .incomplete marks truncation at end of input."""

    def __init__(self, message: str, span: Optional[SourceSpan] = None, incomplete: bool = False):
        super().__init__(message)
        self.message = message
        self.span = span
        self.incomplete = incomplete

    def __str__(self):
        return format_error("parse error", self.message, self.span)


class LangError(Exception):
    """Runtime error in a surface-language program."""

    def __init__(self, message: str, span: Optional[SourceSpan] = None):
        super().__init__(message)
        self.message = message
        self.span = span

    def __str__(self):
        return format_error("error", self.message, self.span)


def format_error(kind: str, message: str, span: Optional[SourceSpan]) -> str:
    if span is None:
        return f"{kind}: {message}"
    return f"{span.file}:{span.line}:{span.column}: {kind}: {message}"


# ---------------------------------------------------------------------------
# Reader: text -> datums

_OPENERS = {"(": ")", "[": "]", "{": "}"}
_QUOTES = {"'": "quote", "`": "quasiquote", ",": "unquote"}
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}

# One token after any blanks (space, tab, CR, LF and ; comments); the
# group that matched names its kind. An atom runs up to the next blank,
# bracket, string or quote mark; one that starts like a symbol cannot read
# as an integer, so it skips the int() attempt. A string runs to its
# closing quote or to the end of input; its escapes are checked when read.
_TOKEN = re.compile(
    r"""(?:[ \t\r\n]+|;[^\n]*)*(?:
      (?P<symbol>[A-Za-z!$%&*/:<=>?@^_~.][^ \t\r\n()\[\]{}";'`,]*)
    | (?P<open>[(\[{]) | (?P<close>[)\]}]) | (?P<quote>['`,])
    | (?P<atom>[^ \t\r\n()\[\]{}";'`,]+)
    | (?P<string>"(?P<body>(?:[^"\\]+|\\[\s\S]?)*)(?P<shut>")?)
    | (?P<end>\Z))""",
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\([\s\S]?)")


class SAtom:
    __slots__ = ("value", "span")

    def __init__(self, value, span):
        self.value = value
        self.span = span


class SList:
    __slots__ = ("items", "shape", "span")

    def __init__(self, items, shape, span):
        self.items = items
        self.shape = shape
        self.span = span


class SQuote:
    __slots__ = ("kind", "datum", "span")  # kind: quote | quasiquote | unquote

    def __init__(self, kind, datum, span):
        self.kind = kind
        self.datum = datum
        self.span = span


def _tokens(text: str):
    """Yield (kind, match, offset, line, column) per token, then an 'end' one."""
    line, line_start, last = 1, 0, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        newlines = text.count("\n", last, start)  # blanks and the last token
        if newlines:
            line += newlines
            line_start = text.rindex("\n", last, start) + 1
        last = start
        yield kind, m, start, line, start - line_start + 1
        if kind == "end":
            return


def _read(tokens, filename: str):
    """Read one datum from a _tokens stream; None if it is at its end."""
    # open lists and quote marks wait on an explicit stack, innermost last,
    # so data nested deeper than the host stack reads too
    stack = []  # [line, column, offset, shape, items] per open list, items None per quote
    for kind, m, start, line, col in tokens:
        if kind == "symbol":
            datum = SAtom(Symbol(m[kind]), SourceSpan(filename, line, col, start, m.end()))
        elif kind == "open":
            stack.append([line, col, start, m[kind], []])
            continue
        elif kind == "close":
            c = m[kind]
            if not stack or stack[-1][4] is None:
                raise ParseError(f"unexpected '{c}'", SourceSpan(filename, line, col, start, start + 1))
            lline, lcol, lstart, shape, items = stack.pop()
            if c != _OPENERS[shape]:
                raise ParseError(f"mismatched brackets: '{shape}' closed by '{c}'",
                                 SourceSpan(filename, line, col, start, start + 1))
            datum = SList(tuple(items), shape, SourceSpan(filename, lline, lcol, lstart, start + 1))
        elif kind == "atom":
            token = m[kind]
            span = SourceSpan(filename, line, col, start, m.end())
            if token == "#t" or token == "#f":
                datum = SAtom(token == "#t", span)
            elif token[0] == "#":
                raise ParseError(f"unknown token {token}", span)
            else:
                try:
                    datum = SAtom(int(token), span)
                except ValueError:
                    datum = SAtom(Symbol(token), span)
        elif kind == "quote":
            stack.append([line, col, start, _QUOTES[m[kind]], None])
            continue
        elif kind == "string":
            span = SourceSpan(filename, line, col, start, m.end())
            body = m["body"]
            for e in _ESCAPE.finditer(body):
                if e[1] and e[1] not in _ESCAPES:
                    raise ParseError(f"unknown string escape \\{e[1]}",
                                     span._replace(end=start + 1 + e.end()))
            if m["shut"] is None:
                raise ParseError("unterminated string", span, incomplete=True)
            datum = SAtom(_ESCAPE.sub(lambda e: _ESCAPES[e[1]], body), span)
        elif not stack:
            return None
        elif stack[-1][4] is not None:
            lline, lcol, lstart, shape, _ = stack[-1]
            raise ParseError(f"missing '{_OPENERS[shape]}' before end of input",
                             SourceSpan(filename, lline, lcol, lstart, start), incomplete=True)
        else:
            raise ParseError("unexpected end of input",
                             SourceSpan(filename, line, col, start, start), incomplete=True)
        # the datum completes every quote waiting on it, then joins the
        # innermost open list or is the result
        while stack and stack[-1][4] is None:
            qline, qcol, qstart, qkind, _ = stack.pop()
            datum = SQuote(qkind, datum, SourceSpan(filename, qline, qcol, qstart, datum.span.end))
        if not stack:
            return datum
        stack[-1][4].append(datum)


def read_datums(text: str, filename: str = "<string>") -> list:
    tokens = _tokens(text)
    return list(iter(lambda: _read(tokens, filename), None))


# ---------------------------------------------------------------------------
# Expression AST


class Lit:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Ref:
    __slots__ = ("name", "span")

    def __init__(self, name, span):
        self.name = name
        self.span = span


class If:
    __slots__ = ("cond", "then", "els", "span")

    def __init__(self, cond, then, els, span):
        self.cond = cond
        self.then = then
        self.els = els
        self.span = span


class Lambda:
    __slots__ = ("params", "body")

    def __init__(self, params, body):
        self.params = params
        self.body = body


class Apply:
    __slots__ = ("fn", "args", "span")

    def __init__(self, fn, args, span):
        self.fn = fn
        self.args = args
        self.span = span


class Define:
    __slots__ = ("name", "expr", "span")

    def __init__(self, name, expr, span):
        self.name = name
        self.expr = expr
        self.span = span


class MatchExpr:
    __slots__ = ("kind", "target", "matcher", "clauses", "span")  # kind: all | first

    def __init__(self, kind, target, matcher, clauses, span):
        self.kind = kind
        self.target = target
        self.matcher = matcher
        self.clauses = clauses
        self.span = span


class ClauseTemplate:
    """A clause as analyzed: its pattern's value patterns hold expressions
    (protos lists them), which each evaluation of the match binds to its
    lexical env. The pattern is compiled on its first evaluation."""

    __slots__ = ("pattern", "names", "protos", "body", "span")

    def __init__(self, pattern, names, protos, body, span):
        self.pattern = pattern
        self.names = names
        self.protos = protos
        self.body = body
        self.span = span


# ---------------------------------------------------------------------------
# Analyzer: datums -> Expr

_SYM_IF = Symbol("if")
_SYM_LAMBDA = Symbol("lambda")
_SYM_DEFINE = Symbol("define")
_SYM_MATCH_ALL = Symbol("match-all")
_SYM_MATCH_FIRST = Symbol("match-first")
_SYM_OR = Symbol("or")
_SYM_AND = Symbol("and")
_SYM_NOT = Symbol("not")
_SYM_LATER = Symbol("later")
_SYM_WILD = Symbol("_")
_SYM_LIST = Symbol("list")


def parse_program(text: str, filename: str = "<string>") -> list:
    """Parse top-level forms; a bare empty list is a no-op and is dropped.
    Each form is one fold of _code."""
    return [fold((_top, d), _code) for d in read_datums(text, filename)
            if type(d) is not SList or d.items]


def _code(d):
    # fold expander: the expression a datum denotes. A tagged child
    # (rule, datum) is expanded by its rule: _top, _quasi, _clause or _pattern
    td = type(d)
    if td is SAtom:
        v = d.value
        return None, (Ref(v, d.span) if type(v) is Symbol else Lit(v))
    if td is tuple:
        return d[0](d[1])
    if td is SQuote:
        if d.kind == "quote":
            return None, Lit(_datum_to_value(d.datum))
        if d.kind == "quasiquote":
            # a child, so a chain of ` and , marks nests on the fold's stack
            return _only, ((_quasi, d.datum),)
        raise ParseError("unquote outside quasiquote or pattern", d.span)
    items = d.items
    span = d.span
    if not items:
        raise ParseError("empty application", span)
    head = items[0]
    if type(head) is SAtom and type(head.value) is Symbol:
        name = head.value
        if name is _SYM_IF:
            if len(items) != 4:
                raise ParseError("if takes a condition and two branches", span)
            return (lambda xs: If(*xs, span)), items[1:]
        if name is _SYM_LAMBDA:
            if len(items) < 3:
                raise ParseError("lambda takes a parameter list and a body", span)
            params = _analyze_params(items[1])
            return (lambda xs: Lambda(params, tuple(xs))), items[2:]
        if name is _SYM_DEFINE:
            raise ParseError("define is only allowed at the top level", span)
        if name is _SYM_MATCH_ALL or name is _SYM_MATCH_FIRST:
            if len(items) < 4:
                raise ParseError(f"{name} takes a target, a matcher, and at least one clause", span)
            kind = "all" if name is _SYM_MATCH_ALL else "first"
            # the clauses are analyzed, and report errors, before the target
            return ((lambda xs: MatchExpr(kind, xs[-2], xs[-1], tuple(xs[:-2]), span)),
                    [(_clause, c) for c in items[3:]] + [items[1], items[2]])
    return (lambda xs: Apply(xs[0], tuple(xs[1:]), span)), items


def _top(d):
    # a top-level form: a define, or any expression
    items = d.items if type(d) is SList else ()
    if items and type(items[0]) is SAtom and items[0].value is _SYM_DEFINE:
        if len(items) != 3 or type(items[1]) is not SAtom or type(items[1].value) is not Symbol:
            raise ParseError("define takes a name and one expression", d.span)
        return (lambda xs: Define(items[1].value, xs[0], d.span)), items[2:]
    return _code(d)


def _analyze_params(d) -> tuple:
    if type(d) is not SList:
        raise ParseError("lambda parameters must be a list of names", d.span)
    params = []
    for p in d.items:
        if type(p) is not SAtom or type(p.value) is not Symbol:
            raise ParseError("lambda parameters must be names", d.span)
        params.append(p.value)
    return tuple(params)


def _datum_to_value(d, tuples: bool = False):
    """The value of quoted data: lists, or tuples for [ ] when tuples is
    set."""

    def expand(d):
        td = type(d)
        if td is SAtom:
            return None, d.value
        if td is SList:
            return (VTuple if tuples and d.shape == "[" else VList.of), d.items
        raise ParseError(f"{d.kind} is not allowed inside quoted data", d.span)

    return fold(d, expand)


def _quasi(d):
    # a quasiquoted datum: a list is a (list ...) application of its items,
    # quasiquoted too, and an unquoted datum is code
    td = type(d)
    if td is SAtom:
        return None, Lit(d.value)
    if td is SQuote:
        if d.kind == "unquote":
            return _code(d.datum)
        if d.kind == "quasiquote":
            raise ParseError("nested quasiquote is not supported", d.span)
        raise ParseError("quote inside quasiquote is not supported", d.span)
    span = d.span
    return (lambda xs: Apply(Ref(_SYM_LIST, span), tuple(xs), span)), [(_quasi, x) for x in d.items]


def _clause(d):
    # a match clause: its pattern, then its body
    if type(d) is not SList or len(d.items) != 2:
        raise ParseError("a match clause is [pattern body]", d.span)

    def build(xs):
        pattern, body = xs
        names = extract_pattern_variables(pattern)
        protos = []  # the clause's value patterns, in textual order
        # a value pattern may read the clause variables visible where it
        # stands. Availability at match time is the engine's concern (later
        # patterns reorder evaluation)
        for q, visible in scoped(pattern, names):
            if type(q) is ValuePattern:
                free = fold(q.expr, _free_vars)
                q.refs = tuple(n for n in visible if n in free)
                protos.append(q)
        return ClauseTemplate(pattern, names, tuple(protos), body, d.span)

    return build, ((_pattern, d.items[0]), d.items[1])


def _pattern(d):
    # the pattern a datum denotes: its parts are patterns too, and an
    # unquoted datum is the code of a value pattern
    td = type(d)
    if td is SAtom:
        v = d.value
        if type(v) is not Symbol:
            raise ParseError(
                f"a bare literal is not a pattern; write ,{print_value(v)} for a value pattern",
                d.span,
            )
        return None, WILDCARD if v is _SYM_WILD else Var(v)
    if td is SQuote:
        if d.kind == "unquote":
            return (lambda xs: ValuePattern(xs[0])), (d.datum,)
        if d.kind != "quote":
            raise ParseError("quasiquote is not allowed inside a pattern", d.span)
        if type(d.datum) is not SList:
            raise ParseError("a quoted pattern must be a tuple of patterns", d.span)
        return TuplePattern, [(_pattern, x) for x in d.datum.items]
    items = d.items
    if not items:
        return None, Constructor(Symbol("nil"), ())
    head = items[0]
    if type(head) is not SAtom or type(head.value) is not Symbol:
        raise ParseError("a pattern constructor must be a symbol", d.span)
    name = head.value
    args = [(_pattern, x) for x in items[1:]]
    make = _PATTERN_FORMS.get(name)
    if make is None:
        return (lambda ps: Constructor(name, ps)), args
    if make is Not or make is Later:
        if len(args) != 1:
            raise ParseError(f"{name} takes one pattern", d.span)
        return (lambda ps: make(ps[0])), args
    return make, args


_PATTERN_FORMS = {_SYM_OR: Or, _SYM_AND: And, _SYM_NOT: Not, _SYM_LATER: Later}
_only = operator.itemgetter(0)


def _free_vars(e):
    # fold expander: the names e reads that no lambda or clause inside it binds
    te = type(e)
    if te is Ref:
        return None, {e.name}
    if te is Apply:
        return _union, (e.fn, *e.args)
    if te is If:
        return _union, (e.cond, e.then, e.els)
    if te is Lambda:
        params = e.params
        return (lambda fs: _union(fs).difference(params)), e.body
    if te is MatchExpr:
        return _union, (e.target, e.matcher, *e.clauses)
    if te is ClauseTemplate:
        names = e.names
        return (lambda fs: _union(fs).difference(names)), (e.body, *[vp.expr for vp in e.protos])
    return None, set()


def _union(sets) -> set:
    return set().union(*sets)


# ---------------------------------------------------------------------------
# Evaluator


class Env:
    __slots__ = ("vars", "parent")

    def __init__(self, vars: dict, parent: Optional["Env"]):
        self.vars = vars
        self.parent = parent


class Closure:
    __slots__ = ("params", "body", "env")

    def __init__(self, params, body, env):
        self.params = params
        self.body = body
        self.env = env

    def __repr__(self):
        return f"#<function of {len(self.params)} arguments>"


class BFn:
    """A builtin: fn receives already-evaluated argument values."""

    __slots__ = ("name", "fn", "min_args", "max_args")

    def __init__(self, name, fn, min_args, max_args):
        self.name = name
        self.fn = fn
        self.min_args = min_args
        self.max_args = max_args

    def invoke(self, args, span):
        n = len(args)
        if n < self.min_args or (self.max_args is not None and n > self.max_args):
            if self.max_args == self.min_args:
                want = str(self.min_args)
            elif self.max_args is None:
                want = f"at least {self.min_args}"
            else:
                want = f"{self.min_args} to {self.max_args}"
            raise LangError(f"{self.name} takes {want} argument(s), got {n}", span)
        try:
            return self.fn(*args)
        except LangError as err:
            if err.span is None:
                raise LangError(err.message, span) from None
            raise
        except DepthExceeded as err:
            raise LangError(str(err), span) from None

    def __repr__(self):
        return f"#<builtin {self.name}>"


def _want_int(v, who: str):
    if value_kind(v) != "int":
        raise LangError(f"{who} expects an integer, got {show_value(v)}")
    return v


def _want_seq(v, who: str):
    if not is_seq(v):
        raise LangError(f"{who} expects a list, got {show_value(v)}")
    return v


def _want_matcher(v, who: str):
    if isinstance(v, Matcher):
        return v
    raise LangError(f"{who} expects a matcher")


# -- builtins: one table for every evaluator; none refers to an evaluator ----


def _sub(a, b=None):
    _want_int(a, "-")
    if b is None:
        return -a
    return a - _want_int(b, "-")


def _uncons(xs, who):
    split = seq_uncons(_want_seq(xs, who))
    if split is None:
        raise LangError(f"{who} of an empty list")
    return split


def _append(*xss):
    out = EMPTY_LIST
    for xs in xss:
        out = list_concat(out, as_vlist(_want_seq(xs, "append")))
    return out


def _iota(count, start=0, step=1):
    _want_int(count, "iota")
    _want_int(start, "iota")
    _want_int(step, "iota")
    if not 0 <= count <= sys.maxsize:
        raise LangError(f"iota expects a count from 0 to {sys.maxsize}")
    if not count:
        return EMPTY_LIST
    return VList.of(range(start, start + count * step, step) if step else (start,) * count)


def _take(xs, n):
    # islice stops after the nth element, so no further one is forced
    xs = _want_seq(xs, "take")
    return VList.of(islice(xs, min(max(_want_int(n, "take"), 0), sys.maxsize)))


def _cmp_int(name, op):
    def fn(a, b):
        return op(_want_int(a, name), _want_int(b, name))

    return BFn(name, fn, 2, 2)


_BUILTINS = {
    Symbol(b.name): b
    for b in (
        BFn("+", lambda *xs: sum(_want_int(x, "+") for x in xs), 0, None),
        BFn("*", lambda *xs: math.prod(_want_int(x, "*") for x in xs), 0, None),
        BFn("-", _sub, 1, 2),
        _cmp_int("=", operator.eq),
        _cmp_int("<", operator.lt),
        _cmp_int(">", operator.gt),
        BFn("abs", lambda x: abs(_want_int(x, "abs")), 1, 1),
        BFn("neg", lambda x: -_want_int(x, "neg"), 1, 1),
        BFn("eq?", value_equal, 2, 2),
        BFn("cons", lambda x, xs: cons_value(x, _want_seq(xs, "cons")), 2, 2),
        BFn("car", lambda xs: _uncons(xs, "car")[0], 1, 1),
        BFn("cdr", lambda xs: _uncons(xs, "cdr")[1], 1, 1),
        BFn("append", _append, 0, None),
        BFn("list", lambda *xs: VList.of(xs), 0, None),
        BFn("iota", _iota, 1, 3),
        BFn("take", _take, 2, 2),
        BFn("repeat", repeat_value, 1, 1),
        # checks its arguments; Evaluator._run makes the calls
        BFn("map", lambda f, xs: _want_seq(xs, "map"), 2, 2),
        BFn("List", lambda m: list_matcher(_want_matcher(m, "List")), 1, 1),
        BFn("Multiset", lambda m: multiset_matcher(_want_matcher(m, "Multiset")), 1, 1),
    )
}
_BUILTINS[Symbol("Eq")] = eq_matcher()
_BUILTINS[Symbol("Integer")] = integer_matcher()
_BUILTINS[Symbol("Something")] = SOMETHING
_LIST = _BUILTINS[Symbol("list")]
_MAP = _BUILTINS[Symbol("map")]
_NAIVE_MULTISET = BFn(
    "Multiset", lambda m: multiset_matcher(_want_matcher(m, "Multiset"), optimized=False), 1, 1
)


def _push_list(work: list, vals: list, tasks: list, span):
    # the tasks' values, in order, end up in one list, as (list v1 ... vn)
    vals.append(_LIST)
    work.append(("call", len(tasks), span))
    work.extend(reversed(tasks))


class Evaluator:
    """One interpreter instance: a global environment plus engine flags."""

    def __init__(self, engine_mode: str = "strict", naive_multiset: bool = False,
                 max_results: Optional[int] = None):
        if engine_mode not in ("strict", "stream"):
            raise ValueError(f"unknown engine mode {engine_mode!r}")
        if max_results is not None and max_results < 1:
            raise ValueError(f"max_results must be at least 1, got {max_results}")
        self.engine_mode = engine_mode
        self.max_results = max_results
        env = dict(_BUILTINS)
        env[Symbol("primes")] = primes_stream()
        if naive_multiset:
            env[Symbol("Multiset")] = _NAIVE_MULTISET
        self.global_env = Env(env, None)

    def _lookup(self, env: Env, name, span):
        while env is not None:
            v = env.vars.get(name, _MISSING)
            if v is not _MISSING:
                return v
            env = env.parent
        raise LangError(f"unbound variable {name}", span)

    # -- evaluation --------------------------------------------------------

    def eval_program(self, exprs) -> list:
        """Evaluate top-level forms; the value of each non-define form."""
        out = []
        for e in exprs:
            v = self._run(e, self.global_env)
            if type(e) is not Define:
                out.append(v)
        return out

    def _run(self, expr, env: Env):
        work = [("ev", expr, env)]
        push = work.append
        vals = []
        while work:
            task = work.pop()
            tag = task[0]
            if tag == "ev":
                e = task[1]
                cenv = task[2]
                te = type(e)
                if te is Lit:
                    vals.append(e.value)
                elif te is Ref:
                    vals.append(self._lookup(cenv, e.name, e.span))
                elif te is Apply:
                    push(("call", len(e.args), e.span))
                    for a in reversed(e.args):
                        push(("ev", a, cenv))
                    push(("ev", e.fn, cenv))
                elif te is If:
                    push(("branch", e.then, e.els, cenv))
                    push(("ev", e.cond, cenv))
                elif te is Lambda:
                    vals.append(Closure(e.params, e.body, cenv))
                elif te is MatchExpr:
                    push(("match", e, cenv))
                    push(("ev", e.matcher, cenv))
                    push(("ev", e.target, cenv))
                elif te is Define:
                    push(("def", e.name, cenv))
                    push(("ev", e.expr, cenv))
                else:
                    raise AssertionError(f"unknown expression node {te.__name__}")
            elif tag == "call":
                argc = task[1]
                span = task[2]
                if argc:
                    args = vals[-argc:]
                    del vals[-argc:]
                else:
                    args = []
                fn = vals.pop()
                tf = type(fn)
                if tf is BFn:
                    if fn is _MAP:
                        # (map f xs) runs as (list (f x1) ... (f xn))
                        f = Lit(args[0])
                        tasks = [("ev", Apply(f, (Lit(x),), span), None)
                                 for x in fn.invoke(args, span)]
                        _push_list(work, vals, tasks, span)
                    else:
                        vals.append(fn.invoke(args, span))
                elif tf is Closure:
                    if len(args) != len(fn.params):
                        raise LangError(
                            f"function takes {len(fn.params)} argument(s), got {len(args)}", span
                        )
                    nenv = Env(dict(zip(fn.params, args)), fn.env)
                    body = fn.body
                    push(("ev", body[-1], nenv))
                    for b in reversed(body[:-1]):
                        push(("discard",))
                        push(("ev", b, nenv))
                else:
                    raise LangError(f"not a function: {show_value(fn)}", span)
            elif tag == "branch":
                c = vals.pop()
                push(("ev", task[1] if c is not False else task[2], task[3]))
            elif tag == "match":
                matcher = vals.pop()
                target = vals.pop()
                e = task[1]
                found = self._eval_match(e, task[2], target, matcher)
                if type(found) is not list:
                    vals.append(found)  # a stream match-all's lazy sequence
                elif e.kind == "first":
                    push(found[0])
                else:
                    # (match-all ...) runs as (list body1 ... bodyn)
                    _push_list(work, vals, found, e.span)
            elif tag == "def":
                self.global_env.vars[task[1]] = vals.pop()
                vals.append(None)
            elif tag == "discard":
                vals.pop()
            else:
                raise AssertionError(f"unknown task {tag}")
        return vals.pop()

    # -- match expressions ---------------------------------------------------

    def _clause_pattern(self, tpl: ClauseTemplate, env: Env):
        # the compiled pattern, with its value patterns bound to env
        p = engine.compile_pattern(tpl.pattern)
        if not tpl.protos:
            return p
        return engine.map_value_exprs(p, lambda e: lambda bs: self._eval_vp(e, bs, env))

    def _eval_vp(self, expr, bindings, lex_env: Env):
        return self._run(expr, Env(dict(bindings), lex_env))

    def _eval_match(self, node: MatchExpr, env: Env, target, matcher_val):
        """The search of a match expression. For match-first and a strict
        match-all, a list of ev tasks, one per result kept, each running
        its clause's body over the result's bindings; the engine only
        finds the results. A stream match-all gives its lazy sequence of
        body values instead."""
        matcher = _coerce_matcher(matcher_val, node.span)
        try:
            # each body just reports which clause matched and with what values
            clauses = [
                engine.MatchClause(self._clause_pattern(tpl, env), lambda *vs, _t=tpl: (_t, vs))
                for tpl in node.clauses
            ]
            if node.kind == "first":
                found = [engine.match_first(target, matcher, clauses)]
                if found[0] is None:
                    raise LangError("match-first: no clause matched", node.span)
            elif self.engine_mode == "stream":
                limit = self.max_results

                def stream_results():
                    # runs after _eval_match has returned, as the result is forced
                    count = 0
                    try:
                        for clause in clauses:
                            for tpl, vs in engine.stream_match_all(target, matcher, clause):
                                yield self._run(tpl.body, Env(dict(zip(tpl.names, vs)), env))
                                count += 1
                                if limit is not None and count >= limit:
                                    return
                    except _MATCH_ERRORS as err:
                        raise LangError(str(err), node.span) from None

                return lazyseq_from_iter(stream_results())
            else:
                found = engine.match_all(target, matcher, clauses)[: self.max_results]
        except _MATCH_ERRORS as err:
            raise LangError(str(err), node.span) from None
        return [("ev", tpl.body, Env(dict(zip(tpl.names, vs)), env)) for tpl, vs in found]


def _coerce_matcher(v, span):
    if isinstance(v, Matcher):
        return v
    if type(v) is LazySeq:
        raise LangError("a matcher list must be a finite list, not a lazy sequence", span)
    if type(v) is VList:
        parts = []
        for m in v:
            if not isinstance(m, Matcher):
                raise LangError("a matcher list may only contain matchers", span)
            parts.append(m)
        return tuple_matcher(parts)
    raise LangError(f"not a matcher: {show_value(v)}", span)


_MISSING = object()

# errors a match can raise that a program reports at the match expression
_MATCH_ERRORS = (MatchError, ValidationError, DuplicateBinding, UnboundValuePatternRef,
                 ArityMismatch, DepthExceeded, TypeError)


# ---------------------------------------------------------------------------
# Program entry points


def cli_form(v) -> str:
    """Render a result for CLI output: tuples print in list form."""
    return print_value(v, tuples_as_lists=True)


# what a program nested too deeply for the walkers that still recurse reports
_TOO_DEEP = format_error("error", "nested too deeply for the host stack", None)


def run_text(text: str, evaluator: Evaluator, filename: str = "<string>",
             out=None) -> int:
    """Evaluate a program; print each non-define top-level result. 0 or 1."""
    out = sys.stdout if out is None else out
    try:
        program = parse_program(text, filename)
        for e in program:
            v = evaluator._run(e, evaluator.global_env)
            if type(e) is not Define:
                out.write(cli_form(v) + "\n")
        return 0
    except (ParseError, LangError) as err:
        print(str(err), file=sys.stderr)
        return 1
    except RecursionError:
        print(_TOO_DEEP, file=sys.stderr)
        return 1


def repl(evaluator: Optional[Evaluator] = None, stdin=None, stdout=None) -> int:
    """Read forms (multi-line aware), evaluate, print; EOF ends with 0."""
    evaluator = Evaluator() if evaluator is None else evaluator
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    buffer = ""  # the lines of a form not complete yet
    while True:
        stdout.write("... " if buffer else "nf> ")
        stdout.flush()
        line = stdin.readline()
        if not line:
            stdout.write("\n")
            return 0
        buffer += line
        try:
            read_datums(buffer)
        except ParseError as err:
            if err.incomplete:
                continue
        run_text(buffer, evaluator, "<repl>", out=stdout)
        buffer = ""
