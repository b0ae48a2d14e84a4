"""Surface language: s-expression reader, analyzer, evaluator, and REPL.

Programs are s-expressions with three interchangeable bracket shapes
(each must close with its own shape). Expressions cover literals, `if`,
`lambda`, top-level `define`, application, quote/quasiquote, and the
match-all / match-first forms whose clause patterns compile to the
pattern AST and whose value patterns compile to closures over the
lexical environment.

The evaluator runs on an explicit work stack, so deep non-tail recursion
(benchmark-scale helpers) does not hit the host recursion limit.
"""

from __future__ import annotations

import sys
from typing import Callable, NamedTuple, Optional

from .errors import (
    ArityMismatch,
    DepthExceeded,
    DuplicateBinding,
    MatchError,
    UnboundValuePatternRef,
    ValidationError,
)
from . import engine
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
    validate_pattern,
    extract_pattern_variables,
)
from .values import (
    EMPTY_LIST,
    LazySeq,
    Symbol,
    VList,
    VTuple,
    as_vlist,
    cons_value,
    is_seq,
    lazyseq_from_iter,
    print_value,
    repeat_value,
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
_CLOSERS = {")", "]", "}"}
_ATOM_END = set(' \t\r\n()[]{}";')


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


class _Reader:
    def __init__(self, text: str, filename: str):
        self.text = text
        self.n = len(text)
        self.pos = 0
        self.line = 1
        self.col = 1
        self.filename = filename

    def _mark(self):
        return (self.pos, self.line, self.col)

    def _span(self, mark, end: Optional[int] = None) -> SourceSpan:
        start, line, col = mark
        return SourceSpan(self.filename, line, col, start, self.pos if end is None else end)

    def _advance(self) -> str:
        c = self.text[self.pos]
        self.pos += 1
        if c == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return c

    def _skip_blank(self):
        while self.pos < self.n:
            c = self.text[self.pos]
            if c == ";":
                while self.pos < self.n and self.text[self.pos] != "\n":
                    self._advance()
            elif c in " \t\r\n":
                self._advance()
            else:
                return

    def at_end(self) -> bool:
        self._skip_blank()
        return self.pos >= self.n

    def read_datum(self):
        self._skip_blank()
        mark = self._mark()
        if self.pos >= self.n:
            raise ParseError("unexpected end of input", self._span(mark), incomplete=True)
        c = self.text[self.pos]
        if c in _OPENERS:
            return self._read_list(mark)
        if c in _CLOSERS:
            raise ParseError(f"unexpected '{c}'", self._span(mark, self.pos + 1))
        if c == "'":
            self._advance()
            return SQuote("quote", self.read_datum(), self._span(mark))
        if c == "`":
            self._advance()
            return SQuote("quasiquote", self.read_datum(), self._span(mark))
        if c == ",":
            self._advance()
            return SQuote("unquote", self.read_datum(), self._span(mark))
        if c == '"':
            return self._read_string(mark)
        return self._read_atom(mark)

    def _read_list(self, mark):
        shape = self._advance()
        closer = _OPENERS[shape]
        items = []
        while True:
            self._skip_blank()
            if self.pos >= self.n:
                raise ParseError(
                    f"missing '{closer}' before end of input", self._span(mark), incomplete=True
                )
            c = self.text[self.pos]
            if c in _CLOSERS:
                cmark = self._mark()
                self._advance()
                if c != closer:
                    raise ParseError(
                        f"mismatched brackets: '{shape}' closed by '{c}'",
                        self._span(cmark),
                    )
                return SList(tuple(items), shape, self._span(mark))
            items.append(self.read_datum())

    def _read_string(self, mark):
        self._advance()
        out = []
        while True:
            if self.pos >= self.n:
                raise ParseError("unterminated string", self._span(mark), incomplete=True)
            c = self._advance()
            if c == '"':
                return SAtom("".join(out), self._span(mark))
            if c == "\\":
                if self.pos >= self.n:
                    raise ParseError("unterminated string", self._span(mark), incomplete=True)
                e = self._advance()
                table = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
                if e not in table:
                    raise ParseError(f"unknown string escape \\{e}", self._span(mark))
                out.append(table[e])
            else:
                out.append(c)

    def _read_atom(self, mark):
        start = self.pos
        while self.pos < self.n and self.text[self.pos] not in _ATOM_END and self.text[
            self.pos
        ] not in "'`,":
            self._advance()
        token = self.text[start : self.pos]
        span = self._span(mark)
        if token == "#t":
            return SAtom(True, span)
        if token == "#f":
            return SAtom(False, span)
        if token.startswith("#"):
            raise ParseError(f"unknown token {token}", span)
        try:
            return SAtom(int(token), span)
        except ValueError:
            return SAtom(Symbol(token), span)


def read_datums(text: str, filename: str = "<string>") -> list:
    reader = _Reader(text, filename)
    out = []
    while not reader.at_end():
        out.append(reader.read_datum())
    return out


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
    __slots__ = ("pattern", "names", "body", "span")

    def __init__(self, pattern, names, body, span):
        self.pattern = pattern
        self.names = names
        self.body = body
        self.span = span


class _VpProto:
    """Placeholder for a value pattern inside a clause template."""

    __slots__ = ("expr", "refs")

    def __init__(self, expr):
        self.expr = expr
        self.refs = ()


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
    """Parse top-level forms; a bare empty list is a no-op and is dropped."""
    out = []
    for d in read_datums(text, filename):
        if type(d) is SList and not d.items:
            continue
        out.append(_analyze(d, top=True))
    return out


def _analyze(d, top: bool = False):
    td = type(d)
    if td is SAtom:
        v = d.value
        if type(v) is Symbol:
            return Ref(v, d.span)
        return Lit(v)
    if td is SQuote:
        if d.kind == "quote":
            return Lit(_datum_to_value(d.datum))
        if d.kind == "quasiquote":
            return _quasi(d.datum, d.span)
        raise ParseError("unquote outside quasiquote or pattern", d.span)
    items = d.items
    if not items:
        raise ParseError("empty application", d.span)
    head = items[0]
    if type(head) is SAtom and type(head.value) is Symbol:
        name = head.value
        if name is _SYM_IF:
            if len(items) != 4:
                raise ParseError("if takes a condition and two branches", d.span)
            return If(_analyze(items[1]), _analyze(items[2]), _analyze(items[3]), d.span)
        if name is _SYM_LAMBDA:
            if len(items) < 3:
                raise ParseError("lambda takes a parameter list and a body", d.span)
            return Lambda(_analyze_params(items[1]), tuple(_analyze(b) for b in items[2:]))
        if name is _SYM_DEFINE:
            if not top:
                raise ParseError("define is only allowed at the top level", d.span)
            if len(items) != 3 or type(items[1]) is not SAtom or type(items[1].value) is not Symbol:
                raise ParseError("define takes a name and one expression", d.span)
            return Define(items[1].value, _analyze(items[2]), d.span)
        if name is _SYM_MATCH_ALL or name is _SYM_MATCH_FIRST:
            if len(items) < 4:
                raise ParseError(f"{name} takes a target, a matcher, and at least one clause", d.span)
            clauses = tuple(_analyze_clause(c) for c in items[3:])
            kind = "all" if name is _SYM_MATCH_ALL else "first"
            return MatchExpr(kind, _analyze(items[1]), _analyze(items[2]), clauses, d.span)
    return Apply(_analyze(head), tuple(_analyze(a) for a in items[1:]), d.span)


def _analyze_params(d) -> tuple:
    if type(d) is not SList:
        raise ParseError("lambda parameters must be a list of names", getattr(d, "span", None))
    params = []
    for p in d.items:
        if type(p) is not SAtom or type(p.value) is not Symbol:
            raise ParseError("lambda parameters must be names", d.span)
        params.append(p.value)
    return tuple(params)


def _datum_to_value(d):
    td = type(d)
    if td is SAtom:
        return d.value
    if td is SList:
        return VList.of(tuple(_datum_to_value(x) for x in d.items))
    raise ParseError(f"{d.kind} is not allowed inside quoted data", d.span)


def _quasi(d, qspan):
    td = type(d)
    if td is SAtom:
        return Lit(d.value)
    if td is SQuote:
        if d.kind == "unquote":
            return _analyze(d.datum)
        if d.kind == "quasiquote":
            raise ParseError("nested quasiquote is not supported", d.span)
        raise ParseError("quote inside quasiquote is not supported", d.span)
    return Apply(Ref(_SYM_LIST, d.span), tuple(_quasi(x, qspan) for x in d.items), d.span)


def _analyze_clause(d) -> ClauseTemplate:
    if type(d) is not SList or len(d.items) != 2:
        raise ParseError("a match clause is [pattern body]", getattr(d, "span", None))
    pattern = _analyze_pattern(d.items[0])
    names = extract_pattern_variables(pattern)
    _resolve_vp_refs(pattern, names)
    body = _analyze(d.items[1])
    return ClauseTemplate(pattern, names, body, d.span)


def _analyze_pattern(d):
    td = type(d)
    if td is SAtom:
        v = d.value
        if type(v) is Symbol:
            if v is _SYM_WILD:
                return WILDCARD
            return Var(v)
        raise ParseError(
            f"a bare literal is not a pattern; write ,{print_value(v)} for a value pattern", d.span
        )
    if td is SQuote:
        if d.kind == "unquote":
            return _VpProto(_analyze(d.datum))
        if d.kind == "quote":
            if type(d.datum) is not SList:
                raise ParseError("a quoted pattern must be a tuple of patterns", d.span)
            return TuplePattern(tuple(_analyze_pattern(x) for x in d.datum.items))
        raise ParseError("quasiquote is not allowed inside a pattern", d.span)
    items = d.items
    if not items:
        return Constructor(Symbol("nil"), ())
    head = items[0]
    if type(head) is not SAtom or type(head.value) is not Symbol:
        raise ParseError("a pattern constructor must be a symbol", d.span)
    name = head.value
    args = items[1:]
    if name is _SYM_OR:
        return Or(tuple(_analyze_pattern(a) for a in args))
    if name is _SYM_AND:
        return And(tuple(_analyze_pattern(a) for a in args))
    if name is _SYM_NOT:
        if len(args) != 1:
            raise ParseError("not takes one pattern", d.span)
        return Not(_analyze_pattern(args[0]))
    if name is _SYM_LATER:
        if len(args) != 1:
            raise ParseError("later takes one pattern", d.span)
        return Later(_analyze_pattern(args[0]))
    return Constructor(name, tuple(_analyze_pattern(a) for a in args))


def _resolve_vp_refs(p, names: tuple):
    # a value pattern may read any clause variable; availability at match
    # time is the engine's concern (later patterns reorder evaluation)
    tp = type(p)
    if tp is _VpProto:
        free = _free_vars(p.expr)
        p.refs = tuple(n for n in names if n in free)
    elif tp is Constructor or tp is TuplePattern or tp is Or or tp is And:
        for a in p.args:
            _resolve_vp_refs(a, names)
    elif tp is Not or tp is Later:
        _resolve_vp_refs(p.arg, names)


def _free_vars(e, bound: frozenset = frozenset()) -> set:
    te = type(e)
    if te is Ref:
        return set() if e.name in bound else {e.name}
    if te is Apply:
        out = _free_vars(e.fn, bound)
        for a in e.args:
            out |= _free_vars(a, bound)
        return out
    if te is If:
        return _free_vars(e.cond, bound) | _free_vars(e.then, bound) | _free_vars(e.els, bound)
    if te is Lambda:
        inner = bound | frozenset(e.params)
        out = set()
        for b in e.body:
            out |= _free_vars(b, inner)
        return out
    if te is MatchExpr:
        out = _free_vars(e.target, bound) | _free_vars(e.matcher, bound)
        for c in e.clauses:
            inner = bound | frozenset(c.names)
            out |= _free_vars(c.body, inner)
            out |= _pattern_free_vars(c.pattern, inner)
        return out
    return set()


def _pattern_free_vars(p, bound: frozenset) -> set:
    tp = type(p)
    if tp is _VpProto:
        return _free_vars(p.expr, bound)
    if tp is Constructor or tp is TuplePattern or tp is Or or tp is And:
        out = set()
        for a in p.args:
            out |= _pattern_free_vars(a, bound)
        return out
    if tp is Not or tp is Later:
        return _pattern_free_vars(p.arg, bound)
    return set()


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

    def __repr__(self):
        return f"#<builtin {self.name}>"


def _want_int(v, who: str):
    if value_kind(v) != "int":
        raise LangError(f"{who} expects an integer, got {print_value(v)}")
    return v


def _want_seq(v, who: str):
    if not is_seq(v):
        raise LangError(f"{who} expects a list, got {print_value(v)}")
    return v


def _want_matcher(v, who: str):
    if isinstance(v, Matcher) or v is SOMETHING:
        return v
    raise LangError(f"{who} expects a matcher")


class Evaluator:
    """One interpreter instance: a global environment plus engine flags."""

    def __init__(self, engine_mode: str = "strict", naive_multiset: bool = False,
                 max_results: Optional[int] = None):
        if engine_mode not in ("strict", "stream"):
            raise ValueError(f"unknown engine mode {engine_mode!r}")
        self.engine_mode = engine_mode
        self.naive_multiset = naive_multiset
        self.max_results = max_results
        self.global_env = Env(self._builtins(), None)

    # -- environment -------------------------------------------------------

    def _builtins(self) -> dict:
        def add(*xs):
            total = 0
            for x in xs:
                total += _want_int(x, "+")
            return total

        def mul(*xs):
            total = 1
            for x in xs:
                total *= _want_int(x, "*")
            return total

        def sub(a, b=None):
            _want_int(a, "-")
            if b is None:
                return -a
            return a - _want_int(b, "-")

        def car(xs):
            split = _uncons(xs, "car")
            return split[0]

        def cdr(xs):
            split = _uncons(xs, "cdr")
            return split[1]

        def _uncons(xs, who):
            from .values import seq_uncons

            _want_seq(xs, who)
            split = seq_uncons(xs)
            if split is None:
                raise LangError(f"{who} of an empty list")
            return split

        def append(*xss):
            from .values import list_concat

            out = EMPTY_LIST
            for xs in xss:
                out = list_concat(out, as_vlist(_want_seq(xs, "append")))
            return out

        def iota(count, start=0, step=1):
            _want_int(count, "iota")
            _want_int(start, "iota")
            _want_int(step, "iota")
            if count < 0:
                raise LangError("iota expects a nonnegative count")
            return VList.of(tuple(range(start, start + count * step, step))) if count else EMPTY_LIST

        def take(xs, n):
            _want_seq(xs, "take")
            _want_int(n, "take")
            out = []
            if n > 0:
                for x in xs:
                    out.append(x)
                    if len(out) == n:
                        break
            return VList.of(tuple(out))

        def mapf(f, xs):
            _want_seq(xs, "map")
            genv = self.global_env
            return VList.of(tuple(self._run(Apply(Lit(f), (Lit(x),), None), genv) for x in xs))

        def cmp_int(name, op):
            def fn(a, b):
                _want_int(a, name)
                _want_int(b, name)
                return op(a, b)

            return fn

        from .examples import primes_stream

        env = {
            Symbol("+"): BFn("+", add, 0, None),
            Symbol("*"): BFn("*", mul, 0, None),
            Symbol("-"): BFn("-", sub, 1, 2),
            Symbol("="): BFn("=", cmp_int("=", lambda a, b: a == b), 2, 2),
            Symbol("<"): BFn("<", cmp_int("<", lambda a, b: a < b), 2, 2),
            Symbol(">"): BFn(">", cmp_int(">", lambda a, b: a > b), 2, 2),
            Symbol("abs"): BFn("abs", lambda x: abs(_want_int(x, "abs")), 1, 1),
            Symbol("neg"): BFn("neg", lambda x: -_want_int(x, "neg"), 1, 1),
            Symbol("eq?"): BFn("eq?", lambda a, b: value_equal(a, b), 2, 2),
            Symbol("cons"): BFn("cons", lambda x, xs: cons_value(x, _want_seq(xs, "cons")), 2, 2),
            Symbol("car"): BFn("car", car, 1, 1),
            Symbol("cdr"): BFn("cdr", cdr, 1, 1),
            Symbol("append"): BFn("append", append, 0, None),
            Symbol("list"): BFn("list", lambda *xs: VList.of(xs), 0, None),
            Symbol("iota"): BFn("iota", iota, 1, 3),
            Symbol("take"): BFn("take", take, 2, 2),
            Symbol("repeat"): BFn("repeat", repeat_value, 1, 1),
            Symbol("map"): BFn("map", mapf, 2, 2),
            Symbol("List"): BFn("List", lambda m: list_matcher(_want_matcher(m, "List")), 1, 1),
            Symbol("Multiset"): BFn(
                "Multiset",
                lambda m: multiset_matcher(
                    _want_matcher(m, "Multiset"), optimized=not self.naive_multiset
                ),
                1,
                1,
            ),
            Symbol("Eq"): eq_matcher(),
            Symbol("Integer"): integer_matcher(),
            Symbol("Something"): SOMETHING,
            Symbol("primes"): primes_stream(),
        }
        return env

    def _lookup(self, env: Env, name, span):
        while env is not None:
            v = env.vars.get(name, _MISSING)
            if v is not _MISSING:
                return v
            env = env.parent
        raise LangError(f"unbound variable {name}", span)

    # -- evaluation --------------------------------------------------------

    def eval_expr(self, expr, env: Optional[Env] = None):
        return self._run(expr, self.global_env if env is None else env)

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
                    raise LangError(f"not a function: {self._show(fn)}", span)
            elif tag == "branch":
                c = vals.pop()
                push(("ev", task[1] if c is not False else task[2], task[3]))
            elif tag == "match":
                matcher = vals.pop()
                target = vals.pop()
                vals.append(self._eval_match(task[1], task[2], target, matcher))
            elif tag == "def":
                self.global_env.vars[task[1]] = vals.pop()
                vals.append(None)
            elif tag == "discard":
                vals.pop()
            else:
                raise AssertionError(f"unknown task {tag}")
        return vals.pop()

    def _show(self, v) -> str:
        try:
            return print_value(v)
        except TypeError:
            return repr(v)

    # -- match expressions ---------------------------------------------------

    def _coerce_matcher(self, v, span):
        if isinstance(v, Matcher) or v is SOMETHING:
            return v
        if type(v) is VList or type(v) is LazySeq:
            parts = []
            for m in v:
                if not (isinstance(m, Matcher) or m is SOMETHING):
                    raise LangError("a matcher list may only contain matchers", span)
                parts.append(m)
            return tuple_matcher(parts)
        raise LangError(f"not a matcher: {self._show(v)}", span)

    def _instantiate(self, p, env: Env):
        tp = type(p)
        if tp is _VpProto:
            expr = p.expr
            fn = lambda bindings, _e=expr, _env=env: self._eval_vp(_e, bindings, _env)
            return ValuePattern(fn, p.refs)
        if tp is Constructor:
            return Constructor(p.name, tuple(self._instantiate(a, env) for a in p.args))
        if tp is TuplePattern:
            return TuplePattern(tuple(self._instantiate(a, env) for a in p.args))
        if tp is Or:
            return Or(tuple(self._instantiate(a, env) for a in p.args))
        if tp is And:
            return And(tuple(self._instantiate(a, env) for a in p.args))
        if tp is Not:
            return Not(self._instantiate(p.arg, env))
        if tp is Later:
            return Later(self._instantiate(p.arg, env))
        return p

    def _eval_vp(self, expr, bindings, lex_env: Env):
        overlay = {}
        for name, value in bindings:
            overlay[name] = value
        return self._run(expr, Env(overlay, lex_env))

    def _eval_match(self, node: MatchExpr, env: Env, target, matcher_val):
        matcher = self._coerce_matcher(matcher_val, node.span)
        clauses = []
        for tpl in node.clauses:
            pattern = self._instantiate(tpl.pattern, env)
            body = tpl.body
            names = tpl.names

            def run_body(*vs, _body=body, _names=names):
                return self._run(_body, Env(dict(zip(_names, vs)), env))

            clauses.append(engine.MatchClause(pattern, run_body))
        try:
            if node.kind == "first":
                boxed = [
                    engine.MatchClause(c.pattern, lambda *vs, _b=c.body: (_b(*vs),))
                    for c in clauses
                ]
                result = engine.match_first(target, matcher, boxed)
                if result is None:
                    raise LangError("match-first: no clause matched", node.span)
                return result[0]
            if self.engine_mode == "stream":
                def stream_results():
                    # runs after _eval_match has returned, as the result is forced
                    count = 0
                    try:
                        for clause in clauses:
                            for v in engine.stream_match_all(target, matcher, clause):
                                yield v
                                count += 1
                                if self.max_results is not None and count >= self.max_results:
                                    return
                    except _MATCH_ERRORS as err:
                        raise LangError(str(err), node.span) from None

                return lazyseq_from_iter(stream_results())
            results = engine.match_all(target, matcher, clauses)
            if self.max_results is not None:
                results = results[: self.max_results]
            return VList.of(tuple(results))
        except _MATCH_ERRORS as err:
            raise LangError(str(err), node.span) from None


_MISSING = object()

# errors a match can raise that a program reports at the match expression
_MATCH_ERRORS = (MatchError, ValidationError, DuplicateBinding, UnboundValuePatternRef,
                 ArityMismatch, DepthExceeded, TypeError)


# ---------------------------------------------------------------------------
# Program entry points


def cli_form(v) -> str:
    """Render a result for CLI output: tuples print in list form."""
    return print_value(_tuples_to_lists(v))


def _tuples_to_lists(v):
    t = type(v)
    if t is VTuple:
        return VList.of(tuple(_tuples_to_lists(x) for x in v.items))
    if t is VList:
        changed = False
        out = []
        for x in v:
            y = _tuples_to_lists(x)
            changed = changed or y is not x
            out.append(y)
        return VList.of(tuple(out)) if changed else v
    return v


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


def repl(evaluator: Optional[Evaluator] = None, stdin=None, stdout=None) -> int:
    """Read forms (multi-line aware), evaluate, print; EOF ends with 0."""
    evaluator = Evaluator() if evaluator is None else evaluator
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    buffer = ""
    prompt = "nf> "
    while True:
        stdout.write(prompt)
        stdout.flush()
        line = stdin.readline()
        if not line:
            stdout.write("\n")
            return 0
        buffer += line
        if not buffer.strip():
            buffer = ""
            prompt = "nf> "
            continue
        try:
            program = parse_program(buffer, "<repl>")
        except ParseError as err:
            if err.incomplete:
                prompt = "... "
                continue
            print(str(err), file=sys.stderr)
            buffer = ""
            prompt = "nf> "
            continue
        for e in program:
            try:
                v = evaluator._run(e, evaluator.global_env)
                if type(e) is not Define:
                    stdout.write(cli_form(v) + "\n")
            except LangError as err:
                print(str(err), file=sys.stderr)
                break
        buffer = ""
        prompt = "nf> "
