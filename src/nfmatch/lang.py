"""Surface language: s-expression reader, evaluator, and REPL.

Programs are s-expressions with three interchangeable bracket shapes
(each must close with its own shape). One token regex and one loop read
them straight into expression nodes: a bracket or quote mark opens a
frame whose context (code, a clause, a pattern, quoted data...) comes
from its parent's, and which becomes its node as it closes, on a stack of
its own, so text of any nesting depth reads without host recursion.
Expressions cover literals, `if`, `lambda`, top-level `define`,
application, quote/quasiquote, and the match-all / match-first forms
whose clause patterns are pattern ASTs. A value pattern ,x of a clause
variable x reads the bindings; any other runs its expression in the
lexical environment, which every search of a match carries in its slot
env as the frame (see ClauseTemplate). So each match node compiles its
clauses once, on first use, whatever its value patterns read.

The evaluator runs compiled code. A top-level form compiles, as it runs,
into a flat list of instructions, and the code of each lambda body, clause
body and proto in it compiles with it, once, into the list its node
keeps. Each name resolves then to a lexical address (depth, index) in a
frame (values, parent frame): a call's frame holds its arguments, a
clause body's is its search result's slot env as it is, a proto's holds
its refs' values. A name no scope binds is a global, looked up by name as
the code runs, so a later define is seen. One loop runs code with a pc
and a stack of continuations: a call in tail position, and the body a
match-first picked, push none, a strict match-all runs as (list body1
... bodyn) over its search's results, and (map f xs) as (list (f x1)
... (f xn)). Patterns are validated, compiled and matched without
recursion; only a not nested in a not nests its subsearch. Value
patterns and the bodies of a stream match-all start a nested run from
inside the search; a program that overflows the host stack that way
fails at the innermost match form, as one error line.

The reader has two modes: a program (parse_program) and one value
(values.parse_value). The REPL parses its buffer once per line and keeps
reading lines into a form while parse_program finds it cut short at the
end of its input (incomplete); a complete form is evaluated as parsed.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from bisect import bisect_left
from functools import partial
from itertools import chain, islice, repeat
from typing import NamedTuple, Optional

from .errors import DepthExceeded, MatchError, ValidationError
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
    env_get,
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


def _span(at) -> SourceSpan:
    # the SourceSpan of a (source, start, end) handle, as nodes keep. A
    # source is [text, file name, newline offsets]; the offsets are found
    # when a span is first asked for, then bisected for line and column
    (text, file, newlines), start, end = at
    if newlines is None:
        newlines = at[0][2] = [m.start() for m in re.finditer("\n", text)]
    line = bisect_left(newlines, start)
    first = newlines[line - 1] + 1 if line else 0
    return SourceSpan(file, line + 1, start - first + 1, start, end)


class _SpannedError(Exception):
    """An error with a message and a SourceSpan (made from a handle) or None."""

    kind = "error"

    def __init__(self, message: str, span=None):
        super().__init__(message)
        self.message = message
        self.span = _span(span) if type(span) is tuple else span

    def __str__(self):
        where = "" if self.span is None else "{0.file}:{0.line}:{0.column}: ".format(self.span)
        return f"{where}{self.kind}: {self.message}"


class ParseError(_SpannedError):
    """Malformed program text; .incomplete marks truncation at end of input."""

    kind = "parse error"

    def __init__(self, message: str, span=None, incomplete: bool = False):
        super().__init__(message, span)
        self.incomplete = incomplete


class LangError(_SpannedError):
    """Runtime error in a surface-language program."""


# ---------------------------------------------------------------------------
# Expression AST


class Lit:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Ref:
    __slots__ = ("name", "span")

    def __init__(self, name, span):
        self.name, self.span = name, span


class If:
    __slots__ = ("cond", "then", "els")

    def __init__(self, cond, then, els):
        self.cond = cond
        self.then = then
        self.els = els


class Lambda:
    __slots__ = ("params", "body", "code")

    def __init__(self, params, body):
        self.params, self.body = params, body
        self.code = []  # the body's, once compiled (see _compile)


class Apply:
    __slots__ = ("fn", "args", "span")

    def __init__(self, fn, args, span):
        self.fn, self.args, self.span = fn, args, span


class Define:
    __slots__ = ("name", "expr")

    def __init__(self, name, expr):
        self.name, self.expr = name, expr


class MatchExpr:
    """A match-all (kind "all") or match-first ("first") form. compiled is
    None until its first evaluation, then holds (body code, slotted
    pattern) per clause, which every later evaluation searches as it is."""

    __slots__ = ("kind", "target", "matcher", "clauses", "span", "compiled")

    def __init__(self, kind, target, matcher, clauses, span):
        self.kind = kind
        self.target = target
        self.matcher = matcher
        self.clauses = clauses
        self.span = span
        self.compiled = None


class ClauseTemplate:
    """A clause as analyzed. A value pattern ,x of a clause variable holds
    a function of the bindings (x's most recent binding). Each other one, a
    proto, reads the frame (evaluator, lexical frame) too, as one more ref,
    _FRAME, which every search binds in slot 0; protos lists the protos'
    expressions. names are the slots' names, _FRAME's first, so a result's
    slot env is the body's frame as it is. units are the body's and each
    proto's (expressions, names of its innermost scope, code), compiled
    with the code around the match; the pattern is compiled on first use."""

    __slots__ = ("pattern", "names", "protos", "body", "units")

    def __init__(self, pattern, names, protos, body, units):
        self.pattern = pattern
        self.names = names
        self.protos = protos
        self.body = body
        self.units = units


# ---------------------------------------------------------------------------
# Reader: text -> expressions or a value

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
# An atom int() reads, whatever its length. Longer than the default digit
# limit of 4300 it is a parse error, and shorter an integer, under any
# PYTHONINTMAXSTRDIGITS: it reads the same whatever the setting, never as a symbol.
_INT_LITERAL = re.compile(r"[+-]?\d+(?:_\d+)*")
_SYMBOL, _OPEN, _CLOSE, _QUOTE, _ATOM, _STRING, _BODY, _SHUT, _END = range(1, 10)
_SYMBOLS = Symbol._table  # the interned symbols, by name


# What a datum denotes where it stands: its context. _HEAD is the head of
# code, which may name a special form; _TOP a top-level form, where define
# is allowed; _PTUP the list of a quoted tuple pattern; _NAME a name
# (define's, a parameter, a pattern constructor) or the inside of a form
# in error: an atom as it is, a list or quote mark as nothing. A quote
# mark's frame has a negative context: _MARK makes its node with the maker
# in the frame, _TUP wants a tuple pattern, _WRONG is the frame's message.
_CODE, _HEAD, _TOP, _QUASI, _DATA, _VALUE, _CLAUSE, _PAT, _PTUP, _PARAMS, _NAME = range(11)
_MARK, _TUP, _WRONG = -1, -2, -3

# a list's own context, and its items': item i's is ctxs[min(i, 3)]
_ALL = [(c,) * 4 for c in range(11)]
_LISTS = [(c, _ALL[c]) for c in range(11)]
_LISTS[_CODE] = _LISTS[_HEAD] = (_CODE, (_HEAD, _CODE, _CODE, _CODE))
_LISTS[_TOP] = (_TOP, (_HEAD, _CODE, _CODE, _CODE))
_LISTS[_CLAUSE] = (_CLAUSE, (_PAT, _CODE, _NAME, _NAME))
_LISTS[_PAT] = (_PAT, (_NAME, _PAT, _PAT, _PAT))
_LISTS[_PTUP] = (_PTUP, _ALL[_PAT])
_LISTS[_PARAMS] = (_PARAMS, _ALL[_NAME])

_SYM_IF, _SYM_LAMBDA, _SYM_DEFINE, _SYM_WILD, _SYM_LIST, _SYM_NIL = map(
    Symbol, ("if", "lambda", "define", "_", "list", "nil"))
_SYM_MATCH_ALL, _SYM_MATCH_FIRST = Symbol("match-all"), Symbol("match-first")

# the items' contexts of a special form (a define not at the top level is an error)
_FORMS = {_SYM_IF: _LISTS[_CODE][1], _SYM_LAMBDA: (_NAME, _PARAMS, _CODE, _CODE),
          _SYM_DEFINE: (_NAME, _NAME, _CODE, _NAME), _SYM_MATCH_ALL: (_NAME, _CODE, _CODE, _CLAUSE)}
_FORMS[_SYM_MATCH_FIRST] = _FORMS[_SYM_MATCH_ALL]
_PATTERN_FORMS = {Symbol("or"): Or, Symbol("and"): And, Symbol("not"): Not, Symbol("later"): Later}


# in each context, what a quote mark makes there, for quote, quasiquote and
# unquote in turn: (its frame's context, its datum's context, maker or message)
_MARKS = [((_MARK, _NAME, lambda v: None),) * 3] * 11
_MARKS[_CODE] = _MARKS[_HEAD] = _MARKS[_TOP] = (
    (_MARK, _DATA, Lit), (_MARK, _QUASI, lambda v: v),
    (_WRONG, _NAME, "unquote outside quasiquote or pattern"))
_MARKS[_QUASI] = ((_WRONG, _NAME, "quote inside quasiquote is not supported"),
                  (_WRONG, _NAME, "nested quasiquote is not supported"),
                  (_MARK, _CODE, lambda v: v))
_MARKS[_PAT] = ((_TUP, _PTUP, None), (_WRONG, _NAME, "quasiquote is not allowed inside a pattern"),
                (_MARK, _CODE, ValuePattern))
_MARKS[_DATA] = _MARKS[_VALUE] = tuple(
    (_WRONG, _NAME, f"{kind} is not allowed inside quoted data") for kind in _QUOTES.values())
_MARKS[_CLAUSE] = ((_WRONG, _NAME, "a match clause is [pattern body]"),) * 3
_MARKS[_PARAMS] = ((_WRONG, _NAME, "lambda parameters must be a list of names"),) * 3


def parse_program(text: str, filename: str = "<string>") -> list:
    """The top-level forms of text as expressions; a bare empty list is a
    no-op and is dropped."""
    return [x for x in _read(text, filename, _TOP) if x is not None]


def _digit_chunks(v: str) -> int:
    """An integer literal int() refused under a lowered digit limit, read in
    chunks of 640 digits, a length that no limit refuses."""
    digits = v.lstrip("+-").replace("_", "")
    n = 0
    for i in range(0, len(digits), 640):
        n = n * 10 ** len(digits[i:i + 640]) + int(digits[i:i + 640])
    return -n if v[0] == "-" else n


def _read(text: str, filename: str, mode: int) -> list:
    """What the datums of text denote in a mode: _TOP (expressions) or
    _VALUE (one value, which only blanks may follow). A frame is
    [context, items, items' contexts, start, opener (None for a quote mark),
    special form, maker or message]. A reader error is raised at once, and
    wins over any analysis error; of those, the first in analysis order (see
    _note)."""
    src = [text, filename, None]
    root = f = [mode, [], _ALL[mode], 0, None, None]
    items = root[1]
    stack = [root]
    err = [None, 0, 0]
    tokens = _TOKEN.finditer(text)
    for m in tokens:
        k = m.lastindex
        if k == _ATOM:
            v = m[k]
            if v[0] == "#":
                if v != "#t" and v != "#f":
                    raise ParseError(f"unknown token {v}", (src, m.start(k), m.end()))
                v = v == "#t"
            elif len(v) > 4300 and _INT_LITERAL.fullmatch(v):
                raise ParseError(f"integer literal too long ({len(v)} characters)",
                                 (src, m.start(k), m.end()))
            else:
                try:
                    v = int(v)
                except ValueError:
                    v = _digit_chunks(v) if _INT_LITERAL.fullmatch(v) else Symbol(v)
        elif k == _SYMBOL:
            v = _SYMBOLS.get(m[k]) or Symbol(m[k])
        elif k == _OPEN or k == _QUOTE:
            n = len(items)
            c = f[2][n] if n < 4 else f[2][3]
            s = m.start(k)
            if k == _OPEN:
                ctx, ctxs = _LISTS[c]
                f = [ctx, [], ctxs, s, text[s], None]
            else:
                ctx, c, form = _MARKS[c]["'`,".index(text[s])]
                f = [ctx, [], _ALL[c], s, None, form]
            stack.append(f)
            items = f[1]
            continue
        elif k == _STRING:
            v, s = m[_BODY], m.start(k)
            bad = next((x for x in _ESCAPE.finditer(v) if x[1] and x[1] not in _ESCAPES), None)
            if bad:
                raise ParseError(f"unknown string escape \\{bad[1]}", (src, s, s + 1 + bad.end()))
            if m[_SHUT] is None:
                raise ParseError("unterminated string", (src, s, m.end()), incomplete=True)
            v = _ESCAPE.sub(lambda x: _ESCAPES[x[1]], v)
        elif k == _CLOSE:
            s = m.start(k)
            if f is root or f[0] < 0:
                raise ParseError(f"unexpected '{text[s]}'", (src, s, s + 1))
            if _OPENERS[f[4]] != text[s]:
                raise ParseError(f"mismatched brackets: '{f[4]}' closed by '{text[s]}'",
                                 (src, s, s + 1))
        else:  # the end of the text
            s = m.start(k)
            if f is root:
                break
            if f[0] < 0:
                raise ParseError("unexpected end of input", (src, s, s), incomplete=True)
            raise ParseError(f"missing '{_OPENERS[f[4]]}' before end of input",
                             (src, f[3], s), incomplete=True)
        if k != _CLOSE:
            n = len(items)
            c = f[2][n] if n < 4 else f[2][3]
            if c is _DATA or c is _NAME or c is _VALUE:
                pass
            elif c is _CODE:
                v = Ref(v, (src, m.start(k), m.end())) if type(v) is Symbol else Lit(v)
            elif c is _PAT and type(v) is Symbol:
                v = WILDCARD if v is _SYM_WILD else Var(v)
            else:
                try:
                    v = _atom(f, c, v, (src, m.start(k), m.end()))
                except ParseError as bad:
                    v = None
                    _note(err, stack, bad)
            items.append(v)
        # pop each frame now complete: the list just closed, then each quote
        # mark whose datum that or the atom just read completes
        while k == _CLOSE or f[0] < 0:
            k = None
            stack.pop()
            if len(stack) < err[1]:
                err[1:] = len(stack), len(stack[-1][1])
            try:
                v = _build(f, (src, f[3], m.end()))  # a token ends its match
            except ParseError as bad:
                v = None
                _note(err, stack, bad)
            f = stack[-1]
            items = f[1]
            items.append(v)
        if f is root and mode is _VALUE:
            m = next(tokens)
            if m.lastindex != _END:
                raise ParseError(f"trailing input at offset {m.start(m.lastindex)}")
            break
    if err[0] is not None:
        raise err[0]
    return items


def _note(err: list, stack: list, bad: ParseError) -> None:
    # keep bad, the error of the node about to join stack[-1], if it comes
    # first in analysis order: pre-order, but a match's clauses before its
    # target and matcher. err holds the error kept, the depth down to which
    # its branch is still on the stack (_read lowers it as frames pop), and
    # its branch's position there. bad, later in the text, comes first if at
    # an ancestor of the kept error, or in a clause of a match whose target or
    # matcher holds the kept error.
    if err[0] is not None:
        f = stack[err[1] - 1]
        i, kept = len(f[1]), err[2]
        if i != kept and not ((f[5] is _SYM_MATCH_ALL or f[5] is _SYM_MATCH_FIRST)
                              and 0 < kept < 3 <= i):
            return
    err[:] = bad, len(stack), len(stack[-1][1])


def _atom(f: list, c: int, v, at):
    # the node of an atom v in the contexts _read leaves to this
    if c is _HEAD and type(v) is Symbol and v in _FORMS:
        f[2], f[5] = _FORMS[v], v
        return v
    if c is _HEAD or c is _TOP:
        return Ref(v, at) if type(v) is Symbol else Lit(v)
    if c is _PAT:
        raise ParseError(
            f"a bare literal is not a pattern; write ,{print_value(v)} for a value pattern", at)
    if c is _CLAUSE or c is _PARAMS:  # as for a quote mark there
        raise ParseError(_MARKS[c][0][2], at)
    return Lit(v) if c is _QUASI else None


def _build(f: list, at):
    # the node of a frame now complete
    c, items, form = f[0], f[1], f[5]
    n = len(items)
    if c is _CODE or c is _TOP:
        if form is None and (n or c is _TOP):  # a bare () at the top is a no-op
            return Apply(items[0], tuple(items[1:]), at) if n else None
        if form is None:
            raise ParseError("empty application", at)
        if form is _SYM_IF:
            if n != 4:
                raise ParseError("if takes a condition and two branches", at)
            return If(items[1], items[2], items[3])
        if form is _SYM_LAMBDA:
            if n < 3:
                raise ParseError("lambda takes a parameter list and a body", at)
            return Lambda(items[1], tuple(items[2:]))
        if form is _SYM_DEFINE:
            if c is not _TOP:
                raise ParseError("define is only allowed at the top level", at)
            if n != 3 or type(items[1]) is not Symbol:
                raise ParseError("define takes a name and one expression", at)
            return Define(items[1], items[2])
        if n < 4:
            raise ParseError(f"{form} takes a target, a matcher, and at least one clause", at)
        kind = "all" if form is _SYM_MATCH_ALL else "first"
        return MatchExpr(kind, items[1], items[2], tuple(items[3:]), at)
    if c is _PAT:
        name = items[0] if n else _SYM_NIL  # () is (nil)
        if type(name) is not Symbol:
            raise ParseError("a pattern constructor must be a symbol", at)
        make = _PATTERN_FORMS.get(name)
        if make is None:
            return Constructor(name, items[1:])
        if (make is Not or make is Later) and n != 2:
            raise ParseError(f"{name} takes one pattern", at)
        return make(items[1]) if make is Not or make is Later else make(items[1:])
    if c is _MARK:  # a quote mark and its datum
        return form(items[0])
    if c is _DATA:
        return VList.of(items)
    if c is _CLAUSE:
        if n != 2:
            raise ParseError("a match clause is [pattern body]", at)
        pattern, names, protos = items[0], (_FRAME, *extract_pattern_variables(items[0])), []
        units = [((items[1],), names, [])]
        # its value patterns, in textual order; each may read the clause variables
        # visible where it stands (the engine orders evaluation by availability)
        for q, visible in scoped(pattern, names[1:]):
            if type(q) is ValuePattern:
                free = fold(q.expr, _free_vars)
                q.refs = tuple(x for x in visible if x in free)
                if type(q.expr) is Ref and q.refs:
                    q.expr = partial(env_get, name=q.refs[0])
                else:
                    protos.append(q.expr)
                    q.refs += (_FRAME,)
                    units.append(((q.expr,), q.refs, []))
                    q.expr = partial(_proto_value, units[-1][2])
        return ClauseTemplate(pattern, names, tuple(protos), items[1], tuple(units))
    if c is _QUASI:
        return Apply(Ref(_SYM_LIST, at), tuple(items), at)
    if c is _PTUP:
        return TuplePattern(items)
    if c is _PARAMS:
        if any(type(p) is not Symbol for p in items):
            raise ParseError("lambda parameters must be names", at)
        if len(set(items)) != n:
            raise ParseError("lambda parameters must be distinct", at)
        return tuple(items)
    if c is _VALUE:
        return VTuple(items) if f[4] == "[" else VList.of(items)
    if c is _TUP and type(items[0]) is TuplePattern:
        return items[0]
    if c is _TUP:
        raise ParseError("a quoted pattern must be a tuple of patterns", at)
    if c is _WRONG:
        raise ParseError(form, at)
    return None


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
        return (lambda fs: _union(fs).difference(names)), (e.body, *e.protos)
    return None, set()


def _union(sets) -> set:
    return set().union(*sets)


# the name of slot 0 of every lang search, which holds the frame
# (evaluator, lexical env): the empty name, which no program can write
# and a pattern's printed form leaves out
_FRAME = Symbol("")


def _proto_value(code, bindings):
    # a proto's value: its code run over the bindings of its refs, inside
    # the lexical frame that its last binding, the frame's, holds
    ev, frame = bindings[-1][1]
    return ev._eval_vp(code, bindings, frame)


# ---------------------------------------------------------------------------
# Evaluator


# Code: a list of (op, a, b) instructions, ending in _RETURN; a frame is
# (values, parent frame). The global frame's values are the globals, which
# _GLOBAL reads by name and no _LOCAL reaches. Operands: _LOCAL (depth,
# index), _GLOBAL (name, span), _CALL (argc, span), _CONST (value),
# _JUMPF and _JUMP (label: a list of its pc; _JUMPF pops #f to jump),
# _MATCH (node), _CLOSURE (params, body code), _DEFINE (name).
_LOCAL, _GLOBAL, _CALL, _CONST, _RETURN, _JUMPF, _MATCH, _CLOSURE, _JUMP, _POP, _DEFINE = range(11)
_RET = (_RETURN, None, None)


def _compile(exprs, scope) -> list:
    """The code of a body, exprs run in turn for the last one's value, in
    scope: None (the globals) or (names, outer scope). The code of each
    lambda body, clause body and proto inside it is compiled too, once,
    into the list its node keeps. A ref reads the innermost scope that
    names it, or else a global. The walk is iterative, so code of any
    nesting depth compiles without host recursion."""
    code = []
    units = [(exprs, scope, code)]
    while units:
        exprs, scope, out = units.pop()
        if out:
            continue
        # what is left, last first, each with whether it is in tail position:
        # a node to compile, an instruction to emit, or a label that takes the pc
        todo = [(_RET, False), (exprs[-1], True)]
        for e in exprs[-2::-1]:
            todo += [((_POP, None, None), False), (e, False)]
        while todo:
            e, tail = todo.pop()
            te = type(e)
            if te is tuple:
                out.append(e)
            elif te is list:
                e.append(len(out))
            elif te is Ref:
                depth, s = 0, scope
                while s is not None and e.name not in s[0]:
                    depth, s = depth + 1, s[1]
                out.append((_GLOBAL, e.name, e.span) if s is None
                           else (_LOCAL, depth, s[0].index(e.name)))
            elif te is Lit:
                out.append((_CONST, e.value, None))
            elif te is Apply:
                todo.append(((_CALL, len(e.args), e.span), False))
                todo += [(a, False) for a in reversed(e.args)]
                todo.append((e.fn, False))
            elif te is If:
                # cond, JUMPF els, then, RETURN (in tail position) or JUMP end, els, end
                els, end = [], []
                todo += [(end, False), (e.els, tail), (els, False),
                         (_RET if tail else (_JUMP, end, None), False), (e.then, tail),
                         ((_JUMPF, els, None), False), (e.cond, False)]
            elif te is Lambda:
                out.append((_CLOSURE, e.params, e.code))
                units.append((e.body, (e.params, scope), e.code))
            elif te is MatchExpr:
                todo += [((_MATCH, e, None), False), (e.matcher, False), (e.target, False)]
                for tpl in e.clauses:
                    units += [(body, (names, scope), c) for body, names, c in tpl.units]
            elif te is Define:
                todo += [((_DEFINE, e.name, None), False), (e.expr, False)]
            else:
                raise AssertionError(f"unknown expression node {te.__name__}")
    return code


class Closure:
    __slots__ = ("params", "code", "frame")

    def __init__(self, params, code, frame):
        self.params = params
        self.code = code
        self.frame = frame

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
        self.globals = dict(_BUILTINS)
        self.globals[Symbol("primes")] = primes_stream()
        if naive_multiset:
            self.globals[Symbol("Multiset")] = _NAIVE_MULTISET
        self.frame = (self.globals, None)  # what top-level closures capture

    # -- evaluation --------------------------------------------------------

    def eval_forms(self, exprs):
        """Evaluate top-level forms in order, yielding each non-define value."""
        for e in exprs:
            v = self._run(_compile((e,), None), self.frame)
            if type(e) is not Define:
                yield v

    def _run(self, code, frame):
        # the value of code run in frame. A call, or the body a match-first
        # picked, runs in place of the code at a _RETURN; elsewhere, the
        # code to go back to waits as (code, pc, frame) on conts. A strict
        # match-all runs as (list body1 ... bodyn), (map f xs) as
        # (list (f x1) ... (f xn)).
        stack = []
        push, pop = stack.append, stack.pop
        conts = []
        globals_ = self.globals
        pc = 0
        while True:
            op, a, b = code[pc]
            pc += 1
            if op is _LOCAL:
                f = frame
                while a:
                    f = f[1]
                    a -= 1
                push(f[0][b])
            elif op is _GLOBAL:
                v = globals_.get(a, _MISSING)
                if v is _MISSING:
                    raise LangError(f"unbound variable {a}", b)
                push(v)
            elif op is _CALL:
                if a:
                    args = stack[-a:]
                    del stack[-a:]
                else:
                    args = []
                fn = pop()
                tf = type(fn)
                if tf is Closure:
                    if a != len(fn.params):
                        raise LangError(f"function takes {len(fn.params)} argument(s), got {a}", b)
                    if code[pc] is not _RET:
                        conts.append((code, pc, frame))
                    code, pc, frame = fn.code, 0, (args, fn.frame)
                elif tf is not BFn:
                    raise LangError(f"not a function: {show_value(fn)}", b)
                elif fn is _MAP:
                    xs = fn.invoke(args, b)
                    f = (_CONST, args[0], None)
                    gen = [(_CONST, _LIST, None)]
                    for x in xs:
                        gen += (f, (_CONST, x, None), (_CALL, 1, b))
                    gen += ((_CALL, len(gen) // 3, b), _RET)
                    if code[pc] is not _RET:
                        conts.append((code, pc, frame))
                    code, pc = gen, 0
                else:
                    push(fn.invoke(args, b))
            elif op is _CONST:
                push(a)
            elif op is _RETURN:
                if not conts:
                    return pop()
                code, pc, frame = conts.pop()
            elif op is _JUMPF:
                if pop() is False:
                    pc = a[0]
            elif op is _MATCH:
                matcher = pop()
                found = self._eval_match(a, frame, pop(), matcher)
                if type(found) is not list:
                    push(found)  # a stream match-all's lazy sequence
                    continue
                if code[pc] is not _RET:
                    conts.append((code, pc, frame))
                if a.kind == "first":
                    c, vs = found[0]
                    code, pc, frame = c, 0, (vs, frame)
                else:
                    push(_LIST)
                    conts.append((((_CALL, len(found), a.span), _RET), 0, None))
                    conts += [(c, 0, (vs, frame)) for c, vs in reversed(found)]
                    code, pc, frame = conts.pop()
            elif op is _CLOSURE:
                push(Closure(a, b, frame))
            elif op is _JUMP:
                pc = a[0]
            elif op is _POP:
                pop()
            else:
                globals_[a] = pop()
                push(None)

    # -- match expressions ---------------------------------------------------

    def _eval_vp(self, code, bindings, frame):
        return self._run(code, ([v for _, v in bindings], frame))

    def _eval_match(self, node: MatchExpr, frame, target, matcher_val):
        """The search of a match expression. For match-first and a strict
        match-all, a list of (body code, slot env), one per result kept;
        each body runs in the frame (slot env, frame), and the engine only
        finds the results. A stream match-all gives its lazy sequence of
        body values instead. Every search starts from the slot env that
        binds the frame (self, frame). A program that overflows the host
        stack in a search or a stream body fails at the innermost match."""
        matcher = _coerce_matcher(matcher_val, node.span)
        start = ((self, frame),)
        try:
            clauses = node.compiled
            if clauses is None:
                # the slotted copy of each pattern, its variables after the frame's
                clauses = node.compiled = [
                    (tpl.units[0][2],
                     engine.compile_pattern(TuplePattern((Var(_FRAME), tpl.pattern))).args[1])
                    for tpl in node.clauses
                ]
            if node.kind == "first":
                for code, p in clauses:
                    for vs in engine._dfs(((p, matcher, target),), start):
                        return [(code, vs)]
                raise LangError("match-first: no clause matched", node.span)
            # with max_results, the search stops at the Nth result: errors
            # past it are not raised
            stream = self.engine_mode == "stream"
            search = engine._dovetail if stream else engine._dfs
            found = islice(chain.from_iterable(
                zip(repeat(code), search(((p, matcher, target),), start)) for code, p in clauses
            ), self.max_results)
            if stream:
                def stream_results():
                    # runs after _eval_match has returned, as the result is forced
                    try:
                        for code, vs in found:
                            yield self._run(code, (vs, frame))
                    except _MATCH_ERRORS as err:
                        message = _HOST_ERRORS.get(type(err)) or str(err)
                        raise LangError(message, node.span) from None

                return lazyseq_from_iter(stream_results())
            return _drain(found)
        except _MATCH_ERRORS as err:
            raise LangError(_HOST_ERRORS.get(type(err)) or str(err), node.span) from None


def _drain(it) -> list:
    # list(it), drawn 4096 at a time: Python takes an interrupt (Ctrl-C)
    # only between bytecodes, and list() of a search whose batches map in
    # C runs none until the search ends or memory runs out
    out = []
    while chunk := tuple(islice(it, 4096)):
        out += chunk
    return out


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

# errors a match can raise that a program reports at the match expression,
# a search or stream body that overflows the host stack among them
_MATCH_ERRORS = (MatchError, ValidationError, DepthExceeded, TypeError, RecursionError)


# ---------------------------------------------------------------------------
# Program entry points


def cli_form(v) -> str:
    """Render a result for CLI output: tuples print in list form."""
    return print_value(v, tuples_as_lists=True)


# the error of a program that runs out of host stack (nested too deeply
# for the walkers that still recurse; a match reports it with its span) or
# of memory; a result too long to print (DepthExceeded) gives its own message
_HOST_ERRORS = {RecursionError: "nested too deeply for the host stack",
                MemoryError: "out of memory"}


def run_text(text: str, evaluator: Evaluator, filename: str = "<string>",
             out=None) -> int:
    """Evaluate a program; print each non-define top-level result. 0 or 1."""
    return _run(text, filename, evaluator, out, False)


def _run(text: str, filename: str, evaluator: Evaluator, out, more: bool):
    # run_text, parsing text once; with more, text that ends inside a form
    # gives None and nothing is run or reported
    try:
        program = parse_program(text, filename)
        for v in evaluator.eval_forms(program):
            print(cli_form(v), file=out)
        return 0
    except ParseError as err:
        if more and err.incomplete:
            return None
        print(err, file=sys.stderr)
    except LangError as err:
        print(err, file=sys.stderr)
    except (DepthExceeded, RecursionError, MemoryError) as err:
        print("error:", _HOST_ERRORS.get(type(err), err), file=sys.stderr)
    return 1


def repl(evaluator: Optional[Evaluator] = None, stdin=None, stdout=None) -> int:
    """Read forms (multi-line aware), evaluate, print; EOF ends with 0. A
    closed standard input reads as EOF, and a closed standard output takes
    no output, as run_text's does. An interrupt (KeyboardInterrupt) while
    a form is read or run drops that form with one `interrupted` line on
    stderr and prompts again, keeping the session's definitions; at an
    empty prompt it is raised, and ends the session."""
    evaluator = Evaluator() if evaluator is None else evaluator
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    buffer = ""  # the lines of a form not complete yet
    while True:
        print("... " if buffer else "nf> ", end="", file=stdout, flush=True)
        try:
            line = "" if stdin is None else stdin.readline()
            if not line:
                print(file=stdout)
                return 0
            buffer += line
            if _run(buffer, "<repl>", evaluator, stdout, True) is not None:
                buffer = ""
        except KeyboardInterrupt:
            if not buffer:
                raise
            print("interrupted", file=sys.stderr)
            buffer = ""
