"""Immutable value model: integers, booleans, symbols, strings, lists, tuples,
and lazy sequences, plus structural equality and list-decomposition helpers.

A list is a window on one tuple, so the suffix and drop-one remainders of a
decomposition are O(1) views that share that tuple and never chain. A lazy
sequence is a chain of LazySeq cells whose last tail is EMPTY_LIST, so the
rest of its last cell is the empty list itself.
"""

from __future__ import annotations

import threading
from itertools import chain, islice
from typing import Iterable, Iterator

from .errors import DepthExceeded

DEFAULT_FORCE_BUDGET = 1_000_000

_FORCE_LOCK = threading.RLock()


class Symbol(str):
    """An interned identifier; distinct from strings in equality and printing."""

    _table: dict = {}

    def __new__(cls, name: str):
        sym = cls._table.get(name)
        if sym is None:
            sym = str.__new__(cls, name)
            cls._table[name] = sym
        return sym

    def __repr__(self):
        return f"Symbol({str.__str__(self)})"


class VList:
    """Immutable finite list: a window on one tuple. Its elements are those
    of _base from _start on, less the one at absolute index _skip when
    _skip >= 0; a flat list is the window (elems, 0, -1, len(elems)).

    A suffix or drop-one view is a window on the same tuple, built in O(1),
    so views never rest on other views; tuple iterators set to an index
    iterate it in O(len). A drop from a window that already skips an
    element copies that window once (see _materialize).
    """

    __slots__ = ("_base", "_start", "_skip", "_len")

    def __init__(self, base, start, skip, length):
        self._base = base
        self._start = start
        self._skip = skip
        self._len = length

    @staticmethod
    def of(items: Iterable) -> "VList":
        elems = tuple(items)
        if not elems:
            return EMPTY_LIST
        return VList(elems, 0, -1, len(elems))

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator:
        base, start, skip = self._base, self._start, self._skip
        it = iter(base)
        if start:
            it.__setstate__(start)
        return it if skip < 0 else chain(islice(it, skip - start), islice(it, 1, None))

    def __getitem__(self, i: int):
        if not isinstance(i, int):
            raise TypeError("list indices must be integers")
        n = self._len
        if i < 0:
            i += n
        if i < 0 or i >= n:
            raise IndexError("list index out of range")
        base, start, skip = self._base, self._start, self._skip
        i += start
        if 0 <= skip <= i:
            i += 1
        return base[i]

    def _materialize(self) -> tuple:
        """The elements as one tuple. A window that is not its whole base
        copies them once and becomes a flat list over the copy. The copy is
        built from exact-size slices: a tuple grown from an iterator is
        over-allocated and then shrunk, and keeping such copies lets
        resident memory creep over long runs."""
        base, start, skip = self._base, self._start, self._skip
        if skip >= 0:
            base = base[start:skip] + base[skip + 1 :]
        elif start:
            base = base[start:]
        else:
            return base
        self._base, self._start, self._skip = base, 0, -1
        return base

    def __eq__(self, other):
        if isinstance(other, (VList, LazySeq)):
            return value_equal(self, other)
        return NotImplemented

    def __hash__(self):
        return fold(self, _hash_parts)

    def __repr__(self):
        return print_value(self)


EMPTY_LIST = VList((), 0, -1, 0)


def suffix_view(xs: VList, k: int) -> VList:
    """The list xs without its first k elements, sharing storage with xs."""
    n = xs._len
    if k == 0:
        return xs
    if k == n:
        return EMPTY_LIST
    if k > n or k < 0:
        raise IndexError("suffix start out of range")
    start, skip = xs._start + k, xs._skip
    if 0 <= skip <= start:  # the suffix begins past the skipped element
        return VList(xs._base, start + 1, -1, n - k)
    return VList(xs._base, start, skip, n - k)


def without_index(xs: VList, i: int) -> VList:
    """The list xs without the element at index i, sharing storage with xs
    (or with a copy of xs made once, when xs already skips an element)."""
    n = xs._len
    if i < 0 or i >= n:
        raise IndexError("drop index out of range")
    if i == 0:
        return suffix_view(xs, 1)
    if n == 1:
        return EMPTY_LIST
    if xs._skip < 0:
        start = xs._start
        return VList(xs._base, start, start + i, n - 1)
    return VList(xs._materialize(), 0, i, n - 1)


class VTuple:
    """Immutable fixed-arity tuple, distinct from lists."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable):
        self.items = tuple(items)

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def __eq__(self, other):
        if isinstance(other, VTuple):
            return value_equal(self, other)
        return NotImplemented

    def __hash__(self):
        return fold(self, _hash_parts)

    def __repr__(self):
        return print_value(self)


_PENDING = object()


class LazySeq:
    """A non-empty lazy sequence cell: a head plus a memoized tail.

    The tail is another LazySeq or EMPTY_LIST. A cell built by
    lazyseq_from_iter draws it from the 1-tuple (iterator,) that all its
    cells share: forcing draws the next element and wraps it in a cell
    with the same holder, so no cell refers back to itself and the
    sequence has no reference cycle. _thunk holds that holder while a
    force would draw and is None once the tail is known; forcing is
    synchronized and draws at most once. A draw that raises leaves its
    error and its traceback in _thunk, and every later force raises that
    error again with the first draw's traceback, so the traceback never grows.
    """

    __slots__ = ("head", "_tail", "_thunk")

    def __init__(self, head, thunk=None, tail=EMPTY_LIST):
        self.head = head
        self._thunk = thunk
        self._tail = tail if thunk is None else _PENDING

    def tail(self):
        t = self._tail
        if t is not _PENDING:
            return t
        with _FORCE_LOCK:
            t = self._tail
            if t is not _PENDING:
                return t
            holder = self._thunk
            if len(holder) == 2:
                # a draw that failed; its iterator is not drawn again, and
                # its error is raised with the first draw's traceback
                raise holder[0].with_traceback(holder[1])
            try:
                h = next(holder[0], _PENDING)
            except Exception as err:
                self._thunk = (err, err.__traceback__)
                raise
            self._tail = t = EMPTY_LIST if h is _PENDING else LazySeq(h, holder)
            self._thunk = None
            return t

    def __iter__(self):
        cur = self
        while cur is not EMPTY_LIST:
            yield cur.head
            cur = cur.tail()

    def __repr__(self):
        return "#<lazy-seq>"


def lazyseq_from_iter(it: Iterable):
    """Wrap an iterator as a lazy sequence; empty input gives the empty list.
    The first element is drawn now, each later one when the cell before it
    is forced; the cells share one (iterator,) holder and no closure, so
    the sequence is acyclic (see LazySeq)."""
    it = iter(it)
    h = next(it, _PENDING)
    return EMPTY_LIST if h is _PENDING else LazySeq(h, (it,))


def cons_value(x, xs):
    """Prepend x to a list or lazy sequence."""
    if type(xs) is VList:
        return VList.of((x,) + xs._materialize())
    if type(xs) is LazySeq:
        return LazySeq(x, tail=xs)
    raise TypeError(f"cannot prepend to {type(xs).__name__}")


def repeat_value(x) -> LazySeq:
    """The infinite lazy sequence x, x, x, ..."""
    cell = LazySeq(x)
    cell._tail = cell
    return cell


def is_seq(v) -> bool:
    return type(v) is VList or type(v) is LazySeq


def as_vlist(v) -> VList:
    """Force a finite sequence into a VList. A lazy sequence is forced up
    to DEFAULT_FORCE_BUDGET elements; DepthExceeded if it is longer."""
    if type(v) is VList:
        return v
    if type(v) is LazySeq:
        elems = tuple(islice(v, DEFAULT_FORCE_BUDGET + 1))
        if len(elems) > DEFAULT_FORCE_BUDGET:
            raise DepthExceeded(
                f"a lazy sequence longer than {DEFAULT_FORCE_BUDGET} elements cannot be made a list"
            )
        return VList.of(elems)
    raise TypeError(f"expected a list, got {type(v).__name__}")


def seq_is_empty(v) -> bool:
    """True when a list or lazy sequence has no elements (forces one cell)."""
    if type(v) is VList:
        return len(v) == 0
    if type(v) is LazySeq:
        return False
    raise TypeError(f"expected a list, got {type(v).__name__}")


def seq_uncons(v):
    """Split a non-empty sequence into (head, rest); None when empty."""
    if type(v) is VList:
        if len(v) == 0:
            return None
        return v[0], suffix_view(v, 1)
    if type(v) is LazySeq:
        return v.head, v.tail()
    raise TypeError(f"expected a list, got {type(v).__name__}")


def value_kind(v) -> str:
    t = type(v)
    if t is bool:
        return "bool"
    if t is int:
        return "int"
    if t is Symbol:
        return "symbol"
    if t is str:
        return "string"
    if t is VList or t is LazySeq:
        return "seq"
    if t is VTuple:
        return "tuple"
    if isinstance(v, int):
        return "int"
    if isinstance(v, Symbol):
        return "symbol"
    if isinstance(v, str):
        return "string"
    # functions, builtins, matchers: equal only to themselves, printed as
    # their repr
    return "opaque"


_DONE = object()


def value_equal(a, b) -> bool:
    """Structural equality. Kinds must agree (a boolean is never an integer,
    a tuple is never a list). Lazy sequences are forced element by element,
    up to DEFAULT_FORCE_BUDGET elements; DepthExceeded beyond that.
    """
    t = type(a)
    if t is type(b) and (t is int or t is Symbol or t is bool or t is str):
        return a == b
    budget = DEFAULT_FORCE_BUDGET
    # open lists and tuples wait on an explicit stack of (a's items left,
    # b's items left, lazy), so values nested deeper than the host stack
    # compare too
    stack = []
    while True:
        ka = value_kind(a)
        if ka != value_kind(b):
            return False
        if ka == "seq" or ka == "tuple":
            stack.append((iter(a), iter(b), type(a) is LazySeq or type(b) is LazySeq))
        elif not (a is b if ka == "opaque" else a == b):
            return False
        # the next pair to compare, from the innermost list or tuple left open
        while True:
            if not stack:
                return True
            ita, itb, lazy = stack[-1]
            a = next(ita, _DONE)
            b = next(itb, _DONE)
            if a is not _DONE and b is not _DONE:
                break
            if a is not b:
                return False
            stack.pop()
        if lazy:
            budget -= 1
            if budget < 0:
                raise DepthExceeded("lazy comparison exceeded its force budget")


def list_concat(a, b) -> VList:
    """Eager concatenation of two finite lists."""
    return VList.of(as_vlist(a)._materialize() + as_vlist(b)._materialize())


_STR_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def print_value(v, tuples_as_lists: bool = False) -> str:
    """Render a value in its printed form: lists as (a b c), tuples as
    [a b c] (as (a b c) with tuples_as_lists), symbols bare, strings
    quoted, booleans as #t / #f, and an opaque value (a function or a
    matcher) as its #<...> repr. Lazy sequences give at most
    DEFAULT_FORCE_BUDGET elements in all; DepthExceeded beyond that."""
    parts: list = []
    _print(v, parts.append, "()" if tuples_as_lists else "[]")
    return "".join(parts)


class _Cut(Exception):
    """show_value's message is long enough."""


def show_value(v) -> str:
    """print_value(v) for an error message: its first 100 characters, then
    "...", so an infinite lazy sequence shows only its start."""
    parts: list = []
    size = 0

    def emit(s):
        nonlocal size
        parts.append(s)
        size += len(s)
        if size > 100:
            raise _Cut

    try:
        _print(v, emit)
    except _Cut:
        return "".join(parts)[:100] + "..."
    return "".join(parts)


def _print(v, emit, tuple_brackets="[]"):
    # open lists and tuples wait on an explicit stack of (items left,
    # closer), so values nested deeper than the host stack print too
    stack = []
    budget = [DEFAULT_FORCE_BUDGET]
    items, closer = iter((v,)), ""
    first = True
    while True:
        for x in items:
            if first:
                first = False
            else:
                emit(" ")
            t = type(x)
            if t is int:
                try:
                    emit(str(x))
                except ValueError:  # longer than the interpreter lets str() make
                    _emit_digits(x, emit)
            elif t is VList or t is LazySeq:
                emit("(")
                stack.append((items, closer))
                items, closer = iter(x) if t is VList else _drawn(x, budget), ")"
                first = True
                break
            elif t is VTuple:
                emit(tuple_brackets[0])
                stack.append((items, closer))
                items, closer = iter(x.items), tuple_brackets[1]
                first = True
                break
            elif t is bool:
                emit("#t" if x else "#f")
            elif t is Symbol:
                emit(str.__str__(x))
            elif t is str:
                emit('"')
                for ch in x:
                    emit(_STR_ESCAPES.get(ch, ch))
                emit('"')
            else:
                emit(repr(x))  # an opaque value
        else:
            if not stack:
                return
            emit(closer)
            items, closer = stack.pop()
            first = False


def _emit_digits(x: int, emit) -> None:
    # the digits of an integer str() refused under the interpreter's
    # int/str digit limit: x split by a power of ten into halves until each
    # part has at most 2000 bits (603 digits, under any limit), so the cost
    # stays below quadratic; the parts are emitted in order, each one but
    # the first zero-padded to its width
    if x < 0:
        emit("-")
        x = -x
    todo = [(x, 0)]
    while todo:
        x, width = todo.pop()
        bits = x.bit_length()
        if bits <= 2000:
            emit(str(x).zfill(width))
            continue
        half = bits * 3 // 20  # about half of x's digits
        hi, lo = divmod(x, 10**half)
        todo.append((lo, half))
        todo.append((hi, width - half if width else 0))


def parse_value(text: str):
    """Read one value in printed form with the language's reader. Inverse of
    print_value: ( ) and { } read as lists, [ ] as tuples. Malformed input,
    quote marks and trailing input raise ValueError."""
    from .lang import _VALUE, ParseError, _read

    try:
        found = _read(text, "<value>", _VALUE)
    except ParseError as err:
        raise ValueError(err.message) from None
    if not found:
        raise ValueError("unexpected end of input")
    return found[0]


def fold(x, expand):
    """x rebuilt bottom-up. expand(node) gives (build, children): a leaf's
    build is None and its children stand for its value; any other node's
    value is build(list of its children's values, in order). expand is
    called on x and its descendants in pre-order, left to right. Open
    nodes wait on an explicit stack, so trees nested deeper than the host
    stack fold too."""
    build, children = expand(x)
    if build is None:
        return children
    stack = []
    items, acc = iter(children), []
    while True:
        for y in items:
            b, c = expand(y)
            if b is None:
                acc.append(c)
            else:
                stack.append((items, build, acc))
                items, build, acc = iter(c), b, []
                break
        else:
            r = build(acc)
            if not stack:
                return r
            items, build, acc = stack.pop()
            acc.append(r)


# a list or tuple hashes as its tag and its elements, a nested one standing
# in as its own hash: equal values hash equal, whatever their windows
_HASH_BUILDS = {
    VList: lambda acc: hash(("vlist", tuple(acc))),
    VTuple: lambda acc: hash(("vtuple", tuple(acc))),
}
_FROM_PYTHON = {list: VList.of, tuple: VTuple}
_TO_PYTHON = {VList: list, LazySeq: list, VTuple: tuple}


def _hash_parts(v):
    return _HASH_BUILDS.get(type(v)), v


def _from_python_parts(obj):
    build = _FROM_PYTHON.get(type(obj))
    if build is None and not (
        type(obj) in (int, bool, str, Symbol, VList, VTuple, LazySeq) or isinstance(obj, (int, str))
    ):
        raise TypeError(f"cannot convert {type(obj).__name__} to a value")
    return build, obj


def from_python(obj):
    """Build a value from plain Python data (lists, tuples, ints, strs...)."""
    return fold(obj, _from_python_parts)


def to_python(v):
    """Convert a value to plain Python data. Lazy sequences give at most
    DEFAULT_FORCE_BUDGET elements in all; DepthExceeded beyond that."""
    budget = [DEFAULT_FORCE_BUDGET]
    return fold(v, lambda x: (
        _TO_PYTHON.get(type(x)), _drawn(x, budget) if type(x) is LazySeq else x))


def _drawn(seq: LazySeq, budget: list):
    # seq's elements, each one counted off budget[0], which all the lazy
    # sequences of one value share, as value_equal counts them
    for x in seq:
        budget[0] -= 1
        if budget[0] < 0:
            raise DepthExceeded(
                f"a value whose lazy sequences hold more than {DEFAULT_FORCE_BUDGET} "
                "elements cannot be printed or converted"
            )
        yield x
