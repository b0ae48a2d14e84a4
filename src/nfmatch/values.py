"""Immutable value model: integers, booleans, symbols, strings, lists, tuples,
and lazy sequences, plus structural equality and list-decomposition helpers.

Lists are backed by tuples but support O(1) suffix and drop-one views so that
decomposing a list does not copy it unless the remainder is actually walked.
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
    """Immutable finite list. May be a view into another list (suffix or
    drop-one), so construction of decomposition remainders is O(1)."""

    __slots__ = ("_elems", "_base", "_start", "_skip", "_len")

    def __init__(self, elems, base, start, skip, length):
        self._elems = elems
        self._base = base
        self._start = start
        self._skip = skip
        self._len = length

    @staticmethod
    def of(items: Iterable) -> "VList":
        elems = tuple(items)
        if not elems:
            return EMPTY_LIST
        return VList(elems, None, 0, -1, len(elems))

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator:
        elems = self._elems
        if elems is not None:
            return iter(elems)
        if self._skip < 0:
            return _iter_suffix(self._base, self._start)
        return _iter_skip(self._base, self._skip)

    def __getitem__(self, i: int):
        if not isinstance(i, int):
            raise TypeError("list indices must be integers")
        n = self._len
        if i < 0:
            i += n
        if i < 0 or i >= n:
            raise IndexError("list index out of range")
        node = self
        while True:
            if node._elems is not None:
                return node._elems[i]
            if node._skip < 0:
                i += node._start
            elif i >= node._skip:
                i += 1
            node = node._base

    def _materialize(self) -> tuple:
        elems = self._elems
        if elems is None:
            elems = tuple(iter(self))
            self._elems = elems
            self._base = None
        return elems

    def __eq__(self, other):
        if isinstance(other, (VList, LazySeq)):
            return value_equal(self, other)
        return NotImplemented

    def __hash__(self):
        return hash(("vlist", self._materialize()))

    def __repr__(self):
        return print_value(self)


EMPTY_LIST = VList((), None, 0, -1, 0)


def _iter_suffix(base, start):
    elems = base._elems
    return islice(base if elems is None else elems, start, None)


def _iter_skip(base, skip):
    # over flat storage the iteration runs in C; a view of a view walks
    # its base through a generator, so a long chain of views ends in a
    # RecursionError instead of nesting C iterators without a limit
    elems = base._elems
    if elems is not None:
        return chain(islice(elems, skip), islice(elems, skip + 1, None))
    return _iter_skip_view(base, skip)


def _iter_skip_view(base, skip):
    for i, x in enumerate(base):
        if i != skip:
            yield x


def suffix_view(xs: VList, k: int) -> VList:
    """The list xs without its first k elements, sharing storage with xs."""
    n = len(xs)
    if k == 0:
        return xs
    if k == n:
        return EMPTY_LIST
    if k > n or k < 0:
        raise IndexError("suffix start out of range")
    if xs._elems is None and xs._skip < 0:
        return VList(None, xs._base, xs._start + k, -1, n - k)
    return VList(None, xs, k, -1, n - k)


def without_index(xs: VList, i: int) -> VList:
    """The list xs without the element at index i, sharing storage with xs."""
    n = len(xs)
    if i < 0 or i >= n:
        raise IndexError("drop index out of range")
    if i == 0:
        return suffix_view(xs, 1)
    if n == 1:
        return EMPTY_LIST
    return VList(None, xs, 0, i, n - 1)


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
        return hash(("vtuple", self.items))

    def __repr__(self):
        return print_value(self)


class _End:
    __slots__ = ()

    def __repr__(self):
        return "#<end-of-stream>"


LAZY_END = _End()

_PENDING = object()


class LazySeq:
    """A non-empty lazy sequence cell: a head plus a memoized tail producer.

    The tail is either another LazySeq or LAZY_END. The producer runs at most
    once; forcing is synchronized and idempotent. A producer that raises
    leaves the tail unforced, and every later force raises the same error.
    """

    __slots__ = ("head", "_tail", "_thunk")

    def __init__(self, head, thunk=None, tail=_PENDING):
        self.head = head
        self._thunk = thunk
        if thunk is not None:
            self._tail = _PENDING
        elif tail is _PENDING:
            self._tail = LAZY_END
        else:
            self._tail = tail

    def tail(self):
        t = self._tail
        if t is not _PENDING:
            return t
        with _FORCE_LOCK:
            t = self._tail
            if t is not _PENDING:
                return t
            try:
                t = self._thunk()
            except Exception as err:
                self._thunk = _raiser(err)
                raise
            if not (t is LAZY_END or type(t) is LazySeq):
                raise TypeError("lazy sequence tail producer must return a cell or the end sentinel")
            self._tail = t
            self._thunk = None
            return t

    def __iter__(self):
        cur = self
        while cur is not LAZY_END:
            yield cur.head
            cur = cur.tail()

    def __repr__(self):
        return "#<lazy-seq>"


def _raiser(err: Exception):
    # stands in for a producer that failed: it may not be re-run (a
    # generator behind it is finished), so its error is raised again
    def again():
        raise err

    return again


def lazyseq_from_iter(it: Iterable):
    """Wrap an iterator as a lazy sequence; empty input gives the empty list."""
    it = iter(it)

    def rest():
        try:
            h = next(it)
        except StopIteration:
            return LAZY_END
        return LazySeq(h, rest)

    first = rest()
    return EMPTY_LIST if first is LAZY_END else first


def cons_value(x, xs):
    """Prepend x to a list or lazy sequence."""
    if type(xs) is VList:
        return VList.of((x,) + xs._materialize())
    if type(xs) is LazySeq:
        return LazySeq(x, None, tail=xs)
    raise TypeError(f"cannot prepend to {type(xs).__name__}")


def repeat_value(x) -> LazySeq:
    """The infinite lazy sequence x, x, x, ..."""
    cell = LazySeq(x, None, tail=_PENDING)
    cell._tail = cell
    return cell


def is_seq(v) -> bool:
    return type(v) is VList or type(v) is LazySeq


def as_vlist(v) -> VList:
    """Force a finite sequence into a VList. Diverges on infinite input."""
    if type(v) is VList:
        return v
    if type(v) is LazySeq:
        return VList.of(tuple(v))
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
        t = v.tail()
        return v.head, (EMPTY_LIST if t is LAZY_END else t)
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
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, int):
        return "int"
    if isinstance(v, Symbol):
        return "symbol"
    if isinstance(v, str):
        return "string"
    raise TypeError(f"not a value: {v!r}")


_DONE = object()


def value_equal(a, b, force_budget: int | None = None) -> bool:
    """Structural equality. Kinds must agree (a boolean is never an integer,
    a tuple is never a list). Lazy sequences are forced element by element,
    up to force_budget elements (default 10**6); DepthExceeded beyond that.
    """
    budget = DEFAULT_FORCE_BUDGET if force_budget is None else force_budget
    remaining = [budget]
    return _veq(a, b, remaining)


def _veq(a, b, remaining) -> bool:
    ka = value_kind(a)
    if ka != value_kind(b):
        return False
    if ka == "seq":
        lazy = type(a) is LazySeq or type(b) is LazySeq
        ita = iter(a)
        itb = iter(b)
        while True:
            xa = next(ita, _DONE)
            xb = next(itb, _DONE)
            if xa is _DONE or xb is _DONE:
                return xa is _DONE and xb is _DONE
            if lazy:
                remaining[0] -= 1
                if remaining[0] < 0:
                    raise DepthExceeded("lazy comparison exceeded its force budget")
            if not _veq(xa, xb, remaining):
                return False
    if ka == "tuple":
        if len(a.items) != len(b.items):
            return False
        for xa, xb in zip(a.items, b.items):
            if not _veq(xa, xb, remaining):
                return False
        return True
    return a == b


def tails(xs: VList) -> VList:
    """All suffixes of xs, longest first: xs itself down to the empty list."""
    if type(xs) is not VList:
        raise TypeError("tails expects a finite list")
    n = len(xs)
    return VList.of(tuple(suffix_view(xs, k) for k in range(n + 1)))


def unjoin(xs: VList) -> VList:
    """All (prefix, suffix) splits of xs, shortest prefix first."""
    if type(xs) is not VList:
        raise TypeError("unjoin expects a finite list")
    elems = xs._materialize()
    n = len(elems)
    return VList.of(
        tuple(VTuple((VList.of(elems[:k]), suffix_view(xs, k))) for k in range(n + 1))
    )


def lazy_tails(xs):
    """Suffixes of a list or lazy sequence, produced lazily, longest first.

    Never forces further than the consumer walks; ends with the empty list.
    """
    if type(xs) is VList:
        n = len(xs)

        def gen_list():
            for k in range(n + 1):
                yield suffix_view(xs, k)

        return lazyseq_from_iter(gen_list())
    if type(xs) is LazySeq:

        def gen_lazy():
            cur = xs
            while cur is not LAZY_END:
                yield cur
                cur = cur.tail()
            yield EMPTY_LIST

        return lazyseq_from_iter(gen_lazy())
    raise TypeError("lazy_tails expects a list or lazy sequence")


def list_concat(a, b) -> VList:
    """Eager concatenation of two finite lists."""
    return VList.of(as_vlist(a)._materialize() + as_vlist(b)._materialize())


_STR_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def print_value(v) -> str:
    """Render a value in its printed form: lists as (a b c), tuples as
    [a b c], symbols bare, strings quoted, booleans as #t / #f."""
    parts: list = []
    _print(v, parts.append)
    return "".join(parts)


def _print(v, emit):
    # open lists and tuples wait on an explicit stack of (items left,
    # closer), so values nested deeper than the host stack print too
    stack = []
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
                emit(str(x))
            elif t is VList or t is LazySeq:
                emit("(")
                stack.append((items, closer))
                items, closer = iter(x), ")"
                first = True
                break
            elif t is VTuple:
                emit("[")
                stack.append((items, closer))
                items, closer = iter(x.items), "]"
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
                raise TypeError(f"not a printable value: {x!r}")
        else:
            if not stack:
                return
            emit(closer)
            items, closer = stack.pop()
            first = False


def parse_value(text: str):
    """Read one value in printed form with the language's reader. Inverse of
    print_value: ( ) and { } read as lists, [ ] as tuples. Malformed input,
    quote marks and trailing input raise ValueError."""
    from .lang import ParseError, _datum_to_value, _Reader

    reader = _Reader(text, "<value>")
    try:
        datum = reader.read_datum()
        if not reader.at_end():
            raise ValueError(f"trailing input at offset {reader.pos}")
        return _datum_to_value(datum, tuples=True)
    except ParseError as err:
        raise ValueError(err.message) from None


def from_python(obj):
    """Build a value from plain Python data (lists, tuples, ints, strs...)."""
    t = type(obj)
    if t is list:
        return VList.of(tuple(from_python(x) for x in obj))
    if t is tuple:
        return VTuple(tuple(from_python(x) for x in obj))
    if t in (int, bool, str, Symbol, VList, VTuple, LazySeq):
        return obj
    if isinstance(obj, (int, str)):
        return obj
    raise TypeError(f"cannot convert {type(obj).__name__} to a value")


def to_python(v):
    """Convert a (finite) value to plain Python data."""
    t = type(v)
    if t is VList or t is LazySeq:
        return [to_python(x) for x in v]
    if t is VTuple:
        return tuple(to_python(x) for x in v.items)
    return v
