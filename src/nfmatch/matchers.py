"""Matchers: the functions that give pattern constructors their meaning.

A matcher is a function from (pattern, target) to an enumeration (any
iterable) of matching-atom lists. Each atom list is one way to decompose
the target; each atom is a (pattern, matcher, target) triple still to be
matched. Each(p, m, targets) enumerates one atom per target; the
multiset cons and the list (join _ (cons p _)) return one for a wildcard
tail, and an extension may. The optimized multiset cons of a chain (cons
x1 (cons x2 ... (cons xk _))) of k >= 2 variables over two or more
elements returns a Choose, which enumerates as the nested cons does and
which the engine may map as the k-permutations of the elements.
Something is one such matcher: it binds a variable and skips a wildcard,
a rule the engine applies itself, and its function refuses any other
pattern. A matcher may answer a nested pattern in one call: List gives
(join _ (cons p q)) each element against p and the suffix after it
against q, the splits and cons dispatches of the two-step form, in order.
Over a lazy sequence that is one generator walking the cells, which forces
each cell's tail before it hands the cell on, as the inner cons would. List
cons splits its target inline: a lazy cell into its head and forced tail, a
list into its first element and suffix view.

Every matcher built here hands a variable or wildcard to Something
unchanged, and says so with its delegates flag; the engine then binds or
skips it without calling the matcher. Each of them but Tuple and
Something decides a value pattern with one yes/no rule, equal(value,
target) -> bool, which its fn answers through _no_rule, so the engine
decides a value pattern against them without a call either. Matchers
built with Matcher(fn, name) or register_matcher_extension have neither
and are called for every variable, wildcard and value pattern. The
optimized Multiset cons filters a known head through its element
matcher's equal; without one, a known head branches per element too. Over
Integer, a cons whose tail is a known head, (cons x (cons ,v q)), hands
each drop-one remainder of a list of exact ints an index of that list,
value -> ascending positions, built once per dispatch (see VList._index);
the known head then looks an exact-int value up there instead of calling
equal on each element, and hands the index on to a remainder that meets a
known head too. So a chain of k known heads costs O(hits + k) per lookup,
not O(n). Its (cons x nil) over a matcher that delegates checks the
length instead of branching per element.

List and Multiset are interned: list_matcher(m) and multiset_matcher(m,
optimized) give one matcher per argument matcher and variant, kept on the
argument (Matcher.interned), so it lives as long as the argument does. A
built matcher is shared by every caller that asks for it, and must not be
changed. tuple_matcher(ms) builds a new matcher on each call, so it keeps
none of ms alive past its own life.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from typing import Callable, Iterable

from .errors import ArityMismatch, MatchError, UnknownPatternConstructor
from .pattern import (
    _UNSET,
    Constructor,
    Pattern,
    TuplePattern,
    ValuePattern,
    Var,
    Wildcard,
    const_value_pattern,
)
from .values import (
    EMPTY_LIST,
    LazySeq,
    Symbol,
    VList,
    VTuple,
    as_vlist,
    is_seq,
    list_concat,
    show_value,
    seq_is_empty,
    suffix_view,
    value_equal,
    value_kind,
    without_index,
)

CONS = Symbol("cons")
JOIN = Symbol("join")
NIL = Symbol("nil")


class Matcher:
    """A named matcher function.

    delegates is set only on this module's built-in matchers: Something
    binds a variable and skips a wildcard, and every other one's fn
    returns [((p, SOMETHING, t),)] for a variable or wildcard p, so the
    engine may take that step itself. equal is set on the built-ins but
    Tuple and Something: their fn answers a value pattern with [()] or []
    as equal(its value, t) does, and raises what equal raises. inline
    names the constructors (List's cons) whose one decomposition starts
    with their first argument, which the engine then evaluates at its atom.
    interned holds the List and Multiset matchers built over this one.
    """

    __slots__ = ("fn", "name", "delegates", "equal", "inline", "interned")

    def __init__(self, fn: Callable | None, name: str):
        self.fn = fn
        self.name = name
        self.delegates = False
        self.equal = None
        self.inline = ()
        self.interned = {}

    def __call__(self, pattern, target):
        return self.fn(pattern, target)

    def __repr__(self):
        return f"#<matcher {self.name}>"


class Each:
    """The enumeration ((p, m, t),) for each t in targets, in order."""

    __slots__ = ("p", "m", "targets")

    def __init__(self, p, m, targets):
        self.p, self.m, self.targets = p, m, targets

    def __iter__(self):
        return zip(zip(repeat(self.p), repeat(self.m), self.targets))


class Choose:
    """The optimized Multiset cons's enumeration of a chain (cons x1 (cons
    x2 ... (cons xk _))) of k >= 2 variables over two or more targets: each
    target against x1, its drop-one remainder against tail under ms, in
    order. Its results are the k-permutations of targets in index order,
    which the engine maps in one batch when every head binds the next slot.
    """

    __slots__ = ("heads", "m", "targets", "tail", "ms")

    def __init__(self, heads, m, targets, tail, ms):
        self.heads, self.m, self.targets, self.tail, self.ms = heads, m, targets, tail, ms

    def __iter__(self):
        x, m, tt, tail, ms = self.heads[0], self.m, self.targets, self.tail, self.ms
        return (((x, m, t), (tail, ms, without_index(tt, i))) for i, t in enumerate(tt))


def _var_chain(p) -> tuple:
    # the heads of (cons x1 (cons x2 ... (cons xk _))) if p is such a chain
    # of k >= 2 variables, else ()
    heads = []
    while type(p) is Constructor and p.name is CONS and len(p.args) == 2:
        x, p = p.args
        if type(x) is not Var:
            return ()
        heads.append(x)
    return tuple(heads) if type(p) is Wildcard and len(heads) > 1 else ()


def _known_chain(p) -> bool:
    # p is a cons whose head is a value pattern
    return (
        type(p) is Constructor and p.name is CONS and len(p.args) == 2
        and type(p.args[0]) is ValuePattern
    )


def _int_index(tt):
    # value -> ascending positions of tt's elements, or None unless every
    # element is an exact int (a bool hashes as an int but is not one)
    index = {}
    for i, x in enumerate(tt):
        if type(x) is not int:
            return None
        hits = index.get(x)
        if hits is None:
            index[x] = [i]
        else:
            hits.append(i)
    return index


def _builtin(fn: Callable | None, name: str, equal: Callable | None = None) -> Matcher:
    # a matcher against which the engine binds or skips a variable or
    # wildcard itself, as Something does
    matcher = Matcher(fn, name)
    matcher.delegates = True
    matcher.equal = equal
    return matcher


def _cannot_interpret(p, t):
    raise MatchError(f"the Something matcher cannot interpret {p!r}")


SOMETHING = _builtin(_cannot_interpret, "Something")


def something() -> Matcher:
    """The matcher for opaque values: binds variables, accepts wildcards."""
    return SOMETHING


def vp_value(p: ValuePattern):
    """The value a value pattern handed to a matcher stands for: its known
    value, or that of the env the engine bound it to (see
    engine.eval_value_pattern, which computes it once). A value pattern
    that is neither raises MatchError."""
    v = p.value
    if v is _UNSET:
        if p.env is None:
            raise MatchError("value pattern reached a matcher before being evaluated")
        v = engine.eval_value_pattern(p, p.env)
    return v


def _no_rule(p, t, name: str, equal: Callable | None = None):
    # where every built-in matcher's own rules end: a value pattern is
    # decided by equal, a variable or wildcard goes to Something
    # unchanged, any other pattern is unknown to the matcher
    tp = type(p)
    if tp is ValuePattern:
        return [()] if equal(vp_value(p), t) else []
    if tp is Var or tp is Wildcard:
        return [((p, SOMETHING, t),)]
    raise UnknownPatternConstructor(p.name if tp is Constructor else tp.__name__, name)


def _constructor_arity(p: Constructor, n: int, matcher: str):
    if len(p.args) != n:
        raise ArityMismatch(
            f"pattern constructor {p.name} takes {n} arguments, got {len(p.args)} ({matcher})"
        )


def _scalar(equal: Callable, name: str) -> Matcher:
    # a matcher whose one rule is its value-pattern rule
    return _builtin(lambda p, t: _no_rule(p, t, name, equal), name, equal)


_EQ = _scalar(value_equal, "Eq")


def eq_matcher() -> Matcher:
    """Matcher for values compared by structural equality."""
    return _EQ


def _integer_equal(v, t) -> bool:
    if type(t) is not int and value_kind(t) != "int":
        raise TypeError(
            f"integer matcher compared a value against non-integer target {show_value(t)}"
        )
    return (type(v) is int or value_kind(v) == "int") and v == t


_INTEGER = _scalar(_integer_equal, "Integer")


def integer_matcher() -> Matcher:
    """Matcher for integers; value comparisons insist on integer targets."""
    return _INTEGER


def tuple_matcher(ms: Iterable) -> Matcher:
    """Positional matcher for fixed-arity tuples; ms gives one matcher per
    slot. Not interned: each call builds a new matcher."""
    ms = tuple(ms)
    name = "(Tuple " + " ".join(m.name for m in ms) + ")"
    matcher = _builtin(None, name)
    k = len(ms)

    def items_of(v):
        t = type(v)
        if t is VTuple:
            return v.items
        if t is VList:
            return tuple(v)
        return None

    def fn(p, t):
        tp = type(p)
        if tp is TuplePattern:
            titems = items_of(t)
            if titems is None:
                raise TypeError(f"tuple matcher applied to {type(t).__name__}")
            if len(titems) != k or len(p.args) != k:
                raise ArityMismatch(
                    f"tuple matcher of arity {k} got pattern arity {len(p.args)} "
                    f"and target arity {len(titems)}"
                )
            return [tuple((p.args[i], ms[i], titems[i]) for i in range(k))]
        if tp is ValuePattern:
            titems = items_of(t)
            if titems is None:
                raise TypeError(f"tuple matcher applied to {type(t).__name__}")
            if len(titems) != k:
                raise ArityMismatch(f"tuple matcher of arity {k} got target arity {len(titems)}")
            vitems = items_of(vp_value(p))
            if vitems is None or len(vitems) != k:
                return []
            return [
                tuple((const_value_pattern(vitems[i]), ms[i], titems[i]) for i in range(k))
            ]
        return _no_rule(p, t, name)

    matcher.fn = fn
    return matcher


def _interned(m: Matcher, key, build: Callable, *args) -> Matcher:
    # the matcher build(m, *args), made once per key and kept on m
    made = m.interned.get(key)
    if made is None:
        made = m.interned.setdefault(key, build(m, *args))  # one winner if built twice at once
    return made


def list_matcher(m) -> Matcher:
    """Matcher for ordered sequences: nil, cons (head/tail), join (split).

    Accepts both finite lists and lazy sequences; join enumerates splits
    lazily, so patterns over infinite streams stay productive.
    (join _ (cons p q)) is one call: each element against p and the suffix
    after it against q (no atom for a _ q), forcing a lazy sequence's cells
    as the cons of each split would; an Each for a _ q over a list. A
    value pattern is bound to the dispatch env for join, not for cons's head.
    Interned: one matcher per m.
    """
    return _interned(m, "List", _list_matcher)


def _list_matcher(m) -> Matcher:
    name = f"(List {m.name})"
    matcher = _builtin(None, name, value_equal)
    matcher.inline = (CONS,)

    def fn(p, t):
        tp = type(p)
        if tp is Constructor:
            cname = p.name
            if cname is CONS:
                args = p.args
                if len(args) != 2:
                    _constructor_arity(p, 2, name)
                if type(t) is LazySeq:
                    return [((args[0], m, t.head), (args[1], matcher, t.tail()))]
                if type(t) is not VList:
                    raise TypeError(f"list matcher applied to {type(t).__name__}")
                if not t._len:
                    return []
                return [((args[0], m, t[0]), (args[1], matcher, suffix_view(t, 1)))]
            if cname is JOIN:
                _constructor_arity(p, 2, name)
                px, py = p.args
                if (
                    type(px) is Wildcard and type(py) is Constructor and py.name is CONS
                    and len(py.args) == 2 and is_seq(t)
                ):
                    return _each_cons(*py.args, t)
                if type(t) is VList:
                    n = len(t)
                    if type(px) is Wildcard:
                        return [((py, matcher, suffix_view(t, k)),) for k in range(n + 1)]
                    elems = t._materialize()
                    return [
                        ((px, matcher, VList.of(elems[:k])), (py, matcher, suffix_view(t, k)))
                        for k in range(n + 1)
                    ]
                if type(t) is LazySeq:
                    return _lazy_join(px, py, t)
                raise TypeError(f"list matcher applied to {type(t).__name__}")
            if cname is NIL:
                _constructor_arity(p, 0, name)
                if not is_seq(t):
                    raise TypeError(f"list matcher applied to {type(t).__name__}")
                return [()] if seq_is_empty(t) else []
        return _no_rule(p, t, name, value_equal)

    def _each_cons(qx, qy, t):
        # (join _ (cons qx qy)): the inner cons's one split of each suffix
        # but the empty one, never as a one-element list, which _reduce
        # would follow where the join's two splits made a branch point
        if type(t) is LazySeq:
            return _lazy_each_cons(qx, qy, t)
        if not len(t):
            return []
        if type(qy) is Wildcard:
            return Each(qx, m, t)
        return (((qx, m, x), (qy, matcher, suffix_view(t, k))) for k, x in enumerate(t, 1))

    def _lazy_each_cons(qx, qy, t):
        # one walk over the cells: each cell's tail is forced before its
        # split is handed on, as the inner cons forces it
        while t is not EMPTY_LIST:
            nxt = t.tail()
            yield (qx, m, t.head), (qy, matcher, nxt)
            t = nxt

    def _lazy_join(px, py, t):
        # the splits of a lazy sequence, shortest prefix first: a cell's
        # tail is forced once the split before it has been drawn
        wild = type(px) is Wildcard
        prefix = []
        while True:
            if wild:
                yield ((py, matcher, t),)
            else:
                yield (px, matcher, VList.of(prefix)), (py, matcher, t)
            if t is EMPTY_LIST:
                return
            if not wild:
                prefix.append(t.head)
            t = t.tail()

    matcher.fn = fn
    return matcher


# The naive cons clause (join hs (cons x ts)), shared by every multiset matcher.
_NC_HS = Symbol("nc-hs")
_NC_X = Symbol("nc-x")
_NC_TS = Symbol("nc-ts")
_NAIVE_CONS_PATTERN = Constructor(
    JOIN, (Var(_NC_HS), Constructor(CONS, (Var(_NC_X), Var(_NC_TS))))
)

def multiset_matcher(m, optimized: bool = True) -> Matcher:
    """Matcher for order-insensitive sequences.

    cons picks each element in turn (left to right) with the rest as the
    remainder; there is no join. With optimized=False the cons clause is
    derived by matching join/cons over the list matcher, which rebuilds
    every remainder eagerly; the optimized form uses drop-one views, each
    built as its branch is drawn, and skips remainder construction
    entirely when the tail pattern is _. Its (cons p nil), for a variable or
    wildcard p and an m that delegates, decides by length alone: one
    decomposition, p against the element, over exactly one element, and
    none otherwise, where each element's branch would have died at nil. So
    process_matching_state gives no successors for it over other lengths;
    the results are unchanged. Over Integer, when the cons's tail is itself
    a cons with a value-pattern head and every element is an exact int,
    each drop-one remainder carries an index of the elements, built once
    per dispatch, which the known heads of the chain look an exact-int
    value up in; a bool, a non-int element or another element matcher is
    scanned with equal as before, with the same results in the same order.
    Interned: one matcher per m and variant.
    """
    return _interned(m, "Multiset" if optimized else "naive Multiset", _multiset_matcher, optimized)


def _multiset_matcher(m, optimized: bool) -> Matcher:
    name = f"(Multiset {m.name})"
    matcher = _builtin(None, name)
    # read by _naive_cons only; its elements meet m once, at the cons's atoms
    inner_list = None if optimized else list_matcher(SOMETHING)

    def fn(p, t):
        tp = type(p)
        if tp is Constructor:
            cname = p.name
            if cname is CONS:
                _constructor_arity(p, 2, name)
                tt = as_vlist(t)
                px, py = p.args
                if optimized:
                    if type(px) is ValuePattern and px.ready and m.equal is not None:
                        return _known_head(px, py, tt)
                    if (
                        type(py) is Constructor and py.name is NIL and not py.args
                        and m.delegates and (type(px) is Var or type(px) is Wildcard)
                    ):
                        # px cannot fail, so only the remainder's length decides
                        return [((px, m, tt[0]),)] if len(tt) == 1 else []
                    if type(py) is Wildcard:
                        return Each(px, m, tt) if len(tt) > 1 else [((px, m, x),) for x in tt]
                    if (
                        type(px) is Var and type(py) is Constructor and len(py.args) == 2
                        and type(py.args[0]) is Var and len(tt) > 1
                    ):
                        heads = _var_chain(p)
                        if heads:
                            return Choose(heads, m, tt, py, matcher)
                    if m is _INTEGER and len(tt) > 1 and _known_chain(py):
                        return _indexed_branches(px, py, tt)
                    branches = (
                        ((px, m, x), (py, matcher, without_index(tt, i)))
                        for i, x in enumerate(tt)
                    )
                    return branches if len(tt) > 1 else list(branches)
                return _naive_cons(px, py, tt)
            if cname is NIL:
                _constructor_arity(p, 0, name)
                return [()] if len(as_vlist(t)) == 0 else []
        return _no_rule(p, t, name, _val)

    def _indexed_branches(px, py, tt):
        # the per-element branches, as the generic ones, for a tail that
        # is a known head: over exact ints, each remainder carries an index
        # of tt's elements, built once, that its known head looks up
        index = _int_index(tt)
        for i, x in enumerate(tt):
            rest = without_index(tt, i)
            if index is not None:
                rest._index = (index, (i,))
            yield (px, m, x), (py, matcher, rest)

    def _known_head(px, py, tt):
        # filter by value: the elements m's equal accepts, in element order,
        # instead of one branch per element for the engine to reject. Lazy,
        # so the value is forced, and an equal error raised, where the first
        # (or the failing) per-element branch would have done it. An indexed
        # view (see VList) holds only ints, so equal cannot raise over it,
        # and an exact int is looked up there instead of scanned for.
        if not len(tt):
            return
        v = vp_value(px)
        wild = type(py) is Wildcard
        slot = tt._index
        if slot is not None and type(v) is int:
            index, dropped = slot
            keep = _known_chain(py)  # the remainder meets a known head too
            for p in index.get(v, ()):
                j = bisect_left(dropped, p)  # dropped is ascending
                if j < len(dropped) and dropped[j] == p:
                    continue
                if wild:
                    yield ()
                    continue
                rest = without_index(tt, p - j)
                if keep and rest._len:
                    rest._index = (index, dropped[:j] + (p,) + dropped[j:])
                yield ((py, matcher, rest),)
            return
        equal = m.equal
        for i, x in enumerate(tt):
            if equal(v, x):
                yield () if wild else ((py, matcher, without_index(tt, i)),)

    def _naive_cons(px, py, tt):
        # layered definition: enumerate (join hs (cons x ts)) over the list
        # matcher and rebuild each remainder as hs ++ ts
        clause = engine.MatchClause(
            _NAIVE_CONS_PATTERN, lambda hs, x, ts: (x, list_concat(hs, ts))
        )
        pairs = engine.match_all(tt, inner_list, [clause])
        return [((px, m, x), (py, matcher, rest)) for (x, rest) in pairs]

    def _val(v, t):
        # multiset equality as the layered definition decides it: match
        # (cons x xs) against the target and (cons ,x ,xs) against v, where
        # ,xs recurses with v's remainder as the target. So the two sides
        # take turns: the head of one is sought among the elements of the
        # other, in order, and a dead end resumes the search one level up.
        # m's equal, where it has one, decides a comparison without a search.
        if not is_seq(v):
            raise TypeError(f"multiset matcher compared against non-list value {show_value(v)}")
        vv = as_vlist(v)
        tt = as_vlist(t)
        if len(vv) != len(tt):
            return False
        equal = m.equal or (
            lambda h, x: engine._exists(((const_value_pattern(h), m, x),), ())
        )
        stack = [(tt, vv, 0)]  # (side whose head is sought, side searched, next index)
        while stack:
            heads, pool, i = stack.pop()
            if not len(heads):
                return True
            h = heads[0]
            for j in range(i, len(pool)):
                if equal(h, pool[j]):
                    stack.append((heads, pool, j + 1))
                    stack.append((without_index(pool, j), suffix_view(heads, 1), 0))
                    break
        return False

    matcher.fn = fn
    matcher.equal = _val
    return matcher


def register_matcher_extension(fn: Callable, name: str) -> Matcher:
    """Wrap a user-supplied matcher function as a named matcher.

    The wrapper checks each produced atom on the way out; a malformed atom
    (wrong shape, non-matcher, non-pattern) raises MatchError.
    """
    matcher = Matcher(None, name)

    def checked(p, t):
        enumeration = fn(p, t)
        if enumeration is None:
            raise MatchError(f"matcher extension {name} returned None")
        return _validated(enumeration, name)

    matcher.fn = checked
    return matcher


def _validated(enumeration, name: str):
    for atoms in enumeration:
        try:
            atoms = tuple(atoms)
        except TypeError:
            raise MatchError(f"matcher extension {name} produced a non-sequence atom list")
        for a in atoms:
            if not (isinstance(a, tuple) and len(a) == 3):
                raise MatchError(f"matcher extension {name} produced a malformed atom: {a!r}")
            if not isinstance(a[0], Pattern):
                raise MatchError(f"matcher extension {name} produced a non-pattern: {a[0]!r}")
            if not isinstance(a[1], Matcher):
                raise MatchError(f"matcher extension {name} produced a non-matcher: {a[1]!r}")
        yield atoms


# The engine imports this module; matchers reach back into it (layered
# definitions, value patterns bound at dispatch) only when called, so the
# cycle is closed here, after everything the engine imports is defined.
from . import engine  # noqa: E402
