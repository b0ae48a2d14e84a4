"""Matchers: the functions that give pattern constructors their meaning.

A matcher is either the Something sentinel (the only matcher that binds
variables) or a function from (pattern, target) to an enumeration of
matching-atom lists. Each atom list is one way to decompose the target;
each atom is a (pattern, matcher, target) triple still to be matched.

Every matcher built here hands a variable or wildcard to Something
unchanged, and says so with its delegates flag; the engine then binds or
skips it without calling the matcher. Matchers built with Matcher(fn,
name) or register_matcher_extension leave the flag off and are called for
every variable and wildcard.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import ArityMismatch, MatchError, UnknownPatternConstructor
from .pattern import (
    WILDCARD,
    Constructor,
    Pattern,
    TuplePattern,
    ValuePattern,
    Var,
    Wildcard,
    const_value_pattern,
    env_get,
)
from .values import (
    LazySeq,
    Symbol,
    VList,
    VTuple,
    as_vlist,
    is_seq,
    lazy_tails,
    list_concat,
    seq_is_empty,
    seq_uncons,
    suffix_view,
    value_equal,
    value_kind,
    without_index,
)

CONS = Symbol("cons")
JOIN = Symbol("join")
NIL = Symbol("nil")


class _Something:
    """Sentinel matcher: matches whole values against variables/wildcards."""

    __slots__ = ()
    name = "Something"

    def __repr__(self):
        return "#<matcher Something>"


SOMETHING = _Something()


class Matcher:
    """A named matcher function.

    delegates is set only on this module's built-in matchers: their fn
    returns [((p, SOMETHING, t),)] for a variable or wildcard p, so the
    engine may take that step itself.
    """

    __slots__ = ("fn", "name", "delegates")

    def __init__(self, fn: Callable | None, name: str):
        self.fn = fn
        self.name = name
        self.delegates = False

    def __call__(self, pattern, target):
        return self.fn(pattern, target)

    def __repr__(self):
        return f"#<matcher {self.name}>"


def something() -> _Something:
    """The matcher for opaque values: binds variables, accepts wildcards."""
    return SOMETHING


def vp_value(p: ValuePattern):
    """The value a value pattern handed to a matcher stands for.

    A pattern the engine bound to its dispatch env (ValuePattern.bound_to)
    is evaluated on the first call and keeps its value for later ones.
    """
    if p.has_value:
        return p.value
    if p.env is None:
        raise MatchError("value pattern reached a matcher before being evaluated")
    v = p.value = engine.eval_value_pattern(p, p.env)
    return v


def _delegate(p, t):
    return [((p, SOMETHING, t),)]


def _builtin(fn: Callable | None, name: str) -> Matcher:
    # a matcher whose fn answers every variable and wildcard with _delegate
    matcher = Matcher(fn, name)
    matcher.delegates = True
    return matcher


def _constructor_arity(p: Constructor, n: int, matcher: str):
    if len(p.args) != n:
        raise ArityMismatch(
            f"pattern constructor {p.name} takes {n} arguments, got {len(p.args)} ({matcher})"
        )


def _eq_fn(p, t):
    tp = type(p)
    if tp is ValuePattern:
        return [()] if value_equal(vp_value(p), t) else []
    if tp is Var or tp is Wildcard:
        return _delegate(p, t)
    if tp is Constructor:
        raise UnknownPatternConstructor(p.name, "Eq")
    raise UnknownPatternConstructor(type(p).__name__, "Eq")


_EQ = _builtin(_eq_fn, "Eq")


def eq_matcher() -> Matcher:
    """Matcher for values compared by structural equality."""
    return _EQ


def _integer_fn(p, t):
    tp = type(p)
    if tp is ValuePattern:
        if value_kind(t) != "int":
            raise TypeError(f"integer matcher compared a value against non-integer target {t!r}")
        v = vp_value(p)
        return [()] if value_kind(v) == "int" and v == t else []
    if tp is Var or tp is Wildcard:
        return _delegate(p, t)
    if tp is Constructor:
        raise UnknownPatternConstructor(p.name, "Integer")
    raise UnknownPatternConstructor(type(p).__name__, "Integer")


_INTEGER = _builtin(_integer_fn, "Integer")


def integer_matcher() -> Matcher:
    """Matcher for integers; value comparisons insist on integer targets."""
    return _INTEGER


def tuple_matcher(ms: Iterable) -> Matcher:
    """Positional matcher for fixed-arity tuples; ms gives one matcher per slot."""
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
        if tp is Var or tp is Wildcard:
            return _delegate(p, t)
        if tp is Constructor:
            raise UnknownPatternConstructor(p.name, name)
        raise UnknownPatternConstructor(type(p).__name__, name)

    matcher.fn = fn
    return matcher


def list_matcher(m) -> Matcher:
    """Matcher for ordered sequences: nil, cons (head/tail), join (split).

    Accepts both finite lists and lazy sequences; join enumerates splits
    lazily, so patterns over infinite streams stay productive.
    """
    name = f"(List {m.name})"
    matcher = _builtin(None, name)

    def fn(p, t):
        tp = type(p)
        if tp is Constructor:
            cname = p.name
            if cname is CONS:
                _constructor_arity(p, 2, name)
                if not is_seq(t):
                    raise TypeError(f"list matcher applied to {type(t).__name__}")
                split = seq_uncons(t)
                if split is None:
                    return []
                head, rest = split
                return [((p.args[0], m, head), (p.args[1], matcher, rest))]
            if cname is JOIN:
                _constructor_arity(p, 2, name)
                px, py = p.args
                if type(t) is VList:
                    n = len(t)
                    if type(px) is Wildcard:
                        return [((py, matcher, suffix_view(t, k)),) for k in range(n + 1)]
                    elems = t._materialize()
                    return [
                        (
                            (px, matcher, VList.of(elems[:k])),
                            (py, matcher, suffix_view(t, k)),
                        )
                        for k in range(n + 1)
                    ]
                if type(t) is LazySeq:
                    if type(px) is Wildcard:

                        def gen_wild():
                            for suf in lazy_tails(t):
                                yield ((py, matcher, suf),)

                        return gen_wild()

                    def gen_split():
                        prefix: list = []
                        cur = t
                        while True:
                            yield (
                                (px, matcher, VList.of(tuple(prefix))),
                                (py, matcher, cur),
                            )
                            nxt = seq_uncons(cur)
                            if nxt is None:
                                return
                            head, cur = nxt
                            prefix.append(head)

                    return gen_split()
                raise TypeError(f"list matcher applied to {type(t).__name__}")
            if cname is NIL:
                _constructor_arity(p, 0, name)
                if not is_seq(t):
                    raise TypeError(f"list matcher applied to {type(t).__name__}")
                return [()] if seq_is_empty(t) else []
            raise UnknownPatternConstructor(cname, name)
        if tp is ValuePattern:
            return [()] if value_equal(vp_value(p), t) else []
        if tp is Var or tp is Wildcard:
            return _delegate(p, t)
        raise UnknownPatternConstructor(type(p).__name__, name)

    matcher.fn = fn
    return matcher


# Clause templates shared by every multiset matcher: the naive cons clause
# (join hs (cons x ts)) and the recursive value-comparison clauses.
_NC_HS = Symbol("nc-hs")
_NC_X = Symbol("nc-x")
_NC_TS = Symbol("nc-ts")
_NAIVE_CONS_PATTERN = Constructor(
    JOIN, (Var(_NC_HS), Constructor(CONS, (Var(_NC_X), Var(_NC_TS))))
)

_MV_X = Symbol("mv-x")
_MV_XS = Symbol("mv-xs")
_MV_NIL_NIL = TuplePattern((Constructor(NIL), Constructor(NIL)))
_MV_CONS_CONS = TuplePattern(
    (
        Constructor(CONS, (Var(_MV_X), Var(_MV_XS))),
        Constructor(
            CONS,
            (
                ValuePattern(lambda env: env_get(env, _MV_X), (_MV_X,)),
                ValuePattern(lambda env: env_get(env, _MV_XS), (_MV_XS,)),
            ),
        ),
    )
)
_MV_ANY = TuplePattern((WILDCARD, WILDCARD))


def multiset_matcher(m, optimized: bool = True) -> Matcher:
    """Matcher for order-insensitive sequences.

    cons picks each element in turn (left to right) with the rest as the
    remainder; there is no join. With optimized=False the cons clause is
    derived by matching join/cons over the list matcher, which rebuilds
    every remainder eagerly; the optimized form uses drop-one views and
    skips remainder construction entirely when the tail pattern is _.
    """
    name = f"(Multiset {m.name})"
    matcher = _builtin(None, name)
    inner_list = list_matcher(m)

    def fn(p, t):
        tp = type(p)
        if tp is Constructor:
            cname = p.name
            if cname is CONS:
                _constructor_arity(p, 2, name)
                tt = as_vlist(t)
                px, py = p.args
                if optimized:
                    if type(px) is ValuePattern and px.ready and m is not SOMETHING:
                        return _known_head(px, py, tt)
                    if type(py) is Wildcard:
                        return [((px, m, x),) for x in tt]
                    # enumerate walks a view chain once; tt[i] walks it per element
                    return [
                        ((px, m, x), (py, matcher, without_index(tt, i)))
                        for i, x in enumerate(tt)
                    ]
                return _naive_cons(px, py, tt)
            if cname is NIL:
                _constructor_arity(p, 0, name)
                return [()] if len(as_vlist(t)) == 0 else []
            raise UnknownPatternConstructor(cname, name)
        if tp is ValuePattern:
            return _val(vp_value(p), t)
        if tp is Var or tp is Wildcard:
            return _delegate(p, t)
        raise UnknownPatternConstructor(type(p).__name__, name)

    def _known_head(px, py, tt):
        # filter by value: each element's own decompositions under m, in
        # element order, instead of one branch per element for the engine
        # to reject. Lazy, so the value is forced, and a matcher error
        # raised, where the first (or the failing) per-element branch
        # would have done it.
        if not len(tt):
            return
        vp_value(px)
        fn = m.fn
        wild = type(py) is Wildcard
        for i, x in enumerate(tt):
            for atoms in fn(px, x):
                yield atoms if wild else atoms + ((py, matcher, without_index(tt, i)),)

    def _naive_cons(px, py, tt):
        # layered definition: enumerate (join hs (cons x ts)) over the list
        # matcher and rebuild each remainder as hs ++ ts
        clause = engine.MatchClause(
            _NAIVE_CONS_PATTERN, lambda hs, x, ts: (x, list_concat(hs, ts))
        )
        pairs = engine.match_all(tt, inner_list, [clause])
        return [((px, m, x), (py, matcher, rest)) for (x, rest) in pairs]

    def _val(v, t):
        # multiset equality by recursive pairing: take the head of the
        # target, find an equal element of v, then compare the rests
        if not is_seq(v):
            raise TypeError(f"multiset matcher compared against non-list value {v!r}")
        vv = as_vlist(v)
        tt = as_vlist(t)
        if len(vv) != len(tt):
            return []
        pair_matcher = tuple_matcher((inner_list, matcher))
        result = engine.match_first(
            VTuple((tt, vv)),
            pair_matcher,
            [
                engine.MatchClause(_MV_NIL_NIL, lambda: True),
                engine.MatchClause(_MV_CONS_CONS, lambda x, xs: True),
                engine.MatchClause(_MV_ANY, lambda: False),
            ],
        )
        return [()] if result else []

    matcher.fn = fn
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
            if not (isinstance(a[1], Matcher) or a[1] is SOMETHING):
                raise MatchError(f"matcher extension {name} produced a non-matcher: {a[1]!r}")
        yield atoms


# The engine imports this module; matchers reach back into it (layered
# definitions, value patterns bound at dispatch) only when called, so the
# cycle is closed here, after everything the engine imports is defined.
from . import engine  # noqa: E402
