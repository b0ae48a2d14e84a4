"""Pattern AST and the static analyses over it: variable extraction,
structural validation, and value-pattern evaluation against bindings."""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import UnboundValuePatternRef, ValidationError
from .values import Symbol, fold, print_value


# The compiled field (unset until a first use, see engine.compile_pattern)
# of a pattern the searches run as it is: a compiled copy, or the wildcard.
COMPILED = object()


class _Node:
    """What the pattern classes share: their printed form (see _repr_parts)."""

    __slots__ = ()

    def __repr__(self):
        return fold(self, _repr_parts)


class Wildcard(_Node):
    """Matches anything, binds nothing. Use the WILDCARD singleton."""

    __slots__ = ()
    compiled = COMPILED


WILDCARD = Wildcard()


class Var(_Node):
    """A pattern variable; binds the target when dispatched against Something.

    In a compiled copy, slot is the index of its value in the search's env.
    """

    __slots__ = ("name", "slot", "compiled")

    def __init__(self, name):
        self.name = name if type(name) is Symbol else Symbol(name)
        self.slot = None


_UNSET = object()


class ValuePattern(_Node):
    """Matches when the target equals a computed value.

    expr maps a binding environment to the value; refs names the pattern
    variables the expression reads. Once the engine has evaluated the
    expression, the concrete value is carried in .value for matchers.
    In a compiled copy, slots gives each ref's slot in the search's env.
    A copy the engine has bound to a dispatch
    environment (see bound_to) carries that environment in .env and is
    evaluated on first demand.
    """

    __slots__ = ("expr", "refs", "value", "env", "slots", "compiled")

    def __init__(self, expr: Callable | None, refs: Iterable = (), value=_UNSET):
        self.expr = expr
        self.refs = tuple(map(Symbol, refs))
        self.value = value
        self.env = None
        self.slots = None

    @property
    def has_value(self) -> bool:
        return self.value is not _UNSET

    @property
    def ready(self) -> bool:
        """The value is known or can be computed without further bindings."""
        return self.value is not _UNSET or self.env is not None

    def bound_to(self, env) -> "ValuePattern":
        """A copy that evaluates against env, once, when first asked (a
        fresh copy when env is None)."""
        vp = ValuePattern.__new__(ValuePattern)
        vp.expr = self.expr
        vp.refs = self.refs
        vp.value = _UNSET
        vp.env = env
        vp.slots = self.slots
        return vp


def const_value_pattern(v) -> ValuePattern:
    """A value pattern whose value is already known."""
    return ValuePattern(None, (), value=v)


class Constructor(_Node):
    """An application of a matcher-defined pattern constructor, e.g. cons.

    In a compiled copy, hoist lists the positions of the direct arguments
    that the engine may evaluate once per dispatch (see engine._slotted).
    """

    __slots__ = ("name", "args", "hoist", "compiled")

    def __init__(self, name, args: Iterable = ()):
        self.name = name if type(name) is Symbol else Symbol(name)
        self.args = tuple(args)
        self.hoist = ()

    def with_args(self, args, hoist: tuple = ()) -> "Constructor":
        """A copy with the given arguments and hoisted positions, by default none."""
        c = Constructor.__new__(Constructor)
        c.name = self.name
        c.args = tuple(args)
        c.hoist = hoist
        return c


class TuplePattern(_Node):
    """Positional decomposition of a fixed-arity tuple."""

    __slots__ = ("args", "compiled")

    def __init__(self, args: Iterable):
        self.args = tuple(args)


class Or(_Node):
    """Matches when any branch matches; every branch binds the same variables."""

    __slots__ = ("args", "compiled")

    def __init__(self, args: Iterable):
        self.args = tuple(args)


class And(_Node):
    """Matches when all branches match the same target."""

    __slots__ = ("args", "compiled")

    def __init__(self, args: Iterable):
        self.args = tuple(args)


class Not(_Node):
    """Matches when the subpattern has no match; binds nothing outward."""

    __slots__ = ("arg", "compiled")

    def __init__(self, arg):
        self.arg = arg


class Later(_Node):
    """Defers the subpattern until the rest of the match has run."""

    __slots__ = ("arg", "compiled")

    def __init__(self, arg):
        self.arg = arg


Pattern = (Wildcard, Var, ValuePattern, Constructor, TuplePattern, Or, And, Not, Later)


def _repr_parts(q):
    # q's printed form as a fold step: (name a b), '[a b], (or a b), (and
    # a b), (not a), (later a), a variable's name, _, ,value or ,<expr
    # reading refs>; a part that is not a pattern prints as its repr
    if isinstance(q, Constructor):
        head = "(" + str.__str__(q.name)
        return (lambda parts: " ".join([head, *parts]) + ")"), q.args
    if isinstance(q, TuplePattern):
        return (lambda parts: "'[" + " ".join(parts) + "]"), q.args
    if isinstance(q, (Or, And)):
        head = "(or " if isinstance(q, Or) else "(and "
        return (lambda parts: head + " ".join(parts) + ")"), q.args
    if isinstance(q, (Not, Later)):
        head = "(not " if isinstance(q, Not) else "(later "
        return (lambda parts: head + parts[0] + ")"), (q.arg,)
    if isinstance(q, Var):
        return None, str.__str__(q.name)
    if isinstance(q, ValuePattern):
        if q.has_value:
            return None, "," + print_value(q.value)
        return None, ",<expr" + (f" reading {','.join(q.refs)}>" if q.refs else ">")
    return None, "_" if isinstance(q, Wildcard) else repr(q)


# ---------------------------------------------------------------------------
# Binding environments: immutable, ordered, no duplicate names.
# Represented as a tuple of (name, value) pairs; binding order is
# left-to-right match order and iteration follows it. The public API and
# value-pattern functions see this form: a value-pattern function gets the
# pairs of its refs only, each at its innermost bound binder. The searches
# run on slot environments, tuples of values by slot of the compiled
# pattern (engine.compile_pattern); HOLE fills a slot not bound yet.

BindingEnv = tuple

HOLE = object()


def env_get(env: BindingEnv, name):
    # most recent binding first: a Not subsearch may rebind a name from its
    # own scope, and its value patterns must see the inner binding
    name = name if type(name) is Symbol else Symbol(name)
    for n, v in reversed(env):
        if n is name:
            return v
    raise KeyError(name)


# ---------------------------------------------------------------------------
# Static analyses


def _binds(p, known: dict | None = None, binders: list | None = None) -> list:
    # the names a match of p binds, one per bind, in order (an or: its first
    # branch's, or known[id(or)]; a not: none); binders gets each one's binder
    binders = [] if binders is None else binders
    out = []
    todo = [p]
    while todo:
        q = todo.pop()
        t = type(q)
        if t is Constructor or t is TuplePattern or t is And:
            todo += q.args[::-1]
        elif t is Var:
            out.append(q.name)
            binders.append(q)
        elif t is Or and known and id(q) in known:
            out += known[id(q)]
            binders += [q] * len(known[id(q)])
        elif t is Or and q.args:
            todo.append(q.args[0])
        elif t is Later:
            todo.append(q.arg)
    return out


def scoped(p, visible: tuple) -> list:
    """(subpattern, names visible at it) for p, which sees visible, and each
    subpattern in pre-order; in a not, its binds are visible too, last."""
    out = []
    todo = [p]
    while todo:
        q = todo.pop()
        t = type(q)
        if t is tuple:  # the end of a not
            visible = q
            continue
        out.append((q, visible))
        if t is Constructor or t is TuplePattern or t is And or t is Or:
            todo += q.args[::-1]
        elif t is Later:
            todo.append(q.arg)
        elif t is Not:
            inner = extract_pattern_variables(q.arg)
            todo += (visible, q.arg)
            visible = tuple([n for n in visible if n not in inner]) + inner
    return out


def extract_pattern_variables(p) -> tuple:
    """The variables a successful match binds, in binding order.

    Or contributes its first branch, And the in-order union of its branches,
    Not nothing, Later its subtree at its textual position.
    """
    return tuple(dict.fromkeys(_binds(p)))


def validate_pattern(p) -> None:
    """Reject structurally invalid patterns.

    Errors: a variable bound twice along one binding path; Or branches that
    bind different variable sequences; a value pattern whose refs name a
    variable bound only inside some Not subtree (or not bound at all).
    """
    nodes = scoped(p, ())
    ors = {}  # id of each or checked so far -> the names it binds
    for q in reversed([q for q, _ in nodes if type(q) is Or]):  # inner ors first
        ors[id(q)], *others = [_distinct(b, ors) for b in q.args] or [()]
        if any(names != ors[id(q)] for names in others):
            raise ValidationError(
                "alternative branches must bind the same variables in the same order", q
            )
    bound = _distinct(p, ors)
    for q, visible in nodes:
        if type(q) is ValuePattern:
            for r in q.refs:
                if r not in bound and r not in visible:
                    raise ValidationError(
                        f"value pattern reads '{r}', which no visible part of the pattern binds", q
                    )
        elif type(q) is Not:
            _distinct(q.arg, ors)


def _distinct(p, ors: dict) -> tuple:
    # the names p binds, in order, each or in p binding what ors says; a name
    # bound twice raises at its second binder, a variable or an or
    names = _binds(p, ors, binders := [])
    if len(set(names)) < len(names):
        first = {}
        for i, name in enumerate(names):
            if first.setdefault(name, i) != i:
                raise ValidationError(f"variable '{name}' bound more than once", binders[i])
    return tuple(names)


def eval_value_pattern(vp: ValuePattern, env):
    """The value of a value pattern. A known value is returned as it is. A
    copy bound to a dispatch env (ValuePattern.bound_to) is evaluated
    against that env, not env, on its first call, and keeps its value for
    later ones. Any other is evaluated against env, the bindings
    accumulated so far: a pair env, or the slot env of the search running
    a compiled copy. Either way its function gets a pair env of its refs
    only, each at its most recent binding; a ref not bound yet raises
    UnboundValuePatternRef."""
    v = vp.value
    if v is not _UNSET:
        return v
    keep = vp.env
    if keep is not None:
        env = keep
    slots = vp.slots
    if slots is None:
        try:
            refs = tuple((r, env_get(env, r)) for r in vp.refs)
        except KeyError as err:
            raise UnboundValuePatternRef(err.args[0]) from None
        v = vp.expr(refs)
    elif len(slots) == 1:
        k = slots[0]
        if not (k < len(env) and env[k] is not HOLE):
            raise UnboundValuePatternRef(vp.refs[0])
        v = vp.expr(((vp.refs[0], env[k]),))
    else:
        v = vp.expr(tuple(_slot_binding(env, r, k) for r, k in zip(vp.refs, slots)))
    if keep is not None:
        vp.value = v
    return v


def _slot_binding(env: tuple, name, k: int) -> tuple:
    if k < len(env) and env[k] is not HOLE:
        return (name, env[k])
    raise UnboundValuePatternRef(name)
