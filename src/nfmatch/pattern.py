"""Pattern AST and the static analyses over it: variable extraction,
structural validation, and value-pattern evaluation against bindings."""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import DuplicateBinding, UnboundValuePatternRef, ValidationError
from .values import Symbol


# The compiled field (unset until a first use, see engine.compile_pattern)
# of a pattern the searches run as it is: a compiled copy, or the wildcard.
COMPILED = object()


class Wildcard:
    """Matches anything, binds nothing. Use the WILDCARD singleton."""

    __slots__ = ()
    compiled = COMPILED

    def __repr__(self):
        return "_"


WILDCARD = Wildcard()


class Var:
    """A pattern variable; binds the target when dispatched against Something.

    In a compiled copy, slot is the index of its value in the search's env.
    """

    __slots__ = ("name", "slot", "compiled")

    def __init__(self, name):
        self.name = Symbol(name)
        self.slot = None

    def __repr__(self):
        return str.__str__(self.name)


_UNSET = object()


class ValuePattern:
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

    def __repr__(self):
        if self.has_value:
            from .values import print_value

            return f",{print_value(self.value)}"
        return ",<expr" + (f" reading {','.join(self.refs)}>" if self.refs else ">")


def const_value_pattern(v) -> ValuePattern:
    """A value pattern whose value is already known."""
    return ValuePattern(None, (), value=v)


class Constructor:
    """An application of a matcher-defined pattern constructor, e.g. cons.

    In a compiled copy, hoist lists the positions of the direct arguments
    that the engine may evaluate once per dispatch (see engine._hoistable).
    """

    __slots__ = ("name", "args", "hoist", "compiled")

    def __init__(self, name, args: Iterable = ()):
        self.name = Symbol(name)
        self.args = tuple(args)
        self.hoist = ()

    def with_args(self, args) -> "Constructor":
        """A copy with the given arguments, which the engine never re-hoists."""
        c = Constructor.__new__(Constructor)
        c.name = self.name
        c.args = tuple(args)
        c.hoist = ()
        return c

    def __repr__(self):
        if not self.args:
            return f"({self.name})"
        return "(" + " ".join([str.__str__(self.name)] + [repr(a) for a in self.args]) + ")"


class TuplePattern:
    """Positional decomposition of a fixed-arity tuple."""

    __slots__ = ("args", "compiled")

    def __init__(self, args: Iterable):
        self.args = tuple(args)

    def __repr__(self):
        return "'[" + " ".join(repr(a) for a in self.args) + "]"


class Or:
    """Matches when any branch matches; every branch binds the same variables."""

    __slots__ = ("args", "compiled")

    def __init__(self, args: Iterable):
        self.args = tuple(args)

    def __repr__(self):
        return "(or " + " ".join(repr(a) for a in self.args) + ")"


class And:
    """Matches when all branches match the same target."""

    __slots__ = ("args", "compiled")

    def __init__(self, args: Iterable):
        self.args = tuple(args)

    def __repr__(self):
        return "(and " + " ".join(repr(a) for a in self.args) + ")"


class Not:
    """Matches when the subpattern has no match; binds nothing outward."""

    __slots__ = ("arg", "compiled")

    def __init__(self, arg):
        self.arg = arg

    def __repr__(self):
        return f"(not {self.arg!r})"


class Later:
    """Defers the subpattern until the rest of the match has run."""

    __slots__ = ("arg", "compiled")

    def __init__(self, arg):
        self.arg = arg

    def __repr__(self):
        return f"(later {self.arg!r})"


Pattern = (Wildcard, Var, ValuePattern, Constructor, TuplePattern, Or, And, Not, Later)


# ---------------------------------------------------------------------------
# Binding environments: immutable, ordered, no duplicate names.
# Represented as a tuple of (name, value) pairs; binding order is
# left-to-right match order and iteration follows it. The public API and
# value-pattern functions see this form: a value-pattern function gets the
# pairs of its refs only, each at its innermost bound binder. The searches
# run on slot environments, tuples of values by slot of the compiled
# pattern (engine.compile_pattern); HOLE fills a slot not bound yet.

BindingEnv = tuple

EMPTY_ENV: BindingEnv = ()

HOLE = object()


def env_bind(env: BindingEnv, name, value) -> BindingEnv:
    """Extend env with one binding; rebinding a name is an error."""
    name = Symbol(name)
    for n, _ in env:
        if n is name:
            raise DuplicateBinding(name)
    return env + ((name, value),)


def env_get(env: BindingEnv, name):
    # most recent binding first: a Not subsearch may rebind a name from its
    # own scope, and its value patterns must see the inner binding
    name = Symbol(name)
    for i in range(len(env) - 1, -1, -1):
        n, v = env[i]
        if n is name:
            return v
    raise KeyError(name)


def env_names(env: BindingEnv) -> tuple:
    return tuple(n for n, _ in env)


def env_to_dict(env: BindingEnv) -> dict:
    return {n: v for n, v in env}


# ---------------------------------------------------------------------------
# Static analyses


def extract_pattern_variables(p) -> tuple:
    """The variables a successful match binds, in binding order.

    Or contributes its first branch, And the in-order union of its branches,
    Not nothing, Later its subtree at its textual position.
    """
    out: list = []
    _extract(p, out)
    return tuple(out)


def _extract(p, out: list):
    t = type(p)
    if t is Var:
        if p.name not in out:
            out.append(p.name)
    elif t is Constructor:
        for a in p.args:
            _extract(a, out)
    elif t is TuplePattern:
        for a in p.args:
            _extract(a, out)
    elif t is Or:
        if p.args:
            _extract(p.args[0], out)
    elif t is And:
        for a in p.args:
            _extract(a, out)
    elif t is Later:
        _extract(p.arg, out)
    # Wildcard, ValuePattern, Not: nothing


def validate_pattern(p) -> None:
    """Reject structurally invalid patterns.

    Errors: a variable bound twice along one binding path; Or branches that
    bind different variable sequences; a value pattern whose refs name a
    variable bound only inside some Not subtree (or not bound at all).
    """
    binders: list = []
    _collect_binders(p, binders)
    _check(p, frozenset(binders))


def _collect_binders(p, out: list) -> None:
    # One entry per runtime bind; duplicates are detected here.
    t = type(p)
    if t is Var:
        if p.name in out:
            raise ValidationError(f"variable '{p.name}' bound more than once", p)
        out.append(p.name)
    elif t is Constructor or t is TuplePattern or t is And:
        for a in p.args:
            _collect_binders(a, out)
    elif t is Or:
        branch_vars = []
        for b in p.args:
            scratch: list = []
            _collect_binders(b, scratch)  # detects duplicates inside the branch
            branch_vars.append(extract_pattern_variables(b))
        for bv in branch_vars[1:]:
            if bv != branch_vars[0]:
                raise ValidationError(
                    "alternative branches must bind the same variables in the same order", p
                )
        if p.args:
            for name in branch_vars[0]:
                if name in out:
                    raise ValidationError(f"variable '{name}' bound more than once", p)
                out.append(name)
    elif t is Later:
        _collect_binders(p.arg, out)
    # Wildcard, ValuePattern: bind nothing. Not: bindings stay inside.


def _check(p, visible: frozenset) -> None:
    t = type(p)
    if t is ValuePattern:
        for r in p.refs:
            if r not in visible:
                raise ValidationError(
                    f"value pattern reads '{r}', which no visible part of the pattern binds", p
                )
    elif t is Constructor or t is TuplePattern or t is And or t is Or:
        for a in p.args:
            _check(a, visible)
    elif t is Later:
        _check(p.arg, visible)
    elif t is Not:
        # a fresh scope: inner binders become visible inside, never outside
        inner: list = []
        _collect_binders(p.arg, inner)
        _check(p.arg, visible | frozenset(inner))


def eval_value_pattern(vp: ValuePattern, env):
    """Evaluate a value pattern against the bindings accumulated so far: a
    pair env, or the slot env of the search running a compiled copy."""
    if vp.value is not _UNSET:
        return vp.value
    slots = vp.slots
    if slots is None:
        for r in vp.refs:
            for n, _ in env:
                if n is r:
                    break
            else:
                raise UnboundValuePatternRef(r)
        return vp.expr(env)
    if len(slots) == 1:
        return vp.expr((_slot_binding(env, vp.refs[0], slots[0]),))
    return vp.expr(tuple(_slot_binding(env, r, k) for r, k in zip(vp.refs, slots)))


def _slot_binding(env: tuple, name, k: int) -> tuple:
    if k < len(env) and env[k] is not HOLE:
        return (name, env[k])
    raise UnboundValuePatternRef(name)
