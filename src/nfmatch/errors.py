"""Error types shared across the library."""


class MatchError(Exception):
    """A pattern match could not be carried out (as opposed to not matching)."""


class UnknownPatternConstructor(MatchError):
    """A matcher was handed a constructor pattern it does not define."""

    def __init__(self, constructor: str, matcher: str):
        self.constructor = constructor
        self.matcher = matcher
        super().__init__(f"matcher {matcher} has no pattern constructor '{constructor}'")


class ArityMismatch(MatchError):
    """Tuple pattern, matcher list, and target disagree on arity."""


class UnboundValuePatternRef(MatchError):
    """A value pattern read a pattern variable that is not bound yet."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"value pattern references unbound variable '{name}'")


class DuplicateBinding(MatchError):
    """An already-bound variable was bound a second time."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable '{name}' is already bound")


class ValidationError(Exception):
    """A pattern is structurally invalid."""

    def __init__(self, reason: str, subpattern=None):
        self.reason = reason
        self.subpattern = subpattern
        super().__init__(reason if subpattern is None else f"{reason}: {subpattern!r}")


class DepthExceeded(Exception):
    """Lazy-sequence comparison forced more elements than the budget allows."""
