"""Non-linear pattern matching with backtracking for non-free data types.

Values (lists, lazy streams, tuples), patterns (variables, value patterns,
logical connectives), matchers that interpret pattern constructors per
data type, and a matching-state engine with strict, first-result, and
fair streaming searches. The lang module adds an s-expression surface
language with a REPL; bench and examples exercise the engine.

`import nfmatch` loads the matching core: errors, values, pattern, matchers
and engine. lang, examples and bench load the first time one of their
names (or the module itself, as `nfmatch.lang`) is read.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .errors import (
    ArityMismatch,
    DepthExceeded,
    MatchError,
    UnboundValuePatternRef,
    UnknownPatternConstructor,
    ValidationError,
)
from .values import (
    EMPTY_LIST,
    LazySeq,
    Symbol,
    VList,
    VTuple,
    as_vlist,
    cons_value,
    from_python,
    lazyseq_from_iter,
    list_concat,
    parse_value,
    print_value,
    repeat_value,
    suffix_view,
    to_python,
    value_equal,
    value_kind,
    without_index,
)
from .pattern import (
    WILDCARD,
    And,
    BindingEnv,
    Constructor,
    Later,
    Not,
    Or,
    Pattern,
    TuplePattern,
    ValuePattern,
    Var,
    Wildcard,
    const_value_pattern,
    env_get,
    eval_value_pattern,
    extract_pattern_variables,
    validate_pattern,
)
from .matchers import (
    CONS,
    JOIN,
    NIL,
    SOMETHING,
    Each,
    Matcher,
    eq_matcher,
    integer_matcher,
    list_matcher,
    multiset_matcher,
    register_matcher_extension,
    something,
    tuple_matcher,
    vp_value,
)
from .engine import (
    MatchClause,
    MatchingState,
    gen_match_results,
    match_all,
    match_first,
    process_matching_state,
    process_matching_states_all,
    process_matching_states_first,
    stream_match_all,
)

# the exports of the modules that __getattr__ (PEP 562) loads on first use
_LAZY = {
    "lang": ("Evaluator", "LangError", "ParseError", "SourceSpan", "cli_form",
             "parse_program", "repl", "run_text"),
    "examples": ("pm_concat", "pm_map", "pm_unique", "pm_unique_simple", "prime_triplets",
                 "primes_stream", "read_dimacs", "sat", "twin_primes"),
    "bench": ("BenchConfig", "BenchReport", "comb2_functional", "comb2_pattern",
              "run_benchmarks", "seq_triple_bench", "sorted_list_matcher"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
_SUBMODULES = (*_LAZY, "cli")

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + list(_HOME)


def __getattr__(name):
    # each read asks the defining module, so it gives what that module holds now
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})


__version__ = "0.1.0"
