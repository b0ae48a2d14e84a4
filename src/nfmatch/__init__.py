"""Non-linear pattern matching with backtracking for non-free data types.

Values (lists, lazy streams, tuples), patterns (variables, value patterns,
logical connectives), matchers that interpret pattern constructors per
data type, and a matching-state engine with strict, first-result, and
fair streaming searches. The lang module adds an s-expression surface
language with a REPL; bench and examples exercise the engine.
"""

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
    clause_results,
    gen_match_results,
    match_all,
    match_first,
    process_matching_state,
    process_matching_states_all,
    process_matching_states_first,
    stream_match_all,
)

from .lang import (
    Evaluator,
    LangError,
    ParseError,
    SourceSpan,
    cli_form,
    parse_program,
    repl,
    run_text,
)
from .examples import (
    pm_concat,
    pm_map,
    pm_unique,
    pm_unique_simple,
    prime_triplets,
    primes_stream,
    read_dimacs,
    sat,
    twin_primes,
)
from .bench import (
    BenchConfig,
    BenchReport,
    comb2_functional,
    comb2_pattern,
    run_benchmarks,
    seq_triple_bench,
    sorted_list_matcher,
)

__version__ = "0.1.0"
