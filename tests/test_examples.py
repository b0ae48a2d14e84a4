"""Example applications: list combinators, SAT solving, prime streams."""

import gc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nfmatch.examples import (
    assign_true,
    delete,
    delete_clauses_with,
    is_prime,
    pm_concat,
    pm_map,
    pm_unique,
    pm_unique_simple,
    prime_triplets,
    primes_stream,
    read_dimacs,
    resolve_on,
    sat,
    twin_primes,
)
from nfmatch.matchers import Matcher
from nfmatch.values import VList, seq_uncons

from helpers import cli, truth_table_sat

DATA = Path(__file__).parent / "data"


def test_truth_table_oracle_sanity():
    assert truth_table_sat(0, ()) is True
    assert truth_table_sat(1, ((),)) is False
    assert truth_table_sat(1, ((1,), (-1,))) is False
    assert truth_table_sat(2, ((1, 2), (-1,), (-2,))) is False
    assert truth_table_sat(2, ((1, -2),)) is True


# --- Clause-set helpers: frozen input/output pairs ---


def test_assign_true():
    assert assign_true(1, ((1, 2), (-1, 3))) == ((3,),)
    assert assign_true(-2, ((1, 2), (-2, 3))) == ((1,),)
    assert assign_true(1, ()) == ()


def test_delete():
    assert delete(2, (1, 2, 3, 2)) == (1, 3)
    assert delete(9, (1, 2)) == (1, 2)


def test_delete_clauses_with():
    assert delete_clauses_with(1, ((1, 2), (3,), (-1, 1))) == ((3,),)


def test_resolve_on():
    assert resolve_on(1, ((1, 2), (-1, 3))) == ((2, 3),)
    assert resolve_on(1, ((1, 2), (-1, -2))) == ()  # tautology dropped
    assert resolve_on(1, ((1,), (-1,))) == ((),)
    assert resolve_on(1, ((1, 2), (1, 3), (-1, 4))) == ((2, 4), (3, 4))


# --- The solver itself ---


def test_sat_frozen_cases():
    assert sat((), ()) is True
    assert sat((1,), ((1,),)) is True
    assert sat((1,), ((1,), (-1,))) is False
    assert sat((1, 2), ((1, 2), (-1,), (-2,))) is False
    assert sat((1, 2), ((1, -2),)) is True
    assert sat((1, 2, 3), ((),)) is False


def test_sat_degenerate_clauses():
    # tautological clauses are always true; repeated literals collapse
    assert sat((1,), ((1, -1),)) is True
    assert sat((1, 2), ((2, -2), (1, 1))) is True
    assert sat((1, 2, 3, 4), ((-4, 4), (2, 4, -2), (-2, -2))) is True
    assert sat((1, 2), ((1, 1), (-1, -1), (2, -2))) is False


clauses_st = st.lists(
    st.lists(
        st.integers(1, 4).flatmap(lambda v: st.sampled_from((v, -v))),
        max_size=3,
    ).map(tuple),
    max_size=5,
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(clauses_st)
def test_sat_agrees_with_truth_table(cnf):
    assert sat(tuple(range(1, 5)), cnf) is truth_table_sat(4, cnf)


# --- DIMACS-lite reader ---


def test_read_dimacs_smoke_file():
    vars_, cnf = read_dimacs((DATA / "smoke.cnf").read_text())
    assert vars_ == (1, 2, 3)
    assert cnf == ((1, 2), (-1, 3), (-2, 3), (1, -3), (2, -3), (1, 2, 3))
    assert sat(vars_, cnf) is True
    assert truth_table_sat(3, cnf) is True


def test_read_dimacs_clauses_may_span_lines():
    vars_, cnf = read_dimacs("p cnf 2 2\n1\n-2 0 2\n1 0\n")
    assert cnf == ((1, -2), (2, 1))


def test_read_dimacs_trailing_clause_without_zero():
    _, cnf = read_dimacs("p cnf 2 1\n1 2\n")
    assert cnf == ((1, 2),)


def test_read_dimacs_errors():
    with pytest.raises(ValueError):
        read_dimacs("1 2 0\n")  # no header
    with pytest.raises(ValueError):
        read_dimacs("p cnf x\n")
    with pytest.raises(ValueError):
        read_dimacs("p cnf 2 1\n3 0\n")  # literal out of range
    # each names its line
    for text, message in [
        ("p cnf -3 1\n", "line 1: malformed problem line: 'p cnf -3 1'"),
        ("p cnf 3 -1\n", "line 1: malformed problem line: 'p cnf 3 -1'"),
        ("p cnf 3 x\n", "line 1: malformed problem line: 'p cnf 3 x'"),
        ("c two\np cnf 2 1\np cnf 3 1\n3 0\n", "line 3: a second problem line: 'p cnf 3 1'"),
        ("p cnf 2 1\n1 x 0\n", "line 2: literal 'x' is not an integer"),
        ("1 2 0\np cnf 2 1\n", "line 1: a clause before the problem line"),
        ("c one\np cnf 2 5\n1 0\n", "line 2: clause count 5 declared, but 1 read"),
        ("p cnf 2 1\n1 0\n2\n", "line 1: clause count 1 declared, but 2 read"),
        ("p cnf 2 2\n1 0\n\n-3 0\n", "line 4: literal -3 out of range for 2 variables"),
        ("p cnf 2 1\n+1 0\n", "line 2: literal '+1' is not an integer"),
        ("p cnf 20 1\n1_0 0\n", "line 2: literal '1_0' is not an integer"),
        ("p cnf 2 1\n-\u0661 0\n", "line 2: literal '-\u0661' is not an integer"),
        ("p cnf 2 1\n--1 0\n", "line 2: literal '--1' is not an integer"),
    ]:
        with pytest.raises(ValueError) as info:
            read_dimacs(text)
        assert str(info.value) == message


# --- List combinators ---


def test_pm_map():
    assert list(pm_map(lambda x: x + 10, VList.of((1, 2, 3, 4)))) == [11, 12, 13, 14]
    assert list(pm_map(lambda x: x, VList.of(()))) == []


def test_pm_concat():
    xss = VList.of((VList.of((1, 2)), VList.of(()), VList.of((3, 4, 5))))
    assert list(pm_concat(xss)) == [1, 2, 3, 4, 5]


def test_pm_unique_variants():
    xs = VList.of((1, 2, 3, 2, 4))
    assert list(pm_unique_simple(xs)) == [1, 3, 2, 4]  # keeps last occurrences
    assert list(pm_unique(xs)) == [1, 2, 3, 4]  # keeps first occurrences


int_lists = st.lists(st.integers(0, 5), max_size=8)


@settings(max_examples=200, deadline=None)
@given(int_lists)
def test_pm_map_is_map(xs):
    assert list(pm_map(lambda v: v * 3, VList.of(tuple(xs)))) == [v * 3 for v in xs]


@settings(max_examples=200, deadline=None)
@given(st.lists(int_lists, max_size=4))
def test_pm_concat_is_flatten(xss):
    target = VList.of(tuple(VList.of(tuple(xs)) for xs in xss))
    assert list(pm_concat(target)) == [v for xs in xss for v in xs]


@settings(max_examples=200, deadline=None)
@given(int_lists)
def test_pm_unique_is_first_occurrence_dedup(xs):
    want = list(dict.fromkeys(xs))
    assert list(pm_unique(VList.of(tuple(xs)))) == want


@settings(max_examples=200, deadline=None)
@given(int_lists)
def test_pm_unique_simple_is_last_occurrence_dedup(xs):
    want = list(reversed(list(dict.fromkeys(reversed(xs)))))
    assert list(pm_unique_simple(VList.of(tuple(xs)))) == want


# --- Primes ---


def test_is_prime_exhaustive_small():
    for n in range(-3, 200):
        want = n >= 2 and all(n % k for k in range(2, n))
        assert is_prime(n) is want


def test_primes_stream_prefix():
    s = primes_stream()
    got = []
    for _ in range(15):
        head, s = seq_uncons(s)
        got.append(head)
    assert got == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


TWINS_10 = [(3, 5), (5, 7), (11, 13), (17, 19), (29, 31), (41, 43), (59, 61), (71, 73), (101, 103), (107, 109)]
TRIPLETS_8 = [
    (5, 7, 11), (7, 11, 13), (11, 13, 17), (13, 17, 19),
    (17, 19, 23), (37, 41, 43), (41, 43, 47), (67, 71, 73),
]


def test_twin_primes_frozen():
    got = [tuple(pair) for pair in twin_primes(10)]
    assert got == TWINS_10
    assert list(twin_primes(0)) == []


def test_prime_triplets_frozen():
    got = [tuple(t) for t in prime_triplets(8)]
    assert got == TRIPLETS_8


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12))
def test_twin_primes_are_consecutive_twin_primes(k):
    got = [tuple(pair) for pair in twin_primes(k)]
    assert got == TWINS_10[:k] if k <= 10 else True
    for p, q in got:
        assert q == p + 2 and is_prime(p) and is_prime(q)
        # no prime strictly between them
        assert not any(is_prime(r) for r in range(p + 1, q))


# --- The example subcommands ---


def test_cli_sat_smoke():
    code, out, _ = cli(["examples", "sat", str(DATA / "smoke.cnf")])
    assert code == 0 and out.strip() == "SATISFIABLE"


def test_cli_sat_unsat(tmp_path):
    f = tmp_path / "unsat.cnf"
    f.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = cli(["examples", "sat", str(f)])
    assert code == 0 and out.strip() == "UNSATISFIABLE"


def test_cli_sat_rejects_a_negative_variable_count(tmp_path):
    f = tmp_path / "negative.cnf"
    f.write_text("p cnf -3 1\n")
    code, out, err = cli(["examples", "sat", str(f)])
    assert (code, out, err) == (1, "", "error: line 1: malformed problem line: 'p cnf -3 1'\n")


def _unit_clauses(n, extra=""):
    return f"p cnf {n} {n + bool(extra)}\n" + "".join(f"{i} 0\n" for i in range(1, n + 1)) + extra


@pytest.mark.parametrize("extra, verdict", [("", "SATISFIABLE"), ("-1000 0\n", "UNSATISFIABLE")],
                         ids=["sat", "unsat"])
def test_cli_sat_a_thousand_variables(tmp_path, extra, verdict):
    # one rule fires per variable; sat loops, so the host stack sets no limit
    f = tmp_path / "units.cnf"
    f.write_text(_unit_clauses(1000, extra))
    code, out, err = cli(["examples", "sat", str(f)])
    assert (code, out, err) == (0, verdict + "\n", "")


def test_sat_a_thousand_variables():
    units = tuple((i,) for i in range(1, 1001))
    assert sat(range(1, 1001), units) is True
    assert sat(range(1, 1001), units + ((-1000,),)) is False


def test_cli_twin_primes_and_triplets():
    code, out, _ = cli(["examples", "twin-primes", "3"])
    assert code == 0 and out.strip() == "((3 5) (5 7) (11 13))"
    code, out, _ = cli(["examples", "triplets", "2"])
    assert code == 0 and out.strip() == "((5 7 11) (7 11 13))"
    for example in ("twin-primes", "triplets"):
        code, out, _ = cli(["examples", example, "0"])
        assert code == 0 and out == "()\n"
        for k in ("-1", "x"):
            code, out, err = cli(["examples", example, k])
            assert code == 2 and out == "" and "islice" not in err


def test_example_matchers_are_built_once():
    # with the collector off, the calls leave no matcher cycle behind for it
    gc.collect()
    gc.disable()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        for _ in range(50):
            assert pm_unique(VList.of((1, 2, 1, 3))) == VList.of((1, 2, 3))
        gc.collect()
        left = [o for o in gc.garbage if isinstance(o, Matcher)]
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
        gc.enable()
    assert left == []
