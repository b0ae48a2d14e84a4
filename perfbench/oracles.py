"""Expected outputs for every benchmark op, computed without nfmatch.

Each oracle takes the same plain-Python inputs the op was built from and
returns the plain-Python value the op must produce (see workloads.canon).
Nothing here imports nfmatch, so a defect in the library cannot make an
oracle agree with it.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice, permutations, product


# --- multiset decompositions ------------------------------------------------


def pairs(xs: tuple) -> list:
    """(cons x (cons y _)) over a multiset: ordered pairs of distinct positions."""
    return list(permutations(xs, 2))


def triples(xs: tuple) -> list:
    """(cons x (cons y (cons z _))): ordered triples of distinct positions."""
    return list(permutations(xs, 3))


def head_rest(xs: tuple) -> list:
    """(cons x ts): each element with the others, in their original order."""
    return [(x, xs[:i] + xs[i + 1 :]) for i, x in enumerate(xs)]


# --- non-linear patterns ----------------------------------------------------


def seq_triple_all(xs: tuple) -> list:
    """(cons x (cons ,(+ x 1) (cons ,(+ x 2) _))) bodies x, in search order.

    For the element at position i there is one result per choice of an x+1
    and an x+2 elsewhere; x+1 and x+2 never equal x, so positions differ.
    """
    c = Counter(xs)
    return [x for x in xs for _ in range(c[x + 1] * c[x + 2])]


def seq_triple_first(xs: tuple):
    """match-first of the seq-triple pattern: the first x that has a run."""
    c = Counter(xs)
    return next((x for x in xs if c[x + 1] and c[x + 2]), None)


def dup_pairs(xs: tuple) -> list:
    """(cons x (cons ,x _)): each element once per other equal element."""
    c = Counter(xs)
    return [x for x in xs for _ in range(c[x] - 1)]


def unique_first(xs: tuple) -> tuple:
    """First occurrence of each element, in order."""
    return tuple(dict.fromkeys(xs))


def unique_last(xs: tuple) -> tuple:
    """Last occurrence of each element, in order of those occurrences."""
    return tuple(x for i, x in enumerate(xs) if x not in xs[i + 1 :])


def members_counted(xs: tuple, bag: tuple) -> list:
    """Each element of xs, repeated once per equal element of bag."""
    c = Counter(bag)
    return [x for x in xs for _ in range(c[x])]


def succ_pairs(xs: tuple) -> list:
    """(cons x (cons ,(+ x 1) _)) bodies x over a multiset."""
    c = Counter(xs)
    return [x for x in xs for _ in range(c[x + 1])]


def truth_table_sat(nvars: int, cnf: tuple) -> bool:
    """Satisfiable iff some assignment of 1..nvars makes every clause true."""
    for bits in product((False, True), repeat=nvars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in cnf):
            return True
    return False


# --- primes -------------------------------------------------------------------


def sieve(limit: int) -> tuple:
    """All primes up to limit, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return tuple(i for i, f in enumerate(flags) if f)


def _first(k: int, found) -> list:
    out = list(islice(found, k))
    if len(out) < k:
        raise ValueError(f"prime list too short for {k} results")
    return out


def twin_primes(primes: tuple, k: int) -> list:
    """The first k pairs of consecutive primes p, p+2."""
    return _first(k, ((p, q) for p, q in zip(primes, primes[1:]) if q == p + 2))


def prime_triplets(primes: tuple, k: int) -> list:
    """The first k runs of three consecutive primes p, m, p+6."""
    return _first(k, ((p, m, r) for p, m, r in zip(primes, primes[1:], primes[2:]) if r == p + 6))


# --- printed form of language results ----------------------------------------


def sexpr(v) -> str:
    """A value as the CLI prints it: lists and tuples as (a b c)."""
    if v is True:
        return "#t"
    if v is False:
        return "#f"
    if isinstance(v, (list, tuple)):
        return "(" + " ".join(sexpr(x) for x in v) + ")"
    return str(v)
