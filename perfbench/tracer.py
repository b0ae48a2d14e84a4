"""Per-layer spans, recorded from outside nfmatch.

The tracer replaces, for the length of a traced run, the attributes through
which one layer calls the next: the module attribute the caller looks up
(`nfmatch.engine.match_all`, `nfmatch.examples.sat`, ...), the `fn` slot of
every Matcher (through a descriptor on the class), and the clause bodies a
caller hands to the engine. Each wrapper opens a span on entry and closes it
on exit; spans nest on one stack because the program is single-threaded and
a generator is only ever resumed from inside its consumer.

A span is (id, parent id, op id, name, start, end). Closing a span folds it
into per-name totals at once (count, duration, self time), so the metrics
cover every span; the first SPAN_CAP span records are also kept in memory
and written out when the run ends. Self time is a span's duration minus the
time its direct children cover, which are disjoint parts of it; a child
covers its wrapper's own bookkeeping too, so that cost is charged to no
layer. What is left over is the lookup of a traced Matcher.fn, which lands
in the engine's self time.

The open/close code is written out inside each wrapper rather than called,
so a wrapper adds exactly one frame to the stack, and closing a span near
the recursion limit makes no further call that could fail.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import Counter
from time import perf_counter

MATCHER_KINDS = ("Multiset", "List", "Integer", "Eq", "Tuple")
SPAN_CAP = 50_000  # span records kept in memory for the spans file

# every per-layer metric, in report order; metrics() gives those whose layer
# recorded a span or a count in the run
PER_LAYER = tuple(
    f"matchers.{k}.{m}" for k in MATCHER_KINDS for m in ("calls", "decomps", "self_s")
) + (
    "matchers.dead_end_ratio", "values.views", "values.lazy_forced", "values.print_s",
    "body.calls", "body.self_s", "pattern.vp_evals", "pattern.vp_self_s",
    "pattern.validate_calls", "pattern.validate_s", "engine.calls", "engine.results",
    "engine.self_s", "engine.stream.self_s", "engine.yield_ratio", "lang.programs",
    "lang.source_bytes", "lang.parse_s", "lang.eval_self_s", "examples.sat_calls",
    "examples.cnf_ops_s",
)

_END = object()
_MARK = "_perfbench_wrapper"  # set on every function the tracer makes


def matcher_kind(name: str) -> str:
    """'(Multiset Integer)' -> 'Multiset'; names outside MATCHER_KINDS -> 'other'."""
    head = name.lstrip("(").split(" ", 1)[0]
    return head if head in MATCHER_KINDS else "other"


def bindings() -> dict:
    """Every attribute of every loaded nfmatch module and of the classes those
    modules define, keyed by (owner name, attribute name)."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "nfmatch" and not modname.startswith("nfmatch."):
            continue
        owners = [(modname, mod)] + [
            (f"{modname}.{v.__qualname__}", v) for v in vars(mod).values()
            if isinstance(v, type) and v.__module__ == modname
        ]
        for name, owner in owners:
            for attr, value in vars(owner).items():
                out[(name, attr)] = value
    return out


def left_wrapped(before: dict) -> list:
    """Names of the attributes that are no longer what `before` (a bindings()
    taken before the tracer was installed) holds, or that hold a tracer
    wrapper, directly or through `__wrapped__`."""
    now = bindings()
    left = [".".join(key) + " (gone)" for key in before.keys() - now.keys()]
    for key, value in now.items():
        if (key in before and value is not before[key]) or _is_wrapper(value):
            left.append(".".join(key))
    return sorted(left)


def _is_wrapper(value) -> bool:
    for _ in range(8):  # a __wrapped__ chain is short; a cycle must not hang
        if isinstance(value, _TracedFnSlot) or getattr(value, _MARK, False) is True:
            return True
        value = getattr(value, "__wrapped__", None)
        if value is None:
            return False
    return False


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.dropped = 0
        self.totals: dict = {}  # span name -> [spans, duration_s, self_s]
        self.counts: Counter = Counter()
        self.op_id = 0
        self._stack: list = []  # open spans: [id, start, children's duration]
        self._ids = itertools.count(1)
        self._patches: list = []  # (owner, attribute name, original value)

    # -- wrappers ------------------------------------------------------------

    def _total(self, name: str) -> list:
        return self.totals.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn, pre=None, post=None):
        """fn inside a span; pre may rewrite the arguments, post the result."""
        total = self._total(name)
        stack, spans, ids, cap, tracer = self._stack, self.spans, self._ids, SPAN_CAP, self

        def traced(*args, **kwargs):
            enter = perf_counter()
            if pre is not None:
                args = pre(args)
            frame = [next(ids), perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                sid, start, child = frame
                dur = end - start
                total[0] += 1
                total[1] += dur
                total[2] += dur - child
                parent = stack[-1][0] if stack else 0
                if len(spans) < cap:
                    spans.append((sid, parent, tracer.op_id, name, start, end))
                else:
                    tracer.dropped += 1
                if stack:
                    stack[-1][2] += perf_counter() - enter
            return result if post is None else post(result)

        traced.__wrapped__ = fn
        setattr(traced, _MARK, True)
        return traced

    def wrap_iter(self, name: str, it, on_item=None, on_end=None):
        """A generator yielding the items of it, each resumption inside a span."""
        total = self._total(name)
        stack, spans, ids, cap, tracer = self._stack, self.spans, self._ids, SPAN_CAP, self
        items = 0
        while True:
            enter = perf_counter()
            frame = [next(ids), perf_counter(), 0.0]
            stack.append(frame)
            try:
                item = next(it, _END)
            finally:
                end = perf_counter()
                stack.pop()
                sid, start, child = frame
                dur = end - start
                total[0] += 1
                total[1] += dur
                total[2] += dur - child
                parent = stack[-1][0] if stack else 0
                if len(spans) < cap:
                    spans.append((sid, parent, tracer.op_id, name, start, end))
                else:
                    tracer.dropped += 1
                if stack:
                    stack[-1][2] += perf_counter() - enter
            if item is _END:
                if on_end is not None:
                    on_end(items)
                return
            items += 1
            if on_item is not None:
                on_item()
            yield item

    def counted(self, key: str, fn):
        """fn with a call counter and no span (for calls too small to time)."""
        counts = self.counts

        def traced(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        setattr(traced, _MARK, True)
        return traced

    # -- layer by layer --------------------------------------------------------

    def _tally(self, key: str):
        """A `pre` for wrap that counts the calls under key."""
        counts = self.counts

        def pre(args):
            counts[key] += 1
            return args

        return pre

    def _engine_strict(self, fn, first: bool):
        counts = self.counts

        def pre(args):
            counts["engine.calls"] += 1
            target, matcher, clauses = args
            return target, matcher, [(p, self.wrap("body", b)) for p, b in clauses]

        def post(result):
            counts["engine.results"] += (result is not None) if first else len(result)
            return result

        return self.wrap("engine", fn, pre, post)

    def _engine_stream(self, fn):
        counts = self.counts

        def one_result():
            counts["engine.results"] += 1

        def traced(target, matcher, clause):
            counts["engine.calls"] += 1
            gen = fn(target, matcher, (clause[0], self.wrap("body", clause[1])))
            return self.wrap_iter("engine.stream", gen, on_item=one_result)

        traced.__wrapped__ = fn
        setattr(traced, _MARK, True)
        return traced

    def _matcher_fn(self, kind: str, fn):
        counts = self.counts
        name = f"matchers.{kind}"
        calls, decomps = f"{name}.calls", f"{name}.decomps"

        def one_decomp():
            counts[decomps] += 1

        def at_end(items):
            if items == 0:
                counts["matchers.dead_ends"] += 1

        def post(result):
            counts[calls] += 1
            if type(result) is list:
                counts[decomps] += len(result)
                if not result:
                    counts["matchers.dead_ends"] += 1
                return result
            return self.wrap_iter(name, iter(result), on_item=one_decomp, on_end=at_end)

        return self.wrap(name, fn, post=post)

    def _lazy_tail(self, fn):
        counts = self.counts

        def tail(cell):
            if cell._thunk is not None:
                counts["values.lazy_forced"] += 1
            return fn(cell)

        tail.__wrapped__ = fn
        setattr(tail, _MARK, True)
        return tail

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, nf) -> None:
        """Wrap every layer boundary of the imported nfmatch package."""
        eng, ex, lang, matchers, values = nf.engine, nf.examples, nf.lang, nf.matchers, nf.values
        for mod in (eng, ex):
            self._patch(mod, "match_all", self._engine_strict(mod.match_all, first=False))
            self._patch(mod, "match_first", self._engine_strict(mod.match_first, first=True))
            self._patch(mod, "stream_match_all", self._engine_stream(mod.stream_match_all))
        self._patch(eng, "eval_value_pattern", self.wrap(
            "pattern.vp", eng.eval_value_pattern, self._tally("pattern.vp_evals")))
        self._patch(eng, "validate_pattern", self.wrap(
            "pattern.validate", eng.validate_pattern, self._tally("pattern.validate_calls")))
        self._patch(matchers, "without_index", self.counted("values.views", matchers.without_index))
        self._patch(matchers, "suffix_view", self.counted("values.views", matchers.suffix_view))
        self._patch(values.LazySeq, "tail", self._lazy_tail(values.LazySeq.tail))
        self._patch(matchers.Matcher, "fn", _TracedFnSlot(self, matchers.Matcher.__dict__["fn"]))

        self._patch(ex, "sat", self.wrap("examples.sat", ex.sat, self._tally("examples.sat_calls")))
        for op in ("assign_true", "resolve_on", "delete_clauses_with"):
            self._patch(ex, op, self.wrap("examples.cnf", getattr(ex, op)))

        c = self.counts

        def program_count(args):
            c["lang.programs"] += 1
            c["lang.source_bytes"] += len(args[0].encode())
            return args

        self._patch(lang, "run_text", self.wrap("lang.run", lang.run_text, program_count))
        self._patch(lang, "parse_program", self.wrap("lang.parse", lang.parse_program))
        self._patch(lang.Evaluator, "_eval_vp", self.wrap("lang.eval", lang.Evaluator._eval_vp))
        self._patch(lang, "print_value", self.wrap("values.print", lang.print_value))

    def restore(self) -> None:
        """Put every original attribute back (left_wrapped checks it)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def start_op(self, op_id: int) -> None:
        self.op_id = op_id
        # an op cut off by the time cap can leave frames open
        del self._stack[:]

    # -- results -----------------------------------------------------------------

    def self_s(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics, each per pass of the op list. A metric whose
        layer recorded no span and no count in the run is left out."""
        c, per = self.counts, 1.0 / passes

        def spans(*names: str) -> int:
            return sum(self.totals.get(n, (0,))[0] for n in names)

        all_calls = sum(c[f"matchers.{k}.calls"] for k in MATCHER_KINDS)
        all_decomps = sum(c[f"matchers.{k}.decomps"] for k in MATCHER_KINDS)
        rows = []  # (name, recorded, value)
        for kind in MATCHER_KINDS:
            seen = c[f"matchers.{kind}.calls"] > 0
            rows += [
                (f"matchers.{kind}.calls", seen, c[f"matchers.{kind}.calls"] * per),
                (f"matchers.{kind}.decomps", seen, c[f"matchers.{kind}.decomps"] * per),
                (f"matchers.{kind}.self_s", seen, self.self_s(f"matchers.{kind}") * per),
            ]
        rows += [
            ("matchers.dead_end_ratio", all_calls > 0,
             c["matchers.dead_ends"] / all_calls if all_calls else 0.0),
            ("values.views", c["values.views"] > 0, c["values.views"] * per),
            ("values.lazy_forced", c["values.lazy_forced"] > 0, c["values.lazy_forced"] * per),
            ("values.print_s", spans("values.print") > 0, self.self_s("values.print") * per),
            ("body.calls", spans("body") > 0, spans("body") * per),
            ("body.self_s", spans("body") > 0, self.self_s("body") * per),
            ("pattern.vp_evals", c["pattern.vp_evals"] > 0, c["pattern.vp_evals"] * per),
            ("pattern.vp_self_s", c["pattern.vp_evals"] > 0, self.self_s("pattern.vp") * per),
            ("pattern.validate_calls", c["pattern.validate_calls"] > 0,
             c["pattern.validate_calls"] * per),
            ("pattern.validate_s", c["pattern.validate_calls"] > 0,
             self.self_s("pattern.validate") * per),
            ("engine.calls", c["engine.calls"] > 0, c["engine.calls"] * per),
            ("engine.results", c["engine.calls"] > 0, c["engine.results"] * per),
            ("engine.self_s", c["engine.calls"] > 0,
             self.self_s("engine", "engine.stream") * per),
            ("engine.stream.self_s", spans("engine.stream") > 0,
             self.self_s("engine.stream") * per),
            ("engine.yield_ratio", c["engine.calls"] > 0 and all_decomps > 0,
             c["engine.results"] / all_decomps if all_decomps else 0.0),
            ("lang.programs", c["lang.programs"] > 0, c["lang.programs"] * per),
            ("lang.source_bytes", c["lang.programs"] > 0, c["lang.source_bytes"] * per),
            ("lang.parse_s", spans("lang.parse") > 0, self.self_s("lang.parse") * per),
            ("lang.eval_self_s", c["lang.programs"] > 0,
             self.self_s("lang.run", "lang.eval") * per),
            ("examples.sat_calls", c["examples.sat_calls"] > 0, c["examples.sat_calls"] * per),
            ("examples.cnf_ops_s", spans("examples.cnf") > 0, self.self_s("examples.cnf") * per),
        ]
        return {name: value for name, recorded, value in rows if recorded}

    def span_names(self) -> set:
        return {n for n, t in self.totals.items() if t[0]}

    def write_spans(self, path) -> None:
        """One JSON object per recorded span, then a line with the totals."""
        with open(path, "w") as f:
            for sid, parent, op, name, start, end in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                    "start": start, "end": end}) + "\n")
            f.write(json.dumps({"recorded": len(self.spans), "dropped": self.dropped,
                                "totals": self.totals}) + "\n")


class _TracedFnSlot:
    """Stands in for the `fn` slot of Matcher: reads return a traced wrapper
    of the stored function, writes go to the slot unchanged."""

    def __init__(self, tracer: Tracer, slot):
        self._tracer = tracer
        self._slot = slot
        # strong references: a function dropped and a new one allocated at
        # its address must never find the old wrapper
        self._wrapped: dict = {}

    def __get__(self, matcher, owner=None):
        if matcher is None:
            return self
        fn = self._slot.__get__(matcher, owner)
        if fn is None:
            return None
        traced = self._wrapped.get(fn)
        if traced is None:
            traced = self._tracer._matcher_fn(matcher_kind(matcher.name), fn)
            self._wrapped[fn] = traced
        return traced

    def __set__(self, matcher, fn):
        self._slot.__set__(matcher, fn)
