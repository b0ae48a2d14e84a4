"""The nfmatch benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [...]

A run builds the workload's fixed op list from the seed, then calls the ops
one after another, each only after the previous one returned, in whole
passes over the list until S seconds have gone; a few warm-up ops run
before the clock starts. Every call is checked against the oracles.

The machine this was written on is shared, and its CPU speed swings by up
to 45% over seconds, for whole runs at a time. So every timed call of an op
is followed by a fixed pure-Python reference kernel that never touches
nfmatch, and the call's time is scaled by REF_MS / (the median time of the
kernel runs within SPEED_WINDOW calls of it): it is the time the call would
have taken at the speed at which the kernel takes REF_MS. An op's time is
the median of its scaled calls over a run's passes; throughput is ops (or
results) over the sum of those times, and the latency percentiles are taken
over them, one per op of the list. The unscaled wall-clock figures are
printed and recorded next to them.

--trace 0 reports the end-to-end metrics. --trace 1 spends half the time
untraced and half with spans around every layer boundary (tracer.py), and
reports the per-layer metrics plus the tracing overhead; it also checks that
the traced pass produced the same outputs as the untraced one and that every
attribute of nfmatch is afterwards what it was before the tracer went in.
`--workload all` runs every workload, and the lang-deep probe, one after
another in child processes.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The lines above it are the report for people, and a
fuller record (environment, sample counts, failures) goes to
.perfbench_out/ together with the recorded spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer, bindings, left_wrapped  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
OP_CAP_S = 10.0  # an op still running after this long is cut off and fails
SETUP_REPS = 11
WARMUP_OPS = 50  # run and checked before the clock starts
# about the reference kernel's time between ops on the machine the benchmark
# was written on (2-CPU x86-64 VM, CPython 3.11), so that scaled times read
# close to that machine's wall-clock times
REF_MS = 0.2
# the CPU's speed is taken over this many calls on each side of a call: far
# shorter than the seconds a speed lasts, long enough to even out a single
# kernel run's noise
SPEED_WINDOW = 50

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "results_per_s": "results/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "first_result_p50_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ratio") or name == "trace.overhead":
        return "ratio"
    if name.endswith("_s"):
        return "s/pass"
    if name.endswith("_bytes"):
        return "bytes/pass"
    return "count/pass"


class OpTimeout(BaseException):
    """Raised by the alarm in an op that outlives OP_CAP_S. A BaseException,
    so that no `except Exception` inside the program can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


class Op(NamedTuple):
    spec: workloads.Spec
    call: object


def _ref_gen(depth: int):
    if depth:
        for v in _ref_gen(depth - 1):
            yield v + 1
    else:
        yield 0


def reference_kernel() -> int:
    """Fixed work of the kinds a match search does: nested generators and
    small tuples, lists and dicts. It never touches nfmatch."""
    total = 0
    for _ in range(40):
        for v in _ref_gen(12):
            total += v
    table = dict((i, [i]) for i in range(400))
    return total + len(table)


def reference_ms() -> float:
    t0 = perf_counter()
    reference_kernel()
    return (perf_counter() - t0) * 1e3


class Passes:
    """What a run learned about each op of the list, over its timed passes."""

    def __init__(self, n: int):
        self.passes = 0
        self.attempted = 0
        # per op, three numbers per completed call: op ms, first-result ms and
        # the call's index in kernel_ms; flat arrays, so that what the run
        # keeps adds little to peak_rss_mb however many passes it makes
        self.samples = [array("d") for _ in range(n)]
        self.kernel_ms = array("d")  # reference kernel times, in call order
        self.results = [0] * n
        self.correct = [True] * n  # every call so far matched the oracle
        self.failures = []  # (op index, kind, reason)
        self.outcomes = []  # first timed pass: output digest or error name

    def op_ms(self, scaled: bool = True, first: bool = False) -> list:
        """Per op, the median over its completed calls of the call's time (or
        its time to the first result), scaled to reference speed unless
        `scaled` is false; None for an op with no completed call."""
        k, w = self.kernel_ms, SPEED_WINDOW
        if scaled:
            speed = [statistics.median(k[max(0, j - w):j + w + 1]) for j in range(len(k))]
        out = []
        for calls in self.samples:
            times = calls[1 if first else 0::3]
            if scaled:
                times = [t * REF_MS / speed[int(j)] for t, j in zip(times, calls[2::3])]
            out.append(statistics.median(times) if times else None)
        return out

    def rates(self, scaled: bool = True) -> tuple:
        """(correct ops, results) per second of the ops' times."""
        times = self.op_ms(scaled)
        done = [i for i, t in enumerate(times) if t is not None]
        busy = sum(times[i] for i in done) / 1e3
        if not busy:
            return 0.0, 0.0
        ok = [i for i in done if self.correct[i]]
        return len(ok) / busy, sum(self.results[i] for i in ok) / busy


def run_passes(ops: list, seconds: float, tracer: Tracer | None = None,
               warmup: int = WARMUP_OPS) -> Passes:
    """The first `warmup` ops untimed, then whole timed passes over ops until
    `seconds` have gone, at least one. Every call is checked."""
    signal.signal(signal.SIGALRM, _alarm)
    p = Passes(len(ops))
    _one_pass(ops[:warmup], p, None, timed=False)
    deadline = perf_counter() + seconds
    while not p.passes or perf_counter() < deadline:
        _one_pass(ops, p, tracer, timed=True)
        p.passes += 1
    return p


def _one_pass(ops: list, p: Passes, tracer: Tracer | None, timed: bool) -> None:
    for i, op in enumerate(ops):
        p.attempted += 1
        if tracer is not None:
            tracer.start_op(i)
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        try:
            t0 = perf_counter()
            raw, t_first = op.call()
            t1 = perf_counter()
        except OpTimeout:
            outcome, reason = "timeout", f"over the {OP_CAP_S:g} s per-op cap"
        except Exception as err:  # a failed op is counted; the run goes on
            outcome, reason = type(err).__name__, f"{type(err).__name__}: {err}"[:300]
        else:
            outcome = reason = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        completed = outcome is None
        if completed and timed:
            p.samples[i].extend(((t1 - t0) * 1e3, ((t_first or t1) - t0) * 1e3, len(p.kernel_ms)))
            p.kernel_ms.append(reference_ms())
        if completed:
            # the oracle is cheap next to the op, so it is asked every time
            # instead of keeping every expected output in memory
            outcome = workloads.canon(op.spec, raw)
            if outcome != workloads.expected(op.spec):
                reason = "output differs from the oracle"
        if reason is not None:
            p.failures.append((i, op.spec.kind, reason))
        if not timed:
            continue
        if p.passes == 0:
            p.outcomes.append(workloads.digest(outcome) if completed else outcome)
        if reason is not None:
            p.correct[i] = False
        if completed:
            p.results[i] = workloads.result_count(op.spec, raw)


def percentile(sorted_xs: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, -(-len(sorted_xs) * q // 100) - 1)
    return sorted_xs[int(k)]


def measure_setup(workload: str) -> tuple:
    """Seconds from starting an interpreter to the workload being ready to
    run: `import nfmatch` plus its matchers, clauses and evaluator. Returns
    the wall-clock times and the times scaled to reference speed, with the
    reference kernel timed just before each start."""
    times, scaled = [], []
    for _ in range(SETUP_REPS):
        ref = statistics.median(reference_ms() for _ in range(5))
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            stdout=subprocess.PIPE, text=True,
        ) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - t0
            child.stdout.read()
        if line.strip() != "ready" or child.returncode:
            sys.exit(f"perfbench: set-up probe for {workload} failed (exit {child.returncode})")
        times.append(elapsed)
        scaled.append(elapsed * REF_MS / ref)
    return times, scaled


def max_rss_mb() -> float:
    """The largest RSS this process has had so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_revision() -> str:
    """The commit checked out, or 'unknown' outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            # never report the revision of a repository that merely encloses ROOT
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return "unknown (no git)"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.blake2b(digest_size=12)
    for path in sorted((workloads.SRC / "nfmatch").rglob("*.py")):
        h.update(path.relative_to(workloads.SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int, traced: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "serial": True,
        "clients": 1,
        "loop": "closed",
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "loadavg_start": os.getloadavg(),
    }


def timing_metrics(p: Passes, scaled: bool) -> dict:
    lat = sorted(t for t in p.op_ms(scaled) if t is not None)
    ops_s, res_s = p.rates(scaled)
    return {
        "ops_per_s": ops_s,
        "results_per_s": res_s,
        "op_p50_ms": percentile(lat, 50),
        "op_p99_ms": percentile(lat, 99),
        "first_result_p50_ms": statistics.median(
            t for t in p.op_ms(scaled, first=True) if t is not None),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    workloads.ensure_src()
    env = environment(workload, seed, trace)
    setup_wall, setup = measure_setup(workload) if not trace else ([], [])
    kit = workloads.prepare(workload)
    ops = [Op(s, workloads.bind(s, kit)) for s in workloads.make_specs(workload, seed)]
    lines = []
    record = {"environment": env, "ops_per_pass": len(ops)}
    if trace:
        base = run_passes(ops, seconds / 2)
        before = bindings()
        tracer = Tracer()
        tracer.install(kit.nf)
        try:
            traced = run_passes(ops, seconds / 2, tracer, warmup=0)
        finally:
            tracer.restore()
        left = left_wrapped(before)
        same = base.outcomes == traced.outcomes
        recorded = tracer.metrics(traced.passes)
        absent = [n for n in PER_LAYER if n not in recorded]
        # the result line names every per-layer metric; a layer that recorded
        # nothing in this workload is 0 there
        metrics = {n: recorded.get(n, 0.0) for n in PER_LAYER}
        metrics["trace.overhead"] = traced.rates()[0] / base.rates()[0]
        lang_spans = sorted(n for n in tracer.span_names() if n.startswith("lang."))
        attempted = base.attempted + traced.attempted
        failures = base.failures + traced.failures
        correct = not failures and same and not left
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{workload}-seed{seed}.spans.jsonl"
        tracer.write_spans(spans_path)
        lines.append(f"traced passes {traced.passes}, untraced passes {base.passes}, "
                     f"{len(ops)} ops each")
        lines.append(f"traced outputs identical to untraced: {'yes' if same else 'NO'}")
        lines.append(f"attributes of nfmatch changed or wrapped after the run: "
                     f"{', '.join(left) or 'none'}")
        lines.append(f"spans recorded {len(tracer.spans)}, not kept {tracer.dropped} "
                     f"(written to {spans_path.relative_to(ROOT)})")
        lines.append(f"lang spans: {', '.join(lang_spans) or 'absent'}")
        for name, value in metrics.items():
            shown = "absent" if name in absent else f"{value:.6g}"
            lines.append(f"{name:32s} {shown:>14s} {per_layer_unit(name)}")
        units = {n: per_layer_unit(n) for n in metrics}
        record.update(identical=same, left_wrapped=left, absent=absent, lang_spans=lang_spans,
                      spans_recorded=len(tracer.spans), spans_dropped=tracer.dropped)
    else:
        rss_ready = max_rss_mb()
        p = run_passes(ops, seconds)
        peak_rss = max_rss_mb()  # before the metrics below add their own lists
        n = sum(1 for calls in p.samples if calls)
        if not n:
            sys.exit(f"perfbench: no op of {workload} completed; first failure: {p.failures[0]}")
        metrics = timing_metrics(p, scaled=True)
        metrics["peak_rss_mb"] = peak_rss
        metrics["setup_s"] = statistics.median(setup)
        wall = timing_metrics(p, scaled=False)
        wall["setup_s"] = statistics.median(setup_wall)
        attempted, failures = p.attempted, p.failures
        correct = not failures
        beyond = n - int(max(0, -(-n * 99 // 100) - 1)) - 1
        per_op = f"each op's median of {p.passes} passes, scaled"
        samples = {
            "ops_per_s": f"{n} ops, {per_op}",
            "results_per_s": f"{n} ops, {per_op}",
            "op_p50_ms": f"n={n}, {per_op}",
            "op_p99_ms": f"n={n}, {beyond} beyond, {per_op}",
            "first_result_p50_ms": f"n={n}, {per_op}",
            "peak_rss_mb": "workload process",
            "setup_s": f"median of {len(setup)}, scaled",
        }
        ops_rss = metrics["peak_rss_mb"] - rss_ready
        lines.append(f"{p.passes} timed passes of {len(ops)} ops, "
                     f"after {min(WARMUP_OPS, len(ops))} warm-up ops")
        lines.append(f"peak RSS {metrics['peak_rss_mb']:.1f} MiB: {rss_ready:.1f} MiB when ready "
                     f"to run (interpreter, nfmatch, inputs), {ops_rss:.1f} MiB added by the ops")
        for name, value in metrics.items():
            lines.append(f"{name:22s} {value:14.6g} {END_TO_END_UNITS[name]:10s} ({samples[name]})")
        lines.append("wall clock, unscaled: " + ", ".join(
            f"{name} {value:.6g}" for name, value in wall.items()))
        ref_ms = statistics.median(p.kernel_ms)
        lines.append(f"reference kernel: median {ref_ms:.4g} ms (REF_MS {REF_MS:g})")
        if beyond < 10:
            lines.append(f"warning: only {beyond} samples beyond p99; the op list is too short")
        units = END_TO_END_UNITS
        record.update(samples=samples, wall_clock=wall, setup_runs_s=setup_wall,
                      setup_runs_scaled_s=setup, passes=p.passes,
                      rss_ready_mb=rss_ready, rss_added_by_ops_mb=ops_rss)
    env["loadavg_end"] = os.getloadavg()
    fail_ratio = len(failures) / attempted
    header = (f"workload {workload}  seed {seed}  {'traced' if trace else 'untraced'}  serial, "
              f"1 client, closed loop  {env['python']}  cpus {env['cpu_count']}  "
              f"rev {env['git_revision'][:12]}  load {env['loadavg_start'][0]:.2f} -> "
              f"{env['loadavg_end'][0]:.2f}")
    print(header)
    print(f"fail_ratio {fail_ratio:.6g} ({len(failures)} failed / {attempted} attempted)")
    for i, kind, reason in failures[:5]:
        print(f"  failed op {i} ({kind}): {reason}")
    for line in lines:
        print(line)
    record.update(attempted=attempted, failed=len(failures), fail_ratio=fail_ratio,
                  failures=failures[:50], metrics=metrics, units=units)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload and probe in turn, each in its own process."""
    summary = {}
    for workload in workloads.WORKLOADS + workloads.PROBES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout + "\n")
        if done.returncode:
            print(f"perfbench: workload {workload} exited with {done.returncode}")
            return done.returncode
        summary[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + workloads.PROBES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
