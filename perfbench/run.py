"""qeuler benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload {schubert,generic,orbits,cli} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run times whole rounds of seeded operations until
S seconds of operation time have passed and at least MIN_OPS operations
ran, checks every answer outside the timed region, and reports the
end-to-end metrics.  Every time in them is corrected for the machine's
speed (see speed.py); the raw wall-clock figures go to the record.  With
``--trace 1`` it runs each input of the workload's fixed trace rounds
twice in a row, plain and with layer wrappers installed, alternating which
goes first, and reports the per-layer metrics plus the tracing overhead;
the work is fixed so counts repeat exactly for a seed, and S is not used.

The report goes to stdout; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (seed, commit, Python, nproc, operation counts, input mix) is printed
above it and written to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, cli_env, cli_in_process, run_cli_subprocess  # noqa: E402

MIN_OPS = 100  # so at least 10 samples lie above the 90th percentile
TRACE_ROUNDS = 1  # fixed work per traced run, so its counts repeat exactly
SHOWN_FAILURES = 3

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
RUN_METRICS = {
    "cli.main.busy_s": "s",
    "cli.process_s": "s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def ops_per_s(seconds, latencies):
    """Verified operations per second of operation time."""
    return sum(math.isfinite(x) for x in latencies) / sum(seconds)


class Loop:
    """Wall times and outcomes of one closed loop, split into rounds.

    With a speed ``kernel``, the kernel is timed at the start and again
    whenever CALIBRATE_EVERY_S of operation time has passed, so each
    operation's time can be corrected with the kernel samples on either
    side of it.  A failed operation's latency counts as infinite, so it
    misses every latency limit.
    """

    def __init__(self, kernel=None):
        self.wall = []
        self.ok = []
        self.kinds = []
        self.round_starts = [0]
        self.kernel = kernel
        # (operations recorded before the sample, kernel seconds)
        self.marks = [(0, kernel.seconds())] if kernel else []
        self._since_mark = 0.0

    @property
    def attempted(self):
        return len(self.wall)

    @property
    def failed(self):
        return self.ok.count(False)

    @property
    def timed_s(self):
        return sum(self.wall)

    def record(self, kind, seconds, ok):
        self.kinds.append(kind)
        self.wall.append(seconds)
        self.ok.append(ok)
        self._since_mark += seconds
        if self.kernel and self._since_mark >= speed.CALIBRATE_EVERY_S:
            self.mark()

    def mark(self):
        if self.marks[-1][0] < self.attempted:
            self.marks.append((self.attempted, self.kernel.seconds()))
        self._since_mark = 0.0

    def end_round(self):
        self.round_starts.append(self.attempted)

    def seconds(self, corrected):
        """Per-operation times, at the reference speed or as measured."""
        if not corrected:
            return list(self.wall)
        self.mark()
        out = []
        for (a, before), (b, after) in zip(self.marks, self.marks[1:]):
            out.extend(speed.corrected(s, before, after, self.kernel)
                       for s in self.wall[a:b])
        return out

    def metrics(self, corrected):
        """ops_per_s and the latency percentiles.  Every round holds the
        same mix, so per-round throughputs are comparable; ``ops_per_s`` is
        their median, which shrugs off a round slowed by other work."""
        seconds = self.seconds(corrected)
        latencies = [s if ok else math.inf for s, ok in zip(seconds, self.ok)]
        bounds = zip(self.round_starts, self.round_starts[1:])
        return {
            "ops_per_s": statistics.median(
                ops_per_s(seconds[a:b], latencies[a:b]) for a, b in bounds),
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": percentile(latencies, 90),
        }

    def rate(self):
        """Verified operations per second of wall time, over all of them."""
        return ops_per_s(self.wall, [s if ok else math.inf
                                     for s, ok in zip(self.wall, self.ok)])

    def mix(self):
        return dict(sorted(Counter(self.kinds).items()))

    def kind_medians(self):
        by_kind = {}
        for kind, seconds in zip(self.kinds, self.seconds(bool(self.kernel))):
            by_kind.setdefault(kind, []).append(seconds)
        return {k: statistics.median(v) for k, v in sorted(by_kind.items())}


# -- operations ------------------------------------------------------------

_failures_shown = 0


def _show_failure(inp, message):
    global _failures_shown
    if _failures_shown < SHOWN_FAILURES:
        print(f"FAILED {inp!r}: {message}", file=sys.stderr)
        _failures_shown += 1


def in_process_op(workload, inp, tracer=None):
    """(seconds, ok) of one timed ``workload.run`` plus its untimed check."""
    seconds = 0.0
    try:
        args = workload.prepare(inp)
        start = perf_counter()
        try:
            with tracer.installed() if tracer else nullcontext():
                result = workload.run(args)
        finally:
            seconds = perf_counter() - start
        ok = bool(workload.check(inp, args, result))
    except Exception:
        _show_failure(inp, traceback.format_exc())
        return seconds, False
    if not ok:
        _show_failure(inp, "wrong answer")
    return seconds, ok


class CliReference:
    """Expected stdout per argv: the golden file, else the same call made
    in-process through qeuler.cli.main (computed once per argv)."""

    def __init__(self, workload):
        self.workload = workload
        self.cache = {}

    def matches(self, argv, code, stdout):
        if argv not in self.cache:
            golden = self.workload.golden(argv)
            if golden is None:
                try:
                    ref_code, golden = cli_in_process(argv)
                except Exception:
                    _show_failure(argv, traceback.format_exc())
                    ref_code = None
                if ref_code != 0:
                    golden = None
            self.cache[argv] = golden
        expected = self.cache[argv]
        ok = code == 0 and expected is not None and stdout == expected
        if not ok:
            _show_failure(argv, f"exit code {code}, stdout differs from reference")
        return ok


def cli_op(reference, inp):
    argv = inp[1]
    start = perf_counter()
    try:
        code, stdout = run_cli_subprocess(argv)
    except (OSError, subprocess.SubprocessError):
        _show_failure(argv, traceback.format_exc())
        return perf_counter() - start, False
    seconds = perf_counter() - start
    return seconds, reference.matches(argv, code, stdout)


def probe(*args):
    """Run perfbench/child.py in a fresh interpreter; (wall seconds, JSON)."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args!r} failed:\n{proc.stderr}")
    return wall, json.loads(proc.stdout.splitlines()[-1])


# -- runs ----------------------------------------------------------------------

def setup_sample(workload):
    """(corrected, wall) seconds of one set-up in a fresh interpreter:
    ``import qeuler`` plus the warm-up pass as timed inside the probe, or
    for ``cli`` the whole interpreter running ``import qeuler.cli``,
    corrected with the interpreter-start kernel taken around it."""
    if workload.name != "cli":
        out = probe("setup", workload.name)[1]
        return out["setup_s"], out["wall_s"]
    before = speed.START.seconds()
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import qeuler.cli"], cwd=ROOT,
                   env=cli_env(), check=True, timeout=60, capture_output=True)
    wall = perf_counter() - start
    return speed.corrected(wall, before, speed.START.seconds(), speed.START), wall


def measured_run(workload, seed, seconds):
    """Untraced closed loop over whole rounds; end-to-end metrics.

    The latency percentiles are over all operations of the run.  An
    in-process workload first sets up in the measured process, untimed, so
    its caches are warm; ``setup_s`` comes from fresh interpreters.
    """
    if workload.name == "cli":
        reference = CliReference(workload)
        kernel = speed.START

        def op(inp):
            return cli_op(reference, inp)
    else:
        importlib.import_module("qeuler")
        workload.warmup()
        kernel = speed.PYTHON

        def op(inp):
            return in_process_op(workload, inp)

    loop = Loop(kernel)
    index = 0
    while loop.timed_s < seconds or loop.attempted < MIN_OPS:
        for inp in workload.round(seed, index):
            loop.record(workload.kind(inp), *op(inp))
        loop.end_round()
        index += 1
    loop.mark()

    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setups = [setup_sample(workload) for _ in range(workload.setup_samples)]
    metrics = {**loop.metrics(corrected=True),
               "setup_s": statistics.median(s[0] for s in setups),
               "peak_rss_mb": peak_rss_mb}
    wall = {**loop.metrics(corrected=False),
            "setup_s": statistics.median(s[1] for s in setups)}
    samples = [m[1] for m in loop.marks]
    record = {"rounds": len(loop.round_starts) - 1, "timed_s": loop.timed_s,
              "wall_clock": wall, "setup_samples_s": [s[0] for s in setups],
              "kernel_samples": len(samples),
              "kernel_median_s": statistics.median(samples),
              "reference_kernel_s": kernel.reference_s,
              "mix": loop.mix(), "kind_p50_s": loop.kind_medians()}
    return loop, metrics, END_TO_END, record


def traced_run(workload, seed):
    """Each input of the fixed trace rounds twice in a row, plain and
    traced, alternating which goes first, so drift in the machine's speed
    falls on both sides alike; per-layer metrics."""
    inputs = [inp for r in range(TRACE_ROUNDS) for inp in workload.round(seed, r)]
    plain, traced, tracer = Loop(), Loop(), Tracer()
    cli_times = {"cli.main.busy_s": 0.0, "cli.process_s": 0.0}
    if workload.name == "cli":
        raw = Counter()
        reference = CliReference(workload)

        def plain_op(inp):
            wall, out = probe("cli", *inp[1])
            cli_times["cli.main.busy_s"] += out["main_s"]
            cli_times["cli.process_s"] += wall - out["main_s"]
            return wall, reference.matches(inp[1], out["code"], out["stdout"])

        def traced_op(index, inp):
            wall, out = probe("cli", "--trace", *inp[1])
            raw.update(out["trace"])
            tracer.spans.extend([index, *span[1:]] for span in out["spans"])
            return wall, reference.matches(inp[1], out["code"], out["stdout"])
    else:
        importlib.import_module("qeuler")
        with tracer.installed():
            workload.warmup()

        def plain_op(inp):
            return in_process_op(workload, inp)

        def traced_op(index, inp):
            tracer.request = index
            return in_process_op(workload, inp, tracer)

    for index, inp in enumerate(inputs, start=1):
        kind = workload.kind(inp)
        if index % 2:
            plain.record(kind, *plain_op(inp))
            traced.record(kind, *traced_op(index, inp))
        else:
            traced.record(kind, *traced_op(index, inp))
            plain.record(kind, *plain_op(inp))
    if workload.name != "cli":
        raw = tracer.summary()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)

    metrics = layer_metrics(raw)
    metrics.update(cli_times)
    untraced_rate, traced_rate = plain.rate(), traced.rate()
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead_ratio"] = untraced_rate / traced_rate if traced_rate else 0.0
    loop = Loop()
    loop.wall = plain.wall + traced.wall
    loop.ok = plain.ok + traced.ok
    record = {"rounds": TRACE_ROUNDS, "traced_ops": traced.attempted,
              "untraced_timed_s": plain.timed_s, "traced_timed_s": traced.timed_s,
              "spans_file": str(spans_path.relative_to(ROOT)),
              "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped_spans,
              "mix": traced.mix()}
    return loop, metrics, {**LAYER_METRICS, **RUN_METRICS}, record


# -- record ---------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _number(value, unit):
    if unit == "count":
        return int(value)
    return None if math.isinf(value) else value


def main(argv=None):
    parser = argparse.ArgumentParser(description="qeuler benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qeuler" / "__init__.py").is_file():
        print(f"no qeuler sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]

    wall_start = perf_counter()
    if args.trace:
        loop, metrics, units, record = traced_run(workload, args.seed)
    else:
        loop, metrics, units, record = measured_run(workload, args.seed, args.seconds)
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "ops": loop.attempted, "failed": loop.failed,
        "error_rate": loop.failed / loop.attempted,
        "wall_s": perf_counter() - wall_start, **record,
    }
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": _number(metrics[name], unit), "unit": unit}
                    for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n")

    print(f"qeuler benchmark: workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}")
    print(f"  why: {workload.why}")
    for name, entry in result["metrics"].items():
        print(f"  {name:34s} {entry['value']!s:>22} {entry['unit']}")
    print(f"  {'error_rate':34s} {record['error_rate']:>22} "
          f"({loop.failed} of {loop.attempted} operations)")
    if not args.trace:
        above = sum(1 for x in loop.seconds(True) if x > metrics["latency_p90_s"])
        print(f"  percentiles over {loop.attempted} operations in "
              f"{record['rounds']} rounds; {above} lie above the 90th")
    print("record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
