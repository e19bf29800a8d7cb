"""liecoh benchmark: whole CLI commands on seeded inputs, timed in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each op is one `liecoh` command run
through `liecoh.cli.main(argv)` on an algebra file generated from the
seed, with stdout captured and the exit status recorded.  Ops run in
whole rounds (the workload's op mix) until the rounds have taken S
seconds; each round's input files are written between rounds.  Outputs
are checked against independent oracles after the timed phase.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one warm-up
round, then ops untraced for S/2 seconds, then the same number of rounds
on twin inputs with the layer tracer installed, and prints the per-layer
metrics; each is per op unless its unit says otherwise.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The line before it holds, for each
input stream the run used, the sha256 of all CLI stdout of that stream's
ops, with checkpoints after 1, 2, 4, ... ops, so runs with the same seed
can be compared for byte-identical output.
"""

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import speed
from speed import SpeedMeter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 5
# Peak memory is read once this many ops have run, so that it does not grow
# with the number of ops a faster program fits into the run (rees-verify's
# word-span cache grows with every op).
RSS_OPS = 4


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare(args, stream="main"):
    """Set-up as timed by `setup_s`: import the program, write the first inputs."""
    import liecoh.cli  # noqa: F401
    import inputs

    return inputs.Feed(args.workload, args.seed, stream)


def probe(args):
    """Child process of a set-up sample: prepare, then report readiness."""
    os.makedirs(args.probe)
    os.chdir(args.probe)
    prepare(args)
    print("ready", flush=True)
    return 0


def setup_seconds(args):
    """Median over fresh processes of spawn-to-ready time, at reference speed."""
    samples = []
    raw = []
    for k in range(SETUP_PROBES):
        directory = os.path.abspath(f"probe{k}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe", directory]
        before = speed.probe_seconds()
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit status {code}")
        raw.append(ready - start)
        samples.append(raw[-1] * speed.REFERENCE * 2 / (before + speed.probe_seconds()))
        shutil.rmtree(directory, ignore_errors=True)
    print(f"raw wall: setup_s={statistics.median(raw)}", file=sys.stderr)
    return statistics.median(samples)


def run_one(cli, argv):
    """(exit status, stdout, start, end) of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:          # argparse rejecting argv
            code = exc.code
        except Exception as exc:           # a crash is a failed op, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        end = perf_counter()
    return code, out.getvalue(), start, end


class Digest:
    """sha256 of all CLI stdout of a run, with checkpoints after 1, 2, 4, ... ops."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.ops = 0
        self.after_ops = []

    def add(self, data):
        self._hash.update(data)
        self.ops += 1
        if self.ops & (self.ops - 1) == 0:
            self.after_ops.append([self.ops, self._hash.hexdigest()])

    def finish(self):
        if not self.after_ops or self.after_ops[-1][0] != self.ops:
            self.after_ops.append([self.ops, self._hash.hexdigest()])


class Phase:
    """Ops of one measured phase, with their statuses, summaries and stdout digest."""

    def __init__(self, stream):
        self.stream = stream
        self.digest = Digest()
        self.records = []       # (op, exit status, summary)
        self.spans = []         # (start, end) of each op
        self.round_spans = []   # (start, end) of each round; input writing falls between
        self.stdout_bytes = 0
        self.peak_rss_kib = None

    @property
    def latencies(self):
        return [end - start for start, end in self.spans]


def measure(cli, feed, seconds=float("inf"), rounds=None, tracer=None):
    """Run whole rounds until they have taken `seconds`, or `rounds` rounds."""
    import checks

    phase = Phase(feed.stream)
    busy = 0.0
    while busy < seconds and len(phase.round_spans) != rounds:
        ops = feed.next_round()
        round_start = perf_counter()
        for op in ops:
            if tracer:
                tracer.begin_op()
            code, stdout, start, end = run_one(cli, op.argv)
            data = stdout.encode()
            phase.digest.add(data)
            phase.stdout_bytes += len(data)
            phase.spans.append((start, end))
            phase.records.append((op, code, checks.summarize(op.kind, stdout)))
        round_end = perf_counter()
        phase.round_spans.append((round_start, round_end))
        busy += round_end - round_start
        if phase.peak_rss_kib is None and len(phase.spans) >= RSS_OPS:
            phase.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if phase.peak_rss_kib is None:
        phase.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    phase.digest.finish()
    return phase


def verify(phases):
    """(attempted, failed, first few failure messages) over all phases."""
    import checks

    orc = checks.Oracles()
    attempted = failed = 0
    messages = []
    for phase in phases:
        for op, code, summary in phase.records:
            attempted += 1
            try:
                problem = checks.check_op(op, code, summary, orc)
            except (KeyError, IndexError, TypeError) as exc:
                problem = f"malformed result ({type(exc).__name__}: {exc})"
            if problem:
                failed += 1
                if len(messages) < 5:
                    messages.append(f"{' '.join(op.argv)}: {problem}")
    return attempted, failed, messages


def src_lines():
    total = 0
    for folder, _, files in os.walk(os.path.join(SRC, "liecoh")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    total += sum(1 for _ in handle)
    return total


def p50(phase, latencies):
    """Mean over the mix's slots of each slot's median latency.

    Every kind of op in the mix counts once, whatever its share, and the
    figure does not jump between kinds with the parity of the op count,
    as the median of a mix of a cheap and a dear kind would.
    """
    by_slot = {}
    for (op, _, _), latency in zip(phase.records, latencies):
        by_slot.setdefault(op.slot, []).append(latency)
    return statistics.fmean(statistics.median(v) for v in by_slot.values())


def end_to_end(setup_s, phase, meter):
    """Op timings at reference interpreter speed (see speed.py); raw ones to stderr."""
    ops = len(phase.spans)
    latencies = [meter.scaled(start, end) for start, end in phase.spans]
    raw = sum(end - start for start, end in phase.round_spans)
    scaled = sum(meter.scaled(start, end) for start, end in phase.round_spans)
    print(f"raw wall: ops_per_s={ops / raw} "
          f"op_p50_ms={p50(phase, phase.latencies) * 1000} "
          f"speed samples={len(meter.durations)}", file=sys.stderr)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops / scaled, "1/s"),
        "op_p50_ms": (p50(phase, latencies) * 1000, "ms"),
        "peak_rss_mb": (phase.peak_rss_kib * 1024 / 1e6, "MB"),
    }


def per_layer(tracer, phase, untraced, cache_before, cache_after):
    """Per-op totals of the traced phase, plus the ratios and counts named in README.md."""
    import tracer as tracing

    ops = len(phase.spans)
    out = {}
    for modname, path, label, _, post in tracing.TARGETS:
        name = f"{modname}.{label or path}"
        stat = tracer.stats[name]
        out[f"{name}.calls"] = (stat.calls / ops, "1/op")
        out[f"{name}.self_s"] = (stat.self_s / ops, "s/op")
        if getattr(post, "counts_cells", False):
            out[f"{name}.cells"] = (stat.cells / ops, "cells/op")
    out["linalg.rref.max_bits"] = (tracer.stats["linalg.rref"].max_bits, "bits")
    qb = tracer.stats["linalg.quotient_basis"]
    rebuilds = tracer.rebuilds
    out["linalg.quotient_basis.chosen"] = (qb.extra["chosen"] / ops, "1/op")
    out["linalg.quotient_basis.rebuilds"] = (rebuilds / ops, "1/op")
    out["linalg.quotient_basis.useful_ratio"] = (_ratio(qb.extra["chosen"], rebuilds), "ratio")
    co = tracer.stats["cohomology.cohomology_of"]
    out["cohomology.cohomology_of.distinct"] = (tracer.distinct / ops, "1/op")
    out["cohomology.cohomology_of.useful_ratio"] = (_ratio(tracer.distinct, co.calls), "ratio")
    red = tracer.stats["pbw._reduce_into"]
    out["pbw._reduce_into.kept"] = (red.extra["kept"] / ops, "1/op")
    out["pbw._reduce_into.useful_ratio"] = (_ratio(red.extra["kept"], red.calls), "ratio")
    out["pbw._word_span.hits"] = ((cache_after.hits - cache_before.hits) / ops, "1/op")
    out["pbw._word_span.misses"] = ((cache_after.misses - cache_before.misses) / ops, "1/op")
    out["pbw._word_span.currsize"] = ((cache_after.currsize - cache_before.currsize) / ops,
                                      "entries/op")
    out["cli.main.stdout_bytes"] = (phase.stdout_bytes / ops, "B/op")
    out["trace_overhead"] = (sum(phase.latencies) / sum(untraced.latencies), "ratio")
    out["src_lines"] = (src_lines(), "lines")
    return out


def _ratio(useful, attempts):
    """useful / attempts, or 0 where the layer made no attempt."""
    return useful / attempts if attempts else 0.0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "liecoh", "cli.py")) or \
            not os.path.isfile(os.path.join(TESTS, "oracles.py")):
        print(f"error: {SRC}/liecoh or {TESTS}/oracles.py is missing; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, TESTS]
    if args.probe:
        return probe(args)
    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(inputs.WORKLOADS)}", file=sys.stderr)
        return 2
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        os.chdir(run_dir)   # inputs are written here and named relative to it
        return run(args)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args):
    if args.trace:
        phases, metrics = traced_run(args)
    else:
        phases, metrics = untraced_run(args)

    attempted, failed, messages = verify(phases)
    for message in messages:
        print(f"FAILED {message}", file=sys.stderr)
    streams = {phase.stream: {"ops": phase.digest.ops, "after_ops": phase.digest.after_ops}
               for phase in phases}
    print(json.dumps({"stdout_sha256": {"workload": args.workload, "seed": args.seed,
                                        "trace": args.trace, "streams": streams}},
                     sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def untraced_run(args):
    setup_s = setup_seconds(args)
    feed = prepare(args)
    from liecoh import cli

    gc.collect()  # so that set-up garbage is not collected during the first op
    with SpeedMeter() as meter:
        phase = measure(cli, feed, seconds=args.seconds)
    return [phase], end_to_end(setup_s, phase, meter)


def traced_run(args):
    import tracer as tracing

    feed = prepare(args)
    warmup = prepare(args, "warmup")
    twins = prepare(args, "twin")
    from liecoh import cli, pbw

    # The first round of a process runs slower; keep it out of trace_overhead.
    first = measure(cli, warmup, rounds=1)
    gc.collect()
    untraced = measure(cli, feed, seconds=args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    before = pbw._word_span.cache_info()
    traced = measure(cli, twins, rounds=len(untraced.round_spans), tracer=tracer)
    after = pbw._word_span.cache_info()
    return [first, untraced, traced], per_layer(tracer, traced, untraced, before, after)


if __name__ == "__main__":
    sys.exit(main())
