"""fsmwm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  One process, one client, closed loop: each CLI call waits for
the previous one.  Inputs are generated from ``--seed`` into a temporary
directory inside the checkout, removed on exit.

Set-up (fresh import of the library, input generation, one warm-up
operation) is repeated SETUP_REPEATS times and reported as its median.

The end-to-end run (``--trace 0``) draws one operation set from the seed
(``workload.ROUNDS`` rounds, see ``workloads``) and replays it, pass after
pass and each pass in a new order, until ``--seconds`` have passed (at
least one whole pass).  Each timed call's latency is the median of its
runs, and an operation's latency is the sum over its calls.  A shared
host can change speed in phases of a few seconds (by up to about 1.6x on
a 2-vCPU KVM guest), so an operation timed once reads the phase it fell
in; the median of its runs, spread over the whole run, much less so.
Every run of an operation checks its outputs.

With ``--trace 1`` each round runs twice, first untraced and then with
every library function wrapped (see ``tracer``), and the run reports
per-layer values per traced operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
stamp the environment and summarise the run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing                                    # noqa: E402
from workloads import WORKLOADS, Cli                        # noqa: E402

SETUP_REPEATS = 9


class Tally:
    """Per-operation results of a run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0

    def op(self, workload, cli, spec) -> tuple[list[float], int]:
        """Run and check one operation; returns the seconds of each of its
        timed calls and the bytes it wrote."""
        cli.parts = []
        try:
            problems, size = workload.op(cli, spec)
        except Exception:                       # a crash is a failed operation
            problems, size = [traceback.format_exc(limit=3)], 0
        self.latencies.append(cli.elapsed)
        if problems:
            self.failed += 1
            print(f"FAILED {spec!r}: {problems[:3]}", file=sys.stderr)
        return cli.parts, size

    def run(self, workload, cli, rounds, seconds):
        """Run rounds until ``seconds`` have passed (checked between
        rounds); returns the wall seconds taken."""
        t0 = time.perf_counter()
        for specs in rounds:
            for spec in specs:
                self.op(workload, cli, spec)
            if time.perf_counter() - t0 >= seconds:
                break
        return time.perf_counter() - t0

    def replay(self, workload, cli, specs, seconds, rng):
        """Replay ``specs`` in a new order each pass until ``seconds`` have
        passed, finishing at least one whole pass; the last pass may stop
        part-way.  Returns, for each entry of ``specs``, its latency: the
        sum over its timed calls of each call's median run (an operation
        listed twice runs twice per pass), and the bytes it wrote.  Also
        returns the number of passes begun."""
        runs, size = {}, {}
        order = list(specs)
        t0, passes = time.perf_counter(), 0
        while passes == 0 or time.perf_counter() - t0 < seconds:
            rng.shuffle(order)
            passes += 1
            for spec in order:
                parts, size[spec] = self.op(workload, cli, spec)
                calls = runs.setdefault(spec, [[] for _ in parts])
                if len(calls) == len(parts):    # else a run failed part-way
                    for samples, dt in zip(calls, parts):
                        samples.append(dt)
                if passes > 1 and time.perf_counter() - t0 >= seconds:
                    break
        latency = {spec: sum(statistics.median(samples) for samples in calls)
                   for spec, calls in runs.items()}
        return [latency[spec] for spec in specs], [size[spec] for spec in specs], passes


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def fresh_import():
    for name in [n for n in sys.modules if n == "fsmwm" or n.startswith("fsmwm.")]:
        del sys.modules[name]
    importlib.import_module("fsmwm.cli")


def setup(workload_cls, seed, workroot):
    """Import the library afresh, generate the inputs into a new
    directory and run one warm-up operation; returns (seconds, workload,
    cli, warm-up problems)."""
    t0 = time.perf_counter()
    fresh_import()
    workload = workload_cls()
    cli = Cli(tempfile.mkdtemp(dir=workroot))
    workload.prepare(random.Random(seed), cli)
    problems, _ = workload.op(cli, workload.warmup())
    return time.perf_counter() - t0, workload, cli, problems


def rounds_from(workload, seed):
    rng = random.Random(f"rounds-{seed}")
    while True:
        yield workload.round(rng)


def operation_set(workload, seed):
    """The operations one end-to-end run replays: the first
    ``workload.ROUNDS`` rounds of the seed."""
    rounds = rounds_from(workload, seed)
    return [spec for _ in range(workload.ROUNDS) for spec in next(rounds)]


def end_to_end(tally, latency, sizes, setups):
    ms = [x * 1e3 for x in latency]
    completed = 1 - tally.failed / len(tally.latencies)
    return {
        "setup_s": (statistics.median(setups), "s"),
        # One client in a closed loop: operations per second of their
        # latency, less the share that failed.
        "ops_per_s": (completed * len(latency) / sum(latency), "1/s"),
        "latency_p50_ms": (percentile(ms, 0.5), "ms"),
        "latency_p90_ms": (percentile(ms, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "artifact_kb": (statistics.fmean(sizes) / 1024, "kB"),
    }


def per_layer(tr, tally, wall_traced, wall_ref):
    ops = len(tally.latencies)
    glue = wall_traced - sum(tally.latencies)
    layers = {name: tr.self_s.get(name, 0.0) for name in tracing.TIMES}
    out = {name: (s / ops, "s/op") for name, s in layers.items()}
    out.update({name: (tr.counts.get(name, 0) / ops, "1/op") for name in tracing.COUNTS})
    found, attempts = tr.counts["decompose.sp_found"], tr.counts["decompose.sp_attempts"]
    frames, drive = tr.counts["scanchain.frames"], layers["scanchain.drive_s"]
    out.update({
        "decompose.sp_yield": (found / attempts if attempts else 0.0, "ratio"),
        "scanchain.frames_per_s": (frames / drive if drive else 0.0, "1/s"),
        tracing.GLUE: (glue / ops, "s/op"),
        "trace.wall_s": (wall_traced / ops, "s/op"),
        "trace.overhead_ratio": (wall_traced / wall_ref, "ratio"),
        "trace.accounted_ratio": ((sum(layers.values()) + glue) / wall_traced, "ratio"),
    })
    return out


def git_sha():
    """HEAD commit read from the checkout's .git directory, if any."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fsmwm", "cli.py")):
        print(f"perfbench: no fsmwm sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    workload_cls = WORKLOADS[args.workload]
    # A terminated run still removes its inputs (via the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workroot = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, workload, cli, warm_problems = setup(workload_cls, args.seed, workroot)
            setups.append(seconds)
        if warm_problems:
            print(f"FAILED warm-up: {warm_problems[:3]}", file=sys.stderr)
        cli.by_command.clear()
        rounds = rounds_from(workload, args.seed)
        passes = [Tally()]
        if args.trace:
            passes.append(Tally())
            tr = tracing.Tracer()
            wall_ref = wall = 0.0
            t0 = time.perf_counter()
            for specs in rounds:
                # Each round runs untraced, then traced: both sides of the
                # overhead ratio see the same work and the same machine state.
                wall_ref += passes[0].run(workload, cli, [specs], math.inf)
                tr.install()
                try:
                    wall += passes[1].run(workload, cli, [specs], math.inf)
                finally:
                    tr.uninstall()
                if time.perf_counter() - t0 >= args.seconds:
                    break
            metrics = per_layer(tr, passes[1], wall, wall_ref)
        else:
            specs = operation_set(workload, args.seed)
            latency, sizes, n_passes = passes[0].replay(
                workload, cli, specs, args.seconds, random.Random(f"order-{args.seed}"))
            metrics = end_to_end(passes[0], latency, sizes, setups)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    attempted = 1 + sum(len(t.latencies) for t in passes)
    failed = bool(warm_problems) + sum(t.failed for t in passes)
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }
    print("env " + json.dumps(env, sort_keys=True))
    per_cmd = ", ".join(
        f"{cmd} p50 {statistics.median(ts) * 1e3:.3f} ms (n={len(ts)})"
        for cmd, ts in sorted(cli.by_command.items()))
    samples = (f"{len(passes[-1].latencies)} traced operations" if args.trace else
               f"{len(specs)} operations, each the median of up to {n_passes} passes")
    print(f"{args.workload}: {attempted} ops attempted (1 warm-up), {failed} failed, "
          f"fail_ratio {failed / attempted:.4f}; latency samples: {samples}; "
          f"calls since set-up: {per_cmd}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
