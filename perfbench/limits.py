"""Reproduce the input ranges the timed workloads leave out.

    python3 perfbench/limits.py > perfbench/limits.json

Run from the root of a source checkout.  Each entry names a limit of the
library, the input that shows it, and what this script measured; a search
that does not end is stopped by a timer and reported as such.  A change
that lifts a limit should extend the workloads to the range it opens.
"""

from __future__ import annotations

import io
import json
import os
import platform
import random
import signal
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gen                                                  # noqa: E402
from fsmwm import cli, machine, reduction                   # noqa: E402
from fsmwm.decompose import enumerate_sp_partitions         # noqa: E402
from fsmwm.errors import HashCollisionError                 # noqa: E402
from fsmwm.verify import FsmOracle, informed_attack         # noqa: E402


class Stopped(Exception):
    pass


def bounded(seconds, fn, *args):
    """(result or exception name, elapsed seconds); stopped after
    ``seconds`` by an interval timer."""
    def stop(signum, frame):
        raise Stopped

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Stopped:
        result = f"not finished after {seconds} s"
    except Exception as e:                  # the limit is the exception
        result = type(e).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return result, round(time.perf_counter() - t0, 3)


def emit_fixed(path):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        return cli.main(["emit-package", path, "--mode", "fixed", "-n", "4", "-k", "2",
                         "--out-package", os.devnull, "--out-secret", os.devnull])


def chain_recursion(tmp):
    rows = []
    for n in (768, 1000):
        path = os.path.join(tmp, f"chain{n}.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(gen.dump(gen.chain_host(random.Random(n), n)))
        result, s = bounded(60, emit_fixed, path)
        rows.append({"states": n, "result": result, "seconds": s})
        os.remove(path)
    return {
        "limit": "longest_simple_path recurses once per path vertex: a chain host "
                 "near 1,000 states raises RecursionError out of emit-package",
        "reproduction": "emit-package --mode fixed -n 4 -k 2 on gen.chain_host(n)",
        "measured": rows,
    }


def random_path_search():
    rng = random.Random(64)
    doc = gen.machine_doc(range(64), "012", "ab", 0, {
        (s, a): (rng.randrange(64), rng.choice("ab")) for s in range(64) for a in "012"})
    g = machine.connectivity_graph(machine.fsm_from_doc(doc))
    result, s = bounded(20, lambda: len(reduction.longest_simple_path(g)))
    return {
        "limit": "longest_simple_path is exponential when no path covers every "
                 "state: random 64-state hosts are left out",
        "reproduction": "longest_simple_path on a random 64-state, 3-input machine "
                        "(random.Random(64))",
        "measured": [{"states": 64, "result": result, "seconds": s}],
    }


def branch_width():
    rows = []
    for n, k in ((24, 4), (24, 5), (32, 2), (32, 3), (32, 6), (48, 1), (48, 2)):
        try:
            z = reduction.find_branch_width(n, k)
        except HashCollisionError:
            z = "HashCollisionError"
        rows.append({"n": n, "k": k, "z": z})
    return {
        "limit": "find_branch_width finds no width <= 24 for n = 32 with k >= 3, "
                 "nor for any k at n >= 48 (and misses (24, 5), (24, 6)); the "
                 "workloads keep n <= 24",
        "reproduction": "find_branch_width(n, k)",
        "measured": rows,
    }


def optimal_pairs():
    host = machine.fsm_from_doc(gen.host8())
    g = machine.connectivity_graph(host)
    rows = []
    for n, k in ((2, 5), (1, 10)):
        redux = reduction.lpr_k(g, reduction.LprkSpec(n, k, reduction.find_branch_width(n, k)))
        t0 = time.perf_counter()
        parts = enumerate_sp_partitions(redux, 12)
        enum_s = round(time.perf_counter() - t0, 3)
        states = len(redux.states)
        candidates = sum(1 for p in parts if 1 < len(p) < states)
        rows.append({"n": n, "k": k, "states": states, "sp_partitions": len(parts),
                     "enumeration_seconds": enum_s, "candidate_pairs": candidates ** 2})
    return {
        "limit": "optimal mode checks every ordered pair of nontrivial SP "
                 "partitions: (2,5) and (1,10) pass the cap=12 but their pair "
                 "search is left out",
        "reproduction": "enumerate_sp_partitions on the host8 reduction; pairs = "
                        "candidates**2 (the pair search itself is not run)",
        "measured": rows,
    }


def kiss2_validation():
    rows = []
    for ni in (8, 9, 10, 11, 12, 13):
        text = gen.kiss2_host(random.Random(ni), ni, 4)
        result, s = bounded(60, lambda: len(machine.parse_kiss2(text).transitions))
        rows.append({"i": ni, "transitions": result, "seconds": s})
    return {
        "limit": "Fsm validation looks input symbols up in a tuple, so KISS2 "
                 "parsing is quadratic in 2**i: .i >= 10 is left out",
        "reproduction": "parse_kiss2 on gen.kiss2_host(.i, 4 states)",
        "measured": rows,
    }


def attack_cycle():
    doc = gen.machine_doc(range(3), "01", "ab", 0, {
        (0, "0"): (1, "a"), (0, "1"): (1, "a"),
        (1, "0"): (2, "a"), (2, "0"): (1, "b")})
    oracle = FsmOracle(machine.fsm_from_doc(doc), 1)
    result, s = bounded(2, lambda: len(informed_attack(oracle, 1).states))
    return {
        "limit": "informed_attack stops only when a tick stream repeats its last "
                 "output or halts: it ends on branch-select watermarks but not on "
                 "a tick stream of period 2",
        "reproduction": "informed_attack on a 3-state machine whose ticks "
                        "alternate a, b",
        "measured": [{"result": result, "seconds": s}],
    }


def main():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=os.path.dirname(HERE)) as tmp:
        limits = [chain_recursion(tmp), random_path_search(), branch_width(),
                  optimal_pairs(), kiss2_validation(), attack_cycle()]
    print(json.dumps({"python": platform.python_version(), "machine": platform.machine(),
                      "nproc": os.cpu_count(), "limits": limits}, indent=2))


if __name__ == "__main__":
    main()
