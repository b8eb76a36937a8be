"""Checks on the benchmark's own checker and tracer.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import fsmwm.cli                                            # noqa: E402,F401
import run                                                  # noqa: E402
import tracer                                               # noqa: E402
import workloads                                            # noqa: E402
from workloads import Cli, FixedProtocol, SerialScan        # noqa: E402


class CorruptingCli(Cli):
    """Flips one state id in the payload that decode-scan prints."""

    def call(self, *argv):
        code, out, err = super().call(*argv)
        if argv[0] == "decode-scan":
            lines = out.splitlines()
            state, value = lines[2].split()
            lines[2] = f"{int(state) ^ 1} {value}"
            out = "\n".join(lines) + "\n"
        return code, out, err


def _prepared(cls, cli):
    workload = cls()
    workload.prepare(random.Random(7), cli)
    return workload


def _failed(workload, cli, spec):
    tally = run.Tally()
    tally.run(workload, cli, [[spec]], math.inf)
    return tally.failed


def test_serial_payload_checked(tmp_path):
    cli = Cli(str(tmp_path))
    workload = _prepared(SerialScan, cli)
    spec = next(run.rounds_from(workload, 7))[0]
    assert workload.op(cli, spec)[0] == []
    assert _failed(workload, cli, spec) == 0


def test_corrupted_payload_is_a_failure(tmp_path):
    cli = CorruptingCli(str(tmp_path))
    workload = _prepared(SerialScan, cli)
    spec = next(run.rounds_from(workload, 7))[0]
    assert "payload differs from the independent replay" in workload.op(cli, spec)[0]
    assert _failed(workload, cli, spec) == 1


def test_undetected_tamper_is_a_failure(tmp_path, monkeypatch):
    cli = Cli(str(tmp_path))
    workload = _prepared(FixedProtocol, cli)
    spec = (workload.hosts[0], 3, 2, 1)
    assert workload.op(cli, spec)[0] == []
    monkeypatch.setattr(workloads.gen, "tamper", lambda doc, rng: doc)
    assert "tampered package passes on every encoding" in workload.op(cli, spec)[0]
    assert _failed(workload, cli, spec) == 1


def test_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    tally = run.Tally()
    tally.latencies.append(1.0)
    printed = {
        "end_to_end": run.end_to_end(tally, [1.0], [1], [1.0]),
        "per_layer": run.per_layer(tracer.Tracer(), tally, 1.0, 1.0),
    }
    for kind, metrics in printed.items():
        assert {m["name"]: m["unit"] for m in spec[kind]} == \
            {name: unit for name, (_, unit) in metrics.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_tracer_restores_and_accounts(tmp_path):
    cli = Cli(str(tmp_path))
    workload = _prepared(FixedProtocol, cli)
    cli_mod = sys.modules["fsmwm.cli"]
    machine = sys.modules["fsmwm.machine"]
    before = (cli_mod.main, cli_mod.parse_fsm, machine.Fsm.__post_init__)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert cli_mod.main is not before[0]
        cli.parts = []
        assert workload.op(cli, (workload.hosts[0], 3, 2, 1))[0] == []
    finally:
        tr.uninstall()
    assert (cli_mod.main, cli_mod.parse_fsm, machine.Fsm.__post_init__) == before
    assert tr.counts["cli.calls"] == 1 + 2 + 2 + 1      # emit, 2 verify, 2 tampered, attack
    assert sum(tr.self_s.values()) == pytest.approx(tr.top_level_s(), rel=1e-6)
    assert tr.top_level_s() <= cli.elapsed


def test_latency_is_the_median_run_of_each_call(tmp_path):
    """Two timed calls per operation; their slow runs fall in different
    passes, and the latency adds the median run of each."""

    class Scripted:
        durations = {"a": [[9.0, 1.0], [1.0, 9.0], [2.0, 2.0]], "b": [[5.0]] * 3}

        def op(self, cli, spec):
            cli.parts.extend(self.durations[spec].pop(0))
            return [], 1

    tally = run.Tally()
    latency, sizes, passes = tally.replay(Scripted(), Cli(str(tmp_path)),
                                          ["a", "a", "b", "a"], 0.0, random.Random(0))
    assert passes == 1
    assert latency == [4.0, 4.0, 5.0, 4.0]          # "a" ran three times: 2 + 2
    assert sizes == [1, 1, 1, 1]
    assert sorted(tally.latencies) == [4.0, 5.0, 10.0, 10.0]
