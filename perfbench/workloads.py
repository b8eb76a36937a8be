"""The four benchmark workloads.

Each workload generates its input files from a seed (``prepare``), draws
rounds of operations (``round``) and runs one operation through the
``fsmwm`` command line in-process (``op``).  A round is stratified: it
always holds the same mix of host classes, shapes and sizes, and only the
draws inside each stratum depend on the seed, so rounds from different
seeds cost about the same.

Only the CLI calls (and the library key round trip in
``matrix-protocol``) are timed; preparing inputs and checking outputs
happen outside the timed region.  Every output is checked against the
independent stepper in ``mealy``; ``op`` returns the list of problems it
found, and an operation with any problem counts as failed.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import gen
from mealy import Machine, equivalent, expected_verdict, scan_payload


class Cli:
    """Runs ``fsmwm.cli.main`` in-process, one call at a time, and keeps
    the time spent inside it: ``parts`` lists the duration of each timed
    call since it was last cleared, and ``elapsed`` is their sum."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.parts: list[float] = []
        self.by_command: dict[str, list[float]] = {}

    @property
    def elapsed(self) -> float:
        return sum(self.parts)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def call(self, *argv) -> tuple[int, str, str]:
        argv = [str(a) for a in argv]
        cli = sys.modules["fsmwm.cli"]     # looked up per call: may be traced
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main(argv)
            dt = time.perf_counter() - t0
        self.parts.append(dt)
        self.by_command.setdefault(argv[0], []).append(dt)
        return code, out.getvalue(), err.getvalue()

    def timed(self, fn):
        t0 = time.perf_counter()
        result = fn()
        self.parts.append(time.perf_counter() - t0)
        return result


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _save(path: str, text: str):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _chi(k: int) -> int:
    """Width of the branch-select input of a k-branch reduction."""
    return max(1, math.ceil(math.log2(k))) if k > 1 else 1


def _encodings(k: int) -> range:
    return range(1 << _chi(k))


def _check_verdict(problems, what, code, stdout, predicted, expected):
    """A verify call must exit 0 on PASS and 1 on FAIL, agree with the
    recomputed verdict, and report the recomputed expected outputs."""
    lines = stdout.splitlines()
    want = 0 if predicted else 1
    if code != want:
        problems.append(f"{what}: exit {code}, expected {want}")
    elif not lines or lines[0] != ("PASS" if predicted else "FAIL"):
        problems.append(f"{what}: verdict {lines[:1]}")
    elif f"expected: {' '.join(expected)}" not in lines:
        problems.append(f"{what}: expected outputs differ from the replay")


def _emit(cli, problems, argv, pkg, sec):
    code, _, err = cli.call("emit-package", *argv,
                            "--out-package", pkg, "--out-secret", sec)
    if code != 0:
        problems.append(f"emit-package {argv}: exit {code} {err.strip()}")
        return None
    return _load(pkg), _load(sec)


def _verify_all(cli, problems, pkg, sec, pkg_doc, sec_doc, schedules):
    """Verify one package on every (branch, schedule); returns the
    recomputed verdicts."""
    wm = Machine(pkg_doc["watermark"])
    dec, red = Machine(sec_doc["decoder"]), Machine(sec_doc["redux"])
    verdicts = []
    for branch, schedule in schedules:
        predicted, expected = expected_verdict(wm, dec, red, schedule)
        code, out, _ = cli.call("verify", "--package", pkg, "--secret", sec,
                                "--branch", branch, "--length", len(schedule))
        _check_verdict(problems, f"verify branch {branch} of {pkg}", code, out,
                       predicted, expected)
        verdicts.append(predicted)
    return verdicts


def _decomp_schedules(n: int, k: int):
    return [(v, [str(v)] + ["0"] * (n + 1)) for v in _encodings(k)]


class FixedProtocol:
    """Many small machines: fixed-mode packages over a host mix, verified
    on every encoding, tampered, and attacked."""

    name = "fixed-protocol"
    ROUNDS = 1
    # Host classes of one round; each is paired with one shape from each
    # branch-count band, so a round holds 27 operations.  The n-bins are
    # laid over hosts and bands as a Latin square: each host and each band
    # meets every bin, so the seed cannot pile the long reductions onto
    # the large hosts.
    K_BANDS = ((1, 2), (3, 4), (5, 6))
    N_BINS = ((1, 8), (9, 16), (17, 24))

    def prepare(self, rng, cli):
        from fsmwm.errors import HashCollisionError
        from fsmwm.reduction import find_branch_width

        hosts = [("host8.json", gen.dump(gen.host8()))]
        for i, n in enumerate(gen.stratified(rng, [(16, 20), (21, 24)])):
            hosts.append((f"ham{i}.json", gen.dump(gen.hamiltonian_host(rng, n))))
        for ni in (6, 7, 8):
            hosts.append((f"kiss{ni}.kiss2", gen.kiss2_host(rng, ni, 6)))
        for i, n in enumerate(gen.stratified(rng, [(112, 128), (352, 384), (736, 768)])):
            hosts.append((f"chain{i}.json", gen.dump(gen.chain_host(rng, n))))
        self.hosts = []
        for name, text in hosts:
            _save(cli.path(name), text)
            self.hosts.append(cli.path(name))
        self.shapes = gen.feasible_shapes(find_branch_width, HashCollisionError)

    def round(self, rng):
        specs = []
        for h, host in enumerate(self.hosts):
            for b, band in enumerate(self.K_BANDS):
                lo, hi = self.N_BINS[(h + b) % len(self.N_BINS)]
                n, k, _ = rng.choice([s for s in self.shapes
                                      if s[1] in band and lo <= s[0] <= hi])
                specs.append((host, n, k, rng.getrandbits(32)))
        rng.shuffle(specs)
        return specs

    def warmup(self):
        return (self.hosts[0], 2, 2, 0)

    def op(self, cli, spec):
        host, n, k, tamper_seed = spec
        problems = []
        pkg, sec = cli.path("package.json"), cli.path("secret.json")
        docs = _emit(cli, problems, [host, "--mode", "fixed", "-n", n, "-k", k],
                     pkg, sec)
        if docs is None:
            return problems, 0
        pkg_doc, sec_doc = docs
        size = os.path.getsize(pkg) + os.path.getsize(sec)
        schedules = _decomp_schedules(n, k)
        if not all(_verify_all(cli, problems, pkg, sec, pkg_doc, sec_doc, schedules)):
            problems.append("genuine package fails the recomputed verdict")

        bad = dict(pkg_doc, watermark=gen.tamper(pkg_doc["watermark"],
                                                 random.Random(tamper_seed)))
        bad_pkg = cli.path("tampered.json")
        _save(bad_pkg, gen.dump(bad))
        if all(_verify_all(cli, problems, bad_pkg, sec, bad, sec_doc, schedules)):
            problems.append("tampered package passes on every encoding")

        chi = pkg_doc["tap"]["chi"]
        wm, rebuilt = cli.path("watermark.json"), cli.path("rebuilt.json")
        _save(wm, gen.dump(pkg_doc["watermark"]))
        code, _, err = cli.call("attack", wm, "--chi", chi, "-o", rebuilt)
        if code != 0:
            problems.append(f"attack: exit {code}")
        elif not equivalent(Machine(_load(rebuilt)), Machine(pkg_doc["watermark"])):
            problems.append("attack reconstruction is not equivalent")
        elif int(err.split()[1]) > 1 << chi:
            problems.append(f"attack used {err.split()[1]} resets")
        return problems, size


class MatrixProtocol:
    """Few, large machines: matrix-mode packages whose decoder has an
    m-symbol alphabet, a tampered verify, and the library key round trip
    through the dense matrix product."""

    name = "matrix-protocol"
    ROUNDS = 1
    # A fixed ladder: the dense product costs m**3, so drawing m from bins
    # would let the seed move every latency percentile.  The median falls
    # on the three m=64 rungs and the 90th percentile on m=128.  One m=192
    # rung keeps a pass near three seconds, so that a run times each
    # operation several times.
    M_LADDER = (16, 24, 32, 48, 64, 64, 64, 96, 128, 192)

    def prepare(self, rng, cli):
        hosts = [("host8.json", gen.host8(rng)),
                 ("ham.json", gen.hamiltonian_host(rng, rng.randint(16, 24))),
                 ("chain.json", gen.chain_host(rng, rng.randint(96, 128)))]
        self.hosts = []
        for name, doc in hosts:
            _save(cli.path(name), gen.dump(doc))
            self.hosts.append(cli.path(name))

    def round(self, rng):
        # Hosts rotate over the ladder, so a host class meets every m.
        shift = rng.randrange(len(self.hosts))
        specs = [(self.hosts[(i + shift) % len(self.hosts)], m, rng.getrandbits(32))
                 for i, m in enumerate(self.M_LADDER)]
        rng.shuffle(specs)
        return specs

    def warmup(self):
        return (self.hosts[0], 16, 0)

    def op(self, cli, spec):
        host, m, seed = spec
        problems = []
        pkg, sec, key = (cli.path(f) for f in ("package.json", "secret.json", "key.txt"))
        docs = _emit(cli, problems, [host, "--mode", "matrix", "-m", m,
                                     "--key-seed", seed, "--out-key", key], pkg, sec)
        if docs is None:
            return problems, 0
        pkg_doc, sec_doc = docs
        size = os.path.getsize(pkg) + os.path.getsize(sec)
        schedules = [(0, ["0"] * (m + 1))]
        if not all(_verify_all(cli, problems, pkg, sec, pkg_doc, sec_doc, schedules)):
            problems.append("genuine package fails the recomputed verdict")
        bad = dict(pkg_doc, watermark=gen.tamper(pkg_doc["watermark"], random.Random(seed)))
        bad_pkg = cli.path("tampered.json")
        _save(bad_pkg, gen.dump(bad))
        if all(_verify_all(cli, problems, bad_pkg, sec, bad, sec_doc, schedules)):
            problems.append("tampered package passes")

        # Looked up at call time, so the traced run sees the wrapped functions.
        mc = sys.modules["fsmwm.matrixcrypt"]
        with open(key, encoding="utf-8") as f:
            perm = mc.PermKey(tuple(int(tok) for tok in f.read().split()))
        redux = sec_doc["redux"]
        edges = {(t["from"], t["to"]) for t in redux["transitions"]}
        g = mc.ConnGraph(frozenset(redux["states"]), frozenset(edges), redux["reset"])
        back = cli.timed(lambda: mc.decrypt_graph(perm, mc.encrypt_graph(perm, g)))
        if (set(back.vertices), set(back.edges), back.root) != \
                (set(redux["states"]), edges, redux["reset"]):
            problems.append("decrypt_graph(encrypt_graph(g)) != g")
        return problems, size


class OptimalSearch:
    """The seven decomposable host8 shapes in optimal mode: lattice
    enumeration and orthogonal-pair search dominate."""

    name = "optimal-search"
    ROUNDS = 1
    # Shape counts per round are chosen so that the median falls in the
    # middle of the eleven (2,3) runs and the 90th percentile in the
    # middle of the two (5,2) runs, instead of on the boundary between two
    # shapes or on a single run.
    CHEAP = ((2, 2),) * 2 + ((3, 2),) * 2 + ((2, 3),) * 11 + ((4, 2),)
    HEAVY = ((3, 3), (5, 2), (5, 2), (2, 4))
    ROUND = CHEAP + HEAVY

    def prepare(self, rng, cli):
        # host8 as published, for every seed: a relabelling reorders the
        # lattice search and moved its cost by up to a quarter between
        # seeds.  The seed orders the operations of each pass.
        self.host = cli.path("host8.json")
        _save(self.host, gen.dump(gen.host8()))

    def round(self, rng):
        specs = list(self.ROUND)
        rng.shuffle(specs)
        return specs

    def warmup(self):
        return self.CHEAP[0]

    def op(self, cli, spec):
        n, k = spec
        problems = []
        pkg, sec = cli.path("package.json"), cli.path("secret.json")
        docs = _emit(cli, problems, [self.host, "--mode", "optimal", "-n", n, "-k", k],
                     pkg, sec)
        if docs is None:
            return problems, 0
        pkg_doc, sec_doc = docs
        if not all(_verify_all(cli, problems, pkg, sec, pkg_doc, sec_doc,
                               _decomp_schedules(n, k))):
            problems.append("genuine package fails the recomputed verdict")
        if len(pkg_doc["watermark"]["states"]) >= len(sec_doc["redux"]["states"]):
            problems.append("optimal front machine is not smaller than the reduction")
        return problems, os.path.getsize(pkg) + os.path.getsize(sec)


class SerialScan:
    """Serial test-port sessions on multi-branch reductions: shifting
    (scan-test) and decoding (decode-scan) of registers up to 35 bits."""

    name = "serial-scan"
    ROUNDS = 2
    # One reduction per branch count; with 0-8 extra state bits their
    # registers span 8-16, 14-22, 18-26, 19-27, 25-33 and 27-35 bits.
    SHAPES = ((8, 1), (16, 2), (12, 3), (16, 4), (16, 5), (20, 6))
    STEP_BINS = tuple((64 + 448 * i // 12, 64 + 448 * (i + 1) // 12) for i in range(12))

    def prepare(self, rng, cli):
        host = cli.path("host.json")
        _save(host, gen.dump(gen.hamiltonian_host(rng, rng.randint(16, 24))))
        self.machines = []
        for n, k in self.SHAPES:
            path = cli.path(f"lprk{k}.json")
            code, _, err = cli.call("lprk", host, "-n", n, "-k", k, "-o", path)
            if code != 0:
                raise RuntimeError(f"lprk -n {n} -k {k}: {err}")
            doc = _load(path)
            width = max(1, max(doc["states"]).bit_length())
            self.machines.append((path, Machine(doc), _chi(k), width))

    def round(self, rng):
        """Each reduction twice, once with 0-4 and once with 4-8 extra
        bits.  Operation i takes its step count from bin 5*i mod 12, so
        each reduction meets one short and one long bin whatever the seed."""
        steps = gen.stratified(rng, self.STEP_BINS)
        specs = []
        for i, machine in enumerate(self.machines * 2):
            _, _, chi, width = machine
            extra = rng.randint(0, 4) if i < len(self.machines) else rng.randint(4, 8)
            specs.append((machine, width + extra, rng.randrange(1 << chi),
                          steps[5 * i % len(steps)], rng.getrandbits(32)))
        return specs

    def warmup(self):
        machine = self.machines[0]
        return (machine, machine[3], 0, 8, 0)

    def op(self, cli, spec):
        (path, machine, chi, _), omega, branch, steps, seed = spec
        problems = []
        log = cli.path("transcript.txt")
        code, _, err = cli.call("scan-test", path, "--chi", chi, "--omega", omega,
                                "--branch", branch, "--steps", steps,
                                "--seed", seed, "-o", log)
        if code != 0:
            return [f"scan-test: exit {code} {err.strip()}"], 0
        size = os.path.getsize(log)
        code, out, _ = cli.call("decode-scan", log)
        lines = out.splitlines()
        if code != 0 or not lines or not lines[0].startswith("setting "):
            return [f"decode-scan: exit {code}"], size
        setting = int(lines[0].split()[1])
        if not 1 <= setting <= math.factorial(chi + omega):
            problems.append(f"setting {setting} out of range")
        payload = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
        if payload != scan_payload(machine, chi, [branch] + [0] * steps):
            problems.append("payload differs from the independent replay")
        return problems, size


WORKLOADS = {w.name: w for w in (FixedProtocol, MatrixProtocol, OptimalSearch, SerialScan)}
