"""Acceptance checks.

Each test covers one numbered criterion and prints a single
"ACCEPT-<n> pass" / "ACCEPT-<n> fail" line (run with -s to see them on
success; pytest shows them on failure regardless).
"""

import math
import random
import time

import pytest

from fsmwm import (
    CapExceededError,
    Fsm,
    FsmOracle,
    LprkSpec,
    adversarial_extension,
    bounded_equiv,
    branch_input_bits,
    build_decomp_bundle,
    build_dependent,
    build_independent,
    build_matrix_bundle,
    compose_cascade,
    connectivity_graph,
    decrypt_graph,
    encrypt_graph,
    find_branch_width,
    fixed_partitions_lprk,
    informed_attack,
    is_orthogonal,
    lpr_k,
    minimal_decomposition,
    enumerate_sp_partitions,
    random_perm_key,
    run,
    run_states,
    watermark_test,
)
from fsmwm.errors import NoNontrivialDecompositionError
from fsmwm.pipeline import state_bits
from fsmwm.reduction import (
    Path,
    add_shift_hash,
    renumber,
    renumber_inverse,
    repeat_path,
    sized_path,
)
from fsmwm.scanchain import decode_transcript, scan_watermark_test
from fsmwm.verify import reachable_outputs
from conftest import (
    make_chain_host,
    make_host8,
    random_graph,
    random_machine,
)


def _verdict_line(n, ok):
    print(f"\nACCEPT-{n} {'pass' if ok else 'fail'}")
    assert ok, f"criterion {n} failed"


def test_criterion_01_encryption_symmetry():
    rng = random.Random(101)
    start = time.time()
    ok = True
    for _ in range(200):
        m = rng.randint(1, 16)
        g = random_graph(rng, m)
        key = random_perm_key(m, rng.randint(0, 10 ** 9))
        if decrypt_graph(key, encrypt_graph(key, g)) != g:
            ok = False
            break
    elapsed = time.time() - start
    _verdict_line(1, ok and elapsed < 1.0)


def _tamperings(machine: Fsm):
    for key, (dst, out) in sorted(machine.transitions.items()):
        for target in sorted(machine.states):
            if target == dst:
                continue
            tr = dict(machine.transitions)
            tr[key] = (target, out)
            yield Fsm(machine.states, machine.inputs, machine.outputs,
                      machine.reset, tr)


def test_criterion_02_protocol_soundness():
    host = make_host8()
    failures = []
    # genuine decomposition packages pass on every branch encoding;
    # every single-edge tampering is caught on some encoding
    for n in range(2, 6):
        for k in range(1, 4):
            package, secret = build_decomp_bundle(host, n, k, mode="fixed")
            encodings = range(1 << branch_input_bits(k))
            for v in encodings:
                if not watermark_test(package, secret, v, n + 2).passed:
                    failures.append(("genuine", n, k, v))
            for bad in _tamperings(package.watermark):
                tampered = package.replace(watermark=bad)
                if all(watermark_test(tampered, secret, v, n + 2).passed
                       for v in encodings):
                    failures.append(("tamper-missed", n, k))
    # same for matrix packages
    for m in range(2, 6):
        package, secret, _ = build_matrix_bundle(host, m, key_seed=m)
        if not watermark_test(package, secret, 0, m + 1).passed:
            failures.append(("genuine-matrix", m))
        for bad in _tamperings(package.watermark):
            if watermark_test(package.replace(watermark=bad), secret, 0, m + 1).passed:
                failures.append(("tamper-missed-matrix", m))
    _verdict_line(2, not failures)


def test_criterion_03_branch_reduction_size():
    g = connectivity_graph(make_host8())
    ok = True
    for n in range(1, 9):
        for k in range(1, 6):
            z = find_branch_width(n, k)
            m = lpr_k(g, LprkSpec(n=n, k=k, z=z))
            if len(m.states) != n * k + 1:
                ok = False
    _verdict_line(3, ok)


def _cascade_reproduces(redux, pair, n, k):
    front = build_independent(redux, pair.pi_i)
    back = build_dependent(redux, pair)
    cascade = compose_cascade(front, back)
    for v in range(1 << branch_input_bits(k)):
        schedule = [str(v)] + ["0"] * n
        if run(cascade, schedule) != run(redux, schedule):
            return False
    return True


def test_criterion_04_cascade_correctness():
    g = connectivity_graph(make_host8())
    cap = 12
    failures = []
    for n in range(1, 7):
        for k in range(1, 5):
            redux = lpr_k(g, LprkSpec(n=n, k=k, z=find_branch_width(n, k)))
            fixed = fixed_partitions_lprk(redux, n, k)
            if not _cascade_reproduces(redux, fixed, n, k):
                failures.append(("fixed", n, k))
            if len(redux.states) <= cap:
                try:
                    best = minimal_decomposition(redux, cap=cap)
                except NoNontrivialDecompositionError:
                    # acceptable only if the exhaustive lattice really
                    # contains no nontrivial orthogonal pair
                    n_states = len(redux.states)
                    parts = [p for p in enumerate_sp_partitions(redux)
                             if 1 < len(p) < n_states]
                    if any(is_orthogonal(a, b)
                           for a in parts for b in parts):
                        failures.append(("missed-pair", n, k))
                else:
                    if not _cascade_reproduces(redux, best, n, k):
                        failures.append(("optimal", n, k))
            else:
                # above the cap, the search must refuse rather than stall
                with pytest.raises(CapExceededError):
                    minimal_decomposition(redux, cap=cap)
    _verdict_line(4, not failures)


def test_criterion_05_fixed_minimality():
    g = connectivity_graph(make_host8())
    failures = []
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        redux = lpr_k(g, LprkSpec(n=n, k=k, z=find_branch_width(n, k)))
        n_states = len(redux.states)
        fixed = fixed_partitions_lprk(redux, n, k)
        fixed_total = len(fixed.pi_i) + len(fixed.pi_d)
        parts = enumerate_sp_partitions(redux)
        nontrivial = [p for p in parts if 1 < len(p) < n_states]
        for a in parts:
            for b in parts:
                if not is_orthogonal(a, b):
                    continue
                if len(a) * len(b) < n_states:
                    failures.append(("product-bound", n, k))
                if (a in nontrivial and b in nontrivial
                        and len(a) + len(b) < fixed_total):
                    failures.append(("smaller-pair", n, k))
        union = fixed_total  # states of the two cascade machines combined
        print(f"\n(n={n}, k={k}) cascade state union {union}: "
              f"additive claim n+k+1 = {n + k + 1}, "
              f"observed n+k+2 = {n + k + 2}")
    _verdict_line(5, not failures)


def test_criterion_06_informed_attack():
    host = make_host8()
    failures = []
    for n in range(1, 7):
        for k in range(1, 5):
            package, _ = build_decomp_bundle(host, n, k, mode="fixed")
            oracle = FsmOracle(package.watermark, package.chi)
            rebuilt = informed_attack(oracle, package.chi)
            if oracle.resets > 1 << package.chi:
                failures.append(("budget", n, k))
            if not bounded_equiv(rebuilt, package.watermark, n + 1):
                failures.append(("equiv", n, k))
    _verdict_line(6, not failures)


def test_criterion_07_output_count_witness():
    rng = random.Random(707)
    failures = 0
    for trial in range(100):
        machine = random_machine(rng, rng.randint(1, 6), rng.randint(1, 3),
                                 n_outputs=rng.randint(1, 4))
        runs = []
        observed = set()
        for _ in range(rng.randint(1, 5)):
            state = machine.reset
            record = []
            for _ in range(rng.randint(0, 6)):
                sym = rng.choice(machine.inputs)
                state, out = machine.transitions[(state, sym)]
                record.append((sym, out))
                observed.add(out)
            runs.append(record)
        j = len(observed)
        witness = adversarial_extension(runs, j)
        for record in runs:
            outs, consumed = run(witness, [s for s, _ in record])
            if consumed != len(record) or outs != [o for _, o in record]:
                failures += 1
        if len(reachable_outputs(witness)) != j + 1:
            failures += 1
    _verdict_line(7, failures == 0)


def _serial_equals_direct(machine, chi, omega, branch, steps, setting):
    t = scan_watermark_test(machine, chi, omega, branch, seed=0,
                            steps=steps, setting=setting)
    decoded, payload = decode_transcript(t)
    direct = run_states(machine, [str(branch)] + ["0"] * (steps - 1))
    return decoded == setting and [s for s, _ in payload] == direct


def test_criterion_08_serial_parallel_equivalence():
    failures = []
    # exhaustive over every setting for register widths up to 5
    for chi, omega in [(1, 1), (1, 2), (2, 2), (1, 4), (2, 3)]:
        chain = make_chain_host(min(4, 1 << omega))
        n_b = chi + omega
        for setting in range(1, math.factorial(n_b) + 1):
            if not _serial_equals_direct(chain, chi, omega, 1, 3, setting):
                failures.append((n_b, setting))
    # random settings at wider registers
    rng = random.Random(808)
    wide = make_chain_host(16)
    redux = lpr_k(connectivity_graph(make_host8()),
                  LprkSpec(n=4, k=3, z=find_branch_width(4, 3)))
    for machine, chi, omega in [(wide, 2, 6), (redux, 2, 10)]:
        n_b = chi + omega
        for _ in range(100):
            setting = rng.randint(1, math.factorial(n_b))
            branch = rng.randint(0, 1)
            if not _serial_equals_direct(machine, chi, omega, branch, 4, setting):
                failures.append((n_b, setting))
    _verdict_line(8, not failures)


def test_criterion_09_operator_algebra():
    rng = random.Random(909)
    ok = True
    for _ in range(60):
        base = tuple(rng.sample(range(1, 25), rng.randint(1, 6)))
        m = rng.randint(1, 64)
        q = sized_path(Path(base), m)
        if len(q) != m or len(set(q.vertices)) != m:
            ok = False
    for _ in range(60):
        base = tuple(rng.sample(range(1, 20), rng.randint(1, 5)))
        rep = repeat_path(Path(base), rng.randint(1, 5))
        q = renumber(rep, max(base))
        if renumber_inverse(q, max(base), rep).vertices != rep.vertices:
            ok = False
    for z in range(1, 9):
        full = set(range(1 << z))
        for r in range(1 << z):
            for c in range(z):
                if {add_shift_hash(x, r, c, z) for x in full} != full:
                    ok = False
    _verdict_line(9, ok)


def test_criterion_10_end_to_end_runtime():
    start = time.time()
    host = make_chain_host(64)
    package, secret = build_decomp_bundle(host, 8, 3, mode="fixed")
    ok = all(
        watermark_test(package, secret, v, 9).passed
        for v in range(1 << branch_input_bits(3))
    )
    redux = secret.redux
    t = scan_watermark_test(redux, package.chi, state_bits(redux), 2,
                            seed=31415, steps=8)
    _, payload = decode_transcript(t)
    ok = ok and [s for s, _ in payload] == run_states(
        redux, ["2"] + ["0"] * 7)
    fixed_elapsed = time.time() - start
    ok = ok and fixed_elapsed < 10.0

    start = time.time()
    package_o, secret_o = build_decomp_bundle(make_host8(), 5, 2,
                                              mode="optimal", cap=12)
    ok = ok and all(
        watermark_test(package_o, secret_o, v, 6).passed
        for v in range(1 << branch_input_bits(2))
    )
    optimal_elapsed = time.time() - start
    ok = ok and optimal_elapsed < 300.0
    print(f"\nfixed pipeline {fixed_elapsed:.2f}s, "
          f"optimal pipeline {optimal_elapsed:.2f}s")
    _verdict_line(10, ok)
