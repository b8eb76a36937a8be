"""Verification protocol, bundles, probing attacks and equivalence."""

import json
import random

import pytest

from fsmwm import (
    AlphabetMismatchError,
    Fsm,
    FsmOracle,
    FsmwmError,
    InconsistentTranscriptError,
    adversarial_extension,
    bounded_equiv,
    branch_input_bits,
    build_decomp_bundle,
    build_matrix_bundle,
    informed_attack,
    run,
    watermark_test,
)
from fsmwm.errors import SemanticError
from fsmwm.verify import (
    format_package,
    format_secret,
    parse_package,
    parse_secret,
    reachable_outputs,
)
from conftest import all_strings, make_host8, random_machine, traced_memory


@pytest.fixture(scope="module")
def matrix_bundle():
    return build_matrix_bundle(make_host8(), 6, key_seed=2718)


FIXED_N, FIXED_K = 4, 3
OPTIMAL_N, OPTIMAL_K = 2, 2


@pytest.fixture(scope="module")
def fixed_bundle():
    return build_decomp_bundle(make_host8(), FIXED_N, FIXED_K, mode="fixed")


@pytest.fixture(scope="module")
def optimal_bundle():
    return build_decomp_bundle(make_host8(), OPTIMAL_N, OPTIMAL_K, mode="optimal")


def test_parse_secret_holds_each_value_once():
    # the m = 2048 secret's 8,188 rows are released as the step maps grow
    _, secret, _ = build_matrix_bundle(make_host8(), 2048, key_seed=2718)
    text = format_secret(secret)
    _, peak = traced_memory(parse_secret, text)
    _, decoded = traced_memory(json.loads, text)
    assert peak <= 1.2 * decoded


def test_package_round_trip(matrix_bundle):
    package, secret, _ = matrix_bundle
    assert parse_package(format_package(package)) == package
    assert parse_secret(format_secret(secret)) == secret
    # byte-deterministic
    assert format_package(package) == format_package(
        parse_package(format_package(package)))


def test_bundle_kind_checked(matrix_bundle):
    package, secret, _ = matrix_bundle
    with pytest.raises(SemanticError):
        parse_package(format_secret(secret))
    with pytest.raises(SemanticError):
        parse_secret(format_package(package))


def test_bundle_scheme_checked(matrix_bundle):
    package, secret, _ = matrix_bundle
    assert '"scheme": "lehmer"' in format_package(package)
    with pytest.raises(SemanticError):
        parse_package(format_package(package).replace('"lehmer"', '"gray"'))
    with pytest.raises(SemanticError):
        parse_secret(format_secret(secret).replace('"lehmer"', '"gray"'))


def test_matrix_protocol_passes(matrix_bundle):
    package, secret, _ = matrix_bundle
    v = watermark_test(package, secret, 0, 5)
    assert v.passed and v.divergence_index is None
    assert "PASS" in v.report()


def test_fixed_protocol_passes_every_branch(fixed_bundle):
    package, secret = fixed_bundle
    for v in range(1 << branch_input_bits(FIXED_K)):
        assert watermark_test(package, secret, v, 4).passed


def test_protocol_branch_range(fixed_bundle):
    package, secret = fixed_bundle
    with pytest.raises(FsmwmError):
        watermark_test(package, secret, 99, 4)


def test_optimal_protocol_passes_every_branch(optimal_bundle):
    package, secret = optimal_bundle
    for v in range(1 << package.chi):
        assert watermark_test(package, secret, v, OPTIMAL_N + 1).passed


@pytest.mark.parametrize("bundle, branch", [
    ("matrix_bundle", -1), ("matrix_bundle", 1),
    ("fixed_bundle", -1), ("fixed_bundle", 4),
    ("optimal_bundle", -1), ("optimal_bundle", 2),
])
def test_protocol_refuses_branches_the_secret_does_not_take(request, bundle, branch):
    # fixed 4x3 and optimal 2x2 select branches with 2 and 1 input bits
    package, secret = request.getfixturevalue(bundle)[:2]
    with pytest.raises(FsmwmError, match=f"takes no branch {branch} at reset"):
        watermark_test(package, secret, branch, 4)


def test_protocol_ignores_the_package_branch_count(fixed_bundle):
    # A package claiming 3 input bits (8 branches) still selects among the secret's 4.
    package, secret = fixed_bundle
    widened = package.replace(chi=3)
    with pytest.raises(FsmwmError, match="takes no branch 5"):
        watermark_test(widened, secret, 5, 4)
    assert watermark_test(widened, secret, 2, 4) == watermark_test(package, secret, 2, 4)


def test_single_vertex_matrix_bundle_checks_nothing_and_is_refused():
    package, secret, _ = build_matrix_bundle(make_host8(), 1, key_seed=2718)
    assert not secret.redux.transitions
    with pytest.raises(FsmwmError, match="takes no branch 0"):
        watermark_test(package, secret, 0, 4)


def test_protocol_refuses_a_secret_that_cannot_read_the_package(matrix_bundle):
    package, _, _ = matrix_bundle
    _, secret, _ = build_matrix_bundle(make_host8(), 3, key_seed=1)
    with pytest.raises(AlphabetMismatchError, match="wrong secret"):
        watermark_test(package, secret, 0, 4)


def test_protocol_mode_mismatch(matrix_bundle, fixed_bundle):
    package, _, _ = matrix_bundle
    _, secret = fixed_bundle
    with pytest.raises(SemanticError):
        watermark_test(package, secret, 0, 4)


def _tamper(machine: Fsm, key, new_target) -> Fsm:
    """machine with the step at key sent to new_target, output kept."""
    tr = dict(machine.transitions)
    tr[key] = (new_target, tr[key][1])
    return Fsm(machine.states, machine.inputs, machine.outputs, machine.reset, tr)


def test_tampered_package_fails(fixed_bundle):
    package, secret = fixed_bundle
    wm = package.watermark
    key = next(iter(sorted(wm.transitions)))
    other = next(s for s in sorted(wm.states) if s != wm.transitions[key][0])
    bad = _tamper(wm, key, other)
    tampered = package.replace(watermark=bad)
    failed = [
        v for v in range(1 << branch_input_bits(FIXED_K))
        if not watermark_test(tampered, secret, v, FIXED_N + 1).passed
    ]
    assert failed, "tampering must be visible on at least one branch"


def test_oracle_counts_probes(fixed_bundle):
    _, secret = fixed_bundle
    oracle = FsmOracle(secret.redux, 2)
    oracle.reset()
    oracle.step("0")
    assert oracle.resets == 1 and oracle.steps == 1


def test_informed_attack_on_reduction(fixed_bundle):
    package, secret = fixed_bundle
    chi = package.chi
    oracle = FsmOracle(secret.redux, chi)
    rebuilt = informed_attack(oracle, chi)
    assert oracle.resets <= 1 << chi
    assert bounded_equiv(rebuilt, secret.redux, FIXED_N + 1)


def test_informed_attack_on_shipped_machine(fixed_bundle):
    package, _ = fixed_bundle
    oracle = FsmOracle(package.watermark, package.chi)
    rebuilt = informed_attack(oracle, package.chi)
    assert oracle.resets <= 1 << package.chi
    assert bounded_equiv(rebuilt, package.watermark, FIXED_N + 1)


def test_informed_attack_keeps_a_branch_that_halts_after_its_first_output():
    m = Fsm(frozenset({0, 1}), ("0", "1"), ("a", "b"), 0,
            {(0, "0"): (1, "a"), (0, "1"): (1, "b")})
    rebuilt = informed_attack(FsmOracle(m, 1), 1)
    assert bounded_equiv(m, rebuilt, 1)
    assert bounded_equiv(m, rebuilt, len(m.states) * len(rebuilt.states) + 1)


def test_informed_attack_twice_on_one_oracle(fixed_bundle):
    package, secret = fixed_bundle
    oracle = FsmOracle(secret.redux, package.chi)
    first = informed_attack(oracle, package.chi)
    assert informed_attack(oracle, package.chi) == first
    assert oracle.resets == 2 << package.chi


@pytest.mark.parametrize("chi", [-1, 2])
def test_informed_attack_refuses_a_chi_other_than_the_oracle_s(fixed_bundle, chi):
    _, secret = fixed_bundle
    with pytest.raises(FsmwmError, match=f"chi={chi} does not match"):
        informed_attack(FsmOracle(secret.redux, 5), chi)


def _branch_machine(rng: random.Random, chi: int) -> Fsm:
    """Branch-select machine with holes: reset takes some of the 2**chi
    inputs, each into a fresh chain that ticks on "0" without repeating an
    output, then halts or settles in a self-loop."""
    inputs = tuple(str(v) for v in range(1 << chi))
    tr, n = {}, 1
    for sym in inputs:
        if rng.random() < 0.2:
            continue                                # a hole at reset
        tr[0, sym] = (n, rng.choice("abc"))
        prev = None
        for _ in range(rng.randint(0, 3)):
            prev = rng.choice([o for o in "abc" if o != prev])
            tr[n, "0"] = (n + 1, prev)
            n += 1
        if rng.random() < 0.5:                      # settle; otherwise halt
            tr[n, "0"] = (n, rng.choice([o for o in "abc" if o != prev]))
        n += 1
    return Fsm(frozenset(range(n)), inputs, ("a", "b", "c"), 0, tr)


def test_informed_attack_rebuilds_branch_machines_with_holes(rng):
    halted_at_once = 0
    for _ in range(200):
        chi = rng.randint(1, 3)
        m = _branch_machine(rng, chi)
        halted_at_once += any(
            (dst, "0") not in m.transitions and dst != 0
            for (src, _), (dst, _) in m.transitions.items() if src == 0)
        oracle = FsmOracle(m, chi)
        rebuilt = informed_attack(oracle, chi)
        # no probe ticked a branch further than the oracle's step count
        assert bounded_equiv(m, rebuilt, oracle.steps)
    assert halted_at_once


def test_adversarial_extension_single_run():
    transcript = [("0", "x"), ("1", "y"), ("0", "x")]
    m = adversarial_extension([transcript], 2)
    outs, consumed = run(m, [s for s, _ in transcript])
    assert outs == [o for _, o in transcript] and consumed == 3
    assert len(reachable_outputs(m)) == 3


def test_adversarial_extension_multi_run():
    runs = [[("0", "x"), ("0", "y")], [("0", "x"), ("1", "x")], []]
    m = adversarial_extension(runs, 2)
    for r in runs:
        outs, _ = run(m, [s for s, _ in r])
        assert outs == [o for _, o in r]
    assert len(reachable_outputs(m)) == 3


def test_adversarial_extension_empty():
    m = adversarial_extension([], 0)
    assert len(reachable_outputs(m)) == 1
    assert m.states == frozenset([0, 1])


def test_adversarial_extension_numbers_tree_as_built():
    runs = [[("0", "x"), ("0", "y")], [("0", "x"), ("1", "x")]]
    m = adversarial_extension(runs, 2)
    # Each new edge takes the next id; the extra state 4 hangs off the
    # lowest-numbered leaf, 2.
    assert m.transitions == {(0, "0"): (1, "x"), (1, "0"): (2, "y"), (1, "1"): (3, "x"),
                             (2, "0"): (4, "extra"), (4, "0"): (4, "extra")}
    assert m.states == frozenset(range(5))


def test_adversarial_extension_rejects_conflict():
    with pytest.raises(InconsistentTranscriptError):
        adversarial_extension([[("0", "x")], [("0", "y")]], 2)


def test_adversarial_extension_checks_count():
    with pytest.raises(FsmwmError):
        adversarial_extension([[("0", "x")]], 5)


def test_adversarial_extension_fresh_name_avoids_clash():
    m = adversarial_extension([[("0", "extra")]], 1)
    assert len(reachable_outputs(m)) == 2
    assert "extra'" in m.outputs


def test_reachable_outputs_matches_runs(rng):
    for _ in range(60):
        m = random_machine(rng, rng.randint(1, 5), rng.randint(1, 3),
                           total=rng.random() < 0.5)
        # Every reachable step ends some string of length <= |states|.
        want = {o for w in all_strings(m.inputs, len(m.states)) for o in run(m, w)[0]}
        assert reachable_outputs(m) == want


def test_bounded_equiv_detects_divergence():
    a = Fsm(frozenset([0]), ("0",), ("x", "y"), 0, {(0, "0"): (0, "x")})
    b = Fsm(frozenset([0, 1]), ("0",), ("x", "y"), 0,
            {(0, "0"): (1, "x"), (1, "0"): (1, "y")})
    assert bounded_equiv(a, b, 1)
    assert not bounded_equiv(a, b, 2)
    assert not bounded_equiv(a, b, len(a.states) * len(b.states) + 1)


def test_bounded_equiv_matches_output_strings(rng):
    verdicts = set()
    for _ in range(80):
        n_inputs, n_outputs = rng.randint(1, 3), rng.randint(1, 2)
        total = rng.random() < 0.5
        a, b = (random_machine(rng, rng.randint(1, 5), n_inputs, n_outputs, total)
                for _ in range(2))
        for d in range(5):
            want = all(run(a, w) == run(b, w) for w in all_strings(a.inputs, d))
            assert bounded_equiv(a, b, d) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_bounded_equiv_definedness_mismatch():
    a = Fsm(frozenset([0]), ("0",), ("x",), 0, {(0, "0"): (0, "x")})
    b = Fsm(frozenset([0]), ("0",), ("x",), 0, {})
    assert not bounded_equiv(a, b, 1)


def test_bounded_equiv_alphabet_mismatch():
    a = Fsm(frozenset([0]), ("0",), ("x",), 0, {})
    b = Fsm(frozenset([0]), ("1",), ("x",), 0, {})
    with pytest.raises(AlphabetMismatchError):
        bounded_equiv(a, b, 1)


def test_full_equiv_structurally_different_machines():
    # a two-state machine equivalent to a one-state loop
    a = Fsm(frozenset([0]), ("0",), ("x",), 0, {(0, "0"): (0, "x")})
    b = Fsm(frozenset([0, 1]), ("0",), ("x",), 0,
            {(0, "0"): (1, "x"), (1, "0"): (0, "x")})
    # the product bound: past it the reachable product has no unseen pair
    assert bounded_equiv(a, b, len(a.states) * len(b.states) + 1)
