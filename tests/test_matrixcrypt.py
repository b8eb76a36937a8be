"""Permutation-key concealment, traces and the decryption cascade."""

import hashlib
import re

import pytest

from fsmwm import (
    AlphabetMismatchError,
    ConnGraph,
    DimensionError,
    Fsm,
    FsmwmError,
    PermKey,
    build_decomp_bundle,
    build_decryption_machine,
    build_matrix_bundle,
    build_watermark_machine,
    compose_cascade,
    connectivity_graph,
    decrypt_graph,
    encrypt_graph,
    format_fsm,
    lpr,
    random_perm_key,
    relabel_graph,
    run,
    standard_cg_machine,
    trace_pair,
)
from fsmwm.matrixcrypt import format_key, parse_key
from fsmwm.verify import Package, Secret, watermark_test
from conftest import (
    all_strings,
    bool_matmul,
    dense,
    key_matrix,
    make_host8,
    random_graph,
    random_machine,
    transpose,
)


def _chain(ids):
    return ConnGraph(frozenset(ids), frozenset(zip(ids, ids[1:])), ids[0])


def test_key_rejects_non_permutation():
    with pytest.raises(DimensionError):
        PermKey((0, 0, 1))


def test_key_matrix_is_orthogonal(rng):
    for _ in range(20):
        key = random_perm_key(rng.randint(1, 8), rng.randint(0, 10 ** 6))
        k = key_matrix(key.image)
        assert bool_matmul(k, transpose(k)) == key_matrix(range(key.dimension))
        assert key_matrix(key.inverse().image) == transpose(k)
        assert key.inverse().inverse() == key


def test_random_key_deterministic_per_seed():
    assert random_perm_key(10, 7) == random_perm_key(10, 7)
    assert random_perm_key(10, 7) != random_perm_key(10, 8)


def test_encrypt_worked_example():
    # chain 1->2->3 under the key swapping the last two indices
    g = _chain([1, 2, 3])
    key = PermKey((0, 2, 1))
    enc = encrypt_graph(key, g)
    assert enc.edges == frozenset({(1, 3), (2, 2)})


def test_encrypt_decrypt_round_trip(rng):
    for _ in range(200):
        m = rng.randint(1, 16)
        g = random_graph(rng, m)
        key = random_perm_key(m, rng.randint(0, 10 ** 9))
        assert decrypt_graph(key, encrypt_graph(key, g)) == g


def test_encrypt_rejects_wrong_dimension():
    with pytest.raises(DimensionError):
        encrypt_graph(PermKey((1, 0)), _chain([1, 2, 3]))
    with pytest.raises(DimensionError):
        decrypt_graph(PermKey((1, 0)), _chain([1, 2, 3]))


def _sparse_random_graph(rng, m):
    """Random graph on m scattered ids, so the sorted index mapping matters."""
    g = random_graph(rng, m)
    ids = sorted(rng.sample(range(100), m))
    return ConnGraph(frozenset(ids), frozenset((ids[u], ids[w]) for u, w in g.edges),
                     ids[g.root])


def test_encrypt_decrypt_are_dense_products(rng):
    for _ in range(100):
        m = rng.randint(1, 10)
        g = _sparse_random_graph(rng, m)
        key = random_perm_key(m, rng.randint(0, 10 ** 6))
        a, k = dense(g), key_matrix(key.image)
        enc, dec = encrypt_graph(key, g), decrypt_graph(key, g)
        assert (enc.vertices, enc.root) == (dec.vertices, dec.root) == (g.vertices, g.root)
        assert dense(enc) == bool_matmul(a, k)
        assert dense(dec) == bool_matmul(a, transpose(k))


def test_relabel_is_conjugation(rng):
    for _ in range(30):
        m = rng.randint(2, 8)
        g = _sparse_random_graph(rng, m)
        key = random_perm_key(m, rng.randint(0, 10 ** 6))
        k = key_matrix(key.image)
        want = bool_matmul(transpose(k), bool_matmul(dense(g), k))
        assert dense(relabel_graph(key, g)) == want


def test_trace_pair_worked_example():
    g = _chain([1, 2, 3])
    key = PermKey((0, 2, 1))
    assert trace_pair(g, key) == ((1, 1), (2, 3), (3, 2))


def test_watermark_cascade_reproduces_reduction(host8, rng):
    g = connectivity_graph(host8)
    for m in (3, 5, 8):
        reduced = lpr(g, m)
        key = random_perm_key(m, rng.randint(0, 10 ** 6))
        watermark = build_watermark_machine(key, reduced)
        decoder = build_decryption_machine(key, reduced)
        redux = standard_cg_machine(reduced)
        cascade = compose_cascade(watermark, decoder)
        schedule = ["0"] * (m + 2)
        assert run(cascade, schedule) == run(redux, schedule)


def _decoder_cells(key, reduced, echo_rows=None):
    """The decoder's step map built one cell at a time, row by row: the
    dense form, where every row echoes, or only the rows at the given
    chain indices echo and every other cell is a hole."""
    trace = trace_pair(reduced, key)
    chain = [u for u, _ in trace]
    transitions = {}
    for t, u in enumerate(chain):
        for _, v in trace:
            if t + 1 < len(chain) and v == trace[t + 1][1]:
                transitions[u, str(v)] = (chain[t + 1], str(chain[t + 1]))
            elif echo_rows is None or t in echo_rows:
                transitions[u, str(v)] = (u, str(u))
    return transitions


def test_decoder_matches_cell_by_cell_oracle(host8):
    g = connectivity_graph(host8)
    for m in range(1, 41):
        reduced = lpr(g, m)
        for seed in (0, 1, 2718, m):
            key = random_perm_key(m, seed)
            want = _decoder_cells(key, reduced, echo_rows={0, max(0, m - 2)})
            got = build_decryption_machine(key, reduced).transitions
            assert got == want and list(got) == list(want), (m, seed)
            assert len(got) == (3 * m - 3 if m >= 3 else m)
            assert got.items() <= _decoder_cells(key, reduced).items()


def _single_faults(m: Fsm):
    """Every machine that differs from m in one step's output or one
    step's next state."""
    for cell, (dst, out) in m.transitions.items():
        for o in m.outputs:
            if o != out:
                yield m.replace(transitions={**m.transitions, cell: (dst, o)})
        for s in sorted(m.states):
            if s != dst:
                yield m.replace(transitions={**m.transitions, cell: (s, out)})


def test_verdicts_match_the_dense_decoder(host8):
    # The holes change only a FAIL's observed outputs: the verdict, the
    # divergence index and the expected outputs are those of the dense
    # decoder on the genuine watermark and on every single fault of it.
    g = connectivity_graph(host8)
    cases = 0
    for m in range(2, 14):
        reduced = lpr(g, m)
        redux = standard_cg_machine(reduced)
        for seed in (0, 1, 7):
            key = random_perm_key(m, seed)
            watermark = build_watermark_machine(key, reduced)
            decoder = build_decryption_machine(key, reduced)
            dense_decoder = decoder.replace(transitions=_decoder_cells(key, reduced))
            secret = Secret(mode="matrix", decoder=decoder, redux=redux)
            dense_secret = Secret(mode="matrix", decoder=dense_decoder, redux=redux)
            for wm in (watermark, *_single_faults(watermark)):
                package = Package(mode="matrix", watermark=wm, chi=1, omega=8)
                for length in (1, m - 1, m, m + 1, m + 3):
                    got = watermark_test(package, secret, 0, length)
                    want = watermark_test(package, dense_secret, 0, length)
                    assert (got.passed, got.divergence_index, got.expected) == \
                        (want.passed, want.divergence_index, want.expected), (m, seed, length)
                    cases += 1
    assert cases == 19_680


def test_wrong_key_cascade_diverges(host8):
    g = connectivity_graph(host8)
    reduced = lpr(g, 6)
    watermark = build_watermark_machine(random_perm_key(6, 1), reduced)
    decoder = build_decryption_machine(random_perm_key(6, 2), reduced)
    redux = standard_cg_machine(reduced)
    try:
        cascade = compose_cascade(watermark, decoder)
    except AlphabetMismatchError:
        return  # emission alphabet itself already gives the key away
    assert run(cascade, ["0"] * 5) != run(redux, ["0"] * 5)


def test_cascade_alphabet_mismatch():
    a = standard_cg_machine(_chain([1, 2]))
    b = standard_cg_machine(_chain([5, 6]))
    with pytest.raises(AlphabetMismatchError):
        compose_cascade(a, b)


# sha256 of format_fsm(compose_cascade(package.watermark, secret.decoder))
# for three host8 bundles, recorded before the cascade moved onto the
# shared breadth-first walk: product states must keep their numbering.
# The two cascade digests were re-recorded when the k-branch reduction's
# states were first numbered from the host's sized path, and all three
# when machine documents took their one-record-per-line layout (the
# machines themselves did not change).
CASCADE_GOLDEN = {
    "fixed-4-3": "3fdcb43aac3bfcc6ba07d958899ae35de11fca6bbb96484db4895a95ed940279",
    "optimal-2-2": "5af53fd0cd076cb0964e8a1e4c56b09b545b776b76eed1be0769c9fdd7b4f7f4",
    "matrix-6": "ddb37dce0548eddb3fa4900073248259c69aa73e5ed92f0d173accd7f9e1fb85",
}


def test_cascade_golden_digests():
    host = make_host8()
    bundles = {
        "fixed-4-3": build_decomp_bundle(host, 4, 3, mode="fixed"),
        "optimal-2-2": build_decomp_bundle(host, 2, 2, mode="optimal"),
        "matrix-6": build_matrix_bundle(host, 6, key_seed=2718)[:2],
    }
    got = {
        name: hashlib.sha256(format_fsm(
            compose_cascade(package.watermark, secret.decoder)).encode()).hexdigest()
        for name, (package, secret) in bundles.items()
    }
    assert got == CASCADE_GOLDEN


def _with_inputs(m: Fsm, syms) -> Fsm:
    """m with its i-th input symbol renamed to syms[i]."""
    ren = dict(zip(m.inputs, syms))
    return Fsm(m.states, tuple(syms), m.outputs, m.reset,
               {(s, ren[a]): move for (s, a), move in m.transitions.items()})


def test_cascade_matches_runs_of_both_machines(rng):
    for _ in range(60):
        total = rng.random() < 0.5
        front = random_machine(rng, rng.randint(1, 5), rng.randint(1, 3),
                               n_outputs=rng.randint(1, 3), total=total)
        back = _with_inputs(
            random_machine(rng, rng.randint(1, 5), len(front.outputs), total=total),
            front.outputs)
        cascade = compose_cascade(front, back)
        for w in all_strings(front.inputs, 4):
            assert run(cascade, w)[0] == run(back, run(front, w)[0])[0]


def test_key_format_round_trip(rng):
    key = random_perm_key(9, 42)
    assert parse_key(format_key(key)) == key
    assert format_key(key) == "0 7 3 8 6 4 1 5 2\n" or len(format_key(key).split()) == 9
    # int() reads each of these as 2 or 0; a key file must be as format_key
    # writes it, so two different files never give one key.
    for token in ("+2", "0_0", "02", "\u0662"):
        message = f"malformed key file: invalid literal for int() with base 10: {token!r}"
        with pytest.raises(FsmwmError, match=re.escape(message)):
            parse_key(f"1 0 {token}\n")
