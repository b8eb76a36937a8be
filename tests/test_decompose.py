"""Partition algebra, lattice search and the cascade construction."""

import pytest

from fsmwm import (
    CapExceededError,
    Fsm,
    LprkSpec,
    Partition,
    PartitionError,
    PartitionPair,
    branch_input_bits,
    build_dependent,
    build_independent,
    compose_cascade,
    connectivity_graph,
    enumerate_sp_partitions,
    find_branch_width,
    fixed_partitions_lprk,
    is_input_preserving,
    is_orthogonal,
    lpr_k,
    minimal_decomposition,
    run,
)
from fsmwm.decompose import format_partition, parse_partition
from fsmwm.errors import NoNontrivialDecompositionError
from conftest import make_host8, random_machine


def _oracle_is_sp(m, pi):
    """Independent input-preserving check: for every input, the image of
    each block must land inside a single block, with uniform definedness."""
    blocks = pi.signature()
    where = {s: i for i, block in enumerate(blocks) for s in block}
    for sym in m.inputs:
        for block in blocks:
            images = set()
            holes = 0
            for s in block:
                move = m.transitions.get((s, sym))
                if move is None:
                    holes += 1
                else:
                    images.add(where[move[0]])
            if holes not in (0, len(block)) or len(images) > 1:
                return False
    return True


def _oracle_set_partitions(items):
    """All set partitions, built by inserting elements one at a time."""
    items = list(items)
    if not items:
        return [[]]
    head, rest = items[0], _oracle_set_partitions(items[1:])
    out = []
    for p in rest:
        for i in range(len(p)):
            out.append(p[:i] + [p[i] | {head}] + p[i + 1:])
        out.append(p + [{head}])
    return out


def _oracle_orthogonal(p1, p2):
    """Every block of one meets every block of the other in at most one state."""
    return all(len(set(b1) & set(b2)) <= 1
               for b1 in p1.signature() for b2 in p2.signature())


def _oracle_minimal_pair(m):
    """Brute-force pair search over the oracle's lattice: the nontrivial
    orthogonal SP pair with the least (total blocks, signatures), or None."""
    n = len(m.states)
    parts = [Partition.of(p) for p in _oracle_set_partitions(sorted(m.states))]
    parts = [p for p in parts if 1 < len(p) < n and _oracle_is_sp(m, p)]
    keys = [(len(a) + len(b), a.signature(), b.signature())
            for a in parts for b in parts if _oracle_orthogonal(a, b)]
    return min(keys)[1:] if keys else None


def test_partition_validation():
    with pytest.raises(PartitionError):
        Partition.of([{1, 2}, {2, 3}])
    with pytest.raises(PartitionError):
        Partition.of([set()])
    with pytest.raises(PartitionError):
        Partition((1, 5), (1, 0))  # blocks not numbered by minimum element
    with pytest.raises(PartitionError):
        Partition((5, 1), (0, 1))  # states not ascending
    with pytest.raises(PartitionError):
        Partition((1, 5), (0,))


def test_partition_numbering_by_minimum():
    p = Partition.of([{4, 5}, {0, 9}, {2}])
    assert (p.states, p.assign) == ((0, 2, 4, 5, 9), (0, 1, 2, 2, 0))
    assert p.block(0) == p.block(9) == 0
    assert p.block(2) == 1
    assert p.block(4) == p.block(5) == 2
    assert p.signature() == ((0, 9), (2,), (4, 5))
    assert len(p) == 3
    with pytest.raises(PartitionError):
        p.block(3)


def test_orthogonal_hand_example():
    a = Partition.of([{0, 1}, {2, 3}])
    b = Partition.of([{0, 2}, {1, 3}])
    assert is_orthogonal(a, b)
    assert not is_orthogonal(a, a)
    with pytest.raises(PartitionError):
        is_orthogonal(a, Partition.of([{0, 1}, {2}]))


def test_is_input_preserving_matches_oracle(rng):
    for _ in range(40):
        m = random_machine(rng, rng.randint(2, 6), 2, total=False)
        for p in _oracle_set_partitions(sorted(m.states)):
            pi = Partition.of(p)
            assert is_input_preserving(m, pi) == _oracle_is_sp(m, pi)


def test_enumerate_sp_matches_oracle(rng):
    for total in (True, False):
        for _ in range(15):
            m = random_machine(rng, rng.randint(1, 7), 2, total=total)
            want = {
                Partition.of(p).signature()
                for p in _oracle_set_partitions(sorted(m.states))
                if _oracle_is_sp(m, Partition.of(p))
            }
            got = [p.signature() for p in enumerate_sp_partitions(m)]
            assert len(got) == len(set(got))
            assert set(got) == want


def _product_machine(rng, a, b):
    """Random machine on a*b states built as a product of an a-state and
    a b-state machine, with state ids shuffled: it has an orthogonal SP
    pair by construction."""
    left = random_machine(rng, a, 2)
    right = random_machine(rng, b, 2)
    ids = rng.sample(range(3 * a * b), a * b)
    tr = {}
    for i in range(a):
        for j in range(b):
            for sym in ("0", "1"):
                (li, out), (rj, _) = left.transitions[(i, sym)], right.transitions[(j, sym)]
                tr[(ids[i * b + j], sym)] = (ids[li * b + rj], out)
    return Fsm(frozenset(ids), ("0", "1"), left.outputs, ids[0], tr)


def test_minimal_decomposition_matches_oracle(rng):
    machines = [random_machine(rng, rng.randint(2, 6), 2, total=t)
                for t in (True, False) for _ in range(10)]
    machines += [_product_machine(rng, a, b)
                 for a, b in [(2, 2), (2, 3), (3, 2)] for _ in range(4)]
    decomposable = 0
    for m in machines:
        want = _oracle_minimal_pair(m)
        try:
            pair = minimal_decomposition(m)
        except NoNontrivialDecompositionError:
            assert want is None
        else:
            assert (pair.pi_i.signature(), pair.pi_d.signature()) == want
            decomposable += 1
    assert decomposable >= 12


# (n, k) -> (pi_i, pi_d) signatures of the least nontrivial orthogonal SP
# pair of every host8 reduction within the default cap, None where there
# is none.  Derived with the brute-force oracle above when the reduction's
# states were first numbered from the host's sized path; each pair has the
# total block count recorded for the earlier numbering.
GOLDEN_PAIRS = {
    (1, 1): None,
    (1, 2): None,
    (1, 3): (((0,), (1, 2), (4,)), ((0, 1), (2,), (4,))),
    (1, 4): (((0, 1), (2, 3), (4,)), ((0, 2), (1, 3), (4,))),
    (2, 1): None,
    (2, 2): (((0, 1), (2, 3), (4,)), ((0, 2), (1, 3), (4,))),
    (2, 3): (((0, 1), (2, 3), (4, 5), (8,)), ((0, 2, 4), (1, 3, 5), (8,))),
    (2, 4): (((0, 1), (2, 3), (4, 5), (6, 7), (8,)),
             ((0, 2, 4, 6), (1, 3, 5, 7), (8,))),
    (3, 1): None,
    (3, 2): (((0, 1, 2), (3, 4, 5), (8,)), ((0, 3), (1, 4), (2, 5), (8,))),
    (3, 3): (((0, 1, 2), (3, 4, 5), (6, 7, 8), (16,)),
             ((0, 3, 6), (1, 4, 7), (2, 5, 8), (16,))),
    (4, 1): None,
    (4, 2): (((0, 1, 2, 3), (4, 5, 6, 7), (8,)),
             ((0, 4), (1, 5), (2, 6), (3, 7), (8,))),
    (5, 1): None,
    (5, 2): (((0, 1, 2, 3, 4), (5, 6, 7, 8, 9), (16,)),
             ((0, 5), (1, 6), (2, 7), (3, 8), (4, 9), (16,))),
    (6, 1): None,
}


def test_minimal_decomposition_golden_pairs():
    g = connectivity_graph(make_host8())
    got = {}
    for n in range(1, 7):
        for k in range(1, 5):
            redux = lpr_k(g, LprkSpec(n=n, k=k, z=find_branch_width(n, k)))
            if len(redux.states) > 12:
                continue
            try:
                pair = minimal_decomposition(redux)
            except NoNontrivialDecompositionError:
                got[(n, k)] = None
            else:
                got[(n, k)] = (pair.pi_i.signature(), pair.pi_d.signature())
    assert got == GOLDEN_PAIRS


# The host8 shapes of at most 12 states that GOLDEN_PAIRS lacks, except
# the stars (1, 10) and (1, 11), derived like GOLDEN_PAIRS; (1, 9) took
# 40 s in the search before it placed states incrementally and paired
# candidates by ascending total.
GOLDEN_PAIRS_LARGE = {
    (1, 5): (((0,), (1, 2), (3, 4), (8,)), ((0, 1, 3), (2, 4), (8,))),
    (1, 6): (((0, 1), (2, 3), (4, 5), (8,)), ((0, 2, 4), (1, 3, 5), (8,))),
    (1, 7): (((0,), (1, 2), (3, 4), (5, 6), (8,)),
             ((0, 1, 3, 5), (2, 4, 6), (8,))),
    (1, 8): (((0, 1), (2, 3), (4, 5), (6, 7), (8,)),
             ((0, 2, 4, 6), (1, 3, 5, 7), (8,))),
    (1, 9): (((0, 1, 2), (3, 4, 5), (6, 7, 8), (16,)),
             ((0, 3, 6), (1, 4, 7), (2, 5, 8), (16,))),
    (2, 5): (((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (16,)),
             ((0, 2, 4, 6, 8), (1, 3, 5, 7, 9), (16,))),
    (7, 1): None,
    (8, 1): None,
    (9, 1): None,
    (10, 1): None,
    (11, 1): None,
}


def _host8_pair(n, k):
    g = connectivity_graph(make_host8())
    redux = lpr_k(g, LprkSpec(n=n, k=k, z=find_branch_width(n, k)))
    try:
        pair = minimal_decomposition(redux)
    except NoNontrivialDecompositionError:
        return None
    return pair.pi_i.signature(), pair.pi_d.signature()


def test_minimal_decomposition_golden_pairs_large():
    assert {shape: _host8_pair(*shape) for shape in GOLDEN_PAIRS_LARGE} == GOLDEN_PAIRS_LARGE


def _count_partitions(monkeypatch) -> list:
    """The assign of every Partition built from here on."""
    built, check = [], Partition.__post_init__

    def counted(p):
        built.append(p.assign)
        check(p)

    monkeypatch.setattr(Partition, "__post_init__", counted)
    return built


@pytest.mark.parametrize("k", [10, 11])
def test_minimal_decomposition_budget_refuses_dense_stars(k, monkeypatch):
    # (1, 10) has 115,975 SP partitions and its pair probes pass the
    # budget; the enumeration of (1, 11) passes it before any probe.
    # Candidates stay block-assignment tuples, so neither builds a Partition.
    built = _count_partitions(monkeypatch)
    with pytest.raises(CapExceededError,
                       match=r"a lattice search of \d+ steps passes the cap of 1048576"):
        _host8_pair(1, k)
    assert built == []


def test_minimal_decomposition_builds_only_the_pair_returned(monkeypatch):
    built = _count_partitions(monkeypatch)
    assert _host8_pair(5, 2) == GOLDEN_PAIRS[5, 2]
    assert len(built) == 2


def test_enumerate_cap(rng):
    m = random_machine(rng, 13, 2)
    with pytest.raises(CapExceededError):
        enumerate_sp_partitions(m)


def test_fixed_partitions_are_sp_and_orthogonal():
    g = connectivity_graph(make_host8())
    for n, k in [(2, 2), (4, 3), (5, 2)]:
        redux = lpr_k(g, LprkSpec(n=n, k=k, z=find_branch_width(n, k)))
        pair = fixed_partitions_lprk(redux, n, k)
        assert len(pair.pi_i) == k + 1
        assert len(pair.pi_d) == n + 1
        assert is_input_preserving(redux, pair.pi_i)
        assert is_input_preserving(redux, pair.pi_d)
        assert is_orthogonal(pair.pi_i, pair.pi_d)


def _cascade_matches_redux(redux, pair, n, k):
    front = build_independent(redux, pair.pi_i)
    back = build_dependent(redux, pair)
    cascade = compose_cascade(front, back)
    for v in range(1 << branch_input_bits(k)):
        schedule = [str(v)] + ["0"] * n
        assert run(cascade, schedule) == run(redux, schedule)


def test_fixed_cascade_reproduces_run():
    g = connectivity_graph(make_host8())
    for n, k in [(2, 2), (3, 3), (4, 2)]:
        redux = lpr_k(g, LprkSpec(n=n, k=k, z=find_branch_width(n, k)))
        pair = fixed_partitions_lprk(redux, n, k)
        _cascade_matches_redux(redux, pair, n, k)


def test_optimal_cascade_reproduces_run():
    g = connectivity_graph(make_host8())
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        redux = lpr_k(g, LprkSpec(n=n, k=k, z=find_branch_width(n, k)))
        pair = minimal_decomposition(redux)
        assert 1 < len(pair.pi_i) < len(redux.states)
        assert 1 < len(pair.pi_d) < len(redux.states)
        _cascade_matches_redux(redux, pair, n, k)


def test_optimal_not_worse_than_fixed():
    g = connectivity_graph(make_host8())
    for n, k in [(2, 2), (3, 2), (2, 3)]:
        redux = lpr_k(g, LprkSpec(n=n, k=k, z=find_branch_width(n, k)))
        fixed = fixed_partitions_lprk(redux, n, k)
        best = minimal_decomposition(redux)
        assert (len(best.pi_i) + len(best.pi_d)
                <= len(fixed.pi_i) + len(fixed.pi_d))


def test_no_nontrivial_decomposition_on_bare_chain():
    # a single linear branch admits only trivial orthogonal pairs
    from fsmwm import ConnGraph, standard_cg_machine
    chain = ConnGraph(frozenset([1, 2, 3]), frozenset([(1, 2), (2, 3)]), 1)
    m = standard_cg_machine(chain)
    with pytest.raises(NoNontrivialDecompositionError):
        minimal_decomposition(m)


def test_build_independent_rejects_bad_partition(rng):
    g = connectivity_graph(make_host8())
    redux = lpr_k(g, LprkSpec(n=3, k=2, z=find_branch_width(3, 2)))
    bad = Partition.of([set(list(sorted(redux.states))[:2]),
                        set(list(sorted(redux.states))[2:])])
    if not is_input_preserving(redux, bad):
        with pytest.raises(PartitionError):
            build_independent(redux, bad)


def test_partition_format_round_trip():
    p = Partition.of([{0, 3}, {1}, {2, 7}])
    assert parse_partition(format_partition(p)) == p
    with pytest.raises(PartitionError):
        parse_partition("1,x\n")
    with pytest.raises(PartitionError):
        parse_partition("\n")
    # Spaces around a token are stripped; the token itself must read back
    # as str writes it, so two different files never give one partition.
    assert parse_partition(" 0, 1 \n2\n") == Partition.of([{0, 1}, {2}])
    for line in ("+2,1", "0_0,1", "02,1", "\u0662,1"):
        with pytest.raises(PartitionError, match="malformed partition line"):
            parse_partition(f"{line}\n0\n")
