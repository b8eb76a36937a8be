"""Path search, sizing operators and the multi-branch reduction."""

import random
import time

import pytest

from fsmwm import (
    CapExceededError,
    FsmwmError,
    HashCollisionError,
    LprkSpec,
    Path,
    add_shift_hash,
    branch_input_bits,
    connectivity_graph,
    find_branch_width,
    format_fsm,
    longest_simple_path,
    lpr,
    lpr_k,
    renumber,
    renumber_inverse,
    repeat_path,
    run,
    run_states,
    sized_path,
    truncate,
)
from fsmwm import reduction
from fsmwm.reduction import chain_of
from conftest import all_simple_paths_from, clique_with_leaves, make_host8, random_graph


def test_longest_path_matches_exhaustive_oracle(rng):
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8))
        oracle = max(all_simple_paths_from(g, g.root), key=lambda p: (len(p), p))
        assert longest_simple_path(g).vertices == oracle


def test_longest_path_matches_oracle_with_unreachable_vertices(rng):
    # Sparse graphs plus vertices the root cannot reach, some of which
    # point into the reachable part: the search stops at the reachable set.
    from fsmwm import ConnGraph
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 7), density=rng.choice((0.15, 0.3, 0.5)))
        m = len(g.vertices)
        extra = range(m, m + rng.randint(1, 3))
        edges = set(g.edges) | {(u, rng.randrange(m + len(extra))) for u in extra}
        g = ConnGraph(g.vertices | frozenset(extra), frozenset(edges), 0)
        oracle = max(all_simple_paths_from(g, g.root), key=lambda p: (len(p), p))
        assert longest_simple_path(g).vertices == oracle


def test_longest_path_stops_at_reachable_set():
    # A root linked to an 11-clique, plus one vertex it cannot reach: the
    # first path through the clique is the answer.
    from fsmwm import ConnGraph
    clique = range(1, 12)
    edges = {(0, v) for v in clique} | {(u, v) for u in clique for v in clique if u != v}
    g = ConnGraph(frozenset(range(13)), frozenset(edges | {(12, 0)}), 0)
    t0 = time.perf_counter()
    assert longest_simple_path(g).vertices == (0, *range(11, 0, -1))
    assert time.perf_counter() - t0 < 1.0


def test_longest_path_within_budget_matches_oracle():
    g = clique_with_leaves(7)
    oracle = max(all_simple_paths_from(g, g.root), key=lambda p: (len(p), p))
    assert longest_simple_path(g).vertices == oracle


def test_longest_path_budget_refuses_a_larger_clique(monkeypatch):
    with pytest.raises(CapExceededError, match="search of 1048577 steps passes the cap of 1048576"):
        longest_simple_path(clique_with_leaves(9))
    # the constant bounds the loop: a smaller budget refuses at its own count
    monkeypatch.setattr(reduction, "PATH_SEARCH_BUDGET", 1000)
    with pytest.raises(CapExceededError, match="search of 1001 steps passes the cap of 1000"):
        longest_simple_path(clique_with_leaves(9))


def test_longest_path_prefers_lexically_larger():
    # two full-length paths; the larger sequence must win
    from fsmwm import ConnGraph
    g = ConnGraph(
        frozenset([0, 1, 2]), frozenset([(0, 1), (1, 2), (0, 2), (2, 1)]), 0
    )
    assert longest_simple_path(g).vertices == (0, 2, 1)


def test_longest_path_on_long_chain():
    # deeper than the interpreter's recursion limit
    from fsmwm import ConnGraph
    n = 3000
    g = ConnGraph(frozenset(range(n)),
                  frozenset((v, v + 1) for v in range(n - 1)), 0)
    assert longest_simple_path(g).vertices == tuple(range(n))


def test_longest_path_is_linear_on_long_paths():
    # A 2^16-vertex chain, and a 2^15-vertex spine with a leaf off each
    # vertex, which the search tries first: a search that copied its record
    # whenever it grew took over 10 s on the chain.
    from fsmwm import ConnGraph
    n = 1 << 16
    chain = ConnGraph(frozenset(range(n)), frozenset((v, v + 1) for v in range(n - 1)), 0)
    s = n // 2
    legs = {(v, s + v) for v in range(s)}
    spine = ConnGraph(frozenset(range(2 * s)),
                      frozenset({(v, v + 1) for v in range(s - 1)} | legs), 0)
    t0 = time.perf_counter()
    assert longest_simple_path(chain).vertices == tuple(range(n))
    assert longest_simple_path(spine).vertices == (*range(s), 2 * s - 1)
    assert time.perf_counter() - t0 < 5.0


def test_repeat_requires_positive_count():
    with pytest.raises(FsmwmError):
        repeat_path(Path((1, 2)), 0)


def test_renumber_worked_example():
    # two copies of <1,2,3> renumber to <1,2,3,4,5,6>
    p = repeat_path(Path((1, 2, 3)), 2)
    assert renumber(p, 3).vertices == (1, 2, 3, 4, 5, 6)


def test_renumber_three_copies():
    p = repeat_path(Path((1, 2)), 3)
    assert renumber(p, 2).vertices == (1, 2, 3, 4, 5, 6)


def test_renumber_sparse_values_stay_distinct():
    p = repeat_path(Path((0, 5)), 3)
    q = renumber(p, 5)
    assert len(set(q.vertices)) == len(q.vertices)


def test_renumber_rejects_small_radix():
    with pytest.raises(FsmwmError):
        renumber(repeat_path(Path((1, 7)), 2), 3)


def test_renumber_distinctness_property(rng):
    for _ in range(50):
        base = tuple(rng.sample(range(1, 30), rng.randint(1, 6)))
        j = rng.randint(1, 5)
        q = renumber(repeat_path(Path(base), j), max(base))
        assert len(set(q.vertices)) == len(q.vertices)


def test_renumber_inverse_round_trip(rng):
    for _ in range(50):
        base = tuple(rng.sample(range(1, 20), rng.randint(1, 5)))
        j = rng.randint(1, 5)
        rep = repeat_path(Path(base), j)
        q = renumber(rep, max(base))
        assert renumber_inverse(q, max(base), rep).vertices == rep.vertices


def test_truncate_bounds():
    p = Path((1, 2, 3))
    assert truncate(p, 2).vertices == (1, 2)
    with pytest.raises(FsmwmError):
        truncate(p, 0)
    with pytest.raises(FsmwmError):
        truncate(p, 4)


def test_sized_path_exact_length_and_distinct(rng):
    for _ in range(40):
        base = tuple(rng.sample(range(1, 15), rng.randint(1, 5)))
        m = rng.randint(1, 64)
        q = sized_path(Path(base), m)
        assert len(q) == m
        assert len(set(q.vertices)) == m


def test_lpr_is_linear_chain(host8):
    g = connectivity_graph(host8)
    reduced = lpr(g, 6)
    assert len(reduced.vertices) == 6
    assert len(chain_of(reduced)) == 6
    assert all(len(reduced.successors(v)) <= 1 for v in reduced.vertices)


def test_add_shift_hand_values():
    # rotate 1 left by 1 in 3 bits, add 0 -> 2
    assert add_shift_hash(1, 0, 1, 3) == 2
    # rotation wraps: 100b left by 1 -> 001b, plus 3 -> 4
    assert add_shift_hash(4, 3, 1, 3) == 4
    # addition wraps modulo 2**z
    assert add_shift_hash(7, 1, 0, 3) == 0
    # rotation amount reduces modulo z
    assert add_shift_hash(5, 0, 3, 3) == 5


def test_add_shift_bijective_small():
    for z in (1, 2, 3, 4):
        for r in range(1 << z):
            for c in range(z):
                image = {add_shift_hash(x, r, c, z) for x in range(1 << z)}
                assert len(image) == 1 << z


def test_add_shift_rejects_out_of_range():
    with pytest.raises(FsmwmError):
        add_shift_hash(8, 0, 0, 3)
    with pytest.raises(FsmwmError):
        add_shift_hash(0, 0, 0, 0)


def test_branch_input_bits():
    assert branch_input_bits(1) == 1
    assert branch_input_bits(2) == 1
    assert branch_input_bits(3) == 2
    assert branch_input_bits(4) == 2
    assert branch_input_bits(5) == 3


def _ranks(g, n):
    """Rank of each sized-path vertex among the path's n vertices."""
    base = sized_path(longest_simple_path(g), n).vertices
    return [sorted(base).index(v) for v in base]


def test_lprk_shape_and_walk(host8):
    g = connectivity_graph(host8)
    n, k = 4, 3
    z = find_branch_width(n, k)
    m = lpr_k(g, LprkSpec(n=n, k=k, z=z))
    assert len(m.states) == n * k + 1
    assert m.reset == 1 << z
    assert _ranks(g, n) == [0, 2, 3, 1]
    for v in range(1 << branch_input_bits(k)):
        schedule = [str(v)] + ["0"] * (n - 1)
        states = run_states(m, schedule)
        assert len(states) == n + 1
        assert states[1:] == [(v % k) * n + r for r in _ranks(g, n)]
        outs, _ = run(m, schedule)
        assert outs == [str(s) for s in states[:-1]]


def test_lprk_tail_ticks_in_place(host8):
    g = connectivity_graph(host8)
    m = lpr_k(g, LprkSpec(n=3, k=2, z=find_branch_width(3, 2)))
    states = run_states(m, ["0"] + ["0"] * 5)
    assert states[3] == states[4] == states[5]


def test_lprk_every_small_shape_builds(host8):
    # every branch id fits under the start state 1 << z
    g = connectivity_graph(host8)
    for n in range(1, 41):
        for k in range(1, 41):
            z = find_branch_width(n, k)
            m = lpr_k(g, LprkSpec(n=n, k=k, z=z))
            assert len(m.states) == n * k + 1
            assert m.reset == 1 << z
            assert max(m.states - {m.reset}) < 1 << z


def test_lprk_branch_zero_follows_the_sized_path(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        n, k = rng.randint(1, 20), rng.randint(1, 4)
        m = lpr_k(g, LprkSpec(n=n, k=k, z=find_branch_width(n, k)))
        states = run_states(m, ["0"] * n)
        assert states[1:] == _ranks(g, n)


def _hamiltonian(order):
    """The cycle through ``order``, rooted at its first vertex."""
    from fsmwm import ConnGraph
    edges = zip(order, order[1:] + order[:1])
    return ConnGraph(frozenset(order), frozenset(edges), order[0])


@pytest.mark.parametrize("n, k", [(3, 5), (4, 3), (6, 2)])
def test_lprk_follows_the_host(host8, n, k):
    # host8's sized path runs 1, 4, 7, 2, 5, 8, ...; this one 1, 3, 2, 4, ...
    hosts = [connectivity_graph(host8), _hamiltonian([0, 2, 1] + list(range(3, 20)))]
    assert _ranks(hosts[0], n) != _ranks(hosts[1], n)
    spec = LprkSpec(n=n, k=k, z=find_branch_width(n, k))
    texts = [format_fsm(lpr_k(g, spec)) for g in hosts + hosts]
    assert texts[0] != texts[1]
    assert texts[:2] == texts[2:]


def test_lprk_narrow_width_raises(host8):
    g = connectivity_graph(host8)
    for n, k in [(2, 2), (4, 3), (2, 7), (5, 5)]:
        z = find_branch_width(n, k)
        assert 1 << (z - 1) <= n * k - 1 < 1 << z
        with pytest.raises(HashCollisionError, match="too narrow"):
            lpr_k(g, LprkSpec(n=n, k=k, z=z - 1))
