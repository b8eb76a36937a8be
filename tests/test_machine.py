"""Machine model, graph views and interchange formats."""

import json
import random

import pytest

from fsmwm import (
    ConnGraph,
    Fsm,
    SemanticError,
    SyntaxError_,
    connectivity_graph,
    format_fsm,
    format_graph,
    parse_fsm,
    parse_graph,
    parse_kiss2,
    run,
    run_states,
    standard_cg_machine,
)
from fsmwm.machine import _reachable
from conftest import all_strings, make_chain_host, random_graph, random_machine, traced_memory


def test_fsm_rejects_unknown_reset():
    with pytest.raises(SemanticError):
        Fsm(frozenset([0]), ("0",), ("a",), 5, {})


@pytest.mark.parametrize("step", [{(9, "0"): (0, "a")}, {(0, "0"): (9, "a")}])
def test_fsm_rejects_steps_leaving_the_state_set(step):
    with pytest.raises(SemanticError, match="leaves the state set"):
        Fsm(frozenset([0]), ("0",), ("a",), 0, step)


def test_fsm_rejects_unknown_symbols():
    with pytest.raises(SemanticError):
        Fsm(frozenset([0]), ("0",), ("a",), 0, {(0, "x"): (0, "a")})
    with pytest.raises(SemanticError):
        Fsm(frozenset([0]), ("0",), ("a",), 0, {(0, "0"): (0, "b")})


def test_connectivity_graph_collapses_parallel_inputs():
    m = Fsm(
        frozenset([0, 1]), ("0", "1"), ("a",), 0,
        {(0, "0"): (1, "a"), (0, "1"): (1, "a"), (1, "0"): (0, "a")},
    )
    g = connectivity_graph(m)
    assert g.edges == frozenset({(0, 1), (1, 0)})
    assert g.root == 0


def test_successors_sorted_and_outside_identity():
    g = ConnGraph(frozenset([7, 3, 11]), frozenset([(3, 11), (3, 7), (11, 7)]), 3)
    twin = ConnGraph(g.vertices, g.edges, g.root)
    assert g.successors(3) == (7, 11) and g.successors(7) == ()
    assert g.successors(3) is g.successors(3)  # built once, then shared
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)


def test_standard_machine_linear_graph_single_tick():
    g = ConnGraph(frozenset([1, 2, 3]), frozenset([(1, 2), (2, 3)]), 1)
    m = standard_cg_machine(g)
    assert m.inputs == ("0",)
    outs, consumed = run(m, ["0", "0", "0"])
    assert outs == ["1", "2"] and consumed == 2


def test_standard_machine_branch_choice_ordered_by_target():
    g = ConnGraph(frozenset([0, 2, 5]), frozenset([(0, 5), (0, 2)]), 0)
    m = standard_cg_machine(g)
    assert m.inputs == ("0", "1")
    assert m.transitions == {(0, "0"): (2, "0"), (0, "1"): (5, "0")}


def test_run_states_includes_reset():
    g = ConnGraph(frozenset([1, 2, 3]), frozenset([(1, 2), (2, 3)]), 1)
    m = standard_cg_machine(g)
    assert run_states(m, ["0", "0", "0"]) == [1, 2, 3]


def test_reachable_walk_is_breadth_first(rng):
    for _ in range(40):
        m = random_machine(rng, rng.randint(1, 6), rng.randint(1, 3),
                           total=rng.random() < 0.5)
        dist = {}
        for w in all_strings(m.inputs, len(m.states) - 1):
            states = run_states(m, w)
            if len(states) == len(w) + 1:
                dist.setdefault(states[-1], len(w))
        steps = list(_reachable(m.reset, m.moves))
        assert sorted((s, sym) for _, s, sym, _, _ in steps) == sorted(
            key for key in m.transitions if key[0] in dist)
        for depth, s, sym, nxt, out in steps:
            assert depth == dist[s]
            assert (nxt, out) == m.transitions[s, sym]
        depths = [depth for depth, *_ in steps]
        assert depths == sorted(depths)


def test_fsm_json_round_trip(host8):
    assert parse_fsm(format_fsm(host8)) == host8
    # formatting is deterministic byte for byte
    assert format_fsm(host8) == format_fsm(parse_fsm(format_fsm(host8)))


def test_fsm_json_syntax_error_position():
    with pytest.raises(SyntaxError_) as e:
        parse_fsm('{"states": [0,]\n}')
    assert e.value.line is not None


def test_fsm_json_duplicate_transition():
    doc = (
        '{"states":[0],"inputs":["0"],"outputs":["a"],"reset":0,'
        '"transitions":[{"from":0,"in":"0","to":0,"out":"a"},'
        '{"from":0,"in":"0","to":0,"out":"a"}]}'
    )
    with pytest.raises(SemanticError):
        parse_fsm(doc)


def test_fsm_json_unknown_state():
    doc = (
        '{"states":[0],"inputs":["0"],"outputs":["a"],"reset":0,'
        '"transitions":[{"from":0,"in":"0","to":9,"out":"a"}]}'
    )
    with pytest.raises(SemanticError):
        parse_fsm(doc)


def test_graph_round_trip(rng):
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8))
        assert parse_graph(format_graph(g)) == g


KISS = """\
# comment
.i 2
.o 1
.s 3
.p 4
.r st0
01 st0 st1 1
1- st1 st2 0
00 st2 st0 1
"""


def test_kiss2_hand_oracle():
    m = parse_kiss2(KISS)
    # reset state first, then first-appearance order
    assert m.reset == 0
    assert m.states == frozenset([0, 1, 2])
    assert m.transitions[(0, "01")] == (1, "1")
    # the don't-care expands to both 10 and 11
    assert m.transitions[(1, "10")] == (2, "0")
    assert m.transitions[(1, "11")] == (2, "0")
    assert m.transitions[(2, "00")] == (0, "1")
    assert (0, "00") not in m.transitions


def test_kiss2_rejects_duplicates():
    bad = ".i 1\n.o 1\n0 a b 1\n0 a b 1\n"
    with pytest.raises(SemanticError):
        parse_kiss2(bad)


@pytest.mark.parametrize("fields, symbol", [
    ("0x a b 1\n", "'0x'"),
    ("x- a b 1\n", "'x0'"),                         # the first pattern a don't-care gives
    ("00 a b 1\n-2 a a 0\n", "'02'"),
    ("x- a b 1\n-- a b 1\n1_ a a 0\n", "'x0'"),     # the first line outside the alphabet
])
def test_kiss2_field_outside_the_alphabet_names_its_symbol(fields, symbol):
    with pytest.raises(SemanticError) as e:
        parse_kiss2(".i 2\n.o 1\n" + fields)
    assert str(e.value) == f"unknown input symbol {symbol}"


@pytest.mark.parametrize("fields, line", [
    ("x- a b 1\nx1 a a 0\n", 4),         # two fields outside the alphabet that overlap
    ("x- a b 1\n1- a b 1\n11 a a 0\n", 5),
])
def test_kiss2_duplicate_is_found_before_an_unknown_symbol(fields, line):
    with pytest.raises(SemanticError) as e:
        parse_kiss2(".i 2\n.o 1\n" + fields)
    assert str(e.value) == f"duplicate transition at line {line}"


def test_kiss2_keeps_one_move_per_line():
    # 4 all-don't-care lines of .i 12: 16,384 steps over one 4,096-symbol
    # alphabet.  A step is one key tuple and dict slot; its input symbol is
    # the alphabet's string and its move the line's one tuple.
    text = ".i 12\n.o 1\n" + "".join(f"{'-' * 12} s{j} s{j} 1\n" for j in range(4))
    kept, _ = traced_memory(parse_kiss2, text)
    assert kept / (4 << 12) <= 150


def test_parse_fsm_holds_each_value_once():
    # Each row is released once stored, and the text once decoded: the
    # reader peaks near the decoded document, not at document plus machine.
    text = format_fsm(make_chain_host(1 << 12))
    _, peak = traced_memory(parse_fsm, text)
    _, decoded = traced_memory(json.loads, text)
    assert peak <= 1.2 * decoded


def test_kiss2_rejects_short_line():
    with pytest.raises(SyntaxError_):
        parse_kiss2(".i 1\n.o 1\n0 a b\n")


@pytest.mark.parametrize("field, value", [
    ("states", [0, True]),
    ("reset", False),
    ("from", True),
    ("to", True),
])
def test_fsm_json_rejects_boolean_ids(field, value):
    doc = {"states": [0, 1], "inputs": ["0"], "outputs": ["a"], "reset": 0,
           "transitions": [{"from": 0, "in": "0", "to": 1, "out": "a"}]}
    if field in ("from", "to"):
        doc["transitions"][0][field] = value
    else:
        doc[field] = value
    with pytest.raises(SemanticError):
        parse_fsm(json.dumps(doc))


@pytest.mark.parametrize("field, value", [
    ("vertices", [0, True]),
    ("root", False),
    ("edges", [[0, True]]),
])
def test_graph_json_rejects_boolean_ids(field, value):
    doc = {"vertices": [0, 1], "edges": [[0, 1]], "root": 0}
    doc[field] = value
    with pytest.raises(SemanticError):
        parse_graph(json.dumps(doc))
