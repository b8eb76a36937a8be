"""Byte identity of the direct writers: every machine document, graph
document, package and secret reads exactly as ``json.dumps(doc,
sort_keys=True, indent=2)`` of the dict-built document, and parses back
to the same value."""

import json

from hypothesis import example, given, settings, strategies as st

from fsmwm import ConnGraph, Fsm, format_fsm, format_graph, parse_fsm, parse_graph
from fsmwm.verify import (
    Package,
    Secret,
    format_package,
    format_secret,
    parse_package,
    parse_secret,
)
from conftest import oracle_doc

# Characters that a hand-written JSON writer gets wrong first: quoting,
# escapes, structure, control and non-ASCII text (one outside the BMP).
SYMBOL = st.text(st.sampled_from(['"', "\\", "\n", "\t", "\x00", "{", "}", ",",
                                  ":", " ", "0", "a", "é", "☃", "𝄞"]),
                 max_size=3)


@st.composite
def machines(draw):
    states = sorted(draw(st.sets(st.integers(0, 300), min_size=1, max_size=6)))
    inputs = draw(st.lists(SYMBOL, max_size=4, unique=True))
    outputs = draw(st.lists(SYMBOL, min_size=1, max_size=4, unique=True))
    keys = draw(st.sets(st.tuples(st.sampled_from(states), st.sampled_from(inputs)))
                ) if inputs else set()
    return Fsm(
        states=frozenset(states),
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        reset=draw(st.sampled_from(states)),
        transitions={k: (draw(st.sampled_from(states)), draw(st.sampled_from(outputs)))
                     for k in keys},
    )


def _oracle(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


NO_TRANSITIONS = Fsm(frozenset({0}), (), ("",), 0, {})


@settings(max_examples=200, deadline=None)
@given(machines())
@example(NO_TRANSITIONS)
def test_format_fsm_is_json_dumps_of_the_document(m):
    text = format_fsm(m)
    assert text == _oracle(oracle_doc(m))
    assert parse_fsm(text) == m


@st.composite
def graphs(draw):
    vertices = sorted(draw(st.sets(st.integers(0, 2**40), min_size=1, max_size=8)))
    vertex = st.sampled_from(vertices)
    return ConnGraph(vertices=frozenset(vertices),
                     edges=frozenset(draw(st.sets(st.tuples(vertex, vertex)))),
                     root=draw(vertex))


@settings(max_examples=200, deadline=None)
@given(graphs())
@example(ConnGraph(frozenset({0}), frozenset(), 0))
def test_format_graph_is_json_dumps_of_the_document(g):
    text = format_graph(g)
    assert text == _oracle({
        "vertices": sorted(g.vertices),
        "edges": [list(e) for e in sorted(g.edges)],
        "root": g.root,
    })
    assert parse_graph(text) == g


@settings(max_examples=60, deadline=None)
@given(machines(), machines(), SYMBOL, st.lists(st.integers(0, 2**40), min_size=4,
                                               max_size=4))
@example(NO_TRANSITIONS, NO_TRANSITIONS, "fixed", [1, 8, 0, 1])
def test_format_package_is_json_dumps_of_the_document(host, wm, mode, tap):
    chi, omega, n, k = tap
    p = Package(mode, host, wm, chi, omega, n, k)
    text = format_package(p)
    assert text == _oracle({
        "kind": "package",
        "mode": mode,
        "host": oracle_doc(host),
        "watermark": oracle_doc(wm),
        "tap": {"chi": chi, "omega": omega, "scheme": "lehmer", "n": n, "k": k},
    })
    assert parse_package(text) == p


@settings(max_examples=60, deadline=None)
@given(machines(), machines(), SYMBOL)
@example(NO_TRANSITIONS, NO_TRANSITIONS, "matrix")
def test_format_secret_is_json_dumps_of_the_document(decoder, redux, mode):
    s = Secret(mode, decoder, redux)
    text = format_secret(s)
    assert text == _oracle({
        "kind": "secret",
        "mode": mode,
        "decoder": oracle_doc(decoder),
        "redux": oracle_doc(redux),
        "scheme": "lehmer",
    })
    assert parse_secret(text) == s
