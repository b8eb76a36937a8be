"""Byte identity of the direct writers: every machine document, graph
document, package and secret reads exactly as ``_layout`` lays out the
dict-built document, decodes to that document, and parses back to the
same value.  The same document in the ``json.dumps(doc, sort_keys=True,
indent=2)`` layout, which the library wrote before, parses to the same
value too.  (The test names predate the one-line layout.)"""

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


def _layout(value, pad: str = "") -> str:
    """Reference of the layout rule, independent of the writers: keys
    sorted, a container that holds only scalars on one line as
    ``json.dumps(value, sort_keys=True)`` writes it, any other container one
    member per line as ``indent=2`` writes it."""
    if isinstance(value, dict):
        members, brackets = [(f"{json.dumps(k)}: ", v) for k, v in sorted(value.items())], "{}"
    elif isinstance(value, list):
        members, brackets = [("", v) for v in value], "[]"
    else:
        members = []
    if not any(isinstance(v, (dict, list)) for _, v in members):
        return json.dumps(value, sort_keys=True)
    inner = pad + "  "
    body = ",\n".join(inner + head + _layout(v, inner) for head, v in members)
    return f"{brackets[0]}\n{body}\n{pad}{brackets[1]}"


def _check(text: str, doc: dict, parse, value):
    assert text == _layout(doc) + "\n"
    assert json.loads(text) == doc
    assert parse(text) == value
    assert parse(json.dumps(doc, sort_keys=True, indent=2) + "\n") == value


NO_TRANSITIONS = Fsm(frozenset({0}), (), ("",), 0, {})


@settings(max_examples=200, deadline=None)
@given(machines())
@example(NO_TRANSITIONS)
def test_format_fsm_is_json_dumps_of_the_document(m):
    _check(format_fsm(m), oracle_doc(m), parse_fsm, m)


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
    _check(format_graph(g), {
        "vertices": sorted(g.vertices),
        "edges": [list(e) for e in sorted(g.edges)],
        "root": g.root,
    }, parse_graph, g)


@settings(max_examples=60, deadline=None)
@given(machines(), SYMBOL, st.lists(st.integers(0, 2**40), min_size=2, max_size=2))
@example(NO_TRANSITIONS, "fixed", [1, 8])
def test_format_package_is_json_dumps_of_the_document(wm, mode, tap):
    chi, omega = tap
    p = Package(mode, wm, chi, omega)
    _check(format_package(p), {
        "kind": "package",
        "mode": mode,
        "watermark": oracle_doc(wm),
        "tap": {"chi": chi, "omega": omega, "scheme": "lehmer"},
    }, parse_package, p)


@settings(max_examples=60, deadline=None)
@given(machines(), machines(), SYMBOL)
@example(NO_TRANSITIONS, NO_TRANSITIONS, "matrix")
def test_format_secret_is_json_dumps_of_the_document(decoder, redux, mode):
    s = Secret(mode, decoder, redux)
    _check(format_secret(s), {
        "kind": "secret",
        "mode": mode,
        "decoder": oracle_doc(decoder),
        "redux": oracle_doc(redux),
        "scheme": "lehmer",
    }, parse_secret, s)
