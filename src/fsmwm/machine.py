"""Mealy machines, rooted connectivity graphs, and the JSON interchange
layer shared by every document the toolkit reads or writes.

All values are immutable after construction and all operations are pure,
so machines and graphs can be shared freely between threads.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .errors import CapExceededError, HaltError, SemanticError, SyntaxError_, clip

KISS2_MAX_INPUT_BITS = 16   # .i above this would build over 65,536 input symbols
KISS2_MAX_TRANSITIONS = 1 << 20     # steps the don't-care input bits may expand to


@dataclass(frozen=True)
class Fsm:
    """Deterministic Mealy machine over string symbols.

    ``transitions`` is the one step map: (state, input) -> (next state,
    output).  The map may be partial.  State ids are non-negative integers.
    """

    states: frozenset[int]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    reset: int
    transitions: dict[tuple[int, str], tuple[int, str]] = field(hash=False)

    def __post_init__(self):
        if self.reset not in self.states:
            raise SemanticError(f"reset state {self.reset} not in state set")
        states, inputs, outputs = self.states, set(self.inputs), set(self.outputs)
        for (src, sym), (dst, out) in self.transitions.items():
            if src not in states or dst not in states:
                raise SemanticError(f"transition ({src},{sym})->{dst} leaves the state set")
            if sym not in inputs:
                raise SemanticError(f"unknown input symbol {sym!r}")
            if out not in outputs:
                raise SemanticError(f"unknown output symbol {out!r} at {(src, sym)}")

    def moves(self, state: int):
        """(input, next state, output) per defined input, in alphabet order."""
        for sym in self.inputs:
            move = self.transitions.get((state, sym))
            if move is not None:
                yield sym, *move


@dataclass(frozen=True)
class ConnGraph:
    """Rooted digraph: the host machine's topology with I/O erased."""

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]
    root: int

    def __post_init__(self):
        if self.root not in self.vertices:
            raise SemanticError(f"root {self.root} not in vertex set")
        for u, v in self.edges:
            if u not in self.vertices or v not in self.vertices:
                raise SemanticError(f"edge ({u},{v}) leaves the vertex set")

    @cached_property
    def _succ(self) -> dict[int, tuple[int, ...]]:
        # Built on first use; a cached_property is not a dataclass field,
        # so it stays out of eq, hash and repr.
        succ: dict[int, list[int]] = {}
        for u, w in sorted(self.edges):
            succ.setdefault(u, []).append(w)
        return {u: tuple(ws) for u, ws in succ.items()}

    def successors(self, v: int) -> tuple[int, ...]:
        """Heads of the edges leaving v, ascending."""
        return self._succ.get(v, ())


def connectivity_graph(m: Fsm) -> ConnGraph:
    """Project the transition map to edges, collapsing duplicate inputs."""
    edges = frozenset((src, dst) for (src, _), (dst, _) in m.transitions.items())
    return ConnGraph(vertices=m.states, edges=edges, root=m.reset)


def standard_cg_machine(g: ConnGraph) -> Fsm:
    """Machine that walks the graph and outputs the vertex it leaves.

    With out-degree <= 1 everywhere the input alphabet degenerates to the
    single tick symbol "0"; branching vertices consume an edge-choice
    index, edges ordered by target id.
    """
    max_deg = max((len(g.successors(v)) for v in g.vertices), default=0)
    inputs = tuple(str(i) for i in range(max(1, max_deg)))
    outputs = tuple(str(v) for v in sorted(g.vertices))
    transitions = {(v, str(i)): (w, str(v))
                   for v in sorted(g.vertices) for i, w in enumerate(g.successors(v))}
    return Fsm(
        states=g.vertices,
        inputs=inputs,
        outputs=outputs,
        reset=g.root,
        transitions=transitions,
    )


def step(m: Fsm, state: int, sym: str) -> tuple[int, str]:
    """One deterministic step; raises HaltError on an undefined pair."""
    move = m.transitions.get((state, sym))
    if move is None:
        raise HaltError(f"no transition from state {state} on input {sym!r}")
    return move


def run(m: Fsm, symbols) -> tuple[list[str], int]:
    """Left fold of ``step`` from reset; truncates at the first hole.

    Returns the emitted outputs and the number of inputs consumed.
    """
    state = m.reset
    out: list[str] = []
    for sym in symbols:
        move = m.transitions.get((state, sym))
        if move is None:
            break
        state, o = move
        out.append(o)
    return out, len(out)


def run_states(m: Fsm, symbols) -> list[int]:
    """State trajectory from reset, truncating at holes; includes reset."""
    states = [m.reset]
    for sym in symbols:
        move = m.transitions.get((states[-1], sym))
        if move is None:
            break
        states.append(move[0])
    return states


def _reachable(start, moves):
    """Breadth-first walk: with ``moves(s)`` yielding ``(input, next, output)``,
    yields ``(depth, s, input, next, output)`` once per step out of each s
    reachable from start, in nondecreasing depth, before queueing next."""
    seen = {start}
    queue = deque([(0, start)])
    while queue:
        depth, s = queue.popleft()
        for sym, nxt, out in moves(s):
            yield depth, s, sym, nxt, out
            if nxt not in seen:
                seen.add(nxt)
                queue.append((depth + 1, nxt))


# ---------------------------------------------------------------------------
# Interchange formats
# ---------------------------------------------------------------------------

def _load_doc(text: str, kind: str | None = None) -> dict:
    """Decode one JSON document; a bundle must also carry its ``kind``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SyntaxError_(e.msg, line=e.lineno, column=e.colno) from e
    except (ValueError, RecursionError) as e:   # an integer of over 4,300 digits, or deep nesting
        raise SyntaxError_(str(e)) from e
    if not isinstance(doc, dict):
        raise SemanticError("document must be a JSON object")
    if kind is not None and doc.get("kind") != kind:
        raise SemanticError(f"not a {kind} bundle")
    return doc


def _dump_doc(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` plus a newline, where a
    top-level ``Fsm`` value stands for its machine document."""
    items = []
    for key in sorted(doc):
        value = doc[key]
        text = _fsm_text(value) if isinstance(value, Fsm) else \
            json.dumps(value, sort_keys=True, indent=2)
        # A JSON string holds no raw newline, so this only indents lines.
        items.append(f"  {json.dumps(key)}: " + text.replace("\n", "\n  "))
    return "{\n" + ",\n".join(items) + "\n}\n"


def _field(doc: dict, key: str, kind: type):
    """``doc[key]``, checked present and of the given type; a JSON boolean
    is never taken for an integer."""
    try:
        value = doc[key]
    except KeyError:
        raise SemanticError(f"missing field {key!r}") from None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SemanticError(f"field {key!r} must be of type {kind.__name__}")
    return value


def _ids(doc: dict, key: str) -> frozenset[int]:
    ids = _field(doc, key, list)
    if any(type(i) is not int or i < 0 for i in ids):
        raise SemanticError(f"{key} must be non-negative integer ids")
    return frozenset(ids)


def _symbols(doc: dict, key: str) -> tuple[str, ...]:
    syms = _field(doc, key, list)
    if any(not isinstance(sym, str) for sym in syms):
        raise SemanticError(f"{key} must be strings")
    return tuple(syms)


def _json_list(items: list[str]) -> str:
    """A list of JSON texts as one ``indent=2`` member of a top-level object."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def _fsm_text(m: Fsm) -> str:
    """The machine document exactly as ``json.dumps(doc, sort_keys=True,
    indent=2)`` writes it, built from the machine without the document:
    each symbol is JSON-encoded once and each transition is one f-string."""
    enc = {sym: json.dumps(sym) for sym in (*m.inputs, *m.outputs)}
    transitions = [
        f'{{\n      "from": {src},\n      "in": {enc[sym]},\n'
        f'      "out": {enc[out]},\n      "to": {dst}\n    }}'
        for (src, sym), (dst, out) in sorted(m.transitions.items())
    ]
    return (f'{{\n  "inputs": {_json_list([enc[s] for s in m.inputs])},\n'
            f'  "outputs": {_json_list([enc[s] for s in m.outputs])},\n'
            f'  "reset": {m.reset},\n'
            f'  "states": {_json_list([str(s) for s in sorted(m.states)])},\n'
            f'  "transitions": {_json_list(transitions)}\n}}')


def fsm_from_doc(doc: dict) -> Fsm:
    """Type, shape and duplicate checks here; ``Fsm`` checks membership."""
    transitions = {}
    for t in _field(doc, "transitions", list):
        try:
            src, sym, dst, out = t["from"], t["in"], t["to"], t["out"]
        except (KeyError, TypeError):
            raise SemanticError(f"transition needs from, in, to and out: {t}") from None
        if not (type(src) is int and type(dst) is int):
            raise SemanticError(f"transition states must be integer ids: {t}")
        if not (isinstance(sym, str) and isinstance(out, str)):
            raise SemanticError(f"transition symbols must be strings: {t}")
        if (src, sym) in transitions:
            raise SemanticError(f"duplicate transition for state {src} input {sym!r}")
        transitions[src, sym] = (dst, out)
    return Fsm(
        states=_ids(doc, "states"),
        inputs=_symbols(doc, "inputs"),
        outputs=_symbols(doc, "outputs"),
        reset=_field(doc, "reset", int),
        transitions=transitions,
    )


def parse_fsm(text: str) -> Fsm:
    """Parse the JSON-shaped interchange document."""
    return fsm_from_doc(_load_doc(text))


def format_fsm(m: Fsm) -> str:
    return _fsm_text(m) + "\n"


def graph_from_doc(doc: dict) -> ConnGraph:
    edges = set()
    for e in _field(doc, "edges", list):
        if not (isinstance(e, list) and len(e) == 2
                and type(e[0]) is int and type(e[1]) is int):
            raise SemanticError(f"edge {e} must be a pair of vertex ids")
        edges.add((e[0], e[1]))
    return ConnGraph(
        vertices=_ids(doc, "vertices"),
        edges=frozenset(edges),
        root=_field(doc, "root", int),
    )


def parse_graph(text: str) -> ConnGraph:
    return graph_from_doc(_load_doc(text))


def format_graph(g: ConnGraph) -> str:
    """Byte for byte ``json.dumps(doc, sort_keys=True, indent=2)``, built directly."""
    edges = [f"[\n      {a},\n      {b}\n    ]" for a, b in sorted(g.edges)]
    return (f'{{\n  "edges": {_json_list(edges)},\n  "root": {g.root},\n'
            f'  "vertices": {_json_list([str(v) for v in sorted(g.vertices)])}\n}}\n')


def parse_kiss2(text: str) -> Fsm:
    """Map a KISS2 benchmark description onto the same Fsm model.

    Symbolic state names become dense integer ids in order of first
    appearance, the reset state first.  Don't-care input bits expand.
    The alphabet holds all 2**.i input symbols, so ``.i`` is capped, and
    so is the number of steps the don't-cares expand to.
    """
    headers: dict[str, str] = {}
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("."):
            parts = stripped.split()
            headers[parts[0]] = parts[1] if len(parts) > 1 else ""
            continue
        parts = stripped.split()
        if len(parts) != 4:
            raise SyntaxError_("transition line needs 4 fields", line=lineno, column=1)
        lines.append((lineno, parts))
    if ".i" not in headers or ".o" not in headers:
        raise SemanticError("missing .i/.o header")
    if not (width := headers[".i"]).isdecimal():
        raise SemanticError(f".i must be a non-negative integer, not {clip(width)!r}")
    # The length first: int() refuses a string of over 4,300 digits.
    if len(width.lstrip("0")) > 2 or int(width) > KISS2_MAX_INPUT_BITS:
        raise CapExceededError(f".i {clip(width)} passes the cap of "
                               f"{KISS2_MAX_INPUT_BITS} input bits")
    ni = int(width)
    if sum(1 << ibits.count("-") for _, (ibits, *_) in lines) > KISS2_MAX_TRANSITIONS:
        raise CapExceededError("don't-care input bits expand past the cap of "
                               f"{KISS2_MAX_TRANSITIONS} transitions")
    name_to_id: dict[str, int] = {}

    def state_id(name: str) -> int:
        if name not in name_to_id:
            name_to_id[name] = len(name_to_id)
        return name_to_id[name]

    if ".r" in headers and headers[".r"]:
        state_id(headers[".r"])

    def expand(bits: str) -> list[str]:
        if len(bits) != ni:
            raise SemanticError(f"input field {bits!r} does not match .i {ni}")
        pats = [""]
        for b in bits:
            choices = "01" if b == "-" else b
            pats = [p + c for p in pats for c in choices]
        return pats

    transitions = {}
    outputs = set()
    for lineno, (ibits, src, dst, obits) in lines:
        for pat in expand(ibits):
            key = (state_id(src), pat)
            if key in transitions:
                raise SemanticError(f"duplicate transition at line {lineno}")
            transitions[key] = (state_id(dst), obits)
            outputs.add(obits)
    if not name_to_id:
        raise SemanticError("no states in document")
    reset = 0
    inputs = tuple(format(i, f"0{ni}b") for i in range(2 ** ni)) if ni else ("",)
    return Fsm(
        states=frozenset(name_to_id.values()),
        inputs=inputs,
        outputs=tuple(sorted(outputs)),
        reset=reset,
        transitions=transitions,
    )
