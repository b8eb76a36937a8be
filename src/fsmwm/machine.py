"""Mealy machines, rooted connectivity graphs, and the JSON interchange
layer shared by every document the toolkit reads or writes.

All values are immutable after construction and all operations are pure,
so machines and graphs can be shared freely between threads.
"""

from __future__ import annotations

import json
from collections import deque
from functools import cached_property
from operator import itemgetter

from .errors import (KISS2_MAX_INPUT_BITS, KISS2_MAX_TRANSITIONS, CapExceededError,
                     SemanticError, SyntaxError_, clip)


class _Record:
    """Base of the value types.  Fields are a class's annotations, in order,
    and defaults its class attributes.  A value is built by position or
    keyword and checked by ``__post_init__``; it compares, hashes and prints
    by its fields alone, and refuses assignment to them.  The methods are
    shared: generating them per class costs each command milliseconds."""

    _fields, _names, _defaults = (), frozenset(), {}

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._names = frozenset(cls._fields)
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields if n in cls.__dict__}

    def __init__(self, *args, **kwargs):
        names = self._fields
        if not kwargs and len(args) == len(names):      # the two usual calls first
            self.__dict__.update(zip(names, args))
        elif not args and kwargs.keys() == self._names:
            self.__dict__.update(kwargs)
        else:
            given = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if (len(args) > len(names) or given.keys() != self._names
                    or not kwargs.keys().isdisjoint(names[:len(args)])):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
            self.__dict__.update(given)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(map("%s=%r".__mod__, zip(self._fields, self._values())))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):        # also serves as __delattr__
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def replace(self, **changes):
        """A copy with the given fields changed, checked as a new value is."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class Fsm(_Record):
    """Deterministic Mealy machine over string symbols.

    ``transitions`` is the one step map: (state, input) -> (next state,
    output).  The map may be partial.  State ids are non-negative integers.
    """

    states: frozenset[int]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    reset: int
    transitions: dict[tuple[int, str], tuple[int, str]]

    def __post_init__(self):
        if self.reset not in self.states:
            raise SemanticError(f"reset state {clip(str(self.reset))} not in state set")
        states, inputs, outputs = self.states, set(self.inputs), set(self.outputs)
        for (src, sym), (dst, out) in self.transitions.items():
            if src not in states or dst not in states:
                raise SemanticError(f"transition {clip(f'({src},{sym})->{dst}')} "
                                    "leaves the state set")
            if sym not in inputs:
                raise SemanticError(f"unknown input symbol {clip(repr(sym))}")
            if out not in outputs:
                raise SemanticError(f"unknown output symbol {clip(repr(out))} "
                                    f"at {clip(str((src, sym)))}")

    def __hash__(self):                 # the step map, a dict, is compared but not hashed
        return hash((self.states, self.inputs, self.outputs, self.reset))

    def moves(self, state: int):
        """(input, next state, output) per defined input, in alphabet order."""
        for sym in self.inputs:
            move = self.transitions.get((state, sym))
            if move is not None:
                yield sym, *move


class ConnGraph(_Record):
    """Rooted digraph: the host machine's topology with I/O erased."""

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]
    root: int

    def __post_init__(self):
        if self.root not in self.vertices:
            raise SemanticError(f"root {clip(str(self.root))} not in vertex set")
        for u, v in self.edges:
            if u not in self.vertices or v not in self.vertices:
                raise SemanticError(f"edge {clip(f'({u},{v})')} leaves the vertex set")

    @cached_property
    def _succ(self) -> dict[int, tuple[int, ...]]:
        # Built on first use; a cached_property is not a declared field,
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


def run(m: Fsm, symbols) -> tuple[list[str], int]:
    """Drive the machine from reset; truncates at the first hole.

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
    """A bundle document plus a newline, in the layout of every document
    the library writes: keys sorted, a container that holds only scalars on
    one line as ``json.dumps(value, sort_keys=True)`` writes it, and any
    other container one member per line as ``indent=2`` writes it.  A
    top-level ``Fsm`` value stands for its machine document, written at
    its depth; every other value is a scalar or a container of scalars."""
    items = [f'  {json.dumps(key)}: ' + (
        _fsm_text(value, "  ") if isinstance(value, Fsm) else json.dumps(value, sort_keys=True))
        for key, value in sorted(doc.items())]
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


def _json_list(items: list[str], pad: str = "") -> str:
    """One-line JSON texts, one per line, as a member of an object at ``pad``."""
    return f"[\n{pad}    " + f",\n{pad}    ".join(items) + f"\n{pad}  ]" if items else "[]"


def _fsm_text(m: Fsm, pad: str = "") -> str:
    """The machine document in the library's layout (see ``_dump_doc``), its
    lines after the first prefixed with ``pad``: one line per alphabet, for
    the states and per transition (one f-string over symbols encoded once).
    Two stable sorts order keys by (state, input) without tuple compares."""
    enc = {sym: json.dumps(sym) for sym in (*m.inputs, *m.outputs)}
    keys = sorted(m.transitions, key=itemgetter(1))
    keys.sort(key=itemgetter(0))
    transitions = [
        f'{{"from": {src}, "in": {enc[sym]}, "out": {enc[out]}, "to": {dst}}}'
        for (src, sym), (dst, out) in zip(keys, map(m.transitions.__getitem__, keys))
    ]
    return (f'{{\n{pad}  "inputs": {json.dumps(m.inputs)},\n'
            f'{pad}  "outputs": {json.dumps(m.outputs)},\n'
            f'{pad}  "reset": {m.reset},\n'
            f'{pad}  "states": {json.dumps(sorted(m.states))},\n'
            f'{pad}  "transitions": {_json_list(transitions, pad)}\n{pad}}}')


def fsm_from_doc(doc: dict) -> Fsm:
    """Type, shape and duplicate checks here; ``Fsm`` checks membership.  Empties
    the document's rows, each set to None once stored, to hold no value twice."""
    transitions = {}
    rows = _field(doc, "transitions", list)
    for i, t in enumerate(rows):
        try:
            src, sym, dst, out = t["from"], t["in"], t["to"], t["out"]
        except (KeyError, TypeError):
            raise SemanticError("transition needs from, in, to and out: "
                                f"{clip(str(t))}") from None
        if not (type(src) is int and type(dst) is int):
            raise SemanticError(f"transition states must be integer ids: {clip(str(t))}")
        if not (isinstance(sym, str) and isinstance(out, str)):
            raise SemanticError(f"transition symbols must be strings: {clip(str(t))}")
        if (src, sym) in transitions:
            raise SemanticError(f"duplicate transition for state {clip(str(src))} "
                                f"input {clip(sym)!r}")
        transitions[src, sym] = (dst, out)
        rows[i] = None
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
    """Replaces each edge row of the document with its pair as it checks it."""
    rows = _field(doc, "edges", list)
    for i, e in enumerate(rows):
        if not (isinstance(e, list) and len(e) == 2
                and type(e[0]) is int and type(e[1]) is int):
            raise SemanticError(f"edge {clip(str(e))} must be a pair of vertex ids")
        rows[i] = e[0], e[1]
    return ConnGraph(
        vertices=_ids(doc, "vertices"),
        edges=frozenset(rows),
        root=_field(doc, "root", int),
    )


def parse_graph(text: str) -> ConnGraph:
    return graph_from_doc(_load_doc(text))


def format_graph(g: ConnGraph) -> str:
    """The graph document in the library's layout (``_dump_doc``): one edge per line."""
    edges = [f"[{a}, {b}]" for a, b in sorted(g.edges)]
    return (f'{{\n  "edges": {_json_list(edges)},\n  "root": {g.root},\n'
            f'  "vertices": {json.dumps(sorted(g.vertices))}\n}}\n')


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
        raise CapExceededError(f"a KISS2 .i of {clip(width)} bits", KISS2_MAX_INPUT_BITS)
    ni = int(width)
    steps = sum(1 << ibits.count("-") for _, (ibits, *_) in lines)
    if steps > KISS2_MAX_TRANSITIONS:
        raise CapExceededError(f"a KISS2 file of {steps} steps", KISS2_MAX_TRANSITIONS)
    ids: dict[str, int] = {}        # state name -> id, in order of first appearance
    if headers.get(".r"):
        ids[headers[".r"]] = 0
    inputs = tuple(format(i, f"0{ni}b") for i in range(2 ** ni)) if ni else ("",)

    def expand(bits: str):
        # A field's input symbols in ascending order; a bit pattern's are the alphabet's
        if len(bits) != ni:
            raise SemanticError(f"input field {clip(bits)!r} does not match .i {ni}")
        if bits.strip("01-"):   # symbols outside the alphabet, which ``Fsm`` refuses
            pats = [""]
            for b in bits:
                pats = [p + c for p in pats for c in ("01" if b == "-" else b)]
            return pats
        codes = [int(bits.replace("-", "0"), 2)]
        for i, b in enumerate(reversed(bits)):      # low bits first: codes stay ascending
            if b == "-":
                codes = [c + d for d in (0, 1 << i) for c in codes]
        return map(inputs.__getitem__, codes)

    transitions = {}
    outputs = set()
    for lineno, (ibits, src, dst, obits) in lines:
        s = ids.setdefault(src, len(ids))
        move = (ids.setdefault(dst, len(ids)), obits)       # one per line, shared by its steps
        for sym in expand(ibits):
            if (s, sym) in transitions:
                raise SemanticError(f"duplicate transition at line {lineno}")
            transitions[s, sym] = move
        outputs.add(obits)
    if not ids:
        raise SemanticError("no states in document")
    return Fsm(
        states=frozenset(ids.values()),
        inputs=inputs,
        outputs=tuple(sorted(outputs)),
        reset=0,
        transitions=transitions,
    )
