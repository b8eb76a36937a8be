"""Permutation-matrix encryption of a linear reduction and the
trace-built decryption machine."""

from __future__ import annotations

import random
from itertools import repeat

from .errors import AlphabetMismatchError, DimensionError, FsmwmError
from .machine import ConnGraph, Fsm, _reachable, _Record, standard_cg_machine
from .reduction import chain_of


class PermKey(_Record):
    """Permutation over matrix indices.  Its matrix K has a one at
    (i, image[i]) in each row i, so K is orthogonal over booleans and
    right-multiplying an adjacency matrix by K renames edge heads."""

    image: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.image) != list(range(len(self.image))):
            raise DimensionError("key image is not a permutation")

    @property
    def dimension(self) -> int:
        return len(self.image)

    def inverse(self) -> "PermKey":
        inv = [0] * len(self.image)
        for i, j in enumerate(self.image):
            inv[j] = i
        return PermKey(tuple(inv))

    def vertex_map(self, g: ConnGraph) -> dict[int, int]:
        """Permutation lifted to vertex ids via the sorted index mapping."""
        ids = sorted(g.vertices)
        if len(ids) != self.dimension:
            raise DimensionError("key dimension does not match vertex count")
        return {ids[i]: ids[self.image[i]] for i in range(len(ids))}


def random_perm_key(m: int, seed: int) -> PermKey:
    """Uniform permutation via seeded Fisher-Yates; deterministic per seed."""
    if m < 1:
        raise DimensionError("dimension must be >= 1")
    image = list(range(m))
    rng = random.Random(seed)
    for i in range(m - 1, 0, -1):
        j = rng.randint(0, i)
        image[i], image[j] = image[j], image[i]
    return PermKey(tuple(image))


def _rename_heads(pi: dict[int, int], g: ConnGraph) -> ConnGraph:
    return ConnGraph(g.vertices, frozenset((u, pi[w]) for u, w in g.edges), g.root)


def encrypt_graph(key: PermKey, g: ConnGraph) -> ConnGraph:
    """A*K: every edge (u, w) becomes (u, pi(w)); vertices and root stay."""
    return _rename_heads(key.vertex_map(g), g)


def decrypt_graph(key: PermKey, g: ConnGraph) -> ConnGraph:
    """A*Kt, the inverse rename of edge heads; inverts encrypt_graph."""
    return _rename_heads(key.inverse().vertex_map(g), g)


def relabel_graph(key: PermKey, g: ConnGraph) -> ConnGraph:
    """Conjugation Kt*A*K: rename every vertex through the key."""
    pi = key.vertex_map(g)
    return ConnGraph(
        vertices=frozenset(pi[v] for v in g.vertices),
        edges=frozenset((pi[u], pi[v]) for u, v in g.edges),
        root=pi[g.root],
    )


def build_watermark_machine(key: PermKey, lpr_graph: ConnGraph) -> Fsm:
    """Runnable concealed machine: the reduction with vertices renamed
    through the key, then converted to a standard walking machine.

    Conjugation is used instead of the bare right-multiplication because
    the bare product can strand the walker on a vertex with no out-edge;
    the bare transforms remain available as encrypt/decrypt_graph.
    """
    return standard_cg_machine(relabel_graph(key, lpr_graph))


def trace_pair(lpr_graph: ConnGraph, key: PermKey) -> tuple[tuple[int, int], ...]:
    """Synchronized walk of the reduction and its concealed twin: one
    (vertex, renamed vertex) pair per chain vertex, root first."""
    pi = key.vertex_map(lpr_graph)
    return tuple((u, pi[u]) for u in chain_of(lpr_graph))


def build_decryption_machine(key: PermKey, lpr_graph: ConnGraph) -> Fsm:
    """Verifier-side machine that mimics the reduction but only advances
    on the concealed machine's next emission: about 3m steps, not m * m.

    Row u_t of the chain u_0 .. u_{m-1} advances on the renamed u_{t+1}.
    Only rows u_0, where a genuine run echoes once, and u_{m-2}, where it
    ends and a watermark that keeps emitting is caught, echo their state
    on every other symbol.  Replay stops at any other step, one output
    short where an echo would differ, so verdicts are those of a decoder
    that echoes in every row."""
    trace = trace_pair(lpr_graph, key)
    chain = [u for u, _ in trace]
    inputs = tuple(str(v) for _, v in sorted(trace, key=lambda p: p[1]))
    syms = [str(v) for _, v in trace]
    transitions = {}
    for t, u in enumerate(chain):
        if t in (0, len(chain) - 2):        # an echo row, built in C
            transitions.update(zip(zip(repeat(u), syms), repeat((u, str(u)))))
        if t + 1 < len(chain):              # every row advances on the next emission
            transitions[u, syms[t + 1]] = (chain[t + 1], str(chain[t + 1]))
    return Fsm(
        states=frozenset(chain),
        inputs=inputs,
        outputs=tuple(str(u) for u in sorted(chain)),
        reset=chain[0],
        transitions=transitions,
    )


def compose_cascade(front: Fsm, back: Fsm) -> Fsm:
    """Pipeline product: one external input drives the front machine and
    its output is consumed by the back machine within the same step; the
    composite output is the back machine's output.

    Only the reachable product states are materialized.
    """
    if not set(front.outputs) <= set(back.inputs):
        raise AlphabetMismatchError(
            "front output alphabet is not contained in back input alphabet"
        )

    def moves(pair):
        sf, sb = pair
        for sym, nf, of in front.moves(sf):
            move = back.transitions.get((sb, of))
            if move is not None:
                yield sym, (nf, move[0]), move[1]

    start = (front.reset, back.reset)
    numbering = {start: 0}
    transitions = {}
    for _, pair, sym, nxt, out in _reachable(start, moves):
        transitions[numbering[pair], sym] = (numbering.setdefault(nxt, len(numbering)), out)
    return Fsm(
        states=frozenset(numbering.values()),
        inputs=front.inputs,
        outputs=back.outputs,
        reset=0,
        transitions=transitions,
    )


def format_key(key: PermKey) -> str:
    """One line, space-separated permutation image."""
    return " ".join(str(i) for i in key.image) + "\n"


def parse_key(text: str) -> PermKey:
    tokens = text.split()
    try:
        image = tuple(map(int, tokens))
        if list(map(str, image)) != tokens:     # as format_key writes it: no 02, +2, 0_0 or ٢
            tok = next(t for t, i in zip(tokens, image) if str(i) != t)
            raise ValueError(f"invalid literal for int() with base 10: {tok!r}")
    except ValueError as e:
        raise FsmwmError(f"malformed key file: {e}") from e
    if not image:
        raise FsmwmError("empty key file")
    return PermKey(image)
