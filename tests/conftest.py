"""Shared builders for the test suite.

Everything here is deliberately independent of the library's own
constructions wherever it serves as an oracle.
"""

import random
import tracemalloc
from itertools import product

import pytest

from fsmwm import ConnGraph, Fsm


def make_host8() -> Fsm:
    """Dense 8-state two-input host used across the suite."""
    tr = {(s, sym): ((s + (1 if sym == "0" else 3)) % 8, str((s + int(sym)) % 2))
          for s in range(8) for sym in ("0", "1")}
    return Fsm(frozenset(range(8)), ("0", "1"), ("0", "1"), 0, tr)


def make_chain_host(n: int) -> Fsm:
    """Sparse n-state host whose longest path is trivially the full chain."""
    tr = {}
    for s in range(n):
        tr[(s, "0")] = (min(s + 1, n - 1), str(s % 2))
        tr[(s, "1")] = (s, str((s + 1) % 2))
    return Fsm(frozenset(range(n)), ("0", "1"), ("0", "1"), 0, tr)


def random_graph(rng: random.Random, m: int, density: float = 0.35) -> ConnGraph:
    vertices = frozenset(range(m))
    edges = set()
    for u in range(m):
        for v in range(m):
            if rng.random() < density:
                edges.add((u, v))
    return ConnGraph(vertices=vertices, edges=frozenset(edges), root=0)


def clique_with_leaves(k: int) -> ConnGraph:
    """A root linked to a k-clique whose vertices each lead to a leaf of
    their own: no simple path covers the reachable set, so the path
    search tries every order of the clique."""
    clique = range(1, k + 1)
    edges = ({(0, v) for v in clique} | {(v, v + k) for v in clique}
             | {(u, v) for u in clique for v in clique if u != v})
    return ConnGraph(frozenset(range(2 * k + 1)), frozenset(edges), 0)


def dense(g: ConnGraph) -> list[list[int]]:
    """Boolean adjacency matrix, rows and columns in ascending vertex id."""
    ids = sorted(g.vertices)
    return [[int((u, w) in g.edges) for w in ids] for u in ids]


def key_matrix(image) -> list[list[int]]:
    """Permutation matrix with a one at (i, image[i]) in each row i."""
    return [[int(j == i_img) for j in range(len(image))] for i_img in image]


def bool_matmul(a, b) -> list[list[int]]:
    """Dense boolean product; oracle for the edge-relabelling transforms."""
    cols = list(zip(*b))
    return [[int(any(x and y for x, y in zip(row, col))) for col in cols] for row in a]


def transpose(a) -> list[list[int]]:
    return [list(col) for col in zip(*a)]


def random_machine(rng: random.Random, n_states: int, n_inputs: int,
                   n_outputs: int = 3, total: bool = True) -> Fsm:
    inputs = tuple(str(i) for i in range(n_inputs))
    outputs = tuple(chr(ord("a") + i) for i in range(n_outputs))
    tr = {}
    for s in range(n_states):
        for sym in inputs:
            if total or rng.random() < 0.8:
                tr[(s, sym)] = (rng.randrange(n_states), rng.choice(outputs))
    return Fsm(frozenset(range(n_states)), inputs, outputs, 0, tr)


def oracle_doc(m: Fsm) -> dict:
    """The machine document as a dict, built independently of the
    library's direct writer; the interchange tests lay it out with their
    own reference of the layout rule."""
    return {
        "states": sorted(m.states),
        "inputs": list(m.inputs),
        "outputs": list(m.outputs),
        "reset": m.reset,
        "transitions": [
            {"from": src, "in": sym, "to": dst, "out": out}
            for (src, sym), (dst, out) in sorted(m.transitions.items())
        ],
    }


def traced_memory(f, arg) -> tuple[int, int]:
    """Bytes that ``f(arg)`` allocates and keeps (its result is alive when
    measured), and its peak, by tracemalloc."""
    tracemalloc.start()
    try:
        result = f(arg)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return kept, peak


def all_strings(inputs, n: int):
    """Every input string of length at most n, shortest first."""
    return [list(w) for length in range(n + 1) for w in product(inputs, repeat=length)]


def all_simple_paths_from(g: ConnGraph, start: int):
    """Exhaustive simple-path enumeration; oracle for the path search."""
    out = []

    def rec(path):
        out.append(tuple(path))
        for (u, w) in g.edges:
            if u == path[-1] and w not in path:
                path.append(w)
                rec(path)
                path.pop()

    rec([start])
    return out


@pytest.fixture
def host8():
    return make_host8()


@pytest.fixture
def rng():
    return random.Random(1234)
