"""Characteristic-machine derivation: longest simple path, sizing
operators (repeat / renumber / truncate), the linear reduction, and the
multi-branch extension with add-shift renumbering."""

from __future__ import annotations

import math

from .errors import (MAX_REDUCTION_STATES, PATH_SEARCH_BUDGET, CapExceededError, FsmwmError,
                     HashCollisionError)
from .machine import ConnGraph, Fsm, _reachable, _Record


class Path(_Record):
    """Ordered vertex string."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise FsmwmError("paths are nonempty")

    def __len__(self):
        return len(self.vertices)


def longest_simple_path(g: ConnGraph) -> Path:
    """Backtracking search for the maximal simple path from the root.

    Maximal under (length, sequence) with vertices ordered by ascending
    id; neighbors are explored in descending order so the first
    full-length path found is already the lexical maximum, which lets the
    search stop early on paths that cover every vertex reachable from the
    root.  The search keeps one successor iterator per path vertex, so
    path length is not bounded by the interpreter's recursion limit.
    Raises CapExceededError after ``PATH_SEARCH_BUDGET`` steps.
    """
    succ = {v: sorted(g.successors(v), reverse=True) for v in g.vertices}
    moves = {v: [(None, w, None) for w in ws] for v, ws in succ.items()}
    # no simple path is longer than the set reachable from the root
    n = len({g.root} | {w for *_, w, _ in _reachable(g.root, moves.__getitem__)})
    stack = [g.root]
    # The record is stack[:shared] + tail[::-1]: what it shares with the
    # stack, then the vertices popped from it.  So no step copies it, and
    # stack[shared] is where an equal-length stack first differs from it.
    shared, tail = 1, []
    on_path = {g.root}
    pending = [iter(succ[g.root])]
    for _ in range(PATH_SEARCH_BUDGET + 1):
        if not pending or shared + len(tail) >= n:
            return Path((*stack[:shared], *reversed(tail)))
        w = next(pending[-1], None)
        if w is None:
            pending.pop()
            if shared == len(stack):
                tail.append(stack[-1])
                shared -= 1
            on_path.discard(stack.pop())
        elif w not in on_path:
            stack.append(w)
            on_path.add(w)
            pending.append(iter(succ[w]))
            size = shared + len(tail)
            if len(stack) > size or (len(stack) == size and stack[shared] > tail[-1]):
                shared, tail = len(stack), []
    raise CapExceededError(f"a longest simple path search of {PATH_SEARCH_BUDGET + 1} steps",
                           PATH_SEARCH_BUDGET)


def repeat_path(p: Path, j: int) -> Path:
    """Raw j-fold repetition; duplicates allowed until renumbering."""
    if j < 1:
        raise FsmwmError("repetition count must be >= 1")
    return Path(p.vertices * j)


def _period(seq: tuple[int, ...]) -> int:
    for i in range(1, len(seq)):
        if len(seq) % i == 0 and all(seq[t] == seq[t % i] for t in range(len(seq))):
            return i
    return len(seq)


def _stride(v_star: int, period: tuple[int, ...]) -> int:
    # The multiplier must cover the dense index range or rows collide.
    return max(v_star, len(set(period)))


def renumber(p_rep: Path, v_star: int) -> Path:
    """Radix-encode the row number into each vertex of a repeated path.

    Element at row r (1-based), column c becomes stride*(r-1) + idx(v_c)
    where idx is the 1-based rank of the value within the period.
    """
    i = _period(p_rep.vertices)
    period = p_rep.vertices[:i]
    if v_star < max(period):
        raise FsmwmError(f"v* {v_star} smaller than a path element")
    stride = _stride(v_star, period)
    rank = {v: pos + 1 for pos, v in enumerate(sorted(set(period)))}
    out = tuple(
        stride * (t // i) + rank[p_rep.vertices[t]] for t in range(len(p_rep.vertices))
    )
    return Path(out)


def renumber_inverse(q: Path, v_star: int, base: Path) -> Path:
    """Undo ``renumber``: recover the raw repeated path."""
    period = base.vertices[: _period(base.vertices)]
    stride = _stride(v_star, period)
    values = sorted(set(period))
    out = []
    for w in q.vertices:
        idx = (w - 1) % stride
        if idx >= len(values):
            raise FsmwmError(f"value {w} not in the renumbered range")
        out.append(values[idx])
    return Path(tuple(out))


def truncate(p: Path, j: int) -> Path:
    """First j vertices; j >= 1 keeps the path nonempty."""
    if not 1 <= j <= len(p):
        raise FsmwmError(f"truncation length {j} out of range 1..{len(p)}")
    return Path(p.vertices[:j])


def sized_path(p: Path, m: int) -> Path:
    """Stretch or shrink a path to exactly m pairwise-distinct vertices."""
    if m < 1:
        raise FsmwmError("target length must be >= 1")
    j = math.ceil(m / len(p))
    return truncate(renumber(repeat_path(p, j), max(p.vertices)), m)


def lpr(g: ConnGraph, m: int) -> ConnGraph:
    """Linear reduction: the sized longest simple path as a rooted chain.
    Raises CapExceededError when m passes ``MAX_REDUCTION_STATES``."""
    if m > MAX_REDUCTION_STATES:
        raise CapExceededError(f"a reduction of {m} states", MAX_REDUCTION_STATES)
    path = sized_path(longest_simple_path(g), m)
    edges = frozenset(zip(path.vertices, path.vertices[1:]))
    return ConnGraph(
        vertices=frozenset(path.vertices), edges=edges, root=path.vertices[0]
    )


def chain_of(g: ConnGraph) -> list[int]:
    """Vertex sequence of a linear graph, root first."""
    seq = [g.root]
    seen = {g.root}
    while True:
        nxt = [w for w in g.successors(seq[-1]) if w not in seen]
        if not nxt:
            return seq
        if len(nxt) > 1:
            raise FsmwmError("graph is not linear")
        seq.append(nxt[0])
        seen.add(nxt[0])


def add_shift_hash(x: int, r: int, c: int, z: int) -> int:
    """Rotate x left by c within z bits, then add r modulo 2**z.

    Bijective in x for fixed (r, c); the modulus is 2**z rather than z so
    the bijectivity actually holds.
    """
    if z < 1:
        raise FsmwmError("bit width must be >= 1")
    if not 0 <= x < (1 << z):
        raise FsmwmError(f"value {x} out of range for {z} bits")
    c %= z
    mask = (1 << z) - 1
    rotated = ((x << c) | (x >> (z - c))) & mask if c else x
    return (rotated + r) & mask


class LprkSpec(_Record):
    """Shape of the multi-branch reduction: n rows per branch, k branches,
    states renumbered by the add-shift hash within z bits."""

    n: int
    k: int
    z: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1 or self.z < 1:
            raise FsmwmError("n, k and z must be >= 1")


def branch_input_bits(k: int) -> int:
    """Bit width of the branch-select input field."""
    return max(1, math.ceil(math.log2(k))) if k > 1 else 1


def find_branch_width(n: int, k: int) -> int:
    """Bits that hold the branch-state ids 0..n*k-1."""
    return max(1, (n * k - 1).bit_length())


def lpr_k(g: ConnGraph, shape: LprkSpec) -> Fsm:
    """Join k renumbered copies of the host's length-n sized path at a
    fresh start state ``1 << z``.

    Row t of branch b is ``add_shift_hash(rank_t, b * n, 0, z)``, which is
    b*n + rank_t, where rank_t is the rank of the t-th sized-path vertex
    among the path's n vertices, so every branch visits its ids in the
    order of the host's path.  Branch b owns the id range [b*n, b*n + n),
    so the n*k branch ids are distinct whenever z >= find_branch_width(n, k).

    The start state takes a branch-select input of chi bits (value v
    selects branch v mod k); within a branch the tick input "0" advances,
    and the branch tail ticks in place.  Outputs follow the standard
    convention: each transition emits its source state.

    Raises CapExceededError when n*k passes ``MAX_REDUCTION_STATES`` and
    HashCollisionError when z is narrower than ``find_branch_width(n, k)``.
    """
    n, k, z = shape.n, shape.k, shape.z
    if n * k > MAX_REDUCTION_STATES:
        raise CapExceededError(f"a reduction of {n * k} states", MAX_REDUCTION_STATES)
    if z < find_branch_width(n, k):
        raise HashCollisionError(
            f"z={z} too narrow for {n * k} branch states; "
            f"they need {find_branch_width(n, k)} bits")
    base = sized_path(longest_simple_path(g), n).vertices
    rank = {v: i for i, v in enumerate(sorted(base))}
    columns = [[add_shift_hash(rank[v], b * n, 0, z) for v in base] for b in range(k)]
    start = 1 << z
    chi = branch_input_bits(k)
    states = frozenset([start] + [s for col in columns for s in col])
    transitions = {(start, str(v)): (columns[v % k][0], str(start))
                   for v in range(1 << chi)}
    for col in columns:
        for row, src in enumerate(col):
            transitions[src, "0"] = (col[min(row + 1, n - 1)], str(src))
    return Fsm(
        states=states,
        inputs=tuple(str(v) for v in range(1 << chi)),
        outputs=tuple(str(s) for s in sorted(states)),
        reset=start,
        transitions=transitions,
    )
