"""Cascade decomposition of the reduction: partition algebra, exhaustive
minimal search over the partition lattice, the fixed column/row
decomposition, and construction of the two cascade machines."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import (
    CapExceededError,
    FsmwmError,
    NoNontrivialDecompositionError,
    PartitionError,
)
from .machine import Fsm
from .reduction import branch_input_bits


@dataclass(frozen=True)
class Partition:
    """Block-assignment array: ``assign[i]`` is the block of ``states[i]``.
    States ascend and blocks are numbered in order of their minimum
    element (a restricted-growth string), so each partition of a state
    set has exactly one value."""

    states: tuple[int, ...]
    assign: tuple[int, ...]

    def __post_init__(self):
        if len(self.states) != len(self.assign):
            raise PartitionError("states and assignment differ in length")
        if any(a >= b for a, b in zip(self.states, self.states[1:])):
            raise PartitionError("states must be strictly ascending")
        top = -1
        for b in self.assign:
            if not 0 <= b <= top + 1:
                raise PartitionError("blocks must be numbered by minimum element")
            top = max(top, b)

    @classmethod
    def of(cls, blocks) -> "Partition":
        owner: dict[int, int] = {}
        for i, block in enumerate(blocks):
            block = set(block)
            if not block:
                raise PartitionError("empty block")
            if not owner.keys().isdisjoint(block):
                raise PartitionError("blocks overlap")
            owner.update(dict.fromkeys(block, i))
        states = tuple(sorted(owner))
        renamed: dict[int, int] = {}
        return cls(states, tuple(renamed.setdefault(owner[s], len(renamed))
                                 for s in states))

    def block(self, state: int) -> int:
        i = bisect_left(self.states, state)
        if i == len(self.states) or self.states[i] != state:
            raise PartitionError(f"state {state} not covered")
        return self.assign[i]

    def signature(self) -> tuple:
        blocks: list[list[int]] = [[] for _ in range(len(self))]
        for s, b in zip(self.states, self.assign):
            blocks[b].append(s)
        return tuple(map(tuple, blocks))

    def __len__(self):
        return max(self.assign, default=-1) + 1


@dataclass(frozen=True)
class PartitionPair:
    pi_i: Partition
    pi_d: Partition


def _successor_rows(m: Fsm, states) -> list[list]:
    """Per input, the index into ``states`` of each state's successor
    (None where undefined)."""
    index = {s: i for i, s in enumerate(states)}
    steps = m.transitions
    return [[index[steps[s, sym][0]] if (s, sym) in steps else None for s in states]
            for sym in m.inputs]


def _preserves(rows, assign, placed: int) -> bool:
    """Input-preserving test on the first ``placed`` states: under every
    input the states of a block are all undefined or all lead into one
    block.  A successor not yet placed is not judged, so a prefix that
    fails fails in every extension; with every state placed this is the
    whole test."""
    for row in rows:
        image: dict[int, int] = {}
        for i in range(placed):
            t = row[i]
            if t is None:
                v = -1
            elif t < placed:
                v = assign[t]
            else:
                continue
            if image.setdefault(assign[i], v) != v:
                return False
    return True


def is_input_preserving(m: Fsm, pi: Partition) -> bool:
    """Blockwise consistency under every input.  A defined/undefined
    mismatch inside a block fails the check."""
    if pi.states != tuple(sorted(m.states)):
        raise PartitionError("partition does not cover the state set")
    return _preserves(_successor_rows(m, pi.states), pi.assign, len(pi.states))


def is_orthogonal(p1: Partition, p2: Partition) -> bool:
    """No two states share both a block of ``p1`` and a block of ``p2``."""
    if p1.states != p2.states:
        raise PartitionError("partitions cover different sets")
    return len(set(zip(p1.assign, p2.assign))) == len(p1.states)


def enumerate_sp_partitions(m: Fsm, max_states: int = 12) -> list[Partition]:
    """Every input-preserving partition, in restricted-growth order.  The
    search places states one at a time and drops every prefix that is
    already not input-preserving.  Refuses machines above the cap: the
    lattice can grow with the Bell numbers."""
    states = tuple(sorted(m.states))
    n = len(states)
    if n > max_states:
        raise CapExceededError(
            f"machine has {n} states; exhaustive lattice search capped at {max_states}"
        )
    rows = _successor_rows(m, states)
    assign = [0] * n
    found = []

    def extend(placed: int, top: int):
        if not _preserves(rows, assign, placed):
            return
        if placed == n:
            found.append(Partition(states, tuple(assign)))
            return
        for b in range(top + 2):
            assign[placed] = b
            extend(placed + 1, max(top, b))

    if n:
        extend(1, 0)
    return found


def minimal_decomposition(m: Fsm, cap: int = 12) -> PartitionPair:
    """Exhaustive lattice search for the orthogonal pair with the fewest
    total blocks; trivial pairs (involving the singleton or the one-block
    partition) are excluded.  Deterministic tie-break on block signatures.
    Candidates go by block count: an orthogonal pair needs
    ``|pi_1| * |pi_2| >= n``, and a pair past the best total is skipped
    with all that follow it."""
    n = len(m.states)
    candidates = sorted((len(p), p.signature(), p)
                        for p in enumerate_sp_partitions(m, cap) if 1 < len(p) < n)
    best = None
    best_key = None
    for len1, sig1, p1 in candidates:
        for len2, sig2, p2 in candidates:
            if len1 * len2 < n:
                continue
            if best_key is not None and len1 + len2 > best_key[0]:
                break
            if not is_orthogonal(p1, p2):
                continue
            key = (len1 + len2, sig1, sig2)
            if best_key is None or key < best_key:
                best, best_key = PartitionPair(p1, p2), key
    if best is None:
        raise NoNontrivialDecompositionError(
            "only trivial orthogonal pairs exist for this machine"
        )
    return best


def lprk_layout(lprk: Fsm, n: int, k: int):
    """Recover start, columns and rows of a multi-branch reduction."""
    start = lprk.reset
    chi = branch_input_bits(k)
    heads = []
    for v in range(1 << chi):
        move = lprk.transitions.get((start, str(v)))
        if move is None:
            raise FsmwmError("machine is not a branch-select reduction")
        if move[0] not in heads:
            heads.append(move[0])
    if len(heads) != k:
        raise FsmwmError(f"expected {k} branches, found {len(heads)}")
    columns = []
    for head in heads:
        col = [head]
        while len(col) <= n:
            move = lprk.transitions.get((col[-1], "0"))
            if move is None or move[0] == col[-1]:
                break
            col.append(move[0])
        if len(col) != n:
            raise FsmwmError(f"branch length {len(col)} != n={n}")
        columns.append(col)
    return start, columns


def fixed_partitions_lprk(lprk: Fsm, n: int, k: int) -> PartitionPair:
    """Known-form decomposition: columns (plus the start in its own
    block) for the independent side, rows for the dependent side."""
    start, columns = lprk_layout(lprk, n, k)
    pi_i = Partition.of([{start}] + [set(col) for col in columns])
    pi_d = Partition.of(
        [{start}] + [{col[r] for col in columns} for r in range(n)]
    )
    return PartitionPair(pi_i, pi_d)


def pair_symbol(sym: str, block_number: int) -> str:
    """Wire encoding of the (input, independent-state) pair."""
    return f"{sym},{block_number}"


def build_independent(m: Fsm, pi_i: Partition) -> Fsm:
    """Blockwise lift of the machine; outputs its own block number paired
    with the consumed input."""
    if not is_input_preserving(m, pi_i):
        raise PartitionError("partition is not input-preserving")
    transitions = {}
    for (src, sym), (dst, _) in m.transitions.items():
        b = pi_i.block(src)
        transitions[b, sym] = (pi_i.block(dst), pair_symbol(sym, b))
    outputs = tuple(
        pair_symbol(sym, b) for sym in m.inputs for b in range(len(pi_i))
    )
    return Fsm(
        states=frozenset(range(len(pi_i))),
        inputs=m.inputs,
        outputs=outputs,
        reset=pi_i.block(m.reset),
        transitions=transitions,
    )


def build_dependent(m: Fsm, pair: PartitionPair) -> Fsm:
    """Blockwise lift over the dependent partition; consumes (input,
    independent block) pairs and outputs the original machine's current
    state, the one state in both blocks."""
    pi_i, pi_d = pair.pi_i, pair.pi_d
    if not is_input_preserving(m, pi_d):
        raise PartitionError("dependent partition is not input-preserving")
    if not is_orthogonal(pi_i, pi_d):
        raise PartitionError("partition pair is not orthogonal")
    common = {(v, d): s for s, v, d in zip(pi_d.states, pi_i.assign, pi_d.assign)}
    lifted = {(pi_d.block(src), sym): pi_d.block(dst)
              for (src, sym), (dst, _) in m.transitions.items()}
    transitions = {}
    for (d1, sym), d2 in lifted.items():
        for v in range(len(pi_i)):
            if (v, d1) in common:
                transitions[d1, pair_symbol(sym, v)] = (d2, str(common[v, d1]))
    inputs = tuple(
        pair_symbol(sym, v) for sym in m.inputs for v in range(len(pi_i))
    )
    return Fsm(
        states=frozenset(range(len(pi_d))),
        inputs=inputs,
        outputs=tuple(str(s) for s in sorted(m.states)),
        reset=pi_d.block(m.reset),
        transitions=transitions,
    )


def format_partition(pi: Partition) -> str:
    """One block per line, comma-separated state ids."""
    return "\n".join(",".join(map(str, b)) for b in pi.signature()) + "\n"


def parse_partition(text: str) -> Partition:
    blocks = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            blocks.append({int(tok) for tok in line.split(",")})
        except ValueError as e:
            raise PartitionError(f"malformed partition line {line!r}") from e
    if not blocks:
        raise PartitionError("empty partition file")
    return Partition.of(blocks)
