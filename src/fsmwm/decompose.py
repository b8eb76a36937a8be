"""Cascade decomposition of the reduction: partition algebra, exhaustive
minimal search over the partition lattice, the fixed column/row
decomposition, and construction of the two cascade machines."""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from operator import indexOf

from .errors import (
    LATTICE_CAP_CEILING,
    LATTICE_MAX_STATES,
    SP_SEARCH_BUDGET,
    CapExceededError,
    FsmwmError,
    NoNontrivialDecompositionError,
    PartitionError,
)
from .machine import Fsm, _Record
from .reduction import branch_input_bits


class Partition(_Record):
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


class PartitionPair(_Record):
    pi_i: Partition
    pi_d: Partition


def _sp_tables(m: Fsm, states) -> tuple[list[int], list[list]]:
    """Per state index i: the inputs it defines, as a bit mask, and the
    steps ``(a, x, c)`` (state a goes to state c under input number x)
    that become judgeable once states 0..i are placed, namely i's own
    steps into placed states and the steps of placed predecessors into
    i."""
    index = {s: i for i, s in enumerate(states)}
    domains = [0] * len(states)
    steps: list[list] = [[] for _ in states]
    for x, sym in enumerate(m.inputs):
        for a, s in enumerate(states):
            move = m.transitions.get((s, sym))
            if move is not None:
                c = index[move[0]]
                domains[a] |= 1 << x
                steps[max(a, c)].append((a, x, c))
    return domains, steps


def is_input_preserving(m: Fsm, pi: Partition) -> bool:
    """Blockwise consistency under every input: the states of a block
    define the same inputs, and each input leads them into one block."""
    if pi.states != tuple(sorted(m.states)):
        raise PartitionError("partition does not cover the state set")
    domains, steps = _sp_tables(m, pi.states)
    a, width, block_domain, image = pi.assign, len(m.inputs), {}, {}
    return (all(block_domain.setdefault(b, d) == d for b, d in zip(a, domains))
            and all(image.setdefault(a[s] * width + x, a[c]) == a[c]
                    for step in steps for s, x, c in step))


def is_orthogonal(p1: Partition, p2: Partition) -> bool:
    """No two states share both a block of ``p1`` and a block of ``p2``."""
    if p1.states != p2.states:
        raise PartitionError("partitions cover different sets")
    return len(set(zip(p1.assign, p2.assign))) == len(p1.states)


def _sp_search(m: Fsm, max_states: int) -> tuple[tuple, list[tuple], int]:
    """The sorted states, the ``assign`` tuple of every input-preserving
    partition in restricted-growth order, and the placements tried.
    States are placed one at a time; a placement checks only the steps it
    makes judgeable and is undone on backtracking, so a prefix that fails
    is dropped with all its extensions.  Refuses more states than
    ``max_states`` or ``LATTICE_CAP_CEILING``, whichever is smaller."""
    states = tuple(sorted(m.states))
    n = len(states)
    cap = min(max_states, LATTICE_CAP_CEILING)
    if n > cap:
        raise CapExceededError(f"a lattice search over {n} states", cap)
    domains, steps = _sp_tables(m, states)
    preds = [[(a, x) for a, x, c in s if c == i and a < i] for i, s in enumerate(steps)]
    width = len(m.inputs)
    assign = [0] * n
    block_domain = [0] * n
    image: list = [None] * (n * width)
    undo: list[int] = []
    found = []
    placements = 0

    def extend(i: int, top: int):
        nonlocal placements
        if i == n:
            found.append(tuple(assign))
            return
        # A placed predecessor whose block already has an image under the
        # step's input leaves state i only that block; two such images
        # leave it none, and each try fails.
        forced = {image[assign[a] * width + x] for a, x in preds[i]} if preds[i] else set()
        forced.discard(None)
        blocks = forced or range(top + 2)
        placements += len(blocks)
        if placements > SP_SEARCH_BUDGET:
            raise CapExceededError(f"a lattice search of {placements} steps", SP_SEARCH_BUDGET)
        for b in blocks:
            if b > top:
                block_domain[b] = domains[i]
            elif block_domain[b] != domains[i]:
                continue
            assign[i] = b
            mark = len(undo)
            # each step now judgeable records its (block, input) image
            for a, x, c in steps[i]:
                slot = assign[a] * width + x
                seen = image[slot]
                if seen is None:
                    image[slot] = assign[c]
                    undo.append(slot)
                elif seen != assign[c]:
                    break
            else:
                extend(i + 1, max(top, b))
            for slot in undo[mark:]:
                image[slot] = None
            del undo[mark:]

    if n:
        extend(0, -1)
    return states, found, placements


def enumerate_sp_partitions(m: Fsm, max_states: int = LATTICE_MAX_STATES) -> list[Partition]:
    """Every input-preserving partition, in restricted-growth order.
    Refuses machines above the cap, and a search past
    ``SP_SEARCH_BUDGET``: the lattice can grow with the Bell numbers."""
    states, found, _ = _sp_search(m, max_states)
    return [Partition(states, a) for a in found]


def _ranked(assigns) -> list:
    """(key, largest block, pair mask, assign) per assignment of one block
    count, in key order.  A key lists each block as -1 then its state
    indices; indices ascend with the states and -1 puts a block that ends
    first, so keys order as signatures do.  Orthogonal partitions have
    disjoint masks, which set bit j*(j-1)/2 + i for i < j in one block."""
    size, tri = max(assigns[0]) + 1, [j * (j - 1) // 2 for j in range(len(assigns[0]))]
    ranked = []
    for a in assigns:
        blocks = [[-1] for _ in range(size)]
        members = [0] * size
        mask = 0
        for j, b in enumerate(a):
            blocks[b].append(j)
            mask |= members[b] << tri[j]
            members[b] |= 1 << j
        ranked.append((sum(blocks, []), max(map(len, blocks)) - 1, mask, a))
    ranked.sort()
    return ranked


def minimal_decomposition(m: Fsm, cap: int = LATTICE_MAX_STATES) -> PartitionPair:
    """Exhaustive lattice search for the orthogonal pair with the fewest
    total blocks; trivial pairs (involving the singleton or the one-block
    partition) are excluded.  Deterministic tie-break on block signatures.

    Totals are tried in ascending order, each split into block counts
    with ``|pi_1| * |pi_2| >= n``.  Candidates stay ``assign`` tuples
    grouped by block count; a group is ranked when a split first reaches
    it, and only the pair returned becomes ``Partition``s.  A partition
    is skipped where its largest block outnumbers the other side's
    blocks, since the states of one block need distinct blocks in its
    partner.  Each group is in signature order, so a pi_1's first
    orthogonal partner is its best and a group ends at the first pi_1
    past the best pair so far.  Refuses a search whose placements plus
    pair probes pass ``SP_SEARCH_BUDGET``."""
    n = len(m.states)
    states, found, spent = _sp_search(m, cap)
    buckets: dict[int, list] = {}
    for a in found[:-1]:  # the last, in restricted-growth order, is all singletons
        buckets.setdefault(max(a) + 1, []).append(a)
    ranked = cache(lambda size: _ranked(buckets[size]))
    for total in range(4, 2 * n - 1):
        best = None
        for len1 in range(2, total - 1):
            len2 = total - len1
            if len1 * len2 < n or len1 not in buckets or len2 not in buckets:
                continue
            partners = [c for c in ranked(len2) if c[1] <= len1]
            # the trailing 0 ends a scan that finds no orthogonal partner
            masks = [c[2] for c in partners] + [0]
            for key1, big1, mask1, a1 in ranked(len1):
                if best is not None and key1 > best[0]:
                    break
                if big1 > len2:
                    continue
                j = indexOf(map(mask1.__and__, masks), 0)
                spent += min(j + 1, len(partners))
                if spent > SP_SEARCH_BUDGET:
                    raise CapExceededError(f"a lattice search of {spent} steps",
                                           SP_SEARCH_BUDGET)
                if j < len(partners):
                    best = (key1, a1, partners[j][3])
        if best is not None:
            return PartitionPair(Partition(states, best[1]), Partition(states, best[2]))
    raise NoNontrivialDecompositionError(
        "only trivial orthogonal pairs exist for this machine"
    )


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
        tokens = [tok.strip() for tok in line.split(",")]
        try:
            block = list(map(int, tokens))
        except ValueError as e:
            raise PartitionError(f"malformed partition line {line!r}") from e
        if list(map(str, block)) != tokens:     # as written: no 02, +2, 0_0 or ٢
            raise PartitionError(f"malformed partition line {line!r}")
        blocks.append(set(block))
    if not blocks:
        raise PartitionError("empty partition file")
    return Partition.of(blocks)
