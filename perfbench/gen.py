"""Seeded input generators.

Every generator takes a ``random.Random`` and returns plain data (JSON
documents, KISS2 text, shape tuples), so the same seed always gives the
same input files.  Hosts embed a Hamiltonian chain 0 -> 1 -> ... and
point every other edge backwards: the longest-path search then finds the
full chain on its first descent, so path-search cost grows with host
size and not with the seed.
"""

from __future__ import annotations

import json

BITS = "01"


def machine_doc(states, inputs, outputs, reset, delta) -> dict:
    """JSON interchange document from a ``{(src, sym): (dst, out)}`` map."""
    return {
        "states": sorted(states),
        "inputs": list(inputs),
        "outputs": list(outputs),
        "reset": reset,
        "transitions": [
            {"from": s, "in": a, "to": d, "out": o}
            for (s, a), (d, o) in sorted(delta.items())
        ],
    }


def dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def host8(rng=None) -> dict:
    """The dense 8-state two-input sample host (``assets/host8.json``),
    with its states renamed by a seeded permutation when ``rng`` is given
    (reset stays 0)."""
    name = list(range(8))
    if rng is not None:
        tail = name[1:]
        rng.shuffle(tail)
        name = [0] + tail
    delta = {}
    for s in range(8):
        for sym in "01":
            dst = (s + (1 if sym == "0" else 3)) % 8
            delta[(name[s], sym)] = (name[dst], str((s + int(sym)) % 2))
    return machine_doc(range(8), "01", "01", 0, delta)


def chain_host(rng, n: int) -> dict:
    """n-state chain on input "0"; input "1" jumps back to a random
    earlier state (or stays)."""
    delta = {}
    for s in range(n):
        delta[(s, "0")] = (min(s + 1, n - 1), rng.choice(BITS))
        delta[(s, "1")] = (rng.randrange(s + 1), rng.choice(BITS))
    return machine_doc(range(n), "01", "01", 0, delta)


def hamiltonian_host(rng, n: int) -> dict:
    """Random partial machine with 2-4 inputs and 3 outputs whose input
    "0" walks a Hamiltonian chain; the other inputs go backwards."""
    inputs = [str(i) for i in range(rng.randint(2, 4))]
    outputs = "abc"
    delta = {}
    for s in range(n):
        nxt = s + 1 if s + 1 < n else rng.randrange(n)
        delta[(s, "0")] = (nxt, rng.choice(outputs))
        for sym in inputs[1:]:
            if rng.random() < 0.8:
                delta[(s, sym)] = (rng.randrange(s + 1), rng.choice(outputs))
    return machine_doc(range(n), inputs, outputs, 0, delta)


def _prefix_code(rng, max_depth: int = 3) -> list[str]:
    """A random complete binary prefix code: disjoint input cubes that
    cover every input pattern."""
    leaves = [""]
    for _ in range(rng.randint(1, 4)):
        open_leaves = [p for p in leaves if len(p) < max_depth]
        if not open_leaves:
            break
        p = rng.choice(open_leaves)
        leaves.remove(p)
        leaves += [p + "0", p + "1"]
    return sorted(leaves)


def kiss2_host(rng, ni: int, n_states: int) -> str:
    """Completely specified KISS2 machine with ``.i ni`` inputs.  The
    first cube of state s leads to s+1; the others go backwards."""
    lines = []
    for s in range(n_states):
        for j, prefix in enumerate(_prefix_code(rng)):
            cube = prefix + "-" * (ni - len(prefix))
            if j == 0 and s + 1 < n_states:
                dst = s + 1
            else:
                dst = rng.randrange(s + 1)
            obits = "".join(rng.choice(BITS) for _ in range(2))
            lines.append(f"{cube} s{s} s{dst} {obits}")
    head = [f".i {ni}", ".o 2", f".s {n_states}", f".p {len(lines)}", ".r s0"]
    return "\n".join(head + lines + [".e"]) + "\n"


def feasible_shapes(find_branch_width, collision, max_n: int = 24,
                    max_k: int = 6):
    """Every (n, k, z) with n <= max_n, k <= max_k for which the library
    finds a collision-free branch width (``collision`` is its error)."""
    out = []
    for n in range(1, max_n + 1):
        for k in range(1, max_k + 1):
            try:
                out.append((n, k, find_branch_width(n, k)))
            except collision:
                continue
    return out


def tamper(doc: dict, rng) -> dict:
    """Redirect one transition of a machine document to another state."""
    trs = [dict(t) for t in doc["transitions"]]
    t = rng.choice(trs)
    t["to"] = rng.choice([s for s in doc["states"] if s != t["to"]])
    return dict(doc, transitions=trs)


def stratified(rng, bins) -> list[int]:
    """One integer drawn uniformly from each inclusive (lo, hi) bin."""
    return [rng.randint(lo, hi) for lo, hi in bins]
