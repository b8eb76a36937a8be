"""Independent Mealy stepper over the JSON interchange documents.

The benchmark checks the program's outputs against this module and never
against the library's own ``run``/``run_states``/``bounded_equiv``, so a
defect shared by the program and its checker cannot hide.
"""

from __future__ import annotations


class Machine:
    """Deterministic partial Mealy machine read from a JSON document."""

    def __init__(self, doc: dict):
        self.reset = doc["reset"]
        self.inputs = list(doc["inputs"])
        self.delta = {(t["from"], t["in"]): (t["to"], t["out"])
                      for t in doc["transitions"]}

    def outputs(self, schedule) -> list[str]:
        """Outputs from reset, truncated at the first undefined step."""
        state, out = self.reset, []
        for sym in schedule:
            if (state, sym) not in self.delta:
                break
            state, o = self.delta[(state, sym)]
            out.append(o)
        return out

    def frozen_trajectory(self, schedule) -> list[int]:
        """States after each input, from reset; an undefined input leaves
        the machine where it is (the test port's behaviour)."""
        state, states = self.reset, [self.reset]
        for sym in schedule:
            state = self.delta.get((state, sym), (state, None))[0]
            states.append(state)
        return states


def cascade_outputs(front: Machine, back: Machine, schedule) -> list[str]:
    """Outputs of the pipeline product: each front output is the back
    machine's input in the same step; truncated at the first hole."""
    sf, sb, out = front.reset, back.reset, []
    for sym in schedule:
        if (sf, sym) not in front.delta:
            break
        sf, mid = front.delta[(sf, sym)]
        if (sb, mid) not in back.delta:
            break
        sb, o = back.delta[(sb, mid)]
        out.append(o)
    return out


def expected_verdict(watermark: Machine, decoder: Machine, redux: Machine,
                     schedule) -> tuple[bool, list[str]]:
    """The verification protocol's verdict, recomputed: the cascade of
    the shipped machine with the decoder must reproduce the reference
    reduction's outputs exactly.  Returns (passed, expected outputs)."""
    expected = redux.outputs(schedule)
    return cascade_outputs(watermark, decoder, schedule) == expected, expected


def equivalent(a: Machine, b: Machine) -> bool:
    """Same definedness and outputs on every input string, checked on the
    reachable product over the union of both alphabets."""
    alphabet = sorted(set(a.inputs) | set(b.inputs))
    seen = {(a.reset, b.reset)}
    todo = list(seen)
    while todo:
        sa, sb = todo.pop()
        for sym in alphabet:
            ta, tb = a.delta.get((sa, sym)), b.delta.get((sb, sym))
            if (ta is None) != (tb is None):
                return False
            if ta is None:
                continue
            if ta[1] != tb[1]:
                return False
            pair = (ta[0], tb[0])
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return True


def scan_payload(machine: Machine, chi: int, values: list[int]):
    """Frames a serial test-port session shifts out for the given input
    values: the reset frame, then one (state, input field) frame per
    asserted value except the last, whose latch is never shifted out."""
    states = machine.frozen_trajectory([str(v) for v in values])
    mask = (1 << chi) - 1
    frames = [(machine.reset, 0)]
    for i, v in enumerate(values[:-1]):
        frames.append((states[i + 1], v & mask))
    return frames
