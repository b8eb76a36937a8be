"""Watermark verification protocol and the attacker's side: constructive
informed reconstruction, adversarial consistency witnesses, and bounded
equivalence checking."""

from __future__ import annotations

from .errors import (
    ATTACK_MAX_PROBES,
    ATTACK_MAX_TICKS,
    MAX_VERIFY_LENGTH,
    AlphabetMismatchError,
    CapExceededError,
    FsmwmError,
    InconsistentTranscriptError,
    SemanticError,
)
from .machine import Fsm, _dump_doc, _field, _load_doc, _reachable, _Record, fsm_from_doc, run


# ---------------------------------------------------------------------------
# Distribution bundles
# ---------------------------------------------------------------------------

class Package(_Record):
    """What ships: the concealed watermark machine and the serial test-port
    configuration.  The host it was built from is the user's own file and
    is not repeated here: the verifier never reads it."""

    mode: str                       # "matrix" | "fixed" | "optimal"
    watermark: Fsm
    chi: int
    omega: int


class Secret(_Record):
    """What the verifier keeps: the decoding machine and the reference
    machine ``redux`` whose outputs a genuine cascade reproduces."""

    mode: str
    decoder: Fsm
    redux: Fsm


# The serial port's only permutation scheme (factorial-number-system
# indexing); bundles name it so a reader can refuse any other.
_SCHEME = "lehmer"


def _check_scheme(doc: dict):
    scheme = _field(doc, "scheme", str)
    if scheme != _SCHEME:
        raise SemanticError(f"unknown permutation scheme {scheme!r}")


def format_package(p: Package) -> str:
    return _dump_doc({
        "kind": "package",
        "mode": p.mode,
        "watermark": p.watermark,
        "tap": {"chi": p.chi, "omega": p.omega, "scheme": _SCHEME},
    })


def package_from_doc(doc: dict) -> Package:
    """Reads ``mode``, ``watermark`` and ``tap`` only, so the ``host`` and
    ``tap.n``/``tap.k`` of packages written before are ignored."""
    tap = _field(doc, "tap", dict)
    _check_scheme(tap)
    return Package(
        mode=_field(doc, "mode", str),
        watermark=fsm_from_doc(_field(doc, "watermark", dict)),
        chi=_field(tap, "chi", int),
        omega=_field(tap, "omega", int),
    )


def parse_package(text: str) -> Package:
    return package_from_doc(_load_doc(text, "package"))


def format_secret(s: Secret) -> str:
    return _dump_doc({
        "kind": "secret",
        "mode": s.mode,
        "decoder": s.decoder,
        "redux": s.redux,
        "scheme": _SCHEME,
    })


def secret_from_doc(doc: dict) -> Secret:
    _check_scheme(doc)
    return Secret(
        mode=_field(doc, "mode", str),
        decoder=fsm_from_doc(_field(doc, "decoder", dict)),
        redux=fsm_from_doc(_field(doc, "redux", dict)),
    )


def parse_secret(text: str) -> Secret:
    return secret_from_doc(_load_doc(text, "secret"))


# ---------------------------------------------------------------------------
# Verification protocol
# ---------------------------------------------------------------------------

class Verdict(_Record):
    passed: bool
    divergence_index: int | None
    expected: tuple[str, ...]
    observed: tuple[str, ...]

    def report(self) -> str:
        lines = ["PASS" if self.passed else "FAIL"]
        if not self.passed:
            lines.append(f"first divergence at index {self.divergence_index}")
        lines.append("expected: " + " ".join(self.expected))
        lines.append("observed: " + " ".join(self.observed))
        return "\n".join(lines) + "\n"


def _compare(expected: list[str], observed: list[str]) -> Verdict:
    for i, (e, o) in enumerate(zip(expected, observed)):
        if e != o:
            return Verdict(False, i, tuple(expected), tuple(observed))
    if len(expected) != len(observed):
        return Verdict(False, min(len(expected), len(observed)),
                       tuple(expected), tuple(observed))
    return Verdict(True, None, tuple(expected), tuple(observed))


def watermark_test(package: Package, secret: Secret, branch: int,
                   length: int) -> Verdict:
    """Three-step protocol: drive the shipped machine, decode its outputs
    with the secret decoder, and compare them with the secret's reference
    machine on the same schedule.  Only the secret decides what is legal:
    the branch must be an input the reference takes at reset, and a
    schedule shorter than one step would check nothing, and one past
    ``MAX_VERIFY_LENGTH`` is refused."""
    if length < 1:
        raise FsmwmError(f"verification length {length} must be >= 1")
    if length > MAX_VERIFY_LENGTH:
        raise CapExceededError(f"a verification length of {length}", MAX_VERIFY_LENGTH)
    if package.mode != secret.mode:
        raise SemanticError(
            f"package mode {package.mode!r} does not match secret {secret.mode!r}"
        )
    redux, decoder = secret.redux, secret.decoder
    if (redux.reset, str(branch)) not in redux.transitions:
        raise FsmwmError(f"the reference machine takes no branch {branch} at reset")
    if not set(package.watermark.outputs) <= set(decoder.inputs):
        raise AlphabetMismatchError("wrong secret for this package: the decoder "
                                    "cannot read every watermark output")
    schedule = [str(branch)] + ["0"] * (length - 1)
    observed, _ = run(decoder, run(package.watermark, schedule)[0])
    expected, _ = run(redux, schedule)
    return _compare(expected, observed)


# ---------------------------------------------------------------------------
# Black-box oracle
# ---------------------------------------------------------------------------

class FsmOracle:
    """Resettable steppable view of a machine.  Exposes only what an
    attacker probing package pins would have: the input bit width and the
    output stream.  Counts resets as probes."""

    def __init__(self, machine: Fsm, chi: int):
        if chi < 0:
            raise FsmwmError(f"input width chi {chi} must be >= 0")
        self._machine = machine
        self.chi = chi
        self._state = machine.reset
        self.resets = 0
        self.steps = 0

    def reset(self):
        self._state = self._machine.reset
        self.resets += 1

    def step(self, sym: str):
        """Feed one input value; returns the output or None on a halt."""
        self.steps += 1
        move = self._machine.transitions.get((self._state, sym))
        if move is None:
            return None
        self._state, out = move
        return out


def informed_attack(oracle: FsmOracle, chi: int) -> Fsm:
    """Reconstruct a branch-select machine by probing every input value
    from reset, then ticking down each branch until the output stream
    stabilizes or halts.  Uses 2**chi resets; raises CapExceededError
    when that passes ``ATTACK_MAX_PROBES`` or one branch's ticks pass
    ``ATTACK_MAX_TICKS``."""
    if chi != oracle.chi:
        raise FsmwmError(f"chi={chi} does not match the oracle's input width {oracle.chi}")
    if chi >= ATTACK_MAX_PROBES.bit_length():       # 2**chi > ATTACK_MAX_PROBES
        raise CapExceededError(f"an attack where chi={chi} needs 2^{chi} probes",
                               ATTACK_MAX_PROBES)
    resets = oracle.resets
    traces: dict[str, list[str | None]] = {}
    for v in range(1 << chi):
        oracle.reset()
        sym = str(v)
        first = oracle.step(sym)
        trace: list[str | None] = [first]
        if first is not None:
            prev = None
            for _ in range(ATTACK_MAX_TICKS):
                out = oracle.step("0")
                trace.append(out)
                if out is None or out == prev:
                    break
                prev = out
            else:
                raise CapExceededError(f"a branch-{sym} tick stream that neither "
                                       "settles nor halts", ATTACK_MAX_TICKS)
        traces[sym] = trace
    assert oracle.resets - resets == 1 << chi

    # Shared suffix structure: branches with identical tick streams are
    # one branch reached through several encodings.
    inputs = tuple(str(v) for v in range(1 << chi))
    transitions: dict[tuple[int, str], tuple[int, str]] = {}
    outputs: set[str] = set()
    next_id = 1
    chain_ids: dict[tuple[str, ...], list[int]] = {}
    for sym, trace in traces.items():
        if trace[0] is None:
            continue
        ticks = tuple(t for t in trace[1:] if t is not None)
        if ticks not in chain_ids:
            # a halting stream ends in a state with no steps, so its last
            # output survives; a settled one ticks in place on its last
            halted = trace[-1] is None
            chain_ids[ticks] = list(range(next_id, next_id + len(ticks) + halted))
            next_id += len(chain_ids[ticks])
        ids = chain_ids[ticks]
        transitions[0, sym] = (ids[0], trace[0])
        outputs.add(trace[0])
        for pos, out in enumerate(ticks):
            transitions[ids[pos], "0"] = (ids[min(pos + 1, len(ids) - 1)], out)
            outputs.add(out)
    states = frozenset([0] + [s for ids in chain_ids.values() for s in ids])
    return Fsm(
        states=states,
        inputs=inputs,
        outputs=tuple(sorted(outputs)) or ("0",),
        reset=0,
        transitions=transitions,
    )


# ---------------------------------------------------------------------------
# Adversarial consistency witness
# ---------------------------------------------------------------------------

def adversarial_extension(runs: list[list[tuple[str, str]]], j: int) -> Fsm:
    """Machine replaying every observed (input, output) pair of each run
    but with one extra output reachable only past the observation horizon:
    the executable witness that output counts cannot be pinned down from
    finite observation."""
    observed_outputs: set[str] = set()
    # Prefix tree, numbered as it grows: a new edge gets the next id.
    transitions: dict[tuple[int, str], tuple[int, str]] = {}
    for r in runs:
        node = 0
        for sym, out in r:
            observed_outputs.add(out)
            node, seen = transitions.setdefault((node, sym), (len(transitions) + 1, out))
            if seen != out:
                raise InconsistentTranscriptError(
                    f"input {sym!r} seen with outputs {seen!r} and {out!r}"
                )
    if len(observed_outputs) != j:
        raise FsmwmError(
            f"transcript shows {len(observed_outputs)} outputs, caller claims {j}"
        )
    fresh = "extra"
    while fresh in observed_outputs:
        fresh += "'"
    syms = sorted({sym for r in runs for sym, _ in r}) or ["0"]
    extra = len(transitions) + 1
    leaf = min(set(range(extra)) - {src for src, _ in transitions})
    for src in (leaf, extra):
        transitions[src, syms[0]] = (extra, fresh)
    return Fsm(
        states=frozenset(range(extra + 1)),
        inputs=tuple(syms),
        outputs=tuple(sorted(observed_outputs)) + (fresh,),
        reset=0,
        transitions=transitions,
    )


def reachable_outputs(m: Fsm) -> set[str]:
    return {out for *_, out in _reachable(m.reset, m.moves)}


# ---------------------------------------------------------------------------
# Equivalence checking
# ---------------------------------------------------------------------------

def bounded_equiv(m1: Fsm, m2: Fsm, depth: int) -> bool:
    """All input strings up to the given length produce identical output
    strings (including identical truncation points).  Checked on the
    reachable product, which covers every string exhaustively."""
    if set(m1.inputs) != set(m2.inputs):
        raise AlphabetMismatchError("machines have different input alphabets")

    hole = (None, None)

    def moves(pair):
        s1, s2 = pair
        for sym in m1.inputs:
            a = m1.transitions.get((s1, sym), hole)
            b = m2.transitions.get((s2, sym), hole)
            if a is not hole or b is not hole:
                yield sym, (a[0], b[0]), (a[1], b[1])

    # A step at depth d ends a string of length d + 1; a hole shows None.
    for d, *_, (o1, o2) in _reachable((m1.reset, m2.reset), moves):
        if d >= depth:
            break
        if o1 != o2:
            return False
    return True
