"""Simulated boundary-scan access to the concealed machine: a
three-state test access port, the scan register, and the permuted
latch/assert scheme.  A session draws its setting once and fixes its
permutation with it; the port shifts whole frames at a time."""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field

from .errors import CapExceededError, FsmwmError
from .machine import Fsm

LATCH, SHIFT, ASSERT = "Latch", "Shift", "Assert"
# Widest scan register, chi + omega bits: a setting of 1024! has 2,640
# digits, under Python's 4,300-digit limit for printing an integer.
MAX_REGISTER_BITS = 1024
# Most steps one scan test drives: the transcript holds a record per
# clock cycle, chi + omega + 2 of them a step, and a scan test of a
# 10-bit register at the cap peaks near 62 MB.
MAX_SCAN_STEPS = 1 << 14
_NEXT = {LATCH: SHIFT, SHIFT: ASSERT, ASSERT: LATCH}
_BIT = {"0": 0, "1": 1}


# ---------------------------------------------------------------------------
# Permutation scheme (factorial-number-system indexing)
# ---------------------------------------------------------------------------

def permutation_by_index(n: int, i: int) -> tuple[int, ...]:
    """The i-th permutation of range(n), 1-based, in lexicographic order;
    i=1 is the identity.  Decoded through factorial-base digits so large
    n never materializes n! beyond the index arithmetic."""
    if not 1 <= i <= math.factorial(n):
        raise FsmwmError(f"permutation index {i} out of range 1..{n}!")
    rank = i - 1
    digits = []
    for pos in range(n):
        f = math.factorial(n - 1 - pos)
        digits.append(rank // f)
        rank %= f
    pool = list(range(n))
    return tuple(pool.pop(d) for d in digits)


def apply_perm(bits: list[int], perm: tuple[int, ...]) -> list[int]:
    """Permute a bit vector: output j takes input perm[j]."""
    return [bits[p] for p in perm]


def invert_perm(bits: list[int], perm: tuple[int, ...]) -> list[int]:
    out = [0] * len(bits)
    for j, p in enumerate(perm):
        out[p] = bits[j]
    return out


def draw_setting(rng: random.Random, n: int) -> int:
    """Uniform setting in [1, n!] via uniform factorial-base digits.

    Stands in for the hardware noise source; seeded, so reproducible.
    """
    rank = 0
    for pos in range(n):
        f = math.factorial(n - 1 - pos)
        rank += rng.randint(0, n - 1 - pos) * f
    return rank + 1


def setting_bit_width(n_b: int) -> int:
    """Width of the unpermuted setting preamble."""
    return max(1, math.ceil(math.log2(math.factorial(n_b)))) if n_b > 1 else 1


def int_to_bits(value: int, width: int) -> list[int]:
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def bits_to_int(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


# ---------------------------------------------------------------------------
# TAP session
# ---------------------------------------------------------------------------

@dataclass
class Transcript:
    """Append-only per-cycle record of the serial interface."""

    n_b: int
    chi: int
    omega: int
    seed: int
    records: list[tuple[int, int, int, int, str]] = field(default_factory=list)


def format_transcript(t: Transcript) -> str:
    lines = [f"{t.n_b} {t.chi} {t.omega} {t.seed}"]
    lines += [f"{i} {tms} {tdi} {tdo} {st}" for i, tms, tdi, tdo, st in t.records]
    return "\n".join(lines) + "\n"


def parse_transcript(text: str) -> Transcript:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FsmwmError("empty transcript")
    try:
        n_b, chi, omega, seed = (int(x) for x in lines[0].split())
    except ValueError as e:
        raise FsmwmError(f"malformed transcript header {lines[0]!r}") from e
    if chi < 0 or omega < 0 or n_b != chi + omega or n_b < 1:
        raise FsmwmError(f"transcript header {lines[0]!r} needs "
                         "chi, omega >= 0 and n_b = chi + omega >= 1")
    if n_b > MAX_REGISTER_BITS:
        raise CapExceededError(f"transcript register of {n_b} bits is past "
                               f"the {MAX_REGISTER_BITS}-bit cap")
    t = Transcript(n_b, chi, omega, seed)
    for expect, ln in enumerate(lines[1:]):
        try:
            idx, tms, tdi, tdo, st = ln.split()
            record = (int(idx), _BIT[tms], _BIT[tdi], _BIT[tdo], st)
        except (KeyError, ValueError) as e:
            raise FsmwmError(f"malformed transcript record {ln!r}") from e
        if st not in _NEXT:
            raise FsmwmError(f"unknown TAP state in transcript record {ln!r}")
        if record[0] != expect:
            raise FsmwmError("cycle indices must be consecutive from 0")
        t.records.append(record)
    return t


class TapSession:
    """Single-owner serial window onto one concealed machine.

    Frame layout is output field then input field; shifting is MSB-out,
    LSB-in.  The session opens with the freshly drawn setting prepended
    to the chain unpermuted, followed by an implicit latch of the reset
    frame; the TAP starts in Latch.  ``perm`` is the setting's
    permutation, fixed for the whole session.
    """

    def __init__(self, machine: Fsm, chi: int, omega: int, seed: int,
                 setting: int | None = None):
        if chi < 0 or chi + omega < 1:
            raise FsmwmError(f"register of chi={chi} input and omega={omega} state "
                             "bits needs chi >= 0 and chi + omega >= 1")
        if chi + omega > MAX_REGISTER_BITS:
            raise CapExceededError(f"register of {chi + omega} bits is past "
                                   f"the {MAX_REGISTER_BITS}-bit cap")
        need = max(machine.states).bit_length()
        if omega < need:
            raise FsmwmError(f"omega {omega} too narrow; need at least {need} bits")
        self.machine = machine
        self.chi = chi
        self.omega = omega
        self.n_b = chi + omega
        self.seed = seed
        rng = random.Random(seed)
        self.setting = setting if setting is not None else draw_setting(rng, self.n_b)
        self.perm = permutation_by_index(self.n_b, self.setting)
        self.tap_state = LATCH
        self.mstate = machine.reset
        self.last_input_bits = [0] * chi
        self.transcript = Transcript(self.n_b, chi, omega, seed)
        self.chain = deque(int_to_bits(self.setting - 1, setting_bit_width(self.n_b)))
        self._latch()

    def _latch(self):
        frame = int_to_bits(self.mstate, self.omega) + self.last_input_bits
        self.chain.extend(apply_perm(frame, self.perm))

    def _assert(self):
        frame = invert_perm(list(self.chain)[-self.n_b:], self.perm)
        self.last_input_bits = frame[self.omega:]
        move = self.machine.transitions.get(
            (self.mstate, str(bits_to_int(self.last_input_bits))))
        if move is not None:        # undefined input: the machine stays frozen
            self.mstate = move[0]
        self.chain.clear()

    def _clock(self, tms: int, tdis: list[int]) -> list[int]:
        """``tap_step`` once per bit of ``tdis``, the first cycle with
        ``tms`` and the rest with TMS=0, so a whole Shift window is one
        call; returns the TDO bits."""
        if tms:
            self.tap_state = _NEXT[self.tap_state]
            if self.tap_state == ASSERT:
                self._assert()
            elif self.tap_state == LATCH:
                self._latch()
        chain, k = self.chain, len(tdis)
        if self.tap_state == SHIFT and chain:
            chain.extend(tdis)
            tdos = [chain.popleft() for _ in tdis]
        else:
            tdos = [0] * k
        records = self.transcript.records
        start = len(records)
        records.extend(zip(range(start, start + k), [tms] + [0] * (k - 1),
                           tdis, tdos, [self.tap_state] * k))
        return tdos

    def tap_step(self, tms: int, tdi: int) -> int:
        """One test-clock cycle.  TMS=0 holds the TAP state; TMS=1
        advances it cyclically, and the entered state acts immediately.
        Shifting occurs on every cycle spent in Shift, entry included; an
        empty chain drops TDI and outputs 0."""
        return self._clock(tms, [tdi])[0]


def drive_frames(session: TapSession, input_values: list[int]) -> Transcript:
    """Run one frame per input value: enter Shift, stream the register
    out while feeding the permuted next frame in, then assert and latch."""
    preamble = [0] * setting_bit_width(session.n_b)
    pad = [0] * session.omega
    for f, value in enumerate(input_values):
        feed = apply_perm(pad + int_to_bits(value, session.chi), session.perm)
        session._clock(1, preamble + feed if f == 0 else feed)   # one Shift window
        session._clock(1, [0])                # enter Assert
        session._clock(1, [0])                # enter Latch
    return session.transcript


def decode_transcript(t: Transcript):
    """Recover the setting and the (state, input-field) payload stream
    from the serial log.  Requires knowledge of the permutation scheme;
    the setting itself is read from the unpermuted preamble, and one
    outside 1..n_b! is refused."""
    p = setting_bit_width(t.n_b)
    shift_bits = [tdo for _, _, _, tdo, st in t.records if st == SHIFT]
    if len(shift_bits) < p:
        raise FsmwmError("transcript shorter than the setting preamble")
    decoded_setting = bits_to_int(shift_bits[:p]) + 1
    perm = permutation_by_index(t.n_b, decoded_setting)
    payload = []
    rest = shift_bits[p:]
    if len(rest) % t.n_b:
        raise FsmwmError(f"transcript ends inside a frame: {len(rest)} shifted "
                         f"bits after the preamble are not whole {t.n_b}-bit frames")
    for off in range(0, len(rest), t.n_b):
        frame = invert_perm(rest[off:off + t.n_b], perm)
        payload.append((bits_to_int(frame[:t.omega]), bits_to_int(frame[t.omega:])))
    return decoded_setting, payload


def scan_watermark_test(machine: Fsm, chi: int, omega: int, branch: int,
                        seed: int, steps: int,
                        setting: int | None = None) -> Transcript:
    """Drive a complete serial watermark test for one branch.

    The schedule is the branch selector, steps-1 ticks, and one trailing
    tick whose frame flushes the final latched state out of the register.
    Refuses more than ``MAX_SCAN_STEPS`` steps.
    """
    session = TapSession(machine, chi, omega, seed, setting=setting)
    if not 0 <= branch < 1 << chi:
        raise FsmwmError(f"branch {branch} does not fit chi={chi} input bits")
    if steps < 1:
        raise FsmwmError(f"step count {steps} must be >= 1")
    if steps > MAX_SCAN_STEPS:
        raise CapExceededError(f"step count {steps} is past the cap of {MAX_SCAN_STEPS}")
    return drive_frames(session, [branch] + [0] * steps)
