"""Simulated boundary-scan access to the concealed machine: a
three-state test access port, the scan register, and the permuted
latch/assert scheme.  A session draws its setting once and fixes its
permutation with it; the port shifts whole frames at a time."""

from __future__ import annotations

import math
import random
import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, compress
from operator import itemgetter

from .errors import CapExceededError, FsmwmError, clip
from .machine import Fsm

LATCH, SHIFT, ASSERT = "Latch", "Shift", "Assert"
# Widest scan register, chi + omega bits: a setting of 1024! has 2,640
# digits, under Python's 4,300-digit limit for printing an integer.
MAX_REGISTER_BITS = 1024
# Most steps one scan test drives, chi + omega + 2 transcript lines a step.
MAX_SCAN_STEPS = 1 << 14
_KEPT_LINES = 1 << 16           # most lines of repeated-frame templates a drive keeps
_NEXT = {LATCH: SHIFT, SHIFT: ASSERT, ASSERT: LATCH}
_BIT = {"0": 0, "1": 1}
# Least text a transcript reader checks at once: batches of 64 kB ran the
# serial-scan benchmark slightly faster but at 1.6 MB (7 %) more peak memory.
_BATCH_CHARS = 1 << 14
# Lines exactly as ``scan-test`` writes them, the form a batch is checked in bulk in.
_WRITTEN = re.compile(r"(?:[0-9]+ [01] [01] [01] (?:Latch|Shift|Assert)\n)*", re.ASCII)


# ---------------------------------------------------------------------------
# Permutation scheme (factorial-number-system indexing)
# ---------------------------------------------------------------------------

def permutation_by_index(n: int, i: int) -> tuple[int, ...]:
    """The i-th permutation of range(n), 1-based, in lexicographic order;
    i=1 is the identity.  Decoded through factorial-base digits so large
    n never materializes n! beyond the index arithmetic."""
    if not 1 <= i <= (f := math.factorial(n)):
        raise FsmwmError(f"permutation index {i} out of range 1..{n}!")
    rank, pool, out = i - 1, list(range(n)), []
    for pos in range(n):
        d, rank = divmod(rank, f := f // (n - pos))     # f is (n - 1 - pos)!
        out.append(pool.pop(d))
    return tuple(out)


def apply_perm(bits: list[int], perm: tuple[int, ...]) -> list[int]:
    """Permute a bit vector: output j takes input perm[j]."""
    return [bits[p] for p in perm]


def invert_perm(bits: list[int], perm: tuple[int, ...]) -> list[int]:
    out = [0] * len(bits)
    for j, p in enumerate(perm):
        out[p] = bits[j]
    return out


def draw_setting(rng: random.Random, n: int) -> int:
    """Uniform setting in [1, n!] via uniform factorial-base digits: stands
    in for the hardware noise source; seeded, so reproducible."""
    f = math.factorial(n)                   # digit m - 1 weighs (m - 1)!, m = n..1
    return 1 + sum(rng.randint(0, m - 1) * (f := f // m) for m in range(n, 0, -1))


def setting_bit_width(n_b: int) -> int:
    """Width of the unpermuted setting preamble: the bits of n_b! - 1, at least one."""
    return max(1, (math.factorial(n_b) - 1).bit_length())


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
    """A session's serial log: the header and, per window of cycles, a line
    template (a ``%d`` per cycle index) and cycle count.  It iterates as text
    a window at a time; ``records`` parses the cycles back only when asked."""

    n_b: int
    chi: int
    omega: int
    seed: int
    windows: Iterable[tuple[str, int]] = field(default_factory=list)

    def __iter__(self):
        yield f"{self.n_b} {self.chi} {self.omega} {self.seed}\n"
        i = 0
        for template, k in self.windows:
            yield template % tuple(range(i, i + k))
            i += k

    @property
    def records(self) -> list[tuple[int, int, int, int, str]]:
        rows = map(str.split, "".join(self).splitlines()[1:])
        return [(int(i), int(tms), int(tdi), int(tdo), st) for i, tms, tdi, tdo, st in rows]


def _batches(texts):
    """Join consecutive strings of whole lines into batches of at least
    ``_BATCH_CHARS`` characters, and the rest."""
    batch, n = [], 0
    for text in texts:
        batch.append(text)
        if (n := n + len(text)) >= _BATCH_CHARS:
            yield "".join(batch)
            batch, n = [], 0
    yield "".join(batch)


def _read_transcript(texts):
    """Yield a transcript's header, then its Shift TDO bits a batch at a
    time as strings of 0 and 1.  A batch in the form ``scan-test`` writes
    is checked in bulk; any other is checked record by record."""
    batches = _batches(texts)
    for batch in batches:
        if batch := batch.lstrip():         # the first line that is not blank
            break
    else:
        raise FsmwmError("empty transcript")
    head, nl, rest = batch.partition("\n")
    first, *more = (head + nl).splitlines(keepends=True)    # head may hold other line ends
    header = first.split()
    try:
        n_b, chi, omega, seed = map(int, header)
    except ValueError as e:
        raise FsmwmError(f"malformed transcript header {clip(' '.join(header))!r}") from e
    if chi < 0 or omega < 0 or n_b != chi + omega or n_b < 1:
        raise FsmwmError(f"transcript header {clip(' '.join(header))!r} needs "
                         "chi, omega >= 0 and n_b = chi + omega >= 1")
    if n_b > MAX_REGISTER_BITS:
        raise CapExceededError(f"transcript register of {n_b} bits is past "
                               f"the {MAX_REGISTER_BITS}-bit cap")
    yield Transcript(n_b, chi, omega, seed)
    expect = 0
    for batch in chain(("".join(more) + rest,), batches):
        if _WRITTEN.fullmatch(batch):
            tok = batch.split()
            n = len(tok) // 5
            if tok[0::5] == list(map(str, range(expect, expect + n))):
                expect += n
                yield "".join(compress(tok[3::5], map(SHIFT.__eq__, tok[4::5])))
                continue
        bits = []                           # any other batch: record by record
        try:
            for row in filter(None, map(str.split, batch.splitlines())):
                try:
                    idx, tms, tdi, tdo, st = row
                    idx, _, _, _ = int(idx), _BIT[tms], _BIT[tdi], _BIT[tdo]   # or KeyError
                except (KeyError, ValueError) as e:
                    raise FsmwmError(
                        f"malformed transcript record {clip(' '.join(row))!r}") from e
                if st not in _NEXT:
                    raise FsmwmError(
                        f"unknown TAP state in transcript record {clip(' '.join(row))!r}")
                if idx != expect:
                    raise FsmwmError("cycle indices must be consecutive from 0")
                expect += 1
                if st == SHIFT:
                    bits.append(tdo)
        except FsmwmError:
            yield "".join(bits)             # so an impossible setting they complete comes first
            raise
        yield "".join(bits)


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
        self.machine, self.chi, self.omega, self.seed = machine, chi, omega, seed
        self.n_b = chi + omega
        self.setting = (setting if setting is not None
                        else draw_setting(random.Random(seed), self.n_b))
        self.perm = permutation_by_index(self.n_b, self.setting)
        self.tap_state, self.mstate, self.last_input_bits = LATCH, machine.reset, [0] * chi
        self.transcript = Transcript(self.n_b, chi, omega, seed)
        self.chain = int_to_bits(self.setting - 1, setting_bit_width(self.n_b))
        self._latch()

    def _latch(self):
        frame = int_to_bits(self.mstate, self.omega) + self.last_input_bits
        self.chain += apply_perm(frame, self.perm)

    def _assert(self):
        frame = invert_perm(self.chain[-self.n_b:], self.perm)
        self.last_input_bits = frame[self.omega:]
        self.mstate = self.machine.transitions.get(     # an undefined input freezes it
            (self.mstate, str(bits_to_int(self.last_input_bits))), (self.mstate,))[0]
        self.chain = []

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
        k = len(tdis)
        if self.tap_state == SHIFT and self.chain:
            bits = self.chain + tdis
            tdos, self.chain = bits[:k], bits[k:]
        else:
            tdos = [0] * k
        tail = f" {self.tap_state}\n"         # lines with a %d slot for the cycle index
        self.transcript.windows.append((f"%d {tms} " + (tail + "%d 0 ").join(
            map("%d %d".__mod__, zip(tdis, tdos))) + tail, k))
        return tdos

    def tap_step(self, tms: int, tdi: int) -> int:
        """One test-clock cycle.  TMS=0 holds the TAP state; TMS=1
        advances it cyclically, and the entered state acts immediately.
        Shifting occurs on every cycle spent in Shift, entry included; an
        empty chain drops TDI and outputs 0."""
        return self._clock(tms, [tdi])[0]


@dataclass
class _Frames:
    """One frame per input value, clocked afresh on each pass from ``opening()``:
    Shift the register out as the permuted next frame feeds in, Assert, Latch.
    From Latch, a later frame depends only on its value and the latched frame."""

    opening: Callable[[], TapSession]
    input_values: list[int]

    def __iter__(self):
        s, frames = self.opening(), {}
        windows, preamble = s.transcript.windows, [0] * setting_bit_width(s.n_b)
        for f, value in enumerate(self.input_values):
            key = (value, s.mstate, *s.last_input_bits) if f and s.tap_state == LATCH else None
            if key in frames:                   # a repeat replays as one template
                template, s.mstate, s.last_input_bits, s.chain = frames[key]
                windows.append((template, s.n_b + 2))
            else:
                feed = apply_perm([0] * s.omega + int_to_bits(value, s.chi), s.perm)
                s._clock(1, preamble + feed if f == 0 else feed)   # one Shift window
                s._clock(1, [0])                # enter Assert
                s._clock(1, [0])                # enter Latch
                if key is not None and len(frames) * (s.n_b + 2) < _KEPT_LINES:
                    frames[key] = ("".join(t for t, _ in windows[-3:]), s.mstate,
                                   s.last_input_bits, s.chain)
            yield from windows              # the frame's, and any clocked before it
            windows.clear()


def drive_frames(session: TapSession, input_values: list[int]) -> Transcript:
    """Run one frame per input value on the session and keep its windows."""
    session.transcript.windows = list(_Frames(lambda: session, input_values))
    return session.transcript


def decode_transcript(transcript):
    """Recover the setting and the (state, input-field) payload stream
    from the serial log: a Transcript, or its text in batches of whole
    lines (an open file's lines will do).  Requires knowledge of the
    permutation scheme; the setting itself is read from the unpermuted
    preamble, and one outside 1..n_b! is refused."""
    shift_bits = _read_transcript(transcript)
    t = next(shift_bits)
    n_b, omega, p = t.n_b, t.omega, setting_bit_width(t.n_b)
    bits = ""
    for batch in shift_bits:
        if len(bits := bits + batch) >= p:
            break
    else:
        raise FsmwmError("transcript shorter than the setting preamble")
    decoded_setting = int(bits[:p], 2) + 1
    perm = permutation_by_index(n_b, decoded_setting)
    unpermute = itemgetter(*sorted(range(n_b), key=perm.__getitem__))
    bits, payload = bits[p:], []
    for batch in chain(("",), shift_bits):        # what followed the preamble first
        bits += batch
        end = len(bits) - len(bits) % n_b
        for i in range(0, end, n_b):                # a frame at a time
            frame = "".join(unpermute(bits[i:i + n_b]))
            payload.append((int(frame[:omega] or "0", 2), int(frame[omega:] or "0", 2)))
        bits = bits[end:]
    if bits:
        raise FsmwmError(f"transcript ends inside a frame of {n_b} shifted bits")
    return decoded_setting, payload


def scan_watermark_test(machine: Fsm, chi: int, omega: int, branch: int,
                        seed: int, steps: int,
                        setting: int | None = None) -> Transcript:
    """Drive a complete serial watermark test for one branch: the branch
    selector, steps-1 ticks, and one trailing tick whose frame flushes the
    final latched state out of the register.  Refuses more than
    ``MAX_SCAN_STEPS`` steps.  The transcript is clocked afresh when read."""
    opening = partial(TapSession, machine, chi, omega, seed, setting=setting)
    t = opening().transcript                # checks the register against the machine
    if not 0 <= branch < 1 << chi:
        raise FsmwmError(f"branch {branch} does not fit chi={chi} input bits")
    if steps < 1:
        raise FsmwmError(f"step count {steps} must be >= 1")
    if steps > MAX_SCAN_STEPS:
        raise CapExceededError(f"step count {steps} is past the cap of {MAX_SCAN_STEPS}")
    return replace(t, windows=_Frames(opening, [branch] + [0] * steps))
