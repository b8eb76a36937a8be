"""Serial test port: permutation scheme, TAP cycle accounting, and
serial/parallel agreement."""

import io
import itertools
import math
import random
import re

import pytest

from fsmwm import (
    FsmwmError,
    TapSession,
    decode_transcript,
    drive_frames,
    permutation_by_index,
    run_states,
    scan_watermark_test,
)
from fsmwm import scanchain
from fsmwm.scanchain import (
    apply_perm,
    bits_to_int,
    draw_setting,
    int_to_bits,
    invert_perm,
    setting_bit_width,
)
from conftest import make_chain_host, random_machine


def test_permutations_lexicographic_order():
    got = [permutation_by_index(3, i) for i in range(1, 7)]
    assert got == [
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    ]


def test_permutation_index_identity_and_bounds():
    assert permutation_by_index(5, 1) == (0, 1, 2, 3, 4)
    assert permutation_by_index(4, 24) == (3, 2, 1, 0)
    with pytest.raises(FsmwmError):
        permutation_by_index(3, 0)
    with pytest.raises(FsmwmError):
        permutation_by_index(3, 7)


def test_apply_invert_round_trip(rng):
    for _ in range(50):
        n = rng.randint(1, 8)
        bits = [rng.randint(0, 1) for _ in range(n)]
        i = permutation_by_index(n, rng.randint(1, math.factorial(n)))
        assert invert_perm(apply_perm(bits, i), i) == bits


def test_draw_setting_range_and_determinism():
    r1, r2 = random.Random(9), random.Random(9)
    for n in (1, 2, 3, 6):
        vals = [draw_setting(r1, n) for _ in range(30)]
        assert all(1 <= v <= math.factorial(n) for v in vals)
        assert vals == [draw_setting(r2, n) for _ in range(30)]


def test_draw_setting_covers_small_space():
    rng_ = random.Random(0)
    seen = {draw_setting(rng_, 3) for _ in range(300)}
    assert seen == set(range(1, 7))


def test_setting_bit_width():
    assert setting_bit_width(1) == 1
    assert setting_bit_width(3) == 3      # 3! = 6 needs 3 bits
    assert setting_bit_width(4) == 5      # 4! = 24 needs 5 bits
    assert setting_bit_width(5) == 7      # 5! = 120 needs 7 bits


def test_factorial_base_matches_reference():
    # The i-th permutation is the i-th of itertools.permutations, and the
    # preamble width is the least w with n! <= 2**w, but at least one bit.
    for n in range(1, 7):
        perms = list(itertools.permutations(range(n)))
        assert [permutation_by_index(n, i) for i in range(1, len(perms) + 1)] == perms
        w = setting_bit_width(n)
        assert 2 ** (w - 1) < math.factorial(n) <= 2 ** w or n == w == 1


def test_int_bits_round_trip(rng):
    for _ in range(50):
        w = rng.randint(1, 12)
        v = rng.randrange(1 << w)
        assert bits_to_int(int_to_bits(v, w)) == v


def test_transcript_format_round_trip():
    # The text a transcript iterates as decodes, read back as lines, as
    # the transcript itself does.
    host = make_chain_host(4)
    t = scan_watermark_test(host, 1, 2, 0, seed=5, steps=3)
    text = "".join(t)
    assert text.splitlines()[0] == "3 1 2 5"
    assert decode_transcript(text.splitlines(keepends=True)) == decode_transcript(t)


def test_transcript_rejects_gapped_indices():
    with pytest.raises(FsmwmError):
        decode_transcript(["3 1 2 5\n", "0 1 0 0 Shift\n", "2 0 0 0 Shift\n"])


def _outcome(texts):
    try:
        return decode_transcript(texts)
    except FsmwmError as e:
        return str(e)


def _line_mutations(lines, k):
    """Each single mutation of line k of a written transcript, as a whole
    text, with a piece of its error message (None: it decodes as written)."""
    idx, tms, tdi, tdo, st = lines[k].split()

    def at(*fields, end="\n"):
        return "".join(lines[:k] + [" ".join(fields) + end] + lines[k + 1:])
    yield "gap", at(str(int(idx) + 1), tms, tdi, tdo, st), "consecutive"
    yield "zero-padded", at(idx.zfill(7), tms, tdi, tdo, st), None
    yield "plus-sign", at("+" + idx, tms, tdi, tdo, st), None
    yield "bit-2", at(idx, tms, tdi, "2", st), "malformed transcript record"
    yield "unknown-state", at(idx, tms, tdi, tdo, "Capture"), "unknown TAP state"
    yield "missing-field", at(idx, tms, tdi, tdo), "malformed transcript record"
    yield "extra-field", at(idx, tms, tdi, tdo, st, "0"), "malformed transcript record"
    yield "tabs", at("\t".join((idx, tms, tdi, tdo, st))), None
    yield "crlf", at(idx, tms, tdi, tdo, st, end="\r\n"), None
    yield "form-feed", at(idx, tms, tdi, tdo, st, end="\f"), None
    yield "blank-lines", at(idx, tms, tdi, tdo, st, end="\n \n\n"), None


def _splits(text, in_frame):
    """The text in batches of whole lines: a line each, the header and the
    rest, cut inside the first frame, and 16 kB and the rest of a line."""
    lines = text.splitlines(keepends=True)
    f = io.StringIO(text, newline="")
    return {"line": lines,
            "header": [lines[0], "".join(lines[1:])],
            "first-frame": ["".join(lines[:in_frame]), "".join(lines[in_frame:])],
            "16kB": list(iter(lambda: f.read(1 << 14) + f.readline(), ""))}


class _MatchLog:
    """A pattern that logs the match of each batch it is asked about."""

    def __init__(self, pattern):
        self.pattern, self.matches = pattern, []

    def fullmatch(self, batch):
        self.matches.append(m := self.pattern.fullmatch(batch))
        return m


def test_bulk_and_record_checks_agree(monkeypatch):
    # Whatever the batches, a transcript decodes, or fails with the message,
    # as the record-by-record check of its whole text does.
    t = scan_watermark_test(make_chain_host(70), 2, 30, 1, seed=7, steps=60)
    text = "".join(t)
    lines = text.splitlines(keepends=True)
    p = setting_bit_width(t.n_b)
    assert len(text) > 1 << 15 and p == 118
    clean = decode_transcript(t)
    # Line 1 + p + 10 is inside the first frame; the deep one is past 16 kB.
    cases = [("written", text, None), ("no-final-newline", text[:-1], None),
             ("all-tabs", text.replace(" ", "\t"), None),
             ("all-crlf", text.replace("\n", "\r\n"), None)]
    for k in (5, 1 + p + 10, len(lines) - 40):
        cases += [(f"{name}@{k}", mutated, error)
                  for name, mutated, error in _line_mutations(lines, k)]
    # An impossible setting is reported before a bad record that follows it.
    ones = "".join(ln.replace(" 0 Shift", " 1 Shift") for ln in lines[1:1 + p])
    cases.append(("setting-then-bad-record",
                  lines[0] + ones + "".join(lines[1 + p:-5]) + "x\n", "out of range"))

    spy = _MatchLog(scanchain._WRITTEN)
    for name, mutated, error in cases:
        with monkeypatch.context() as m:
            m.setattr(scanchain, "_WRITTEN", re.compile("(?!)"))
            want = _outcome([mutated])
        if error is None:
            assert want == clean, name
        else:
            assert isinstance(want, str) and error in want, (name, want)
        with monkeypatch.context() as m:
            m.setattr(scanchain, "_WRITTEN", spy)
            for how, batches in _splits(mutated, 1 + p + 10).items():
                spy.matches.clear()
                assert _outcome(batches) == want, (name, how)
                if name == "written":           # every batch is checked in bulk
                    assert spy.matches and all(spy.matches), how


def test_cycle_count_formula():
    host = make_chain_host(4)
    chi, omega, steps = 1, 2, 3
    t = scan_watermark_test(host, chi, omega, 0, seed=5, steps=steps)
    n_b = chi + omega
    p = setting_bit_width(n_b)
    frames = steps + 1
    assert len(t.records) == p + frames * (n_b + 2)


def _serial_states(machine, chi, omega, branch, steps, setting):
    t = scan_watermark_test(machine, chi, omega, branch, seed=0,
                            steps=steps, setting=setting)
    decoded_setting, payload = decode_transcript(t)
    assert decoded_setting == setting
    return [state for state, _ in payload]


def test_serial_matches_direct_exhaustive_small_settings():
    # every setting of a 3-bit register
    machine = make_chain_host(4)
    chi, omega = 1, 2
    for setting in range(1, math.factorial(3) + 1):
        got = _serial_states(machine, chi, omega, 1, 4, setting)
        want = run_states(machine, ["1", "0", "0", "0"])
        assert got == want


def test_serial_matches_direct_random_machines(rng):
    for _ in range(20):
        machine = random_machine(rng, rng.randint(2, 8), 2)
        chi, omega = 1, 3
        n_b = chi + omega
        setting = rng.randint(1, math.factorial(n_b))
        branch = rng.randint(0, 1)
        steps = rng.randint(1, 6)
        got = _serial_states(machine, chi, omega, branch, steps, setting)
        want = run_states(machine, [str(branch)] + ["0"] * (steps - 1))
        assert got == want


def test_undefined_input_value_is_ignored():
    # a value outside the machine's alphabet leaves the state alone for
    # that frame; later defined values still advance the machine
    machine = make_chain_host(4)
    got = _serial_states(machine, 2, 2, 3, 3, setting=1)
    assert got == [0, 0, 1, 2]


def test_preamble_is_unpermuted():
    machine = make_chain_host(4)
    setting = 5
    t = scan_watermark_test(machine, 1, 2, 0, seed=0, steps=2, setting=setting)
    p = setting_bit_width(3)
    shift_bits = [tdo for _, _, _, tdo, st in t.records if st == "Shift"]
    assert bits_to_int(shift_bits[:p]) + 1 == setting


def test_sessions_differ_by_seed():
    machine = make_chain_host(4)
    t1 = scan_watermark_test(machine, 1, 2, 1, seed=1, steps=3)
    t2 = scan_watermark_test(machine, 1, 2, 1, seed=2, steps=3)
    s1, p1 = decode_transcript(t1)
    s2, p2 = decode_transcript(t2)
    # payloads agree even though the wire images differ
    assert p1 == p2
    assert [r[3] for r in t1.records] != [r[3] for r in t2.records] or s1 == s2


def test_session_rejects_narrow_omega():
    machine = make_chain_host(5)  # state 4 needs three bits
    with pytest.raises(FsmwmError):
        TapSession(machine, chi=1, omega=2, seed=0)
    assert TapSession(machine, chi=1, omega=3, seed=0).omega == 3


def _drive_by_cycles(session, input_values):
    """Reference for ``drive_frames``: the same schedule, one ``tap_step``
    per test-clock cycle."""
    p = setting_bit_width(session.n_b)
    perm = permutation_by_index(session.n_b, session.setting)
    for f, value in enumerate(input_values):
        frame = [0] * session.omega + int_to_bits(value, session.chi)
        feed = ([0] * p if f == 0 else []) + [frame[i] for i in perm]
        session.tap_step(1, feed[0])          # enter Shift
        for bit in feed[1:]:
            session.tap_step(0, bit)
        session.tap_step(1, 0)                # enter Assert
        session.tap_step(1, 0)                # enter Latch
    return session.transcript


def test_frame_shift_matches_cycle_shift(rng):
    for _ in range(40):
        machine = random_machine(rng, rng.randint(1, 9), rng.randint(1, 4))
        chi = rng.randint(0, 3)
        omega = max(machine.states).bit_length() + rng.randint(0, 3)
        if chi + omega < 1:
            omega = 1
        setting = rng.randint(1, math.factorial(chi + omega))
        values = [rng.randrange(1 << chi) for _ in range(rng.randint(1, 6))]
        # Some sessions start from a TAP state other than Latch.
        lead = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(rng.choice((0, 0, 5)))]
        sessions = [TapSession(machine, chi, omega, seed=0, setting=setting)
                    for _ in range(2)]
        for session in sessions:
            for tms, tdi in lead:
                session.tap_step(tms, tdi)
        frames, cycles = sessions
        assert drive_frames(frames, values).records == \
            _drive_by_cycles(cycles, values).records
        assert (frames.mstate, list(frames.chain), frames.tap_state) == \
            (cycles.mstate, list(cycles.chain), cycles.tap_state)
