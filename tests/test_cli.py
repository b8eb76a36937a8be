"""Command-line behaviour: every subcommand, exit codes, config merge,
and byte-identical reruns."""

import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fsmwm
from fsmwm import Fsm, cli, format_fsm, format_graph, machine, parse_fsm
from fsmwm.cli import main
from fsmwm.matrixcrypt import MAX_DECODER_STATES
from fsmwm.scanchain import MAX_SCAN_STEPS
from fsmwm.verify import MAX_VERIFY_LENGTH
from conftest import clique_with_leaves, make_chain_host, make_host8


@pytest.fixture
def host_file(tmp_path):
    path = tmp_path / "host.json"
    path.write_text(format_fsm(make_host8()))
    return str(path)


def test_extract_cg(host_file, tmp_path):
    out = tmp_path / "cg.json"
    assert main(["extract-cg", host_file, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["root"] == 0 and len(doc["vertices"]) == 8


def test_extract_cg_kiss2(tmp_path):
    src = tmp_path / "m.kiss2"
    src.write_text(".i 1\n.o 1\n.r a\n0 a b 1\n1 b a 0\n")
    out = tmp_path / "cg.json"
    assert main(["extract-cg", str(src), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["vertices"] == [0, 1]


def test_lpr_and_machine_output(host_file, tmp_path):
    g = tmp_path / "red.json"
    m = tmp_path / "red_m.json"
    assert main(["lpr", host_file, "-m", "6", "-o", str(g)]) == 0
    assert len(json.loads(g.read_text())["vertices"]) == 6
    assert main(["lpr", host_file, "-m", "6", "--as-machine", "-o", str(m)]) == 0
    assert parse_fsm(m.read_text()).inputs == ("0",)


def test_lprk(host_file, tmp_path):
    out = tmp_path / "lk.json"
    assert main(["lprk", host_file, "-n", "4", "-k", "3", "-o", str(out)]) == 0
    assert len(parse_fsm(out.read_text()).states) == 13


def test_matrix_tool_chain(host_file, tmp_path):
    red = tmp_path / "red.json"
    wm = tmp_path / "wm.json"
    keyf = tmp_path / "key.txt"
    dec = tmp_path / "dec.json"
    assert main(["lpr", host_file, "-m", "5", "-o", str(red)]) == 0
    assert main(["encrypt-matrix", str(red), "--seed", "99",
                 "--out-machine", str(wm), "--out-key", str(keyf)]) == 0
    assert main(["build-decrypt", str(red), "--key", str(keyf),
                 "-o", str(dec)]) == 0
    assert len(parse_fsm(wm.read_text()).states) == 5
    assert len(parse_fsm(dec.read_text()).states) == 5
    assert len(keyf.read_text().split()) == 5


def test_package_verify_pass_and_fail(host_file, tmp_path):
    p = tmp_path / "p.json"
    s = tmp_path / "s.json"
    assert main(["emit-package", host_file, "--mode", "fixed", "-n", "3",
                 "-k", "2", "--out-package", str(p), "--out-secret", str(s)]) == 0
    assert main(["verify", "--package", str(p), "--secret", str(s),
                 "--branch", "1", "--length", "3"]) == 0
    # tamper one transition target in the shipped machine
    doc = json.loads(p.read_text())
    t = doc["watermark"]["transitions"][0]
    t["to"] = next(x for x in doc["watermark"]["states"] if x != t["to"])
    p.write_text(json.dumps(doc))
    results = [
        main(["verify", "--package", str(p), "--secret", str(s),
              "--branch", str(b), "--length", "4"])
        for b in range(2)
    ]
    assert 1 in results


def _emit(host_file, tmp_path, *argv):
    p, s = tmp_path / "p.json", tmp_path / "s.json"
    assert main(["emit-package", host_file, *argv,
                 "--out-package", str(p), "--out-secret", str(s)]) == 0
    return p, s


def test_verify_refuses_a_package_that_widens_its_branch_count(host_file, tmp_path, capsys):
    # The secret's reduction takes branches 0..3 at reset; tap.k = 8 in
    # the package does not make branch 5 legal.
    p, s = _emit(host_file, tmp_path, "--mode", "fixed", "-n", "4", "-k", "3")
    doc = json.loads(p.read_text())
    doc["tap"]["k"] = 8
    p.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--package", str(p), "--secret", str(s),
                 "--branch", "5", "--length", "4"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")
    for b in range(4):
        assert main(["verify", "--package", str(p), "--secret", str(s),
                     "--branch", str(b), "--length", "4"]) == 0


def test_verify_refuses_a_single_vertex_matrix_bundle(host_file, tmp_path, capsys):
    # A one-vertex reduction has no step to compare.
    p, s = _emit(host_file, tmp_path, "--mode", "matrix", "-m", "1")
    capsys.readouterr()
    assert main(["verify", "--package", str(p), "--secret", str(s), "--length", "4"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


def test_lpr_path_search_budget_exits_3(tmp_path, capsys):
    graph = tmp_path / "clique9.json"
    graph.write_text(format_graph(clique_with_leaves(9)))
    t0 = time.perf_counter()
    assert main(["lpr", str(graph), "-m", "6"]) == 3
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "budget of 1048576 steps" in err


@pytest.mark.parametrize("argv", [
    ["lpr", "{graph}", "-m", "65537"],
    ["lprk", "{graph}", "-n", "65537", "-k", "1"],
    ["lprk", "{graph}", "-n", "10000000", "-k", "3"],
    ["emit-package", "{host}", "--mode", "fixed", "-n", "256", "-k", "257"],
], ids=["lpr", "lprk", "lprk-huge", "emit-package"])
def test_reduction_size_cap_exits_3(host_file, tmp_path, capsys, argv):
    # The cap is checked before the path search, which would pass its
    # budget on this graph.
    graph = tmp_path / "clique9.json"
    graph.write_text(format_graph(clique_with_leaves(9)))
    t0 = time.perf_counter()
    assert main([a.format(graph=graph, host=host_file) for a in argv]) == 3
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "passes the cap of 65536" in err


def test_width_is_not_an_option(host_file, tmp_path, monkeypatch, capsys):
    # Every shape has a width now, (2, 7) among them, so -z is gone.
    monkeypatch.chdir(tmp_path)
    for command in (["lprk"], ["emit-package", "--mode", "fixed"]):
        with pytest.raises(SystemExit) as e:
            main(command + [host_file, "-n", "4", "-k", "3", "-z", "5"])
        assert e.value.code == 2
        assert "unrecognized arguments: -z 5" in capsys.readouterr().err
    assert main(["lprk", host_file, "-n", "2", "-k", "7", "-o", "lk.json"]) == 0
    assert len(parse_fsm((tmp_path / "lk.json").read_text()).states) == 15


def test_emit_package_deterministic(host_file, tmp_path):
    outs = []
    for i in (1, 2):
        p = tmp_path / f"p{i}.json"
        s = tmp_path / f"s{i}.json"
        assert main(["emit-package", host_file, "--mode", "matrix", "-m", "6",
                     "--out-package", str(p), "--out-secret", str(s)]) == 0
        outs.append((p.read_text(), s.read_text()))
    assert outs[0] == outs[1]


def test_decompose_and_validate(host_file, tmp_path):
    lk = tmp_path / "lk.json"
    assert main(["lprk", host_file, "-n", "3", "-k", "2", "-o", str(lk)]) == 0
    files = {name: tmp_path / name for name in
             ("pi_i.txt", "pi_d.txt", "front.json", "back.json")}
    assert main(["decompose", str(lk), "--mode", "fixed", "-n", "3", "-k", "2",
                 "--out-pi-i", str(files["pi_i.txt"]),
                 "--out-pi-d", str(files["pi_d.txt"]),
                 "--out-front", str(files["front.json"]),
                 "--out-back", str(files["back.json"])]) == 0
    assert main(["validate-partitions", str(lk),
                 "--pi-i", str(files["pi_i.txt"]),
                 "--pi-d", str(files["pi_d.txt"])]) == 0
    # a wrong pair is reported with a failing exit code
    files["pi_i.txt"].write_text(",".join(
        str(s) for s in json.loads(lk.read_text())["states"]) + "\n")
    assert main(["validate-partitions", str(lk),
                 "--pi-i", str(files["pi_i.txt"]),
                 "--pi-d", str(files["pi_d.txt"])]) == 1


def test_decompose_fixed_cyclic_ticks_exits_3(tmp_path, capsys):
    # The branch's tick chain 1 -> 2 -> 1 never settles on a self-loop.
    keys = [(0, "0"), (0, "1"), (1, "0"), (2, "0")]
    m = Fsm(frozenset(range(3)), ("0", "1"), ("0",), 0,
            dict(zip(keys, [(1, "0"), (1, "0"), (2, "0"), (1, "0")])))
    src = tmp_path / "cyc.json"
    src.write_text(format_fsm(m))
    assert main(["decompose", str(src), "--mode", "fixed", "-n", "2", "-k", "1"]) == 3
    assert "error: branch length 3 != n=2" in capsys.readouterr().err


def test_decompose_optimal_cap_refusal(host_file, tmp_path, capsys):
    lk = tmp_path / "lk.json"
    assert main(["lprk", host_file, "-n", "4", "-k", "3", "-o", str(lk)]) == 0
    code = main(["decompose", str(lk), "--mode", "optimal", "--cap", "5"])
    assert code == 3
    assert "capped" in capsys.readouterr().err


def _assert_optimal_budget_exits_3(host_file, tmp_path, capsys, k):
    p, s = tmp_path / "p.json", tmp_path / "s.json"
    t0 = time.perf_counter()
    assert main(["emit-package", host_file, "--mode", "optimal", "-n", "1", "-k", k,
                 "--out-package", str(p), "--out-secret", str(s)]) == 3
    assert time.perf_counter() - t0 < 10.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "budget of 1048576 steps" in err
    assert not p.exists() and not s.exists()


def test_emit_package_optimal_budget_exits_3(host_file, tmp_path, capsys):
    _assert_optimal_budget_exits_3(host_file, tmp_path, capsys, "11")


def test_emit_package_optimal_budget_k10_exits_3(host_file, tmp_path, capsys):
    _assert_optimal_budget_exits_3(host_file, tmp_path, capsys, "10")


def test_emit_package_matrix_decoder_cap_exits_3(host_file, tmp_path, capsys):
    p, s = tmp_path / "p.json", tmp_path / "s.json"
    assert main(["emit-package", host_file, "--mode", "matrix", "-m", str(MAX_DECODER_STATES + 1),
                 "--out-package", str(p), "--out-secret", str(s)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "513-state decoder passes the cap of 512" in err
    assert not p.exists() and not s.exists()


def test_build_decrypt_decoder_cap_exits_3(host_file, tmp_path, capsys):
    red, key, dec = tmp_path / "red.json", tmp_path / "key.txt", tmp_path / "dec.json"
    assert main(["lpr", host_file, "-m", str(MAX_DECODER_STATES + 1), "-o", str(red)]) == 0
    assert main(["encrypt-matrix", str(red), "--seed", "1", "--out-machine",
                 str(tmp_path / "wm.json"), "--out-key", str(key)]) == 0
    capsys.readouterr()
    assert main(["build-decrypt", str(red), "--key", str(key), "-o", str(dec)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "513-state decoder passes the cap of 512" in err
    assert not dec.exists()


def test_scan_test_and_decode(host_file, tmp_path, capsys):
    lk = tmp_path / "lk.json"
    assert main(["lprk", host_file, "-n", "3", "-k", "2", "-o", str(lk)]) == 0
    t = tmp_path / "t.txt"
    assert main(["scan-test", str(lk), "--chi", "1", "--omega", "8",
                 "--branch", "1", "--steps", "3", "-o", str(t)]) == 0
    assert main(["decode-scan", str(t)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("setting ")
    assert len(lines) == 1 + 4


def test_attack_command(host_file, tmp_path, capsys):
    lk = tmp_path / "lk.json"
    assert main(["lprk", host_file, "-n", "3", "-k", "2", "-o", str(lk)]) == 0
    out = tmp_path / "att.json"
    assert main(["attack", str(lk), "--chi", "1", "-o", str(out)]) == 0
    assert "resets 2" in capsys.readouterr().err
    parse_fsm(out.read_text())


@pytest.mark.parametrize("bad_line, field, text", [
    (0, None, "8 1 7"),
    (1, None, "0 1 x 0 Shift"),
    (0, None, "0 1 7 0"),
    (0, None, "-3 1 7 0"),
    (0, None, "11 2 8 0"),
    (-1, 3, "2"),
    (-1, 4, "Foo"),
    (-1, 4, ""),
    (-1, 4, "Latch 0"),
    (-1, 1, "2"),
    (-1, 2, "x"),
    # The last record is cycle 62: 19 preamble cycles and 4 frames of 11.
    (-1, 0, "61"),
    (-1, 0, "63"),
], ids=["0", "1", "zero-width", "negative-width", "width-not-chi-plus-omega",
        "tdo-2", "unknown-tap-state", "4-fields", "6-fields", "tms-2", "tdi-x",
        "repeated-index", "skipped-index"])
def test_decode_scan_malformed_transcript_exits_3(host_file, tmp_path, capsys,
                                                  bad_line, field, text):
    lk = tmp_path / "lk.json"
    assert main(["lprk", host_file, "-n", "3", "-k", "2", "-o", str(lk)]) == 0
    t = tmp_path / "t.txt"
    assert main(["scan-test", str(lk), "--chi", "1", "--omega", "8",
                 "--steps", "3", "-o", str(t)]) == 0
    lines = t.read_text().splitlines()
    # The last record is a Latch cycle, which decoding would skip over.
    assert lines[-1].endswith(" Latch")
    if field is None:
        lines[bad_line] = text
    else:
        fields = lines[bad_line].split()
        fields[field] = text
        lines[bad_line] = " ".join(fields)
    t.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["decode-scan", str(t)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_decode_scan_reads_blank_lines_crlf_and_spaces(host_file, tmp_path, capsys):
    # Blank lines are skipped, fields may be separated by runs of white
    # space, and any line end str.splitlines knows ends a line, CRLF and
    # form feed included: such a transcript decodes as the plain one.
    lk = tmp_path / "lk.json"
    assert main(["lprk", host_file, "-n", "3", "-k", "2", "-o", str(lk)]) == 0
    t = tmp_path / "t.txt"
    assert main(["scan-test", str(lk), "--chi", "1", "--omega", "8", "--branch", "1",
                 "--steps", "3", "-o", str(t)]) == 0
    capsys.readouterr()
    assert main(["decode-scan", str(t)]) == 0
    plain = capsys.readouterr().out
    lines = t.read_text().splitlines()
    ends = ["\r\n", "\n\n", "\r\n  \t\r\n", "\f", "\r", "\x1e"]
    text = "\n\n" + "".join(
        ("  " + "   ".join(ln.split()) + " \t" if i % 3 else ln) + ends[i % len(ends)]
        for i, ln in enumerate(lines))
    t.write_bytes(text.encode())
    assert main(["decode-scan", str(t)]) == 0
    assert capsys.readouterr().out == plain


def _child_peak_mb(argv, cwd):
    """Exit status and peak RSS in MB of the CLI run as a child process,
    read from ``ru_maxrss`` by a wrapper process that has no other child."""
    wrapper = ("import resource, subprocess, sys\n"
               "code = subprocess.run([sys.executable, '-m', 'fsmwm.cli'] + sys.argv[1:],"
               " stdout=subprocess.DEVNULL).returncode\n"
               "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    src = str(Path(fsmwm.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", wrapper] + argv, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120, check=True)
    code, peak = (int(x) for x in done.stdout.split())
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS.
    return code, peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def test_wide_scan_memory_does_not_grow_with_the_transcript(host_file, tmp_path, capsys):
    # 256 steps of a 1,024-bit register write a 5 MB transcript; neither
    # side holds it, or a record per clock cycle, in memory.
    assert main(["lprk", host_file, "-n", "4", "-k", "3", "-o", str(tmp_path / "lk.json")]) == 0
    for argv in (["scan-test", "lk.json", "--chi", "2", "--omega", "1022",
                  "--steps", "256", "-o", "wide.txt"],
                 ["decode-scan", "wide.txt"]):
        code, peak_mb = _child_peak_mb(argv, tmp_path)
        assert code == 0 and peak_mb < 40, (argv[0], code, peak_mb)
    wide = tmp_path / "wide.txt"
    assert wide.stat().st_size > 5_000_000
    # The cycle index carries from batch to batch.  From the first record of
    # the 100th batch on, each index is one too high: every batch is
    # consecutive in itself, and only the index carried over shows the gap.
    f = io.StringIO(wide.read_text())
    batches = list(iter(lambda: f.read(1 << 14) + f.readline(), ""))
    later = re.sub(r"(?m)^[0-9]+", lambda m: str(int(m[0]) + 1), "".join(batches[100:]))
    wide.write_text("".join(batches[:100]) + later)
    assert main(["decode-scan", str(wide)]) == 3
    assert "cycle indices must be consecutive" in capsys.readouterr().err


def test_scan_memory_without_repeated_frames(tmp_path):
    # A 2,048-step walk down a 2,100-state chain: every frame differs, so
    # none replays a kept template, and the 41 MB transcript still streams.
    (tmp_path / "chain.json").write_text(format_fsm(make_chain_host(2100)))
    for argv in (["scan-test", "chain.json", "--chi", "1", "--omega", "1023",
                  "--steps", "2048", "-o", "long.txt"],
                 ["decode-scan", "long.txt"]):
        code, peak_mb = _child_peak_mb(argv, tmp_path)
        assert code == 0 and peak_mb < 40, (argv[0], code, peak_mb)
    assert (tmp_path / "long.txt").stat().st_size > 40_000_000


def test_decode_scan_transcript_prefixes(host_file, tmp_path, capsys):
    # A prefix that ends between frames decodes to a prefix of the payload;
    # one that ends inside the preamble or a frame exits 3.
    lk = tmp_path / "lk.json"
    assert main(["lprk", host_file, "-n", "4", "-k", "3", "-o", str(lk)]) == 0
    t = tmp_path / "t.txt"
    assert main(["scan-test", str(lk), "--chi", "2", "--omega", "8",
                 "--branch", "1", "--steps", "3", "-o", str(t)]) == 0
    lines = t.read_text().splitlines()
    capsys.readouterr()
    assert main(["decode-scan", str(t)]) == 0
    full = capsys.readouterr().out.splitlines()
    cut = tmp_path / "cut.txt"
    decoded = set()
    for end in range(1, len(lines) + 1):
        cut.write_text("\n".join(lines[:end]) + "\n")
        code = main(["decode-scan", str(cut)])
        out, err = capsys.readouterr()
        if code == 0:
            got = out.splitlines()
            assert got == full[:len(got)]
            decoded.add(len(got))
        else:
            assert code == 3
            assert err.startswith("error:") and "Traceback" not in err
    assert decoded == set(range(1, len(full) + 1))
    # The 30-line cut lands inside the first payload frame.
    cut.write_text("\n".join(lines[:30]) + "\n")
    assert main(["decode-scan", str(cut)]) == 3
    assert "inside a frame" in capsys.readouterr().err


def test_config_defaults_flags_win(host_file, tmp_path):
    p1 = tmp_path / "p1.json"
    s1 = tmp_path / "s1.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rows": 3, "branches": 2, "mode": "fixed",
                               "out_package": str(p1), "out_secret": str(s1)}))
    assert main(["--config", str(cfg), "emit-package", host_file,
                 "--mode", "fixed"]) == 0
    assert json.loads(p1.read_text())["tap"]["n"] == 3
    # explicit flag overrides the config value
    p2 = tmp_path / "p2.json"
    assert main(["--config", str(cfg), "emit-package", host_file,
                 "--mode", "fixed", "-n", "4",
                 "--out-package", str(p2), "--out-secret", str(s1)]) == 0
    assert json.loads(p2.read_text())["tap"]["n"] == 4


def test_config_defaults_do_not_outlive_the_call(host_file, tmp_path,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    plain = ["emit-package", host_file, "--mode", "fixed", "-n", "3", "-k", "2"]
    assert main(plain) == 0
    package = (tmp_path / "package.json").read_bytes()
    secret = (tmp_path / "secret.json").read_bytes()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"omega": 12, "out_package": "p_cfg.json",
                               "out_secret": "s_cfg.json"}))
    assert main(["--config", str(cfg)] + plain) == 0
    assert json.loads((tmp_path / "p_cfg.json").read_text())["tap"]["omega"] == 12
    for name in ("package.json", "secret.json"):
        (tmp_path / name).unlink()
    assert main(plain) == 0
    assert (tmp_path / "package.json").read_bytes() == package
    assert (tmp_path / "secret.json").read_bytes() == secret


@pytest.mark.parametrize("config, command, flag", [
    ({"setting": 1.5}, ["scan-test", "{lk}", "--chi", "2", "--omega", "8", "--steps", "2"],
     "--setting: invalid int value: '1.5'"),
    ({"branch": 1.5}, ["scan-test", "{lk}", "--chi", "2", "--omega", "8", "--steps", "2"],
     "--branch: invalid int value: '1.5'"),
    ({"omega": 2.5}, ["emit-package", "{host}", "--mode", "fixed", "-n", "4", "-k", "3"],
     "--omega: invalid int value: '2.5'"),
    ({"cap": None}, ["emit-package", "{host}", "--mode", "optimal", "-n", "2", "-k", "2"],
     "--cap: invalid int value: 'None'"),
    ({"mode": "weird"}, ["decompose", "{lk22}", "-n", "2", "-k", "2"],
     "--mode: invalid choice: 'weird'"),
    ({"rows": True, "branches": True}, ["emit-package", "{host}", "--mode", "fixed"],
     "--rows: invalid int value: 'True'"),
], ids=["setting", "branch", "width", "cap", "mode", "rows"])
def test_config_values_are_checked_like_flags(host_file, tmp_path, monkeypatch,
                                              capsys, config, command, flag):
    monkeypatch.chdir(tmp_path)
    names = {"host": host_file, "lk": "lk.json", "lk22": "lk22.json"}
    assert main(["lprk", host_file, "-n", "4", "-k", "3", "-o", "lk.json"]) == 0
    assert main(["lprk", host_file, "-n", "2", "-k", "2", "-o", "lk22.json"]) == 0
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    with pytest.raises(SystemExit) as e:
        main(["--config", "cfg.json"] + [arg.format(**names) for arg in command])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "host.json", "lk.json", "lk22.json"]


def test_config_out_is_a_file_name(host_file, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": 1}))
    assert main(["--config", "cfg.json", "extract-cg", host_file]) == 0
    assert json.loads((tmp_path / "1").read_text())["root"] == 0
    print("stdout still open")
    assert capsys.readouterr().out == "stdout still open\n"


@pytest.mark.parametrize("option", [["--config={cfg}"], ["--conf", "{cfg}"]],
                         ids=["equals", "abbreviated"])
def test_config_option_forms(host_file, tmp_path, option):
    cfg, lk = tmp_path / "cfg.json", tmp_path / "lk.json"
    cfg.write_text(json.dumps({"out": str(lk)}))
    argv = [arg.format(cfg=cfg) for arg in option]
    assert main(argv + ["lprk", host_file, "-n", "2", "-k", "2"]) == 0
    assert len(parse_fsm(lk.read_text()).states) == 5


def test_config_cannot_supply_a_required_flag(host_file, tmp_path, capsys):
    p, s = _tampered_bundle(host_file, tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"length": 4}))
    with pytest.raises(SystemExit) as e:
        main(["--config", str(cfg), "verify", "--package", str(p), "--secret", str(s)])
    assert e.value.code == 2
    assert "--length" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["widht", "width", "config", "source"])
def test_config_entry_naming_no_flag_exits_2(host_file, tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 5, "out": str(tmp_path / "lk.json")}))
    with pytest.raises(SystemExit) as e:
        main(["--config", str(cfg), "lprk", host_file, "-n", "2", "-k", "2"])
    assert e.value.code == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "lk.json").exists()


def test_config_entry_for_another_subcommand_is_ignored(host_file, tmp_path):
    # --omega and --seed are scan-test flags; lprk has neither.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"omega": 5, "seed": 7, "out": str(tmp_path / "lk.json")}))
    assert main(["--config", str(cfg), "lprk", host_file, "-n", "2", "-k", "2"]) == 0
    assert len(parse_fsm((tmp_path / "lk.json").read_text()).states) == 5


def test_config_calls_share_one_parser(host_file, tmp_path, monkeypatch):
    cli._parser.cache_clear()
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
    cfg = tmp_path / "cfg.json"
    for n in ("2", "3"):
        cfg.write_text(json.dumps({"omega": 0, "out": str(tmp_path / f"lk{n}.json")}))
        assert main(["--config", str(cfg), "lprk", host_file, "-n", n, "-k", "2"]) == 0
    assert built == [1]
    assert (tmp_path / "lk2.json").exists() and (tmp_path / "lk3.json").exists()


def test_one_parser_serves_every_subcommand(host_file, tmp_path, capsys):
    assert cli._parser() is cli._parser()
    cg, lk, t = (str(tmp_path / n) for n in ("cg.json", "lk.json", "t.txt"))
    p, s = str(tmp_path / "p.json"), str(tmp_path / "s.json")
    for argv in (
        ["extract-cg", host_file, "-o", cg],
        ["lprk", host_file, "-n", "3", "-k", "2", "-o", lk],
        ["emit-package", host_file, "--mode", "fixed", "-n", "3", "-k", "2",
         "--out-package", p, "--out-secret", s],
        ["verify", "--package", p, "--secret", s, "--branch", "1", "--length", "3"],
        ["scan-test", lk, "--chi", "1", "--omega", "8", "--steps", "3", "-o", t],
        ["decode-scan", t],
        ["extract-cg", host_file, "-o", "-"],
    ):
        assert main(argv) == 0
    assert capsys.readouterr().out.endswith(Path(cg).read_text())
    with pytest.raises(SystemExit) as e:
        main(["lpr", host_file])
    assert e.value.code == 2
    assert main(["decode-scan", t]) == 0


def test_bad_input_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["extract-cg", str(bad)]) == 3
    assert main(["extract-cg", str(tmp_path / "missing.json")]) == 3
    kiss = tmp_path / "bad.kiss2"
    kiss.write_text(".i x\n.o 1\n.r a\n0 a b 1\n1 b a 0\n")
    assert main(["extract-cg", str(kiss)]) == 3


def test_usage_error_exit_code(host_file):
    with pytest.raises(SystemExit) as e:
        main(["lpr"])  # missing required --size and source
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["extract-cg", host_file, "--format", "json"])  # the format is read
    assert e.value.code == 2


def _drop_tap(doc):
    del doc["tap"]


def _drop_transition_input(doc):
    del doc["watermark"]["transitions"][0]["in"]


def _scalar_states(doc):
    doc["host"]["states"] = 5


def _unknown_scheme(doc):
    doc["tap"]["scheme"] = "gray"


def _top_level_list(doc):
    return [doc]


def _boolean_tap(doc):
    doc["tap"]["k"] = True


@pytest.mark.parametrize("corrupt", [
    _drop_tap,
    _drop_transition_input,
    _scalar_states,
    _unknown_scheme,
    _top_level_list,
    _boolean_tap,
])
def test_malformed_package_exits_3(host_file, tmp_path, capsys, corrupt):
    p = tmp_path / "p.json"
    s = tmp_path / "s.json"
    assert main(["emit-package", host_file, "--mode", "fixed", "-n", "3",
                 "-k", "2", "--out-package", str(p), "--out-secret", str(s)]) == 0
    doc = json.loads(p.read_text())
    p.write_text(json.dumps(corrupt(doc) or doc))
    capsys.readouterr()
    assert main(["verify", "--package", str(p), "--secret", str(s),
                 "--length", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_malformed_graph_exits_3(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"vertices": 3, "edges": [], "root": 0}))
    assert main(["lpr", str(g), "-m", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_scan_test_rejects_narrow_omega(host_file, tmp_path, capsys):
    lk = tmp_path / "lk.json"
    assert main(["lprk", host_file, "-n", "4", "-k", "3", "-o", str(lk)]) == 0
    assert max(json.loads(lk.read_text())["states"]) == 16
    assert main(["scan-test", str(lk), "--chi", "2", "--omega", "3",
                 "--steps", "4"]) == 3
    assert "omega 3 too narrow" in capsys.readouterr().err


def _tampered_bundle(host_file, tmp_path):
    p = tmp_path / "p.json"
    s = tmp_path / "s.json"
    assert main(["emit-package", host_file, "--mode", "fixed", "-n", "3",
                 "-k", "2", "--out-package", str(p), "--out-secret", str(s)]) == 0
    doc = json.loads(p.read_text())
    for t in doc["watermark"]["transitions"]:
        t["to"] = next(x for x in doc["watermark"]["states"] if x != t["to"])
    p.write_text(json.dumps(doc))
    return p, s


@pytest.mark.parametrize("length", ["0", "-1"])
def test_verify_refuses_length_below_one(host_file, tmp_path, capsys, length):
    p, s = _tampered_bundle(host_file, tmp_path)
    capsys.readouterr()
    assert main(["verify", "--package", str(p), "--secret", str(s),
                 "--length", length]) == 3
    out, err = capsys.readouterr()
    assert "PASS" not in out and err.startswith("error: verification length")


@pytest.mark.parametrize("length, code", [(MAX_VERIFY_LENGTH, 0), (MAX_VERIFY_LENGTH + 1, 3)])
def test_verify_length_cap(host_file, tmp_path, capsys, length, code):
    p, s = _emit(host_file, tmp_path, "--mode", "fixed", "-n", "3", "-k", "2")
    assert main(["verify", "--package", str(p), "--secret", str(s),
                 "--length", str(length)]) == code
    out, err = capsys.readouterr()
    assert out.startswith("PASS") if code == 0 else err.startswith("error:")


@pytest.mark.parametrize("steps, code", [(MAX_SCAN_STEPS, 0), (MAX_SCAN_STEPS + 1, 3)])
def test_scan_test_steps_cap(host_file, tmp_path, capsys, steps, code):
    lk, t = tmp_path / "lk.json", tmp_path / "t.txt"
    assert main(["lprk", host_file, "-n", "4", "-k", "3", "-o", str(lk)]) == 0
    assert main(["scan-test", str(lk), "--chi", "2", "--omega", "8",
                 "--steps", str(steps), "-o", str(t)]) == code
    assert t.exists() == (code == 0)
    if code:
        assert f"past the cap of {MAX_SCAN_STEPS}" in capsys.readouterr().err


@pytest.mark.parametrize("chi, branch, steps, message", [
    ("-1", "0", "3", "chi=-1 input and omega=8 state bits needs chi >= 0"),
    ("1", "-1", "3", "branch -1 does not fit"),
    ("2", "9", "3", "branch 9 does not fit"),
    ("2", "4", "3", "branch 4 does not fit"),
    ("1", "0", "0", "step count 0"),
    ("1", "0", "-4", "step count -4"),
])
def test_scan_test_refuses_out_of_range_integers(host_file, tmp_path, capsys,
                                                 chi, branch, steps, message):
    lk = tmp_path / "lk.json"
    assert main(["lprk", host_file, "-n", "3", "-k", "2", "-o", str(lk)]) == 0
    assert main(["scan-test", str(lk), "--chi", chi, "--omega", "8",
                 "--branch", branch, "--steps", steps]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_scan_test_refuses_empty_register(tmp_path, capsys):
    one = tmp_path / "one.json"
    one.write_text(json.dumps({
        "states": [0], "inputs": ["0"], "outputs": ["a"], "reset": 0,
        "transitions": [{"from": 0, "in": "0", "to": 0, "out": "a"}]}))
    assert main(["scan-test", str(one), "--chi", "0", "--omega", "0", "--steps", "1"]) == 3
    assert "chi + omega >= 1" in capsys.readouterr().err


def test_register_width_cap(host_file, tmp_path, capsys):
    lk, t = tmp_path / "lk.json", tmp_path / "t.txt"
    assert main(["lprk", host_file, "-n", "4", "-k", "3", "-o", str(lk)]) == 0
    scan = ["scan-test", str(lk), "--chi", "2", "--steps", "2", "-o", str(t), "--omega"]
    assert main(scan + ["1023"]) == 3
    assert "register of 1025 bits is past the 1024-bit cap" in capsys.readouterr().err
    assert not t.exists()
    assert main(scan + ["1022"]) == 0
    assert t.read_text().startswith("1024 2 1022 ")
    assert main(["decode-scan", str(t)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("setting ") and len(out) == 4
    # A header past the cap is refused before any record is read.
    t.write_text("1025 2 1023 31415\n" + t.read_text().split("\n", 1)[1])
    assert main(["decode-scan", str(t)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "transcript register of 1025 bits is past" in err


def _cycling_ticks(tmp_path):
    """0 -1/c-> 1 -0/a-> 2 -0/b-> 1: the tick stream a, b, a, ... of
    branch 1 neither repeats an output twice in a row nor halts."""
    steps = [(0, "1", 1, "c"), (1, "0", 2, "a"), (2, "0", 1, "b")]
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps({
        "states": [0, 1, 2], "inputs": ["0", "1"], "outputs": ["a", "b", "c"],
        "reset": 0, "transitions": [{"from": src, "in": sym, "to": dst, "out": out}
                                    for src, sym, dst, out in steps]}))
    return path


@pytest.mark.parametrize("chi, message", [
    ("1", "branch 1 neither settled nor halted within 65536 ticks"),
    ("13", "chi=13 needs 8192 probes"),
    ("40", "chi=40 needs"),
    ("-1", "chi -1 must be >= 0"),
])
def test_attack_budget(tmp_path, capsys, chi, message):
    assert main(["attack", str(_cycling_ticks(tmp_path)), "--chi", chi]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def _kiss2_text(doc: dict) -> str:
    """A machine document with one-bit inputs as KISS2."""
    lines = [".i 1", ".o 1", f".r s{doc['reset']}"]
    lines += [f"{t['in']} s{t['from']} s{t['to']} {t['out']}" for t in doc["transitions"]]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", [
    ["decompose", "{kiss}", "--mode", "fixed", "-n", "2", "-k", "2",
     "--out-pi-i", "{pi_i}", "--out-pi-d", "{pi_d}",
     "--out-front", "{out}", "--out-back", "{out}"],
    ["validate-partitions", "{kiss}", "--pi-i", "{pi_i}", "--pi-d", "{pi_d}"],
    ["scan-test", "{kiss}", "--chi", "1", "--omega", "3", "--steps", "2", "-o", "{out}"],
    ["attack", "{kiss}", "--chi", "1", "-o", "{out}"],
], ids=lambda c: c[0])
def test_machine_commands_read_kiss2(host_file, tmp_path, command):
    lk = tmp_path / "lk.json"
    assert main(["lprk", host_file, "-n", "2", "-k", "2", "-o", str(lk)]) == 0
    names = {name: str(tmp_path / name) for name in ("kiss", "pi_i", "pi_d", "out")}
    Path(names["kiss"]).write_text(_kiss2_text(json.loads(lk.read_text())))
    assert main(["decompose", names["kiss"], "--mode", "fixed", "-n", "2", "-k", "2",
                 "--out-pi-i", names["pi_i"], "--out-pi-d", names["pi_d"],
                 "--out-front", names["out"], "--out-back", names["out"]]) == 0
    assert main([arg.format(**names) for arg in command]) == 0


def test_undecodable_input_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"states": [0\xff]}')
    assert main(["extract-cg", str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_decode_scan_refuses_impossible_setting(tmp_path, capsys):
    # The preamble encodes setting 8 of a 3-bit register (3! = 6); no frame follows.
    t = tmp_path / "t.txt"
    t.write_text("3 1 2 0\n0 1 0 1 Shift\n1 0 0 1 Shift\n2 0 0 1 Shift\n")
    assert main(["decode-scan", str(t)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "out of range" in err


def test_machine_with_symbol_vertices_is_not_a_graph(tmp_path, capsys):
    # Only a top-level "vertices" key makes a graph document.
    m = Fsm(frozenset({0, 1}), ("vertices",), ("o",), 0,
            {(0, "vertices"): (1, "o"), (1, "vertices"): (0, "o")})
    path = tmp_path / "m.json"
    path.write_text(format_fsm(m))
    graph = tmp_path / "g.json"
    assert main(["extract-cg", str(path), "-o", str(graph)]) == 0
    assert main(["lpr", str(graph), "-m", "2"]) == 0
    want = capsys.readouterr().out
    assert main(["lpr", str(path), "-m", "2"]) == 0
    assert capsys.readouterr().out == want


def test_kiss2_input_width_cap_exits_3(tmp_path, capsys):
    kiss = tmp_path / "wide.kiss2"
    kiss.write_text(".i 17\n.o 1\n.r a\n" + "0" * 17 + " a a 1\n")
    assert main(["extract-cg", str(kiss)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cap of 16 input bits" in err
    kiss.write_text(".i 16\n.o 1\n.r a\n" + "0" * 16 + " a a 1\n")
    assert main(["extract-cg", str(kiss)]) == 0


# Inputs that used to end in a traceback: an integer past Python's
# 4,300-digit conversion limit, nesting past the recursion limit, a
# 5,001-digit KISS2 .i, and 17 all-don't-care .i 16 lines (17 * 2**16 steps).
_UNREADABLE = {
    "long-reset": '{"states": [0], "inputs": [], "outputs": [], "transitions": [],'
                  ' "reset": ' + "9" * 5001 + "}",
    "deep-nesting": '{"states": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "long-kiss2-width": ".i " + "1" * 5001 + "\n.o 1\n.r a\n0 a a 1\n",
    "kiss2-dont-cares": ".i 16\n.o 1\n" + "".join(f"{'-' * 16} s{j} s{j} 1\n"
                                                 for j in range(17)),
}


@pytest.mark.parametrize("command", [
    ["extract-cg", "{bad}"],
    ["lpr", "{bad}", "-m", "2"],
    ["verify", "--package", "{bad}", "--secret", "{s}", "--length", "3"],
    ["verify", "--package", "{p}", "--secret", "{bad}", "--length", "3"],
    ["--config", "{bad}", "extract-cg", "{host}"],
], ids=["extract-cg", "lpr", "verify-package", "verify-secret", "config"])
@pytest.mark.parametrize("name", sorted(_UNREADABLE))
def test_unreadable_input_exits_3(host_file, tmp_path, capsys, command, name):
    names = {"bad": str(tmp_path / "bad"), "host": host_file,
             "p": str(tmp_path / "p.json"), "s": str(tmp_path / "s.json")}
    assert main(["emit-package", host_file, "--mode", "fixed", "-n", "3", "-k", "2",
                 "--out-package", names["p"], "--out-secret", names["s"]]) == 0
    Path(names["bad"]).write_text(_UNREADABLE[name])
    capsys.readouterr()
    assert main([arg.format(**names) for arg in command]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_unreadable_input_exits_3_as_a_process(tmp_path):
    src = str(Path(fsmwm.__file__).resolve().parent.parent)
    for name, text in sorted(_UNREADABLE.items()):
        (tmp_path / "bad").write_text(text)
        for argv in (["extract-cg", "bad"], ["--config", "bad", "extract-cg", "bad"]):
            done = subprocess.run([sys.executable, "-m", "fsmwm.cli"] + argv, cwd=tmp_path,
                                  env={**os.environ, "PYTHONPATH": src},
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 3, (name, argv, done.stderr[-300:])
            assert done.stderr.startswith("error:") and "Traceback" not in done.stderr


@pytest.mark.parametrize("name, text", [
    ("long.kiss2", ".i " + "1" * 5001 + "\n.o 1\n.r a\n0 a a 1\n"),
    ("long.kiss2", ".i " + "x" * 5001 + "\n.o 1\n.r a\n0 a a 1\n"),
    ("t.txt", " ".join(["0"] * 100_000) + "\n0 1 0 0 Shift\n"),
    ("t.txt", "0 1 7 " + "1" * 4000 + "\n0 1 0 0 Shift\n"),
    ("t.txt", "3 1 2 5\n" + " ".join(["0"] * 100_000) + "\n"),
    ("t.txt", "3 1 2 5\n0 1 0 0 " + "Shift" * 20_000 + "\n"),
], ids=[".i-digits", ".i-letters", "header-fields", "header-width", "record-fields",
        "record-state"])
def test_long_offending_text_is_clipped(tmp_path, capsys, name, text):
    # A message echoes at most 40 characters of what it refuses, the cut marked.
    path = tmp_path / name
    path.write_text(text)
    command = "extract-cg" if name.endswith(".kiss2") else "decode-scan"
    assert main([command, str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "..." in err and len(err) < 200, err


def test_kiss2_dont_care_cap(tmp_path, capsys, monkeypatch):
    # Lines that expand to exactly the cap are read; one step more is refused.
    monkeypatch.setattr(machine, "KISS2_MAX_TRANSITIONS", 8)
    kiss = tmp_path / "m.kiss2"
    kiss.write_text(".i 2\n.o 1\n-- a a 1\n-- b b 1\n")
    assert main(["extract-cg", str(kiss)]) == 0
    kiss.write_text(kiss.read_text() + "0- c c 1\n")
    capsys.readouterr()
    assert main(["extract-cg", str(kiss)]) == 3
    assert "cap of 8 transitions" in capsys.readouterr().err
