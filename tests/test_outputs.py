"""Every file a command writes is overwritten in place and cut to the bytes
written: an existing output keeps its inode, links and permissions, and
holds exactly what a fresh write of the same command would hold."""

import errno
import os
import stat
from pathlib import Path

import pytest

from fsmwm import FsmwmError
from fsmwm.cli import main

HOST = str(Path(__file__).resolve().parent.parent / "assets" / "host8.json")


def _emit(package, secret, n, k):
    assert main(["emit-package", HOST, "--mode", "fixed", "-n", str(n), "-k", str(k),
                 "--out-package", str(package), "--out-secret", str(secret)]) == 0


def _scan(lk, out, steps):
    assert main(["scan-test", str(lk), "--chi", "2", "--omega", "8",
                 "--steps", str(steps), "-o", str(out)]) == 0


@pytest.fixture
def lk(tmp_path):
    path = tmp_path / "lk.json"
    assert main(["lprk", HOST, "-n", "4", "-k", "3", "-o", str(path)]) == 0
    return path


def test_a_shorter_bundle_over_a_longer_one_holds_only_its_bytes(tmp_path):
    pkg, sec = tmp_path / "package.json", tmp_path / "secret.json"
    _emit(pkg, sec, 8, 6)
    long_sizes = pkg.stat().st_size, sec.stat().st_size
    _emit(pkg, sec, 2, 2)
    _emit(tmp_path / "fresh-package.json", tmp_path / "fresh-secret.json", 2, 2)
    assert pkg.read_bytes() == (tmp_path / "fresh-package.json").read_bytes()
    assert sec.read_bytes() == (tmp_path / "fresh-secret.json").read_bytes()
    assert (pkg.stat().st_size, sec.stat().st_size) < long_sizes


def test_a_shorter_transcript_over_a_longer_one_holds_only_its_bytes(tmp_path, lk):
    out, fresh = tmp_path / "t.txt", tmp_path / "fresh.txt"
    _scan(lk, out, 256)
    long_size = out.stat().st_size
    _scan(lk, out, 4)
    _scan(lk, fresh, 4)
    assert out.read_bytes() == fresh.read_bytes()
    assert out.stat().st_size < long_size


def test_an_existing_output_keeps_its_inode_and_permissions(tmp_path):
    out = tmp_path / "cg.json"
    out.write_text("x" * 100_000)
    out.chmod(0o640)
    before = out.stat()
    assert main(["extract-cg", HOST, "-o", str(out)]) == 0
    after = out.stat()
    assert after.st_ino == before.st_ino
    assert stat.S_IMODE(after.st_mode) == 0o640
    assert main(["extract-cg", HOST, "-o", str(tmp_path / "fresh.json")]) == 0
    assert out.read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_a_symlinked_output_writes_through_to_its_target(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("x" * 100_000)
    link.symlink_to(target.name)
    assert main(["extract-cg", HOST, "-o", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == target.name
    assert main(["extract-cg", HOST, "-o", str(tmp_path / "fresh.json")]) == 0
    assert target.read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_dev_null_is_written_and_never_cut(lk):
    # ftruncate on a character device fails: only a regular file is cut.
    assert main(["extract-cg", HOST, "-o", os.devnull]) == 0
    assert main(["scan-test", str(lk), "--chi", "2", "--omega", "8", "--steps", "4",
                 "-o", os.devnull]) == 0


@pytest.mark.parametrize("name, code", [("d", errno.EISDIR), ("missing/out.json", errno.ENOENT)])
def test_an_unwritable_output_exits_3_with_the_os_error(tmp_path, monkeypatch, capsys,
                                                        name, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    assert main(["extract-cg", HOST, "-o", name]) == 3
    assert capsys.readouterr().err == f"error: [Errno {code}] {os.strerror(code)}: '{name}'\n"


def test_a_stream_that_raises_leaves_only_what_it_wrote(tmp_path, lk, monkeypatch, capsys):
    # The transcript before the error reaches the file, past the write
    # buffer; the longer text already there does not survive behind it.
    out = tmp_path / "t.txt"
    out.write_text("x" * 100_000)
    written = ["a" * 10, "b" * 20_000]

    def transcript(*args, **kwargs):
        yield from written
        raise FsmwmError("stopped mid-stream")

    monkeypatch.setattr("fsmwm.scanchain.scan_watermark_test", transcript)
    assert main(["scan-test", str(lk), "--chi", "2", "--omega", "8", "--steps", "4",
                 "-o", str(out)]) == 3
    assert capsys.readouterr().err == "error: stopped mid-stream\n"
    assert out.read_text() == "".join(written)
