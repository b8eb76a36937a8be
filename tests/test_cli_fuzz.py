"""Command-line fuzzing: every subcommand, in process, on genuine small
files that are kept, truncated or changed in one byte, with integer
options drawn around their limits, and a third of the time a ``--config``
file of drawn values.  Every call must end with exit 0, 2 or 3 (1 only
as a failed verdict) and print no traceback."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fsmwm import cli
from fsmwm.cli import main

HOST8 = Path(__file__).resolve().parent.parent / "assets" / "host8.json"

# Bytes a one-byte change writes: mostly ones that keep JSON, KISS2 and
# the text formats parseable a little longer, plus any byte at all.
BYTE = st.sampled_from(b'0123456789-{}[]",: \n') | st.integers(0, 255)

# Config values: every JSON type, mostly ones a flag does not take.
SCALAR = (st.none() | st.booleans() | st.integers(-2, 40) | st.floats(-2, 40)
          | st.text(max_size=3))
VALUE = SCALAR | st.lists(SCALAR, min_size=1, max_size=1)
# Each subcommand's optional flags that are not paths, by destination: a
# flag with neither a type nor choices names a file, and config files
# leave those out so the fuzz writes only in its temp dir.
CONFIGURABLE = {
    name: sorted(a.dest for a in sp._actions
                 if a.option_strings and not a.required and a.dest != "help"
                 and (a.type or a.choices or a.nargs == 0))
    for name, sp in cli._build_parser()[1].items()
}


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    """A directory with host8 and what the command line makes from it: an
    ``lprk -n 2 -k 2`` reduction, its partitions, cascade machines and
    bundles, an ``lpr`` graph with a key, and a serial transcript."""
    d = tmp_path_factory.mktemp("genuine")
    (d / "host8.json").write_bytes(HOST8.read_bytes())
    for argv in (
        ["lprk", d / "host8.json", "-n", 2, "-k", 2, "-o", d / "lk.json"],
        ["lpr", d / "host8.json", "-m", 4, "-o", d / "red.json"],
        ["decompose", d / "lk.json", "--mode", "fixed", "-n", 2, "-k", 2,
         "--out-pi-i", d / "pi_i.txt", "--out-pi-d", d / "pi_d.txt",
         "--out-front", d / "front.json", "--out-back", d / "back.json"],
        ["emit-package", d / "host8.json", "--mode", "fixed", "-n", 2, "-k", 2,
         "--out-package", d / "package.json", "--out-secret", d / "secret.json"],
        ["encrypt-matrix", d / "red.json", "--out-machine", d / "wm.json",
         "--out-key", d / "key.txt"],
        ["scan-test", d / "lk.json", "--chi", 1, "--omega", 8, "--branch", 1,
         "--steps", 2, "-o", d / "t.txt"],
    ):
        assert main([str(a) for a in argv]) == 0
    return d


@st.composite
def corrupted(draw, data: bytes) -> bytes:
    # Kept files let a command get past its parser to the checks behind it.
    how = draw(st.sampled_from(["keep", "change", "keep", "truncate", "change"]))
    if how == "keep":
        return data
    i = draw(st.integers(0, len(data) - 1))
    if how == "truncate":
        return data[:i]
    return data[:i] + bytes([draw(BYTE)]) + data[i + 1:]


class Args:
    """Draws the pieces of one command line."""

    def __init__(self, data, genuine, tmp):
        self.data, self.genuine, self.tmp = data, genuine, tmp

    def file(self, *names) -> str:
        name = self.data.draw(st.sampled_from(names))
        path = os.path.join(self.tmp, f"in{len(os.listdir(self.tmp))}-{name}")
        genuine = (self.genuine / name).read_bytes()
        Path(path).write_bytes(self.data.draw(corrupted(genuine), label=name))
        return path

    def int(self, flag: str, hi: int = 40) -> list[str]:
        """Half the draws near the lower limits, where most values are valid."""
        value = self.data.draw(st.integers(-2, min(hi, 3)) | st.integers(-2, hi), label=flag)
        return [flag, str(value)]

    def choice(self, *options):
        return self.data.draw(st.sampled_from(options))

    def out(self, name: str) -> str:
        return os.path.join(self.tmp, "out-" + name)

    def config(self, cmd: str) -> list[str]:
        """A third of the draws: ``--config`` with a file over the
        subcommand's configurable flags."""
        if self.data.draw(st.integers(0, 2)):
            return []
        doc = self.data.draw(st.fixed_dictionaries(
            {}, optional=dict.fromkeys(CONFIGURABLE[cmd], VALUE)), label="config")
        path = os.path.join(self.tmp, "config.json")
        Path(path).write_text(json.dumps(doc))
        return ["--config", path]


def _emit_package(a: Args):
    mode = a.choice("matrix", "fixed", "optimal")
    return ["emit-package", a.file("host8.json"), "--mode", mode, *a.int("-m"),
            *a.int("-n"), *a.int("-k"), *a.choice([], a.int("--omega")),
            *a.int("--key-seed"), "--out-package", a.out("p"),
            "--out-secret", a.out("s"), "--out-key", a.out("k")]


COMMANDS = {
    "extract-cg": lambda a: ["extract-cg", a.file("host8.json", "lk.json"),
                             "-o", a.out("cg")],
    "lpr": lambda a: ["lpr", a.file("host8.json", "red.json"), *a.int("-m"),
                      *a.choice([], ["--as-machine"]), "-o", a.out("g")],
    "lprk": lambda a: ["lprk", a.file("host8.json", "red.json"), *a.int("-n"),
                       *a.int("-k"), "-o", a.out("m")],
    "encrypt-matrix": lambda a: [
        "encrypt-matrix", a.file("red.json"),
        *a.choice(["--key", a.file("key.txt")], a.int("--seed")),
        "--out-machine", a.out("m"), "--out-key", a.out("k")],
    "build-decrypt": lambda a: ["build-decrypt", a.file("red.json"),
                                "--key", a.file("key.txt"), "-o", a.out("m")],
    "decompose": lambda a: [
        "decompose", a.file("lk.json"), "--mode", a.choice("fixed", "optimal"),
        *a.int("-n"), *a.int("-k"), "--out-pi-i", a.out("i"), "--out-pi-d", a.out("d"),
        "--out-front", a.out("f"), "--out-back", a.out("b")],
    "emit-package": _emit_package,
    "verify": lambda a: ["verify", "--package", a.file("package.json"),
                         "--secret", a.file("secret.json"),
                         *a.choice([], a.int("--branch")), *a.int("--length")],
    "scan-test": lambda a: [
        "scan-test", a.file("lk.json", "front.json"), *a.int("--chi"),
        *a.int("--omega"), *a.choice([], a.int("--branch")), *a.int("--steps"),
        *a.choice([], a.int("--setting")), "-o", a.out("t")],
    "decode-scan": lambda a: ["decode-scan", a.file("t.txt")],
    "attack": lambda a: ["attack", a.file("front.json", "lk.json", "back.json"),
                         *a.int("--chi"), "-o", a.out("m")],
    "validate-partitions": lambda a: [
        "validate-partitions", a.file("lk.json"),
        "--pi-i", a.file("pi_i.txt", "pi_d.txt"), "--pi-d", a.file("pi_d.txt", "pi_i.txt")],
}
VERDICTS = {"verify", "validate-partitions"}


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:     # argparse's usage errors
            code = e.code
    return code, err.getvalue()


def test_every_subcommand_is_fuzzed():
    assert sorted(COMMANDS) == sorted(cli._build_parser()[1])


@pytest.mark.parametrize("cmd", sorted(COMMANDS))
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_cli_exits_cleanly_on_corrupted_input(genuine, cmd, data):
    with tempfile.TemporaryDirectory() as tmp:
        a = Args(data, genuine, tmp)
        argv = a.config(cmd) + COMMANDS[cmd](a)
        code, err = _call(argv)
    assert "Traceback" not in err
    assert code in (0, 2, 3) or (code == 1 and cmd in VERDICTS), (argv, code, err)
