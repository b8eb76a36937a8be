"""Byte-identity guard for the command line: the README command sequence
on the shipped sample host, plus one-shot matrix and optimal bundles.
Every file written and every command's stdout must hash to the digests
recorded before the interchange and graph layers were refactored."""

import hashlib
from pathlib import Path

from fsmwm.cli import main

HOST = str(Path(__file__).resolve().parent.parent / "assets" / "host8.json")

COMMANDS = [
    ["extract-cg", HOST, "-o", "cg.json"],
    ["lpr", HOST, "-m", "6", "-o", "red.json"],
    ["lprk", HOST, "-n", "4", "-k", "3", "-o", "lk.json"],
    ["encrypt-matrix", "red.json", "--seed", "2718", "--out-machine", "wm.json",
     "--out-key", "key.txt"],
    ["build-decrypt", "red.json", "--key", "key.txt", "-o", "dec.json"],
    ["decompose", "lk.json", "--mode", "fixed", "-n", "4", "-k", "3"],
    ["validate-partitions", "lk.json", "--pi-i", "pi_i.txt", "--pi-d", "pi_d.txt"],
    ["emit-package", HOST, "--mode", "fixed", "-n", "4", "-k", "3",
     "--out-package", "package.json", "--out-secret", "secret.json"],
    ["verify", "--package", "package.json", "--secret", "secret.json",
     "--branch", "2", "--length", "4"],
    ["scan-test", "lk.json", "--chi", "2", "--omega", "8", "--branch", "1",
     "--steps", "4", "-o", "t.txt"],
    ["decode-scan", "t.txt"],
    ["attack", "lk.json", "--chi", "2", "-o", "rebuilt.json"],
    ["emit-package", HOST, "--mode", "matrix", "-m", "6",
     "--out-package", "mpackage.json", "--out-secret", "msecret.json"],
    ["emit-package", HOST, "--mode", "optimal", "-n", "2", "-k", "2",
     "--out-package", "opackage.json", "--out-secret", "osecret.json"],
]

GOLDEN = {
    "00-extract-cg.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "01-lpr.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "02-lprk.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "03-encrypt-matrix.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "04-build-decrypt.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "05-decompose.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "06-validate-partitions.stdout":
        "af2deca814850054b5a4ee2b906a15b6aa1156ba518dba67e721094c36bdc4e7",
    "07-emit-package.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "08-verify.stdout":
        "15e04a171060b52ea83b45e3497143265376b03163a8a6de711703c1bc510956",
    "09-scan-test.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "10-decode-scan.stdout":
        "dea3c27af09529615d0f79abd01733c6060dfdb5c7aa499df9cc4ee76f3db391",
    "11-attack.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "12-emit-package.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "13-emit-package.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "back.json":
        "05b809d6a1480b100e93c660689b201dfe34b74f869a4b37787764cead41a237",
    "cg.json":
        "87ffa483ac4375f89f5f1a7a45410659c5b552b24d4b5c2aaaf67211d226a542",
    "dec.json":
        "d1ca564d2fbe3417a06ed5b9cbbe2d5126bd1c9a403dc09b7a8b108567df9392",
    "front.json":
        "e01f1792e496d8fad372d1e3e19bdcd038da3ad519e96caf3ec75050a7ee1735",
    "key.txt":
        "a5efd18d69cc7abfbab7014fb704318b5e672366226f1c666293c1b13df87bc3",
    "lk.json":
        "0a7bb2e670fd1341af99c251af21f3d3a484fe23efd8bf14b38ec5a2b06677c1",
    "mpackage.json":
        "b381b9d912b999f72d34c0b3a308eb3144395753365bdda5b94f738d9a12e6a6",
    "msecret.json":
        "445fabc6f1899cde91ce8270557a17cbc525899d398b7915db2771657191539f",
    "opackage.json":
        "2adfe5a9bbea8b77cbeb0b305c8d892b001b5b34c6da60da83c4f4280b5a2eb8",
    "osecret.json":
        "f920249f5dc5b0b83a18ebffb76022a934f9534306b7fd777fe7cab0d3bf8a87",
    "package.json":
        "b122db9d48bebd113e4a93156023b28fa83cb50ab5d1f4bd6019b9924e2b4e40",
    "pi_d.txt":
        "3d31884628d2a8b02122c3539982eba11f66a470f669abe73fbc6f2d0183d14e",
    "pi_i.txt":
        "a290c39358b1f930e3522fc1dcd5c3ec07258d18c1818fd27804f4b7ee9cb078",
    "rebuilt.json":
        "9be1abde220c8179be108bee8e3c134d65a7f3b908c46612df521eeab16a9d0d",
    "red.json":
        "8646c31f5c415cbe24fcedbdce61110c5c0730f5c6f46e02a13a78c5cba5d7e8",
    "secret.json":
        "eaf01b04dfdf4b23e74847e5f217056fde772c6aec2a66effe1c65021605c218",
    "t.txt":
        "a6fb8e9ddd7fcf56c729ab7be0b9a39d63d3057dffddd68d0fee199465eec175",
    "wm.json":
        "f4417a4ffbb6a26a91577881d7759fb3275f40865d246dbd7d11704eec8079bf",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_readme_commands_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = {}
    for i, argv in enumerate(COMMANDS):
        assert main(argv) == 0, argv
        got[f"{i:02d}-{argv[0]}.stdout"] = _sha(capsys.readouterr().out.encode())
    for path in sorted(tmp_path.iterdir()):
        got[path.name] = _sha(path.read_bytes())
    assert got == GOLDEN
