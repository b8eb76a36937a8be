"""Byte-identity guard for the command line: the README command sequence
on the shipped sample host, plus one-shot matrix and optimal bundles.
Every file written and every command's stdout must hash to the digests
recorded before the interchange and graph layers were refactored; those
of the k-branch reduction and everything made from it (lk.json, the
fixed and optimal bundles, decompose, verify, attack and the serial
transcript) were re-recorded when its states were first numbered from
the host's sized path."""

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
        "02629eb42dc480f5218181e924ae86ef2d937a1a0ecad2bcf62b5168944a2d09",
    "09-scan-test.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "10-decode-scan.stdout":
        "cf071d43a0d90569bf4dada61a76b41194efefb1f1b6febfdc10332326e73269",
    "11-attack.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "12-emit-package.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "13-emit-package.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "back.json":
        "7e3a1ef9cc9a105bb0ed3908072ec76f3c0c6c0e59a487aede5c55f047647679",
    "cg.json":
        "87ffa483ac4375f89f5f1a7a45410659c5b552b24d4b5c2aaaf67211d226a542",
    "dec.json":
        "d1ca564d2fbe3417a06ed5b9cbbe2d5126bd1c9a403dc09b7a8b108567df9392",
    "front.json":
        "e01f1792e496d8fad372d1e3e19bdcd038da3ad519e96caf3ec75050a7ee1735",
    "key.txt":
        "a5efd18d69cc7abfbab7014fb704318b5e672366226f1c666293c1b13df87bc3",
    "lk.json":
        "719b04c38c1a2a021ffea11eab28993dd9fa8071dba72d4e333fa381e7a19617",
    "mpackage.json":
        "b381b9d912b999f72d34c0b3a308eb3144395753365bdda5b94f738d9a12e6a6",
    "msecret.json":
        "445fabc6f1899cde91ce8270557a17cbc525899d398b7915db2771657191539f",
    "opackage.json":
        "307986be36da1972d4646dcddabaced1bb150887d5d0aa2b3c11d2fb912db1de",
    "osecret.json":
        "d2e5b3939d7aa7bec583d7f9c01a644ead3025c36fb026e21d272eb0ebbdac56",
    "package.json":
        "e51c1ce10fefbf267b6615d65184655df9a6d6f624b776d29fc56f1fe2894e75",
    "pi_d.txt":
        "b120e9bd9ce5dc734254de917dd39599690f16a7ffc7a0cf5075eb226e0acf43",
    "pi_i.txt":
        "51e0992701a2e7a0cb1c399f75eb8aeee38f691feb6d80d02de01b347cfe7c4a",
    "rebuilt.json":
        "00d1ec553c6da7628307b4d47501b681dd36cc22986f815b29371df841724d1e",
    "red.json":
        "8646c31f5c415cbe24fcedbdce61110c5c0730f5c6f46e02a13a78c5cba5d7e8",
    "secret.json":
        "d761a3de403f1a7de556c9f9bfec4b9c44df16b7eaa380e4e8d0abe292e91530",
    "t.txt":
        "c7c3439a178d393e71791833a9d9b208ed3f879381e3e266a5d6b2bf7712ccd4",
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


def test_matrix_bundle_at_m40_byte_identical(tmp_path, monkeypatch):
    # Past ten states, so ids and symbols "10" and up sort among the rest.
    monkeypatch.chdir(tmp_path)
    assert main(["emit-package", HOST, "--mode", "matrix", "-m", "40",
                 "--out-package", "p.json", "--out-secret", "s.json"]) == 0
    assert {name: _sha((tmp_path / name).read_bytes()) for name in ("p.json", "s.json")} == {
        "p.json": "3f3258e6a0b0238fe8c5a6d25db31326ef49579e7d1287e3a952ee3118a584d7",
        "s.json": "cc6e2f3eb9ff4509dffcdcba5238bc6f2644d351d305a217156db82e1606ff37",
    }
