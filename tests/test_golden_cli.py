"""Byte-identity guard for the command line: the README command sequence
on the shipped sample host, plus one-shot matrix and optimal bundles.
Every file written and every command's stdout must hash to the digests
recorded before the interchange and graph layers were refactored; those
of the k-branch reduction and everything made from it (lk.json, the
fixed and optimal bundles, decompose, verify, attack and the serial
transcript) were re-recorded when its states were first numbered from
the host's sized path.  Every JSON file's digest was re-recorded when the
documents took their one-record-per-line layout; each new file decodes
to the same value as before.  The package digests (package.json,
mpackage.json, opackage.json and the m = 40 p.json) were re-recorded when
packages stopped carrying a copy of the host and ``tap.n``/``tap.k``,
which the verifier never reads; every other digest, verify's stdout
among them, is unchanged.  The decoder digests (dec.json, msecret.json and
the m = 40 s.json) were re-recorded when the decoder kept only its
advancing steps and the echo rows at both ends of the chain."""

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
        "af7fdc1b4e1f144482dd8e8a9965b52a55da15110dd27609e27410a54cc29a76",
    "cg.json":
        "60515d8d7a038d893d45250c1de5e954ab901b536f2b527a2ac892ff706f458f",
    "dec.json":
        "753b3edb2f0c06f431c5458489343af7984aa6bb8629389bfdab2fe63922b413",
    "front.json":
        "4a58dc6ab5cba09b81a09d855299a7aedefcc3416e7f359b73f1ac4a7b44a23a",
    "key.txt":
        "a5efd18d69cc7abfbab7014fb704318b5e672366226f1c666293c1b13df87bc3",
    "lk.json":
        "0334f84eae9870af60388c37fd6cdfa6740471e26888259e22b8732747cffaa5",
    "mpackage.json":
        "7652f9546d47861b1fa6ecf572ba4e3c4ee4677ecdf939fd655f25887c354680",
    "msecret.json":
        "85f7fbba83f683aab042280f48964e0f12bde68ca3b594fdc013afb29bad9bff",
    "opackage.json":
        "349048246efc7faca69293f1f9cdd7ea7bcec4077ff6aaf3ab1ca3ad54952c17",
    "osecret.json":
        "88d52cec0981ce4ab49b17f2d184422f27ae631203f0bb6ac4cc5ce6eaf2e6bb",
    "package.json":
        "fcb009225472e7492e455b05b2870c4147c0031290d1c7d26ee170f8deb22838",
    "pi_d.txt":
        "b120e9bd9ce5dc734254de917dd39599690f16a7ffc7a0cf5075eb226e0acf43",
    "pi_i.txt":
        "51e0992701a2e7a0cb1c399f75eb8aeee38f691feb6d80d02de01b347cfe7c4a",
    "rebuilt.json":
        "ecb581b78fec7e6a0174bd9e7c3bd29b9d2a8345baaae1f8e15a3a7b2b61e737",
    "red.json":
        "9ae0d021213103acd9a7d195a93e15a5da68599cded897c7f44bf4384944385b",
    "secret.json":
        "30d08d6afee83bfacdb61ad4dffd0d2b3cfbe6b57403a48aa01f34b1fb230f01",
    "t.txt":
        "c7c3439a178d393e71791833a9d9b208ed3f879381e3e266a5d6b2bf7712ccd4",
    "wm.json":
        "d699be12254b32076f7d7d6f1caa238b753bc46110fe4f0395758afb58a46b49",
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
        "p.json": "54c31887f7fb25e3955471a90619ffee68ca4479f946e23370677a54026051ce",
        "s.json": "d6b26b2bd87c34244c05a64081d4e908bb0aa523e15f018cc6b3365bd2cf03d5",
    }
