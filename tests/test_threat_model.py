"""What a package hides, and from whom.  It hides the reduction from a
holder of the package, not from a holder of the host: the host and the
sizes decide the reduction, so both findings below rebuild a secret from
the host and the package alone, without a probe.  A design that makes the
secret depend on something only its owner holds would turn both around."""

import json
from pathlib import Path

import pytest

from fsmwm.cli import main
from fsmwm.machine import connectivity_graph, parse_fsm
from fsmwm.reduction import chain_of, lpr
from fsmwm.verify import package_from_doc

HOST = str(Path(__file__).resolve().parent.parent / "assets" / "host8.json")


@pytest.mark.parametrize("m", range(2, 9))
def test_matrix_key_follows_from_the_host_and_the_package(tmp_path, m):
    # The watermark's "0" steps walk the renamed chain; paired with the
    # host's own chain of m vertices they give the key's permutation.
    pkg, key = tmp_path / "package.json", tmp_path / "key.txt"
    assert main(["emit-package", HOST, "--mode", "matrix", "-m", str(m),
                 "--key-seed", str(1000 + 37 * m), "--out-package", str(pkg),
                 "--out-secret", str(tmp_path / "secret.json"), "--out-key", str(key)]) == 0
    watermark = package_from_doc(json.loads(pkg.read_text())).watermark
    walk = [watermark.reset]
    while (walk[-1], "0") in watermark.transitions:
        walk.append(watermark.transitions[walk[-1], "0"][0])
    with open(HOST, encoding="utf-8") as f:
        chain = chain_of(lpr(connectivity_graph(parse_fsm(f.read())), len(watermark.states)))
    renamed = dict(zip(chain, walk, strict=True))
    ids = sorted(chain)
    assert " ".join(str(ids.index(renamed[v])) for v in ids) + "\n" == key.read_text()


def test_fixed_secret_rebuilt_with_one_row_verifies_the_shipped_package(tmp_path, capsys):
    # The shipped watermark does not depend on -n, so a secret built from
    # the host at -n 1 recognises the 4x3 package.
    shipped, rebuilt = tmp_path / "package.json", tmp_path / "rebuilt-secret.json"
    assert main(["emit-package", HOST, "--mode", "fixed", "-n", "4", "-k", "3",
                 "--out-package", str(shipped), "--out-secret", str(tmp_path / "secret.json")]) == 0
    assert main(["emit-package", HOST, "--mode", "fixed", "-n", "1", "-k", "3",
                 "--out-package", str(tmp_path / "p1.json"), "--out-secret", str(rebuilt)]) == 0
    capsys.readouterr()
    assert main(["verify", "--package", str(shipped), "--secret", str(rebuilt),
                 "--branch", "2", "--length", "6"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "PASS"
