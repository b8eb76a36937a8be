"""Each entry point loads only the modules it runs, and the package
namespace still resolves every name it has always exported."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fsmwm
from fsmwm import format_fsm
from fsmwm.cli import main
from conftest import make_host8

# Every public name of the package, by the module that defines it.
EXPORTED = {
    "errors": "AlphabetMismatchError CapExceededError DimensionError FsmwmError "
              "HashCollisionError InconsistentTranscriptError NoNontrivialDecompositionError "
              "PartitionError SemanticError SyntaxError_",
    "machine": "ConnGraph Fsm connectivity_graph format_fsm format_graph parse_fsm "
               "parse_graph parse_kiss2 run run_states standard_cg_machine",
    "reduction": "LprkSpec Path add_shift_hash branch_input_bits find_branch_width "
                 "longest_simple_path lpr lpr_k renumber renumber_inverse repeat_path "
                 "sized_path truncate",
    "matrixcrypt": "PermKey build_decryption_machine build_watermark_machine compose_cascade "
                   "decrypt_graph encrypt_graph random_perm_key relabel_graph trace_pair",
    "decompose": "Partition PartitionPair build_dependent build_independent "
                 "enumerate_sp_partitions fixed_partitions_lprk is_input_preserving "
                 "is_orthogonal minimal_decomposition",
    "scanchain": "TapSession Transcript decode_transcript permutation_by_index "
                 "scan_watermark_test",
    "verify": "FsmOracle Package Secret Verdict adversarial_extension "
              "bounded_equiv informed_attack watermark_test",
    "pipeline": "build_decomp_bundle build_matrix_bundle state_bits",
}

# Imports fsmwm.cli, runs one command and prints the fsmwm modules loaded
# after the import and after the command, with the command's exit code, and
# which of the standard modules in WATCHED the import and command added.
CHILD = """\
import contextlib, io, json, sys
watched, start = sys.argv.pop(1).split(), set(sys.modules)
loaded = lambda: sorted(m.partition(".")[2] or m for m in sys.modules if m.split(".")[0] == "fsmwm")
import fsmwm.cli
before = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = fsmwm.cli.main(sys.argv[1:])
added = sorted(m for m in watched if m in set(sys.modules) - start)
print(json.dumps([before, code, loaded(), added]))
"""
# Slow to import and needed by no command (dataclasses, inspect), or only by
# the commands that draw from it (random).
WATCHED = "dataclasses inspect random"

CLI_MODULES = ["cli", "errors", "fsmwm", "machine"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("lazy")
    host = d / "host.json"
    host.write_text(format_fsm(make_host8()))
    for argv in (["lprk", host, "-n", 4, "-k", 3, "-o", d / "lk.json"],
                 ["scan-test", d / "lk.json", "--chi", 2, "--omega", 8, "--steps", 4,
                  "-o", d / "t.txt"],
                 ["emit-package", host, "--mode", "fixed", "-n", 4, "-k", 3,
                  "--out-package", d / "package.json", "--out-secret", d / "secret.json"]):
        assert main([str(a) for a in argv]) == 0
    return d


def _loaded_in_child(cwd, argv):
    src = str(Path(fsmwm.__file__).resolve().parent.parent)
    # -S: without the site module, which may import any of WATCHED first
    done = subprocess.run([sys.executable, "-S", "-c", CHILD, WATCHED] + argv, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, runs, draws", [
    (["lprk", "host.json", "-n", "4", "-k", "3", "-o", "lk2.json"], ["reduction"], False),
    # a scan test draws its session setting; decoding one reads it
    (["scan-test", "lk.json", "--chi", "2", "--omega", "8", "--steps", "4", "-o", "t2.txt"],
     ["scanchain"], True),
    (["decode-scan", "t.txt"], ["scanchain"], False),
    (["verify", "--package", "package.json", "--secret", "secret.json",
      "--branch", "2", "--length", "4"], ["verify"], False),
    (["attack", "lk.json", "--chi", "2", "-o", "rebuilt.json"], ["verify"], False),
    # a matrix bundle never loads decompose, a cascade bundle never matrixcrypt
    (["emit-package", "host.json", "--mode", "matrix", "-m", "6",
      "--out-package", "p.json", "--out-secret", "s.json"],
     ["matrixcrypt", "pipeline", "reduction", "verify"], True),
    (["emit-package", "host.json", "--mode", "fixed", "-n", "4", "-k", "3",
      "--out-package", "p.json", "--out-secret", "s.json"],
     ["decompose", "pipeline", "reduction", "verify"], False),
], ids=["lprk", "scan-test", "decode-scan", "verify", "attack", "emit-matrix", "emit-fixed"])
def test_command_loads_only_what_it_runs(workdir, argv, runs, draws):
    before, code, after, added = _loaded_in_child(workdir, argv)
    assert (before, code, after) == (CLI_MODULES, 0, sorted(CLI_MODULES + runs))
    assert added == (["random"] if draws else [])


def test_namespace_resolves_every_exported_name():
    for module, names in EXPORTED.items():
        home = importlib.import_module(f"fsmwm.{module}")
        for name in names.split():
            assert getattr(fsmwm, name) is getattr(home, name), name
    assert sorted(fsmwm.__all__) == sorted(n for names in EXPORTED.values() for n in names.split())
    star = {}
    exec("from fsmwm import *", star)
    assert set(star) - {"__builtins__"} == set(fsmwm.__all__)
    assert set(fsmwm.__all__) <= set(dir(fsmwm))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fsmwm.no_such_name
    from fsmwm import cli, machine
    assert cli is sys.modules["fsmwm.cli"] and machine is sys.modules["fsmwm.machine"]
