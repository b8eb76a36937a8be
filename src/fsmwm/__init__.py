"""Behavioral watermarking toolkit for finite-state machines.

A host machine's topology is reduced to a compact characteristic
machine, concealed either behind a permutation-matrix key or as a
cascade of two smaller machines, and later verified through a seeded
serial test port or a cascade replay protocol.

The error types are bound with the package.  Every other name, and every
submodule, is imported from its module on first use (PEP 562), so a
program loads only the modules it runs.
"""

from importlib import import_module

from . import errors

# Each exported name by the module that defines it.
_EXPORTS = {
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
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"

globals().update((name, getattr(errors, name)) for name in _EXPORTS["errors"].split())


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
