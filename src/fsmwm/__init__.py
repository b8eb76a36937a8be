"""Behavioral watermarking toolkit for finite-state machines.

A host machine's topology is reduced to a compact characteristic
machine, concealed either behind a permutation-matrix key or as a
cascade of two smaller machines, and later verified through a seeded
serial test port or a cascade replay protocol.
"""

from .errors import (
    AlphabetMismatchError,
    CapExceededError,
    DimensionError,
    FsmwmError,
    HaltError,
    HashCollisionError,
    InconsistentTranscriptError,
    NoNontrivialDecompositionError,
    PartitionError,
    SemanticError,
    SyntaxError_,
)
from .machine import (
    ConnGraph,
    Fsm,
    connectivity_graph,
    format_fsm,
    format_graph,
    parse_fsm,
    parse_graph,
    parse_kiss2,
    run,
    run_states,
    standard_cg_machine,
    step,
)
from .reduction import (
    LprkSpec,
    Path,
    add_shift_hash,
    branch_input_bits,
    find_branch_width,
    longest_simple_path,
    lpr,
    lpr_k,
    renumber,
    renumber_inverse,
    repeat_path,
    sized_path,
    truncate,
)
from .matrixcrypt import (
    PermKey,
    build_decryption_machine,
    build_watermark_machine,
    compose_cascade,
    decrypt_graph,
    encrypt_graph,
    random_perm_key,
    relabel_graph,
    trace_pair,
)
from .decompose import (
    Partition,
    PartitionPair,
    build_dependent,
    build_independent,
    enumerate_sp_partitions,
    fixed_partitions_lprk,
    is_input_preserving,
    is_orthogonal,
    minimal_decomposition,
)
from .scanchain import (
    TapSession,
    Transcript,
    decode_transcript,
    drive_frames,
    permutation_by_index,
    scan_watermark_test,
)
from .verify import (
    FsmOracle,
    OracleBudget,
    Package,
    Secret,
    Verdict,
    adversarial_extension,
    bounded_equiv,
    estimate_output_count,
    full_equiv,
    informed_attack,
    watermark_test,
)
from .pipeline import build_decomp_bundle, build_matrix_bundle, state_bits

__version__ = "0.1.0"
