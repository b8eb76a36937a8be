"""Exception hierarchy shared across the toolkit, and every cap past which
a command refuses with ``CapExceededError`` (exit 3)."""

KISS2_MAX_INPUT_BITS = 16   # .i above this would build over 65,536 input symbols
KISS2_MAX_TRANSITIONS = 1 << 20     # steps the don't-care input bits may expand to
# Search steps longest_simple_path may take.  The search stays
# exponential when no simple path covers the root's reachable set (a
# root linked to a k-clique whose vertices each lead to a leaf of their
# own needs about 1.1 million steps at k = 8).
PATH_SEARCH_BUDGET = 1 << 20
# Most states lpr (m) and lpr_k (n*k) build; a larger request exits 3
# instead of building the machine.
MAX_REDUCTION_STATES = 1 << 16
# Default state cap of the exhaustive lattice search (``--cap``).  Here,
# not in decompose, because the CLI builds its parser without that module.
LATTICE_MAX_STATES = 12
# Most states a lattice search places, whatever ``--cap`` asks: the search
# recurses once per state, so this stays well under the recursion limit.
LATTICE_CAP_CEILING = 512
# Work units one lattice search may spend: every state placement the
# enumeration tries plus every orthogonality probe of the pair search.
# The densest host8 shape it answers, the star (1, 9), spends 811,302;
# the star (1, 10) passes it in the pair probes, (1, 11) while enumerating.
SP_SEARCH_BUDGET = 1 << 20
# Widest scan register, chi + omega bits: a setting of 1024! has 2,640
# digits, under Python's 4,300-digit limit for printing an integer.
MAX_REGISTER_BITS = 1024
# Most steps one scan test drives, chi + omega + 2 transcript lines a step.
MAX_SCAN_STEPS = 1 << 14
# Longest verification schedule: both runs and the verdict hold every step. A verify
# at the cap peaks near 55 MB on host8 fixed mode; a matrix run stops at its chain's end.
MAX_VERIFY_LENGTH = 1 << 20
# What informed_attack may spend: one reset per input value, and ticks
# down one branch before its output stream must have settled or halted.
ATTACK_MAX_PROBES = 1 << 12
ATTACK_MAX_TICKS = 1 << 16


def clip(text: str) -> str:
    """At most 40 characters of the offending text for a message, the cut
    marked with "..."."""
    return text if len(text) <= 40 else text[:40] + "..."


class FsmwmError(Exception):
    """Base class for all toolkit errors."""


class SyntaxError_(FsmwmError):
    """Malformed interchange document; carries a position when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class SemanticError(FsmwmError):
    """Well-formed document violating a machine invariant."""


class DimensionError(FsmwmError):
    """Matrix / key / root dimension mismatch."""


class HashCollisionError(FsmwmError):
    """A branch-state width z narrower than find_branch_width(n, k), where
    the n*k branch ids would wrap onto each other."""


class PartitionError(FsmwmError):
    """Partition does not satisfy the required property."""


class CapExceededError(FsmwmError):
    """A search, input or probe past one of the caps above.  ``what`` names
    the refused size as the code knows it, so every refusal reads alike."""

    def __init__(self, what: str, cap: int):
        super().__init__(f"{what} passes the cap of {cap}")


class NoNontrivialDecompositionError(FsmwmError):
    """Only trivial orthogonal pairs exist for this machine."""


class AlphabetMismatchError(FsmwmError):
    """Cascade or comparison attempted across incompatible alphabets."""


class InconsistentTranscriptError(FsmwmError):
    """Observed I/O log implies two different outputs for one situation."""
