"""Exception hierarchy shared across the toolkit."""


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
    """A search or probe would pass its cap or budget."""


class NoNontrivialDecompositionError(FsmwmError):
    """Only trivial orthogonal pairs exist for this machine."""


class AlphabetMismatchError(FsmwmError):
    """Cascade or comparison attempted across incompatible alphabets."""


class InconsistentTranscriptError(FsmwmError):
    """Observed I/O log implies two different outputs for one situation."""
