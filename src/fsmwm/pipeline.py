"""End-to-end assembly: from a host machine to a distributable package
and the matching verifier secret, in either concealment mode.  Each
mode imports its concealment module when it runs: a matrix bundle never
loads ``decompose``, a cascade bundle never loads ``matrixcrypt``."""

from __future__ import annotations

from .errors import LATTICE_MAX_STATES, FsmwmError
from .machine import Fsm, connectivity_graph, standard_cg_machine
from .reduction import (
    LprkSpec,
    branch_input_bits,
    find_branch_width,
    lpr,
    lpr_k,
)
from .verify import Package, Secret


def state_bits(m: Fsm) -> int:
    """Scan-register width needed for the state field of a machine."""
    return max(1, max(m.states).bit_length())


def _omega(m: Fsm, omega: int | None) -> int:
    """Scan-register width for machine m: its state width by default; a
    narrower request is refused."""
    w = state_bits(m)
    if omega is None:
        return w
    if omega < w:
        raise FsmwmError(f"omega {omega} too narrow; need at least {w} bits")
    return omega


def build_matrix_bundle(host: Fsm, m: int, key_seed: int,
                        omega: int | None = None):
    """Conceal a length-m linear reduction of the host behind a random
    permutation key.  Returns (package, secret, key)."""
    from .matrixcrypt import build_decryption_machine, build_watermark_machine, random_perm_key
    g = connectivity_graph(host)
    reduced = lpr(g, m)
    key = random_perm_key(m, key_seed)
    watermark = build_watermark_machine(key, reduced)
    decoder = build_decryption_machine(key, reduced)
    redux = standard_cg_machine(reduced)
    package = Package(mode="matrix", watermark=watermark, chi=1,
                      omega=_omega(watermark, omega))
    secret = Secret(mode="matrix", decoder=decoder, redux=redux)
    return package, secret, key


def build_decomp_bundle(host: Fsm, n: int, k: int, mode: str = "fixed",
                        cap: int = LATTICE_MAX_STATES, omega: int | None = None):
    """Conceal a k-branch reduction as a two-machine cascade.

    ``mode`` picks the decomposition: "fixed" uses the known column/row
    pair; "optimal" searches the whole partition lattice (under its state
    cap and step budget).
    Returns (package, secret).
    """
    from .decompose import (build_dependent, build_independent, fixed_partitions_lprk,
                            minimal_decomposition)
    if mode not in ("fixed", "optimal"):
        raise FsmwmError(f"unknown decomposition mode {mode!r}")
    g = connectivity_graph(host)
    redux = lpr_k(g, LprkSpec(n=n, k=k, z=find_branch_width(n, k)))
    if mode == "fixed":
        pair = fixed_partitions_lprk(redux, n, k)
    else:
        pair = minimal_decomposition(redux, cap=cap)
    front = build_independent(redux, pair.pi_i)
    back = build_dependent(redux, pair)
    package = Package(mode=mode, watermark=front, chi=branch_input_bits(k),
                      omega=_omega(redux, omega))
    secret = Secret(mode=mode, decoder=back, redux=redux)
    return package, secret
