"""Command-line front end.

Exit codes: 0 success, 1 failed verification verdict, 2 usage error,
3 malformed or missing input, or a search past its cap or budget.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import stat
import sys

from .errors import LATTICE_MAX_STATES, FsmwmError
from .machine import (
    _load_doc,
    connectivity_graph,
    format_fsm,
    format_graph,
    fsm_from_doc,
    graph_from_doc,
    parse_fsm,      # not called here: perfbench/test_perfbench.py reads cli.parse_fsm
    parse_kiss2,
    standard_cg_machine,
)

DEFAULT_KEY_SEED = 2718
DEFAULT_SETTING_SEED = 31415


def _open(path: str):
    return contextlib.nullcontext(sys.stdin) if path == "-" else open(path, encoding="utf-8")


def _read(path: str) -> str:
    with _open(path) as f:
        return f.read()


def _in_place(path: str, flags: int) -> int:
    """``open``'s own flags and creation mode, without ``O_TRUNC``."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write(path: str, pieces):
    """Write ``pieces``, one str or an iterable of them, to ``path`` ("-" is
    stdout).  A file is overwritten in place: truncating it to zero first
    frees its blocks and, on ext4's default ``auto_da_alloc``, starts their
    writeback on close.  On any exit a regular file is cut to the bytes
    written, as a truncating open would have left it; a device, FIFO or
    terminal is never cut.  Neither way is atomic or synced."""
    if isinstance(pieces, str):
        pieces = (pieces,)              # writelines would take it a character at a time
    if path == "-":
        sys.stdout.writelines(pieces)
        return
    with open(path, "w", encoding="utf-8", opener=_in_place) as f:
        try:
            f.writelines(pieces)
        finally:
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()


def _doc(path: str, kind: str | None = None) -> dict:
    """The JSON document in a file; its text is freed when this returns."""
    return _load_doc(_read(path), kind)


def _load(path: str, graph: bool = False):
    """The machine in a file: a JSON document if the text opens with "{"
    (after whitespace, found without a stripped copy of the text), else KISS2.
    With ``graph``, a graph document (one with a top-level ``vertices``
    key), or a machine's connectivity graph."""
    text = _read(path)
    if next((c for c in text if not c.isspace()), "") != "{":
        m = parse_kiss2(text)
    else:
        doc = _load_doc(text)
        del text                # only the document is held from here on
        if graph and "vertices" in doc:
            return graph_from_doc(doc)
        m = fsm_from_doc(doc)
    return connectivity_graph(m) if graph else m


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fsmwm",
        description="Behavioral watermarking toolkit for finite-state machines.",
    )
    parser.add_argument(
        "--config",
        help="JSON file of option defaults; explicit flags take precedence",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("extract-cg", help="connectivity graph of a machine")
    sp.add_argument("machine")
    sp.add_argument("-o", "--out", default="-")

    sp = sub.add_parser("lpr", help="sized linear reduction of a host")
    sp.add_argument("source", help="machine or graph document")
    sp.add_argument("-m", "--size", type=int, required=True)
    sp.add_argument("-o", "--out", default="-")
    sp.add_argument("--as-machine", action="store_true",
                    help="emit the walking machine instead of the graph")

    sp = sub.add_parser("lprk", help="multi-branch reduction of a host")
    sp.add_argument("source")
    sp.add_argument("-n", "--rows", type=int, required=True)
    sp.add_argument("-k", "--branches", type=int, required=True)
    sp.add_argument("-o", "--out", default="-")

    sp = sub.add_parser("encrypt-matrix", help="conceal a linear reduction behind a key")
    sp.add_argument("graph", help="linear reduction graph document")
    sp.add_argument("--seed", type=int, default=DEFAULT_KEY_SEED)
    sp.add_argument("--key", help="existing key file to use instead of the seed")
    sp.add_argument("--out-machine", default="-")
    sp.add_argument("--out-key", help="where to save the generated key")

    sp = sub.add_parser("build-decrypt", help="verifier machine for a concealed reduction")
    sp.add_argument("graph")
    sp.add_argument("--key", required=True)
    sp.add_argument("-o", "--out", default="-")

    sp = sub.add_parser("decompose", help="cascade decomposition of a reduction")
    sp.add_argument("machine", help="multi-branch reduction document")
    sp.add_argument("--mode", choices=["fixed", "optimal"], default="fixed")
    sp.add_argument("-n", "--rows", type=int, help="rows (fixed mode)")
    sp.add_argument("-k", "--branches", type=int, help="branches (fixed mode)")
    sp.add_argument("--cap", type=int, default=LATTICE_MAX_STATES,
                    help="state cap for the exhaustive lattice search")
    sp.add_argument("--out-pi-i", default="pi_i.txt")
    sp.add_argument("--out-pi-d", default="pi_d.txt")
    sp.add_argument("--out-front", default="front.json")
    sp.add_argument("--out-back", default="back.json")

    sp = sub.add_parser("emit-package", help="build the distributable bundle pair")
    sp.add_argument("host")
    sp.add_argument("--mode", choices=["matrix", "fixed", "optimal"],
                    required=True)
    sp.add_argument("-m", "--size", type=int, help="reduction length (matrix)")
    sp.add_argument("-n", "--rows", type=int)
    sp.add_argument("-k", "--branches", type=int)
    sp.add_argument("--key-seed", type=int, default=DEFAULT_KEY_SEED)
    sp.add_argument("--cap", type=int, default=LATTICE_MAX_STATES)
    sp.add_argument("--omega", type=int, help="state-field width override")
    sp.add_argument("--out-package", default="package.json")
    sp.add_argument("--out-secret", default="secret.json")
    sp.add_argument("--out-key", help="key file (matrix mode)")

    sp = sub.add_parser("verify", help="run the watermark verification protocol")
    sp.add_argument("--package", required=True)
    sp.add_argument("--secret", required=True)
    sp.add_argument("--branch", type=int, default=0)
    sp.add_argument("--length", type=int, required=True)

    sp = sub.add_parser("scan-test", help="drive a machine over the serial test port")
    sp.add_argument("machine")
    sp.add_argument("--chi", type=int, required=True)
    sp.add_argument("--omega", type=int, required=True)
    sp.add_argument("--branch", type=int, default=0)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--seed", type=int, default=DEFAULT_SETTING_SEED)
    sp.add_argument("--setting", type=int, help="fixed session setting")
    sp.add_argument("-o", "--out", default="-")

    sp = sub.add_parser("decode-scan", help="recover the payload from a serial log")
    sp.add_argument("transcript")

    sp = sub.add_parser("attack", help="reconstruct a branch machine from probing")
    sp.add_argument("machine")
    sp.add_argument("--chi", type=int, required=True)
    sp.add_argument("-o", "--out", default="-")

    sp = sub.add_parser("validate-partitions", help="check a decomposition pair")
    sp.add_argument("machine")
    sp.add_argument("--pi-i", required=True)
    sp.add_argument("--pi-d", required=True)

    return parser, sub.choices


@functools.cache
def _parser():
    """The parser every call in this process shares, and its subcommands."""
    return _build_parser()


def _parse_args(argv):
    """Parse on the shared parser.  With ``--config``, each file entry that
    names an optional flag of the chosen subcommand becomes that flag, right
    after the subcommand name, and the same parser parses again: the entry
    is checked like the flag, and an explicit flag, later in argv, wins.
    An entry that names no flag of any subcommand is a usage error."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subcommands = _parser()
    args = parser.parse_args(argv)
    if not args.config:
        return args
    config = _doc(args.config)
    known = {a.dest for sp in subcommands.values() for a in sp._actions if a.option_strings}
    for key in sorted(config.keys() - known):
        parser.error(f"--config entry {key!r} names no flag of any subcommand")
    flags = []
    for a in subcommands[args.cmd]._actions:
        if a.option_strings and not a.required and a.dest in config:
            flag, value = a.option_strings[-1], config[a.dest]
            if a.nargs != 0:
                flags.append(f"{flag}={value}")
            elif value and a.dest != "help":    # a store_true flag
                flags.append(flag)
    i = 0
    while argv[i] != args.cmd:          # past --config and its value
        i += 1 if "=" in argv[i] else 2
    return parser.parse_args(argv[:i + 1] + flags + argv[i + 1:])


def _run(args) -> int:
    """Run one subcommand.  Each branch imports what it needs beyond
    ``errors`` and ``machine`` when it runs, so a command loads only the
    modules it runs."""
    if args.cmd == "extract-cg":
        m = _load(args.machine)
        _write(args.out, format_graph(connectivity_graph(m)))
    elif args.cmd == "lpr":
        from .reduction import lpr
        g = _load(args.source, graph=True)
        reduced = lpr(g, args.size)
        out = format_fsm(standard_cg_machine(reduced)) if args.as_machine \
            else format_graph(reduced)
        _write(args.out, out)
    elif args.cmd == "lprk":
        from .reduction import LprkSpec, find_branch_width, lpr_k
        g = _load(args.source, graph=True)
        n, k = args.rows, args.branches
        m = lpr_k(g, LprkSpec(n=n, k=k, z=find_branch_width(n, k)))
        _write(args.out, format_fsm(m))
    elif args.cmd == "encrypt-matrix":
        from .matrixcrypt import build_watermark_machine, format_key, parse_key, random_perm_key
        g = graph_from_doc(_doc(args.graph))
        key = parse_key(_read(args.key)) if args.key else \
            random_perm_key(len(g.vertices), args.seed)
        _write(args.out_machine, format_fsm(build_watermark_machine(key, g)))
        if args.out_key:
            _write(args.out_key, format_key(key))
    elif args.cmd == "build-decrypt":
        from .matrixcrypt import build_decryption_machine, parse_key
        g = graph_from_doc(_doc(args.graph))
        key = parse_key(_read(args.key))
        _write(args.out, format_fsm(build_decryption_machine(key, g)))
    elif args.cmd == "decompose":
        from .decompose import (build_dependent, build_independent, fixed_partitions_lprk,
                                format_partition, minimal_decomposition)
        m = _load(args.machine)
        if args.mode == "fixed":
            if args.rows is None or args.branches is None:
                _parser()[1][args.cmd].error("fixed mode needs --rows and --branches")
            pair = fixed_partitions_lprk(m, args.rows, args.branches)
        else:
            pair = minimal_decomposition(m, cap=args.cap)
        _write(args.out_pi_i, format_partition(pair.pi_i))
        _write(args.out_pi_d, format_partition(pair.pi_d))
        _write(args.out_front, format_fsm(build_independent(m, pair.pi_i)))
        _write(args.out_back, format_fsm(build_dependent(m, pair)))
    elif args.cmd == "emit-package":
        from .verify import format_package, format_secret
        host = _load(args.host)
        if args.mode == "matrix":
            if args.size is None:
                _parser()[1][args.cmd].error("matrix mode needs --size")
            from .matrixcrypt import format_key
            from .pipeline import build_matrix_bundle
            package, secret, key = build_matrix_bundle(
                host, args.size, args.key_seed, omega=args.omega)
            if args.out_key:
                _write(args.out_key, format_key(key))
        else:
            if args.rows is None or args.branches is None:
                _parser()[1][args.cmd].error("decomposition modes need --rows and --branches")
            from .pipeline import build_decomp_bundle
            package, secret = build_decomp_bundle(
                host, args.rows, args.branches, mode=args.mode,
                cap=args.cap, omega=args.omega)
        _write(args.out_package, format_package(package))
        _write(args.out_secret, format_secret(secret))
    elif args.cmd == "verify":
        from .verify import package_from_doc, secret_from_doc, watermark_test
        package = package_from_doc(_doc(args.package, "package"))
        secret = secret_from_doc(_doc(args.secret, "secret"))
        verdict = watermark_test(package, secret, args.branch, args.length)
        sys.stdout.write(verdict.report())
        return 0 if verdict.passed else 1
    elif args.cmd == "scan-test":
        from .scanchain import scan_watermark_test
        m = _load(args.machine)
        t = scan_watermark_test(m, args.chi, args.omega, args.branch,
                                args.seed, args.steps, setting=args.setting)
        _write(args.out, t)                     # clocked and written a frame at a time
    elif args.cmd == "decode-scan":
        from .scanchain import _BATCH_CHARS, decode_transcript
        with _open(args.transcript) as f:       # whole lines, about 16 kB at a time
            batches = iter(lambda: f.read(_BATCH_CHARS) + f.readline(), "")
            setting, payload = decode_transcript(batches)
        sys.stdout.write(f"setting {setting}\n" + "".join(f"{s} {v}\n" for s, v in payload))
    elif args.cmd == "attack":
        from .verify import FsmOracle, informed_attack
        m = _load(args.machine)
        oracle = FsmOracle(m, args.chi)
        rebuilt = informed_attack(oracle, args.chi)
        _write(args.out, format_fsm(rebuilt))
        print(f"resets {oracle.resets} steps {oracle.steps}", file=sys.stderr)
    elif args.cmd == "validate-partitions":
        from .decompose import is_input_preserving, is_orthogonal, parse_partition
        m = _load(args.machine)
        pi_i = parse_partition(_read(args.pi_i))
        pi_d = parse_partition(_read(args.pi_d))
        checks = [
            ("pi_i input-preserving", is_input_preserving(m, pi_i)),
            ("pi_d input-preserving", is_input_preserving(m, pi_d)),
            ("orthogonal", is_orthogonal(pi_i, pi_d)),
        ]
        ok = all(v for _, v in checks)
        for name, v in checks:
            print(f"{name}: {'yes' if v else 'no'}")
        return 0 if ok else 1
    return 0


def main(argv=None) -> int:
    try:
        return _run(_parse_args(argv))
    except (FsmwmError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
