"""In-memory span recorder for the traced run.

Every public function of every ``fsmwm.*`` module is wrapped at each
module binding of it (``cli`` and ``pipeline`` import names directly),
plus ``Fsm.__post_init__`` and ``ConnGraph.__post_init__``.  A span's
self time is its duration minus the durations of its child spans.  Spans
are folded into per-layer totals as they close instead of being kept as a
list, so a run of a million calls holds no more memory than one of ten.

``LAYER`` names the layer metric a function's self time goes to.  A
function it does not name is a helper: its self time goes to the layer of
the span that called it, so ``is_orthogonal`` inside the pair search is
pair-search time and inside the fixed split is fixed-split time.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

GLUE = "bench.glue_s"

LAYER = {
    "machine.Fsm.__post_init__": "machine.validate_s",
    "machine.ConnGraph.__post_init__": "machine.validate_s",
    "machine.parse_fsm": "machine.parse_s",
    "machine.parse_graph": "machine.parse_s",
    "machine.parse_kiss2": "machine.parse_s",
    "machine.fsm_from_doc": "machine.parse_s",
    "machine.graph_from_doc": "machine.parse_s",
    "machine.format_fsm": "machine.format_s",
    "machine.format_graph": "machine.format_s",
    "machine.fsm_to_doc": "machine.format_s",
    "machine.graph_to_doc": "machine.format_s",
    "machine.connectivity_graph": "machine.graph_s",
    "machine.adjacency": "machine.graph_s",
    "machine.graph_of_adjacency": "machine.graph_s",
    "machine.standard_cg_machine": "machine.graph_s",
    "machine.step": "machine.run_s",
    "machine.run": "machine.run_s",
    "machine.run_states": "machine.run_s",
    "reduction.longest_simple_path": "reduction.path_search_s",
    "reduction.lpr": "reduction.lpr_s",
    "reduction.lpr_k": "reduction.lpr_s",
    "reduction.find_branch_width": "reduction.branch_width_s",
    "matrixcrypt.build_decryption_machine": "matrixcrypt.decoder_build_s",
    "matrixcrypt.build_watermark_machine": "matrixcrypt.watermark_build_s",
    "matrixcrypt.random_perm_key": "matrixcrypt.watermark_build_s",
    "matrixcrypt.encrypt_graph": "matrixcrypt.key_roundtrip_s",
    "matrixcrypt.decrypt_graph": "matrixcrypt.key_roundtrip_s",
    "matrixcrypt.compose_cascade": "matrixcrypt.cascade_s",
    "verify.watermark_test": "verify.replay_s",
    "verify.format_package": "verify.bundle_io_s",
    "verify.parse_package": "verify.bundle_io_s",
    "verify.format_secret": "verify.bundle_io_s",
    "verify.parse_secret": "verify.bundle_io_s",
    "verify.informed_attack": "verify.attack_s",
    "decompose.enumerate_sp_partitions": "decompose.sp_enum_s",
    "decompose.minimal_decomposition": "decompose.pair_search_s",
    "decompose.fixed_partitions_lprk": "decompose.fixed_split_s",
    "decompose.lprk_layout": "decompose.fixed_split_s",
    "decompose.build_independent": "decompose.cascade_build_s",
    "decompose.build_dependent": "decompose.cascade_build_s",
    "scanchain.scan_watermark_test": "scanchain.drive_s",
    "scanchain.drive_frames": "scanchain.drive_s",
    "scanchain.decode_transcript": "scanchain.decode_s",
    "scanchain.format_transcript": "scanchain.transcript_io_s",
    "scanchain.parse_transcript": "scanchain.transcript_io_s",
    "pipeline.build_matrix_bundle": "pipeline.bundle_s",
    "pipeline.build_decomp_bundle": "pipeline.bundle_s",
    "cli.main": "cli.self_s",
}

TIMES = sorted(set(LAYER.values()))


def bell(n: int) -> int:
    """Number of set partitions of n elements (Bell triangle)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _sp_enum(layer, args, result):
    return [("decompose.sp_found", len(result)),
            ("decompose.sp_attempts", bell(len(args[0].states)))]


def _scan(layer, args, result):
    return [("scanchain.cycles", len(result.records)),
            ("scanchain.frames", sum(r[4] == "Assert" for r in result.records))]


# Counts derived from results and public counters at a span:
# name -> f(layer, args, result) -> [(count metric, increment)].
COUNT = {
    "machine.Fsm.__post_init__":
        lambda layer, a, r: [("machine.transitions_validated", len(a[0].transitions))],
    "machine.ConnGraph.__post_init__":
        lambda layer, a, r: [("machine.transitions_validated", len(a[0].edges))],
    "reduction.longest_simple_path": lambda layer, a, r: [("reduction.path_len", len(r))],
    "matrixcrypt.build_decryption_machine":
        lambda layer, a, r: [("matrixcrypt.decoder_transitions", len(r.transitions))],
    "matrixcrypt.compose_cascade":
        lambda layer, a, r: [("matrixcrypt.cascade_states", len(r.states))],
    "verify.watermark_test": lambda layer, a, r: [("verify.verdicts", 1)],
    "verify.informed_attack":
        lambda layer, a, r: [("verify.oracle_resets", a[0].resets),
                             ("verify.oracle_steps", a[0].steps)],
    "decompose.enumerate_sp_partitions": _sp_enum,
    "decompose.is_orthogonal":
        lambda layer, a, r: [("decompose.pairs_checked",
                              layer == "decompose.pair_search_s")],
    "scanchain.scan_watermark_test": _scan,
    "cli.main": lambda layer, a, r: [("cli.calls", 1)],
}

COUNTS = sorted({"machine.transitions_validated", "reduction.path_len",
                 "matrixcrypt.decoder_transitions", "matrixcrypt.cascade_states",
                 "verify.verdicts", "verify.oracle_resets", "verify.oracle_steps",
                 "decompose.sp_found", "decompose.sp_attempts",
                 "decompose.pairs_checked", "scanchain.cycles",
                 "scanchain.frames", "cli.calls"})


class Tracer:
    """Wraps the library while installed; restores every original on
    ``uninstall``.  ``self_s`` holds per-layer self seconds and ``counts``
    the derived counts."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = [[GLUE, 0.0]]
        self._saved = []

    def top_level_s(self) -> float:
        """Summed duration of the spans with no traced parent."""
        return self._stack[0][1]

    def _wrap(self, fn, name):
        layer = LAYER.get(name)
        count = COUNT.get(name)
        counts = self.counts
        stack, self_s, perf = self._stack, self.self_s, time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [layer or parent[0], 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                self_s[frame[0]] += dt - frame[1]
                parent[1] += dt
            if count is not None:
                for key, n in count(frame[0], args, result):
                    counts[key] += n
            return result

        return span

    def install(self):
        """Wrap every public library function at each of its bindings."""
        wrappers = {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "fsmwm" or n.startswith("fsmwm."))]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("fsmwm.")):
                    continue
                if obj not in wrappers:
                    name = obj.__module__.split(".", 1)[1] + "." + obj.__name__
                    wrappers[obj] = self._wrap(obj, name)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
        machine = sys.modules["fsmwm.machine"]
        for cls in (machine.Fsm, machine.ConnGraph):
            orig = cls.__dict__["__post_init__"]
            self._saved.append((cls, "__post_init__", orig))
            setattr(cls, "__post_init__",
                    self._wrap(orig, f"machine.{cls.__name__}.__post_init__"))

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
