"""Span tracing of the ballsat layers, installed from outside the package.

Each traced public function is replaced, in every ``ballsat`` module
namespace that holds it, by a wrapper that records one span: name,
start, end, parent span and instance id.  ``orchestrator`` and ``pbs``
import names with ``from .x import y`` and ``kqcpbs``/``kpbs_hybrid``
recurse through their module globals, so patching only the defining
module would miss most calls.  ``oracle`` (the reference) and ``cli``
are never traced.

Spans stay in memory as flat arrays.  Each thread keeps its own parent
stack; a span opened on a worker thread with an empty stack belongs to
the open ``orchestrator.solve`` span, so a solve's children may overlap
in time.  Every span is stamped twice: with the wall clock, for
timelines, and with the CPU clock of its own thread, for self time.
Two worker threads share one GIL, so a worker span's wall time includes
its waits for the other worker; its thread CPU time does not.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = {
    "formula": (
        "restrict",
        "first_unsat_clause",
        "unsat_count",
        "evaluate",
        "max_disjoint_unsat",
        "decompose",
        "top_k_vars",
        "parse_dimacs",
    ),
    "codes": ("build_binary_cover", "build_kary_cover", "verify_cover"),
    "fliptree": ("walk",),
    "fpsearch": ("make_schedule", "prepare", "apply_schedule", "sample_sequence"),
    "pbs": ("quantum_kpbs", "kqcpbs", "kpbs_hybrid", "modify_assignment"),
    "orchestrator": ("solve",),
}
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
UNTRACED_MODULES = ("ballsat.oracle", "ballsat.cli")
ROOT = "orchestrator.solve"
# a worker item runs exactly one of these at the top of its thread's stack
DISPATCH_ENTRIES = ("pbs.quantum_kpbs", "pbs.kqcpbs", "pbs.kpbs_hybrid")
# sizes counted at the span boundary, as (span name, counter, measure)
OBSERVED = (
    ("codes.build_binary_cover", "codes.binary_words", lambda a, r: len(r.codewords)),
    ("codes.build_kary_cover", "codes.kary_words", lambda a, r: len(r.codewords)),
    ("fpsearch.prepare", "fpsearch.state_words", lambda a, r: r.size),
    ("fpsearch.apply_schedule", "fpsearch.amplify_steps", lambda a, r: len(a[1].angles)),
)
COUNTERS = tuple(c for _, c, _ in OBSERVED) + ("orchestrator.dispatch_hits",)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` may alternate."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.cpu_start = array("q")
        self.cpu_end = array("q")
        self.parent = array("q")
        self.thread = array("i")
        self.instance = array("i")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.current_instance = -1
        self._root = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_ids = itertools.count()
        self._patches: list[tuple[object, str, object, object]] = []
        observers = {span: (counter, measure) for span, counter, measure in OBSERVED}
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if (name == "ballsat" or name.startswith("ballsat."))
            and name not in UNTRACED_MODULES
        ]
        for nid, span in enumerate(self.names):
            layer, fn_name = span.split(".")
            original = getattr(importlib.import_module(f"ballsat.{layer}"), fn_name)
            wrapped = self._wrap(nid, span, original, observers.get(span))
            for mod in modules:
                if mod.__dict__.get(fn_name) is original:
                    self._patches.append((mod, fn_name, original, wrapped))

    def install(self) -> None:
        for mod, fn_name, _, wrapped in self._patches:
            setattr(mod, fn_name, wrapped)

    def uninstall(self) -> None:
        for mod, fn_name, original, _ in self._patches:
            setattr(mod, fn_name, original)

    def _wrap(self, nid, span, fn, observer):
        local, lock = self._local, self._lock
        clock, cpu, thread_ids = time.perf_counter_ns, time.thread_time_ns, self._thread_ids
        name_id, start, end = self.name_id, self.start, self.end
        cpu_start, cpu_end, thread = self.cpu_start, self.cpu_end, self.thread
        parent, instance, counts = self.parent, self.instance, self.counts
        is_root = span == ROOT
        is_dispatch = span in DISPATCH_ENTRIES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.get("stack")
            if stack is None:
                stack = local.stack = []
                local.tid = next(thread_ids)
            top = not stack
            with lock:
                sid = len(start)
                name_id.append(nid)
                parent.append(stack[-1] if stack else self._root)
                thread.append(local.tid)
                instance.append(self.current_instance)
                end.append(0)
                cpu_end.append(0)
                if is_root and top:
                    outer_root, self._root = self._root, sid
                start.append(clock())
                cpu_start.append(cpu())
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu_end[sid] = cpu()
                end[sid] = clock()
                stack.pop()
                if is_root and top:
                    self._root = outer_root
            if observer is not None or (is_dispatch and top):
                with lock:
                    if observer is not None:
                        counter, measure = observer
                        counts[counter] += measure(args, result)
                    if is_dispatch and top:
                        counts["orchestrator.dispatch_hits"] += result is not None
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        def of(a, dtype):
            return np.frombuffer(a, dtype=dtype).copy()

        return {
            "name_id": of(self.name_id, np.int32),
            "start_ns": of(self.start, np.int64),
            "end_ns": of(self.end, np.int64),
            "cpu_start_ns": of(self.cpu_start, np.int64),
            "cpu_end_ns": of(self.cpu_end, np.int64),
            "parent": of(self.parent, np.int64),
            "thread": of(self.thread, np.int32),
            "instance": of(self.instance, np.int32),
        }

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self CPU seconds) per span name, over every recorded span."""
        a = self.arrays()
        own = self_cpu(a["cpu_start_ns"], a["cpu_end_ns"], a["parent"], a["thread"])
        calls = np.bincount(a["name_id"], minlength=len(self.names))
        busy = np.bincount(a["name_id"], weights=own, minlength=len(self.names))
        return {
            name: (int(calls[i]), float(busy[i]) / 1e9)
            for i, name in enumerate(self.names)
        }


def self_cpu(cpu_start, cpu_end, parent, thread) -> np.ndarray:
    """Thread CPU time of each span minus that of its children on the same thread.

    Children on one thread nest inside their parent without overlapping,
    so their sum is their union.  A worker thread's outermost span has the
    solve on the calling thread as parent and takes nothing from it.
    """
    took = (np.asarray(cpu_end) - np.asarray(cpu_start)).astype(np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    thread = np.asarray(thread)
    kids = np.flatnonzero(parent >= 0)
    kids = kids[thread[kids] == thread[parent[kids]]]
    return took - np.bincount(parent[kids], weights=took[kids], minlength=len(took))
