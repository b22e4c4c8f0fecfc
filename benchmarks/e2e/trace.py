"""Per-layer host-time tracing for one traced benchmark repetition.

A layer is a module directory of ``src/repro`` (``sim``, ``protocols``,
``core``, ...).  :class:`LayerTracer` installs a ``sys.settrace`` hook
that sees every Python call.  When a call enters code of another layer
than the one running, it opens a span; the span closes when that frame
returns (a generator's span closes at each ``yield``).  Frames outside
``src/repro`` (the standard library, this benchmark) belong to the layer
that called them, so C calls and stdlib helpers are charged to the layer
that used them.

Each layer's self time is the time its spans were open minus the time
their child spans were open: an exclusive-time stack.  The clock is read
when the hook is entered and again when it leaves, so the hook's own
bookkeeping is not charged to any layer; the interpreter's cost of
calling the hook is, which is why the traced run is slower than the
untraced one (reported as ``trace_overhead``).

Why a trace hook and not wrappers around ``Simulator.post``: the
table-compiled hit path pushes its events onto the kernel heap directly,
so callback wrappers would charge every fused hit to the kernel.

The hook follows the thread that installed it.  Forked children (pool
workers) switch it off, so sweep workers run untraced and the traced
process's table shows the client side of a sweep.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

#: Layers reported by the benchmark, in table order.  ``other`` holds the
#: top-level modules (``api``, ``config``, ``schema``, ...), the small
#: packages (``faults``, ``analysis``) and the benchmark's own frames.
LAYERS = (
    "sim",
    "processors",
    "protocols",
    "cache",
    "core",
    "interconnect",
    "memory",
    "workloads",
    "verification",
    "obs",
    "checkpoint",
    "stats",
    "system",
    "runner",
    "other",
)

#: Spans kept for the Chrome trace; later spans are timed but not kept.
MAX_SPANS = 50_000


class LayerTracer:
    """Exclusive per-layer host time of the code run while active.

    Use as ``with LayerTracer(src_dir) as tracer: ...``; then read
    :attr:`self_ns`, :attr:`calls` and :attr:`spans`.

    Args:
        src_dir: the ``src`` directory holding the ``repro`` package.
    """

    def __init__(self, src_dir: str) -> None:
        self._prefix = os.path.join(os.path.abspath(src_dir), "repro") + os.sep
        self._layer_of: Dict[str, Optional[str]] = {}
        #: layer -> exclusive nanoseconds.
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: layer -> spans opened (calls crossing into the layer).
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Closed spans: (layer, start_ns, end_ns, span id, parent id).
        self.spans: List[Tuple[str, int, int, int, int]] = []
        #: Open spans: [layer, start_ns, span id, parent id]; [0] is the root.
        self._stack: List[list] = []
        self._next_id = 1
        self._last = 0
        self._t0 = 0

    def _classify(self, filename: str) -> Optional[str]:
        if not filename.startswith(self._prefix):
            layer = None
        else:
            head = filename[len(self._prefix):].split(os.sep, 1)[0]
            if head.endswith(".py"):
                head = head[:-3]
            layer = head if head in LAYERS else "other"
        self._layer_of[filename] = layer
        return layer

    def _on_call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            layer = self._layer_of[filename]
        except KeyError:
            layer = self._classify(filename)
        stack = self._stack
        if layer is None or layer == stack[-1][0]:
            # A resumed generator keeps the local hook of an earlier
            # resumption; it must not close a span this time.
            if frame.f_trace is not None:
                frame.f_trace = None
            return None
        now = perf_counter_ns()
        self.self_ns[stack[-1][0]] += now - self._last
        self.calls[layer] += 1
        stack.append([layer, now, self._next_id, stack[-1][2]])
        self._next_id += 1
        frame.f_trace_lines = False
        self._last = perf_counter_ns()
        return self._on_frame_event

    def _on_frame_event(self, frame, event, arg):
        if event != "return":
            return self._on_frame_event
        now = perf_counter_ns()
        stack = self._stack
        if len(stack) > 1:
            self._close(stack.pop(), now)
        self._last = perf_counter_ns()
        return None

    def _close(self, span: list, now: int) -> None:
        layer, start, span_id, parent = span
        self.self_ns[layer] += now - self._last
        if len(self.spans) < MAX_SPANS:
            self.spans.append((layer, start, now, span_id, parent))

    def __enter__(self) -> "LayerTracer":
        os.register_at_fork(after_in_child=_untrace)
        self._t0 = self._last = perf_counter_ns()
        self._stack = [["other", self._t0, 0, -1]]
        sys.settrace(self._on_call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        now = perf_counter_ns()
        while self._stack:
            self._close(self._stack.pop(), now)
            self._last = now

    def table(self, refs: int) -> Dict[str, Dict[str, float]]:
        """Per-layer ``self_frac``, ``self_ns_per_ref``, ``calls_per_ref``."""
        total = sum(self.self_ns.values()) or 1
        refs = max(refs, 1)
        return {
            layer: {
                "self_frac": self.self_ns[layer] / total,
                "self_ns_per_ref": self.self_ns[layer] / refs,
                "calls_per_ref": self.calls[layer] / refs,
            }
            for layer in LAYERS
        }

    def write_chrome_trace(self, path: str) -> None:
        """Write the kept spans as a Chrome/Perfetto trace (JSON)."""
        pid = os.getpid()
        events = [
            {
                "name": layer,
                "ph": "X",
                "ts": (start - self._t0) / 1000,
                "dur": (end - start) / 1000,
                "pid": pid,
                "tid": 0,
                "args": {"span": span_id, "parent": parent},
            }
            for layer, start, end, span_id, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)


def _untrace() -> None:
    sys.settrace(None)
