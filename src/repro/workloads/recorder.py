"""Record any run's reference stream as a replayable trace.

:class:`TraceRecorder` rides the :mod:`repro.obs` ref-listener channel:
every reference a processor issues (warm-up included — replay needs the
identical stream prefix) is captured in global issue order and can be
written back out with :func:`~repro.workloads.traces.write_trace`.

Because the capture point is the issue probe, recording works for *any*
workload — synthetic, scripted, or another trace — and costs one list
append per reference.  Replaying the written trace through
:class:`~repro.workloads.traces.StreamingTraceWorkload` on a machine
with the same configuration and the same warm-up/measure split
reproduces the original run bit-for-bit (golden-asserted in
``tests/integration/test_trace_replay.py``): per-pid issue order is all
a stream determines, and the trace preserves it exactly.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from repro.workloads.reference import MemRef
from repro.workloads.traces import write_trace


class TraceRecorder:
    """Accumulates issued references, in global issue order."""

    def __init__(self) -> None:
        self.refs: List[MemRef] = []

    def on_ref(self, pid: int, now: int, ref: MemRef) -> None:
        """Ref-listener callback (see ``Observability.add_ref_listener``)."""
        self.refs.append(ref)

    def write(
        self,
        path: Union[str, Path],
        *,
        n_processors: int = 0,
        n_blocks: int = 0,
    ) -> int:
        """Write the captured trace atomically; returns refs written.

        Pass the source machine's ``n_processors``/``n_blocks`` so the
        trace declares the full address-space shape — a replay machine
        must be sized identically for fingerprints to match even when
        the tail of the block space was never referenced.
        """
        return write_trace(
            path,
            self.refs,
            n_processors=n_processors or None,
            n_blocks=n_blocks or None,
        )


def attach_recorder(machine) -> TraceRecorder:
    """Attach a :class:`TraceRecorder` to a built (not yet run) machine.

    Reuses the machine's observability hub when one is installed;
    otherwise installs a bare hub (no samplers, no event retention) —
    instrumentation is observation-only, so recording never perturbs the
    run (the instrumented-vs-bare determinism goldens pin this).
    """
    obs = machine.sim.obs
    if obs is None:
        from repro.obs.attach import instrument_machine

        obs = instrument_machine(
            machine, sample_interval=0, keep_events=False
        )
    recorder = TraceRecorder()
    obs.add_ref_listener(recorder.on_ref)
    return recorder
