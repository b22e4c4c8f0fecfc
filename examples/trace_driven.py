#!/usr/bin/env python3
"""Trace-driven simulation: capture once, replay anywhere.

Records a reference trace from the synthetic workload model, writes it
to a plain-text file, replays it under two different coherence schemes,
and shows that (a) replays are bit-for-bit deterministic and (b) the
protocols disagree only in cost, never in the values read.

Run:  python examples/trace_driven.py [trace-file]

Without a trace-file argument the trace goes to a temporary directory
that is removed on exit.
"""

import sys
import tempfile
from pathlib import Path

from repro import MachineConfig, TraceWorkload
from repro.system.builder import build_machine
from repro.verification.audit import audit_machine
from repro.workloads.synthetic import DuboisBriggsWorkload
from repro.workloads.traces import record, write_trace


def replay(path: Path, protocol: str):
    workload = TraceWorkload.from_file(path)
    config = MachineConfig(
        n_processors=workload.n_processors,
        n_modules=2,
        n_blocks=workload.n_blocks,
        protocol=protocol,
    )
    machine = build_machine(config, workload)
    machine.run(refs_per_proc=10_000)  # streams are finite; runs them dry
    audit_machine(machine).raise_if_failed()
    return machine.results()


def main() -> None:
    if len(sys.argv) > 1:
        demo(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory() as scratch:
            demo(Path(scratch) / "repro_example.trace")


def demo(path: Path) -> None:
    source = DuboisBriggsWorkload(
        n_processors=3, q=0.08, w=0.3, private_blocks_per_proc=64, seed=2718
    )
    refs = record(source, refs_per_proc=2000)
    count = write_trace(path, refs)
    print(f"recorded {count} references to {path}")

    for protocol in ("twobit", "fullmap"):
        first = replay(path, protocol)
        second = replay(path, protocol)
        assert first.cycles == second.cycles, "replay must be deterministic"
        print(
            f"\n{protocol}: {first.total_refs} refs in {first.cycles} cycles"
            f"\n  extra commands/ref : {first.extra_commands_per_ref:.4f}"
            f"\n  avg latency        : {first.avg_latency:.2f} cycles"
            "\n  replay determinism : OK (identical cycle counts)"
        )

    print(
        "\nBoth protocols served the same trace coherently; the two-bit"
        "\nscheme paid its broadcast premium, the full map did not."
    )


if __name__ == "__main__":
    main()
