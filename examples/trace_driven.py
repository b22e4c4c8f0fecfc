#!/usr/bin/env python3
"""Trace-driven simulation: capture once, replay anywhere.

Records the reference trace of a run of the synthetic workload model
to a plain-text file, replays it under two different coherence schemes,
and shows that (a) a replay under the recording protocol reproduces the
recorded run, (b) replays are bit-for-bit deterministic and (c) the
protocols disagree only in cost, never in the values read.

Run:  python examples/trace_driven.py [trace-file]

Without a trace-file argument the trace goes to a temporary directory
that is removed on exit.
"""

import sys
import tempfile
from pathlib import Path

from repro import Experiment
from repro.workloads.traces import scan_trace_meta

REFS_PER_PROC = 2000


def replay(path: Path, protocol: str):
    """Run the trace under ``protocol``; the run is coherence-audited."""
    return Experiment(
        protocol=protocol,
        workload=f"trace:{path}",
        refs_per_proc=REFS_PER_PROC,
        warmup_refs=0,
    ).run().results


def main() -> None:
    if len(sys.argv) > 1:
        demo(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory() as scratch:
            demo(Path(scratch) / "repro_example.trace")


def demo(path: Path) -> None:
    source = Experiment(
        protocol="twobit", n_processors=3, q=0.08, w=0.3,
        private_blocks_per_proc=64, seed=2718,
        refs_per_proc=REFS_PER_PROC, warmup_refs=0,
    )
    recorded = source.run(record_trace=str(path)).results
    print(f"recorded {scan_trace_meta(path).n_refs} references to {path}")

    for protocol in ("twobit", "fullmap"):
        first = replay(path, protocol)
        second = replay(path, protocol)
        assert first.cycles == second.cycles, "replay must be deterministic"
        if protocol == source.protocol:
            assert first.to_dict() == recorded.to_dict(), "replay drifted"
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
