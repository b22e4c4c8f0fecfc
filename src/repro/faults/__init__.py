"""Deterministic fault injection and recovery (`repro.faults`).

The paper's protocols assume a reliable, FIFO interconnect; real
machines are validated by asking what happens when that assumption is
stressed.  This package provides a seed-driven :class:`FaultSpec`
(bounded delay spikes, duplication, cross-path reordering, memory-
controller stall windows) plus :func:`attach_faults`, which interposes
a :class:`FaultInjector` on a built machine's network delivery and on
controller command admission.  Recovery — NAK plus bounded retry with
backoff — lives in the protocol controllers; this package only decides
*when* faults strike, never *how* the protocol copes.

Everything is deterministic per ``(spec.seed, event schedule)``: the
injector draws from one private :class:`random.Random` in delivery-call
order, so replays (including model-checker schedule replays) see
identical fault choices.  See ``docs/robustness.md``.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.faults.inject": ("FaultInjector", "attach_faults"),
    "repro.faults.plan": (
        "CANNED_PLANS",
        "FAULT_PROTOCOLS",
        "FaultSpec",
        "parse_faults",
    ),
})
