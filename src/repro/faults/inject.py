"""The fault injector: network interposition + controller stall windows.

Design constraints (see ``docs/robustness.md``):

* **Deterministic.**  All randomness comes from one private
  ``random.Random(spec.seed)``, consulted in delivery/admission call
  order.  A fixed event schedule therefore implies a fixed fault
  schedule — model-checker replays and reruns are bit-identical — and
  the injector's full state (RNG, path cursors, stall windows) freezes
  into the checker's state fingerprint.

* **Per-path FIFO preserved.**  The two-bit protocol's §3.2.5 defenses
  (MREQ_CANCEL racing the invalidation round, EJECT_REVOKE racing the
  eject) rely on ordered (src, dst) links: the cancel is sent *before*
  the INV_ACK precisely so it arrives first.  The injector therefore
  clamps every delivery (and duplicate) to the latest delivery already
  scheduled on its (network, src, dst) path; delay and duplication make
  *cross-path* interleavings adversarial, which is the fault model the
  protocol can actually survive.

* **Inactive plans are invisible.**  With every probability zero the
  injector returns immediately without touching the RNG or scheduling
  anything, so an attached-but-empty plan is bit-identical to a bare
  run (pinned by the Hypothesis property tests).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple, Union

from repro.faults.plan import FAULT_PROTOCOLS, FaultSpec, parse_faults
from repro.stats.counters import CounterSet


class FaultInjector:
    """Injects the faults a :class:`FaultSpec` describes into one machine."""

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {
        "sim": "the kernel; its clock and queue are walked once, machine-wide",
        "counters": "statistics",
    }

    def __init__(self, spec: FaultSpec, sim) -> None:
        self.spec = spec
        self.sim = sim
        self.rng = random.Random(spec.seed)
        self.counters = CounterSet(owner="faults")
        self._active = spec.active
        #: (network name, src, dst) -> latest scheduled delivery cycle.
        self._last_delivery: Dict[Tuple[str, str, str], int] = {}
        #: controller name -> cycle its current stall window ends.
        self._stall_until: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Network interposition
    # ------------------------------------------------------------------
    def on_deliver(self, net, message, deliver_fn, delivery: int) -> int:
        """Perturb ``delivery`` for one message; maybe schedule duplicates.

        Called by the network after it computed the nominal delivery
        cycle and before it posts the delivery event.  Returns the
        (possibly delayed) delivery cycle to use.
        """
        if not self._active:
            return delivery
        spec, rng, counters = self.spec, self.rng, self.counters
        if spec.delay_prob and rng.random() < spec.delay_prob:
            bump = 1 + rng.randrange(spec.max_delay)
            delivery += bump
            counters.add("delays_injected")
            counters.add("delay_cycles_injected", bump)
        if spec.reorder_prob and rng.random() < spec.reorder_prob:
            bump = rng.randrange(spec.max_delay + 1)
            delivery += bump
            counters.add("reorder_jitter_injected")
        key = (net.name, message.src, message.dst)
        floor = self._last_delivery.get(key)
        if floor is not None and delivery <= floor:
            # Strictly after the previous delivery on this path: a tie
            # would hand the ordering back to the scheduler, and a
            # later-sent command processed first is exactly the FIFO
            # violation the §3.2.5 defenses cannot survive.
            counters.add("fifo_clamp_cycles", floor + 1 - delivery)
            delivery = floor + 1
        self._last_delivery[key] = delivery
        if spec.dup_prob and rng.random() < spec.dup_prob:
            when = delivery
            for _ in range(1 + rng.randrange(spec.max_dups)):
                when += 1 + rng.randrange(spec.max_delay + 1)
                self.sim.post_at(when, deliver_fn, message.copy_for(message.dst))
                counters.add("duplicates_injected")
            # Duplicates ride the same path: later sends must not land
            # before them, or the path would appear reordered.
            self._last_delivery[key] = when
        return delivery

    # ------------------------------------------------------------------
    # Memory-controller stall windows
    # ------------------------------------------------------------------
    def stalled(self, controller_name: str, now: int) -> bool:
        """True if ``controller_name`` must NAK the command arriving now.

        An open window rejects everything until it expires; otherwise a
        fresh window opens with probability ``stall_prob``.
        """
        if not self._active:
            return False
        until = self._stall_until.get(controller_name, 0)
        if now < until:
            self.counters.add("stall_window_hits")
            return True
        spec = self.spec
        if spec.stall_prob and self.rng.random() < spec.stall_prob:
            self._stall_until[controller_name] = (
                now + 1 + self.rng.randrange(spec.max_stall)
            )
            self.counters.add("stall_windows_opened")
            return True
        return False


def attach_faults(
    machine, spec: Union[FaultSpec, str, None]
) -> Optional[FaultInjector]:
    """Wire a fault plan into a built machine (``None`` detaches).

    ``spec`` is a :class:`FaultSpec` or plan text for
    :func:`~repro.faults.plan.parse_faults`.  Must run before
    ``machine.run``; the injector's counters join the machine registry
    so fault totals appear in merged results.  Raises ``ValueError`` for
    a protocol outside :data:`~repro.faults.plan.FAULT_PROTOCOLS`: it
    has no NAK/retry path to recover with.
    """
    if spec is None:
        machine.faults = None
        machine.network.faults = None
        return None
    if isinstance(spec, str):
        spec = parse_faults(spec)
    protocol = machine.config.protocol
    if protocol not in FAULT_PROTOCOLS:
        raise ValueError(
            f"faults: {protocol} has no NAK/retry recovery path; "
            f"choose from {', '.join(FAULT_PROTOCOLS)}"
        )
    if machine.config.sparse_fanout:
        raise ValueError(
            "fault plans are outside the sparse_fanout equivalence "
            "envelope (skipped deliveries would desynchronize the fault "
            "RNG); build the machine with sparse_fanout=False"
        )
    injector = FaultInjector(spec, machine.sim)
    machine.faults = injector
    machine.network.faults = injector
    machine.registry.register(injector.counters)
    return injector
