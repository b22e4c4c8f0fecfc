"""FaultInjector unit tests: determinism, FIFO clamping, stall windows."""

from types import SimpleNamespace

import pytest

from repro.faults import (
    CANNED_PLANS,
    FAULT_PROTOCOLS,
    FaultInjector,
    FaultSpec,
    attach_faults,
)
from repro.interconnect.message import Message, MessageKind
from repro.protocols import registry
from repro.sim.kernel import Simulator

NET = SimpleNamespace(name="net0")


def _message(src="cache0", dst="ctrl0", block=0):
    return Message(MessageKind.REQUEST, src=src, dst=dst, block=block)


def _drive(spec, deliveries, net=NET):
    """Feed a fixed delivery sequence through a fresh injector.

    ``deliveries`` is a list of (src, dst, nominal_cycle); returns the
    perturbed delivery cycles plus the injector (for counter asserts).
    """
    sim = Simulator()
    injector = FaultInjector(spec, sim)
    out = [
        injector.on_deliver(net, _message(src, dst), lambda m: None, when)
        for src, dst, when in deliveries
    ]
    return out, injector


class TestDeterminism:
    SPEC = FaultSpec(
        seed=42, delay_prob=0.5, max_delay=3, dup_prob=0.3,
        reorder_prob=0.2, stall_prob=0.5, max_stall=4,
    )
    DELIVERIES = [("cache0", "ctrl0", t) for t in range(0, 40, 2)]

    def test_same_seed_same_schedule(self):
        first, a = _drive(self.SPEC, self.DELIVERIES)
        second, b = _drive(self.SPEC, self.DELIVERIES)
        assert first == second
        assert a.counters.snapshot() == b.counters.snapshot()

    def test_different_seed_differs(self):
        first, _ = _drive(self.SPEC, self.DELIVERIES)
        second, _ = _drive(self.SPEC.with_(seed=43), self.DELIVERIES)
        assert first != second

    def test_stall_windows_deterministic(self):
        for _ in range(2):
            sim = Simulator()
            injector = FaultInjector(self.SPEC, sim)
            answers = [injector.stalled("ctrl0", t) for t in range(0, 60, 3)]
            assert any(answers)
        first = [
            FaultInjector(self.SPEC, Simulator()).stalled("ctrl0", t)
            for t in range(0, 60, 3)
        ]
        second = [
            FaultInjector(self.SPEC, Simulator()).stalled("ctrl0", t)
            for t in range(0, 60, 3)
        ]
        assert first == second


class TestInactivePlan:
    def test_inactive_plan_never_touches_rng(self):
        sim = Simulator()
        injector = FaultInjector(FaultSpec(seed=1), sim)
        state = injector.rng.getstate()
        msg = _message()
        assert injector.on_deliver(NET, msg, lambda m: None, 7) == 7
        assert not injector.stalled("ctrl0", 3)
        assert injector.rng.getstate() == state
        assert injector.counters.snapshot() == {}


class TestFifoPreservation:
    SPEC = FaultSpec(seed=5, delay_prob=0.6, max_delay=3, reorder_prob=0.4)

    def test_same_path_deliveries_strictly_increase(self):
        deliveries = [("cache0", "ctrl0", t) for t in range(0, 60, 1)]
        out, _ = _drive(self.SPEC, deliveries)
        # Strict: a tie would hand ordering to the scheduler's
        # same-cycle tie-break, which is exactly a FIFO violation.
        assert all(b > a for a, b in zip(out, out[1:]))

    def test_distinct_paths_are_independent(self):
        # Interleave two paths; each must be monotone, but cross-path
        # reordering is allowed (that is the adversarial fault model).
        deliveries = []
        for t in range(0, 40, 2):
            deliveries.append(("cache0", "ctrl0", t))
            deliveries.append(("cache1", "ctrl0", t))
        out, _ = _drive(self.SPEC, deliveries)
        path0, path1 = out[0::2], out[1::2]
        assert all(b > a for a, b in zip(path0, path0[1:]))
        assert all(b > a for a, b in zip(path1, path1[1:]))

    def test_duplicates_extend_the_path_cursor(self):
        spec = FaultSpec(seed=0, dup_prob=1.0, max_dups=2, max_delay=2)
        sim = Simulator()
        injector = FaultInjector(spec, sim)
        copies = []
        first = injector.on_deliver(
            NET, _message(), copies.append, 10
        )
        assert first == 10  # dup never delays the original
        n_dups = int(injector.counters.get("duplicates_injected"))
        assert 1 <= n_dups <= 2
        # The next send on the path must land strictly after every
        # injected copy, not merely after the original.
        cursor = injector._last_delivery[(NET.name, "cache0", "ctrl0")]
        assert cursor > first
        later = injector.on_deliver(NET, _message(), copies.append, 10)
        assert later > cursor

    def test_duplicate_copies_have_fresh_uids(self):
        spec = FaultSpec(seed=0, dup_prob=1.0, max_dups=1)
        sim = Simulator()
        injector = FaultInjector(spec, sim)
        copies = []
        original = _message()
        injector.on_deliver(NET, original, copies.append, 0)
        sim.run()
        assert copies, "duplicate was scheduled through the simulator"
        for copy in copies:
            assert copy is not original
            assert copy.kind is original.kind
            assert copy.meta == original.meta
            assert copy.meta is not original.meta


class TestStallWindows:
    def test_open_window_rejects_until_expiry(self):
        spec = FaultSpec(seed=1, stall_prob=1.0, max_stall=4)
        injector = FaultInjector(spec, Simulator())
        assert injector.stalled("ctrl0", 10)  # opens a window
        until = injector._stall_until["ctrl0"]
        assert 11 <= until <= 15
        for t in range(11, until):
            assert injector.stalled("ctrl0", t)
        hits = injector.counters.get("stall_window_hits")
        assert hits == max(0, until - 11)

    def test_controllers_stall_independently(self):
        spec = FaultSpec(seed=9, stall_prob=0.5, max_stall=4)
        injector = FaultInjector(spec, Simulator())
        series = [
            (injector.stalled("ctrl0", t), injector.stalled("ctrl1", t))
            for t in range(0, 50, 2)
        ]
        assert any(a != b for a, b in series)


class TestAttach:
    def _machine(self, protocol="twobit"):
        from repro.config import MachineConfig
        from repro.system.builder import build_machine
        from repro.workloads.synthetic import DuboisBriggsWorkload

        workload = DuboisBriggsWorkload(
            n_processors=2, private_blocks_per_proc=8
        )
        config = MachineConfig(
            n_processors=2, n_modules=1, n_blocks=workload.n_blocks,
            protocol=protocol,
            network=registry.resolve(protocol).default_network(),
        )
        return build_machine(config, workload)

    def test_attach_wires_machine_and_network(self):
        machine = self._machine()
        spec = FaultSpec(seed=3, delay_prob=0.5)
        injector = attach_faults(machine, spec)
        assert machine.faults is injector
        assert machine.network.faults is injector
        # Counters join the registry so totals show in merged results.
        injector.counters.add("delays_injected")
        assert machine.registry.total("delays_injected") == 1

    def test_attach_none_detaches(self):
        machine = self._machine()
        attach_faults(machine, FaultSpec(seed=3, delay_prob=0.5))
        assert attach_faults(machine, None) is None
        assert machine.faults is None
        assert machine.network.faults is None

    def test_attach_parses_plan_text(self):
        injector = attach_faults(self._machine(), "check,seed=11")
        assert injector.spec == CANNED_PLANS["check"].with_(seed=11)

    @pytest.mark.parametrize(
        "protocol",
        [p for p in registry.protocol_names() if p not in FAULT_PROTOCOLS],
    )
    def test_attach_refuses_protocols_without_recovery_path(self, protocol):
        machine = self._machine(protocol)
        with pytest.raises(ValueError, match="no NAK/retry recovery path"):
            attach_faults(machine, FaultSpec(seed=3, delay_prob=0.5))
        assert machine.faults is None
