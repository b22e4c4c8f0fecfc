"""Processor model: budgets, blocking, counters."""

from repro.api import Experiment
from repro.config import MachineConfig
from repro.processors.processor import Processor
from repro.protocols.base import AbstractCacheController, AccessResult
from repro.sim.kernel import Simulator
from repro.verification.oracle import CoherenceOracle
from repro.workloads.reference import MemRef, Op
from repro.workloads.synthetic import ScriptedWorkload


class StubCache(AbstractCacheController):
    """Completes every access ``delay`` cycles after issue (no protocol:
    the table step is replaced, so every reference is a fixed-latency
    hit finished through the cache's one completion path)."""

    def __init__(self, sim, delay=3):
        super().__init__(
            sim, 0, MachineConfig(n_processors=1, n_modules=1),
            CoherenceOracle(),
        )
        self.delay = delay
        self.accesses = []
        self.pending = None

    def _step(self, ref, issue_time):
        self.accesses.append(ref)
        self.sim.post_at(issue_time + self.delay, self._complete,
                         ref, issue_time, True, 0)

    def _classify(self, ref, issue_time):
        raise AssertionError("the stub never escapes")


def stream_of(n):
    script = [
        MemRef(pid=0, op=Op.WRITE if i % 2 else Op.READ, block=i % 4, shared=True)
        for i in range(n)
    ]
    return ScriptedWorkload([script]).stream(0)


def test_budget_limits_references():
    sim = Simulator()
    cache = StubCache(sim)
    proc = Processor(sim, 0, cache, stream_of(100), budget=5)
    proc.start()
    sim.run()
    assert proc.completed == 5
    assert proc.drained
    assert len(cache.accesses) == 5


def test_stream_exhaustion_stops():
    sim = Simulator()
    cache = StubCache(sim)
    proc = Processor(sim, 0, cache, stream_of(3), budget=100)
    proc.start()
    sim.run()
    assert proc.completed == 3
    assert proc.exhausted and proc.drained


def test_blocking_one_reference_at_a_time():
    sim = Simulator()
    cache = StubCache(sim, delay=5)
    proc = Processor(sim, 0, cache, stream_of(4), budget=4)
    proc.start()
    sim.run()
    assert sim.now == 20  # strictly sequential


def test_resume_after_budget_raise():
    sim = Simulator()
    cache = StubCache(sim)
    proc = Processor(sim, 0, cache, stream_of(50), budget=2)
    proc.start()
    sim.run()
    assert proc.completed == 2
    proc.budget += 3
    proc.resume()
    sim.run()
    assert proc.completed == 5


def test_counters():
    sim = Simulator()
    cache = StubCache(sim, delay=2)
    proc = Processor(sim, 0, cache, stream_of(4), budget=4)
    proc.start()
    sim.run()
    assert proc.counters["refs"] == 4
    assert proc.counters["writes"] == 2
    assert proc.counters["shared_refs"] == 4
    assert proc.counters["hits"] == 4
    assert proc.counters["latency_cycles"] == 8


def test_processor_driven_run_builds_no_access_result(monkeypatch):
    # Hits and escaped references alike retire straight to the
    # processor; only access() callers get an AccessResult.
    built = []
    original = AccessResult.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(AccessResult, "__init__", counting)
    machine = Experiment(
        protocol="twobit", n_processors=4, q=0.2, w=0.5,
        refs_per_proc=300, warmup_refs=0,
    ).run().machine
    assert machine.registry.total("read_misses") > 0
    assert machine.registry.total("write_hits_unmodified") > 0
    assert built == []
