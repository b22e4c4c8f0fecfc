"""Golden-checksum determinism regression for the kernel itself.

A seeded cascade of events — fan-out through both scheduling calls,
relative ``post`` and absolute ``post_at`` — is executed and the full
``(time, tag)`` execution log is hashed.  The digests pin the exact
event ordering (not just counts), so any kernel change that reorders
same-cycle events fails loudly.  (The machine-level goldens in
``tests/integration`` pin the same contract end to end.)
"""

import hashlib
import random

from repro.sim.kernel import Simulator

#: seed -> (events_processed, final_cycle, sha256(log)[:16])
GOLDEN = {
    1: (205, 22, "a837d76bef62db47"),
    7: (293, 20, "db004893d16e30b2"),
    1984: (228, 21, "e99c20c2c4c715ce"),
}


def run_cascade(seed, with_obs=False):
    """Deterministic event storm mixing both scheduling calls."""
    sim = Simulator()
    if with_obs:
        # The kernel must never consult the observability hub: an
        # installed hub (with a live sampler) cannot perturb ordering.
        from repro.obs import Observability, TimeSeriesSampler

        sim.obs = Observability(protocol="cascade")
        sim.obs.add_sampler(
            TimeSeriesSampler("t", interval=3, gauges={"pending": lambda: 0})
        )
    rng = random.Random(seed)
    log = []

    def work(tag, depth):
        log.append((sim.now, tag))
        if depth < 4:
            for i in range(rng.randrange(1, 4)):
                delay = rng.randrange(0, 5)
                child = f"{tag}.{i}"
                if rng.random() < 0.5:
                    sim.post(delay, work, child, depth + 1)
                else:
                    sim.post_at(sim.now + delay, work, child, depth + 1)

    for i in range(8):
        if i % 2:
            sim.post(i, work, str(i), 0)
        else:
            sim.post_at(i, work, str(i), 0)
    sim.run()
    digest = hashlib.sha256(repr(log).encode()).hexdigest()[:16]
    return sim.events_processed, sim.now, digest


def test_cascade_matches_golden():
    for seed, expected in GOLDEN.items():
        assert run_cascade(seed) == expected, seed


def test_cascade_repeatable_within_process():
    assert run_cascade(1984) == run_cascade(1984)


def test_cascade_with_obs_installed_matches_golden():
    for seed, expected in GOLDEN.items():
        assert run_cascade(seed, with_obs=True) == expected, seed
