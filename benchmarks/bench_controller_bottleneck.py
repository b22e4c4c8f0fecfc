"""§2.4.1 / §2.4.2: the controller bottleneck and its cure.

The paper rejects centralized directories ("the overall performance ...
could be severely limited by a controller bottleneck") in favour of
per-module distribution ("this eliminates the potential bottleneck of a
centralized controller").  This bench measures it: the same 8-processor
machine with its directory centralized in one module vs distributed over
2/4/8 modules, plus the M/D/1 model's account of the same effect.
"""

from repro.analysis.queueing import ControllerLoadModel
from repro.config import MachineConfig
from repro.stats.tables import Table
from repro.system.builder import build_machine
from repro.verification.audit import audit_machine
from repro.workloads.synthetic import DuboisBriggsWorkload

from benchmarks.conftest import emit

N = 8
REFS = 1500
MODULE_COUNTS = (1, 2, 4, 8)


def run(n_modules, seed=1984):
    workload = DuboisBriggsWorkload(
        n_processors=N, q=0.10, w=0.3, private_blocks_per_proc=64, seed=seed
    )
    config = MachineConfig(
        n_processors=N,
        n_modules=n_modules,
        n_blocks=workload.n_blocks,
        protocol="twobit",
    )
    machine = build_machine(config, workload)
    machine.run(refs_per_proc=REFS, warmup_refs=300)
    audit_machine(machine).raise_if_failed()
    r = machine.results()
    cycles = max(r.cycles, 1)
    transactions = sum(c.counters["transactions"] for c in machine.controllers)
    busiest = max(
        c.counters["memory_busy_cycles"] / cycles for c in machine.controllers
    )
    max_queue = max(c.max_queue_depth for c in machine.controllers)
    arrival = transactions / cycles / n_modules
    return r.avg_latency, busiest, max_queue, arrival


def sweep():
    return {m: run(m) for m in MODULE_COUNTS}


def test_distribution_removes_the_bottleneck(benchmark):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    service = 1 + 10  # directory access + memory access (timing defaults)
    table = Table(
        header=[
            "modules",
            "avg latency",
            "busiest ctrl util",
            "max queue depth",
            "M/D/1 wait @ load",
        ],
        title=f"Centralized vs distributed directory (n={N}, q=0.10, w=0.3)",
        precision=3,
    )
    for m, (latency, busiest, max_queue, arrival) in results.items():
        model = ControllerLoadModel(arrival, service)
        wait = model.mean_wait if model.stable else float("inf")
        table.add_row([str(m), latency, busiest, str(max_queue), wait])
    emit("controller_bottleneck.txt", table.render())

    lat = {m: v[0] for m, v in results.items()}
    util = {m: v[1] for m, v in results.items()}
    depth = {m: v[2] for m, v in results.items()}
    # Distributing the directory monotonically relieves the bottleneck.
    assert lat[8] < lat[4] < lat[1]
    assert util[8] < util[1]
    assert depth[8] <= depth[1]
    # The centralized controller is the saturated resource.
    assert util[1] > 0.5
    # And the M/D/1 model agrees on the direction: quartering the load
    # cuts the predicted wait superlinearly.
    m1 = ControllerLoadModel(results[1][3], service)
    m4 = ControllerLoadModel(results[4][3], service)
    if m1.stable:
        assert m4.mean_wait < m1.mean_wait / 3
