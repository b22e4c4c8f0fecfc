"""Wiring an :class:`~repro.obs.core.Observability` onto a built machine.

:func:`instrument_machine` is the one call sites need: it installs the
hub on ``machine.sim.obs`` (turning every probe site on), and registers
a system-wide :class:`~repro.obs.sampler.TimeSeriesSampler` covering

* interconnect utilization (traffic units / commands / data transfers
  per window, plus bus busy/wait cycles where the network has them),
* per-controller directory occupancy (active + queued transactions)
  and memory-module backlog (cycles of reserved memory time ahead of
  the clock — the queue-depth proxy for the paper's ``b_j`` modules),
* the outstanding-transaction count (spans between issue and retire).

Instrumentation is observation-only: no kernel events are posted and no
protocol state is touched, so an instrumented run is bit-identical to a
bare run (asserted by the determinism golden tests).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.core import Observability
from repro.obs.sampler import TimeSeriesSampler

#: Cumulative network counters sampled as per-window rates.
_NET_RATES = (
    "traffic_units",
    "commands",
    "data_transfers",
    "busy_cycles",
    "wait_cycles",
)


def instrument_machine(
    machine,
    sample_interval: int = 200,
    keep_events: bool = True,
) -> Observability:
    """Install and return an observability hub on ``machine``.

    Args:
        machine: a built (not yet run) :class:`~repro.system.machine.
            Machine`; re-instrumenting replaces any previous hub.
        sample_interval: time-series window size in cycles; ``0``
            disables sampling.
        keep_events: retain raw events and spans for trace export.
            ``False`` keeps only histograms and sampler windows — the
            cheap metrics-only mode used by ``--metrics-out``.
    """
    obs = Observability(
        protocol=machine.config.protocol, keep_events=keep_events
    )
    if sample_interval > 0:
        obs.add_sampler(_system_sampler(machine, obs, sample_interval))
    machine.sim.obs = obs
    return obs


class _AttrGauge:
    """Picklable gauge reading one attribute of one object.

    Sampler probes used to be lambdas closing over components; the
    checkpoint subsystem deep-pickles the machine (hub and samplers
    included), so every stored probe must pickle.
    """

    __slots__ = ("obj", "attr")

    def __init__(self, obj, attr: str) -> None:
        self.obj = obj
        self.attr = attr

    def __call__(self):
        return getattr(self.obj, self.attr)


class _CounterGauge:
    """Picklable gauge reading one cumulative counter."""

    __slots__ = ("counters", "key")

    def __init__(self, counters, key: str) -> None:
        self.counters = counters
        self.key = key

    def __call__(self):
        return self.counters.get(self.key)


class _MemBacklogGauge:
    """Cycles of reserved memory time still ahead of the clock."""

    __slots__ = ("ctrl", "sim")

    def __init__(self, ctrl, sim) -> None:
        self.ctrl = ctrl
        self.sim = sim

    def __call__(self):
        return max(0, self.ctrl._mem_free_at - self.sim.now)


def _system_sampler(machine, obs: Observability, interval: int):
    sim = machine.sim
    net = machine.network
    gauges = {
        "outstanding_refs": _AttrGauge(obs, "outstanding"),
    }
    for ctrl in machine.controllers:
        if hasattr(ctrl, "n_queued"):
            gauges[f"{ctrl.name}.active"] = _AttrGauge(ctrl, "n_active")
            gauges[f"{ctrl.name}.queued"] = _AttrGauge(ctrl, "n_queued")
        if hasattr(ctrl, "_mem_free_at"):
            gauges[f"{ctrl.name}.mem_backlog"] = _MemBacklogGauge(ctrl, sim)
    rates = {
        name: _CounterGauge(net.counters, name) for name in _NET_RATES
    }
    return TimeSeriesSampler(
        name="system",
        interval=interval,
        gauges=gauges,
        rates=rates,
        start=sim.now,
    )


def machine_metrics(machine, obs: Observability) -> Dict[str, Any]:
    """Compact metrics dict for one run (the sweep-point payload).

    Schema-stamped (:mod:`repro.schema`) because this payload is cached
    with sweep results and rolled up across runs later
    (:mod:`repro.obs.rollup`).  Alongside the human-oriented
    ``latency``/``phases`` summaries it carries the exact histogram
    buckets (``latency_hist``/``phase_hist``): rollups merge buckets and
    re-derive percentiles — averaging per-run percentiles would be
    statistically wrong.
    """
    from repro.schema import stamp_record

    obs.flush(machine.sim.now)
    return stamp_record(
        {
            "protocol": machine.config.protocol,
            "n_processors": machine.config.n_processors,
            "cycles": machine.sim.now,
            "latency": {
                outcome: hist.summary()
                for outcome, hist in sorted(obs.latency.items())
            },
            "phases": {
                key: hist.summary()
                for key, hist in sorted(obs.phases.items())
            },
            "latency_hist": {
                outcome: hist.to_dict()
                for outcome, hist in sorted(obs.latency.items())
            },
            "phase_hist": {
                key: hist.to_dict()
                for key, hist in sorted(obs.phases.items())
            },
            "counters": machine.registry.merged().snapshot(),
        }
    )


def machine_metrics_records(
    machine, obs: Observability
) -> List[Dict[str, Any]]:
    """JSONL records for one run (``run`` header + histograms + samples)."""
    from repro.obs.export import metrics_records

    obs.flush(machine.sim.now)
    return metrics_records(
        obs,
        run_info={
            "n_processors": machine.config.n_processors,
            "network": machine.config.network,
            "cycles": machine.sim.now,
            "refs": int(
                sum(c.counters.get("refs") for c in machine.caches)
            ),
            "counters": machine.registry.merged().snapshot(),
        },
    )
