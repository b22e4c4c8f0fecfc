"""Configuration dataclasses for building a simulated multiprocessor.

:class:`MachineConfig` is the single object an experiment constructs; the
builder (:mod:`repro.system.builder`) turns it into wired components.  The
protocol-behaviour switches live in :class:`ProtocolOptions` and map
one-to-one onto the design choices and ambiguities catalogued in
DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class TimingConfig:
    """Cycle costs shared by every protocol."""

    #: One cache array access (hit service or snoop lookup).
    cache_cycle: int = 1
    #: Network hop / point-to-point delivery latency.
    net_latency: int = 4
    #: Memory module read or write occupancy.
    mem_access: int = 10
    #: Directory map lookup/update at the controller.
    directory_access: int = 1
    #: Bus slot time per occupancy unit (bus networks only).
    bus_slot: int = 1
    #: §4.1: selective (full-map / translation-buffer) commands require
    #: "time to select the recipients and sequential message handling" —
    #: extra cycles per additional selective recipient.  Default 0, the
    #: paper's own simplifying assumption; raise it to study the
    #: broadcast-vs-sequential trade-off.
    selective_send_overhead: int = 0

    def __post_init__(self) -> None:
        for name in (
            "cache_cycle",
            "net_latency",
            "mem_access",
            "directory_access",
            "bus_slot",
            "selective_send_overhead",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class ProtocolOptions:
    """Protocol design choices (defaults are the corrected/safe variants).

    Attributes:
        serialization: "block" lets the controller multiprogram requests
            for distinct blocks (§3.2.5 design 2); "global" services one
            command at a time (design 1).
        keep_present1: encode Present1 distinctly from Present* (§3.2.1
            note: dropping it stays correct but costs extra broadcasts).
        owner_invalidates_on_read_query: paper-literal §3.2.2 case 2 —
            the dirty owner invalidates on a read BROADQUERY and the new
            state is Present1.  Default False: the owner keeps a clean
            copy and the state becomes Present* (DESIGN.md ambiguity #1).
        scrub_queued_mrequests: when broadcasting an invalidation, delete
            queued MREQUESTs from other caches (§3.2.5 scenario).
        invalidation_acks: collect INV_ACKs before granting; required for
            correctness under networks with variable latency.
        duplicate_directory: §4.4 enhancement 1 — snoop lookups steal a
            cache cycle only when the block is present.
        translation_buffer_entries: §4.4 enhancement 2 — capacity of the
            controller-side owner-identity buffer (0 disables it).
        tbuf_forced_hit_ratio: modelling device for the paper's "90% hit
            ratio eliminates 90% of the overhead" claim: bypass the real
            buffer and hit with this probability (None = use the buffer).
        bias_filter_entries: §2.3's "BIAS memory" for the classical
            scheme — a small buffer of recently-invalidated addresses
            that filters repeated invalidation signals for the same
            block without stealing a cache cycle (0 disables it).
        wb_capacity: bound on concurrent dirty-eject write-back buffer
            entries per cache (None = unbounded).  When the buffer is
            full a new miss needing a dirty eviction is held back and
            retried with backoff instead of overflowing.
    """

    serialization: str = "block"
    keep_present1: bool = True
    owner_invalidates_on_read_query: bool = False
    scrub_queued_mrequests: bool = True
    invalidation_acks: bool = True
    duplicate_directory: bool = False
    translation_buffer_entries: int = 0
    tbuf_forced_hit_ratio: Optional[float] = None
    bias_filter_entries: int = 0
    wb_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.serialization not in ("block", "global"):
            raise ValueError("serialization must be 'block' or 'global'")
        if self.translation_buffer_entries < 0:
            raise ValueError("translation_buffer_entries must be >= 0")
        if self.bias_filter_entries < 0:
            raise ValueError("bias_filter_entries must be >= 0")
        if self.tbuf_forced_hit_ratio is not None and not (
            0.0 <= self.tbuf_forced_hit_ratio <= 1.0
        ):
            raise ValueError("tbuf_forced_hit_ratio must be in [0, 1]")
        if self.wb_capacity is not None and self.wb_capacity < 1:
            raise ValueError("wb_capacity must be >= 1 (or None for unbounded)")


def sparse_options(**overrides) -> "ProtocolOptions":
    """:class:`ProtocolOptions` satisfying the sparse-fanout envelope.

    Duplicate directory on, invalidation acks off, BIAS filter off —
    the combination :class:`MachineConfig` requires when
    ``sparse_fanout=True``.  Keyword overrides are applied on top (and
    re-validated by ``MachineConfig`` if they break the envelope).
    """
    base = dict(
        duplicate_directory=True,
        invalidation_acks=False,
        bias_filter_entries=0,
    )
    base.update(overrides)
    return ProtocolOptions(**base)


#: Interconnects the builder knows how to assemble.
NETWORKS = ("xbar", "bus", "delta")


@dataclass(frozen=True)
class MachineConfig:
    """Everything needed to build one simulated multiprocessor."""

    n_processors: int = 4
    n_modules: int = 4
    n_blocks: int = 1024
    #: Cache geometry: paper's evaluation uses 128-block caches.
    cache_sets: int = 32
    cache_assoc: int = 4
    replacement: str = "lru"
    protocol: str = "twobit"
    network: str = "xbar"
    #: Switch radix of the delta network (ignored by other networks).
    delta_radix: int = 2
    timing: TimingConfig = field(default_factory=TimingConfig)
    options: ProtocolOptions = field(default_factory=ProtocolOptions)
    #: Route BROADINV/BROADQUERY (and the classical invalidation line)
    #: through the sparse copy-holder index: per-cache events are
    #: enqueued only for caches that may hold a copy, while the paper's
    #: broadcast cost model is still charged in full (see
    #: docs/performance.md#scaling-to-large-n).  Requires the
    #: equivalence envelope checked in ``__post_init__``; the dense path
    #: stays the default and the two are asserted state-equivalent by
    #: the twin test tier.
    sparse_fanout: bool = False
    seed: int = 1984
    #: Abort the run if the oracle sees a stale read (leave on).
    strict_coherence: bool = True
    #: Randomize the order of same-cycle simulator events (reproducibly
    #: per seed); None keeps strict submission order.  Used by the
    #: property tests to explore event orderings a fixed tie-break never
    #: produces.
    tie_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_processors < 1:
            raise ValueError("need at least one processor")
        if self.n_modules < 1:
            raise ValueError("need at least one memory module")
        if self.n_blocks < 1:
            raise ValueError("need at least one block")
        if self.cache_sets < 1 or self.cache_assoc < 1:
            raise ValueError("cache geometry must be positive")
        if self.delta_radix < 2:
            raise ValueError("delta_radix must be >= 2")
        # Imported here: the registry imports this module.
        from repro.protocols.registry import protocol_names, resolve

        names = protocol_names()
        if self.protocol not in names:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; choose from {names}"
            )
        if self.network not in NETWORKS:
            raise ValueError(
                f"unknown network {self.network!r}; choose from {NETWORKS}"
            )
        spec = resolve(self.protocol)
        if self.network not in spec.networks:
            raise ValueError(
                f"{self.protocol} ({spec.description}) runs on network "
                f"{' or '.join(spec.networks)}, not {self.network!r}"
            )
        if self.sparse_fanout:
            self._validate_sparse_envelope()

    def _validate_sparse_envelope(self) -> None:
        """The option combination under which sparse == dense, exactly.

        * ``network != "bus"``: a bus broadcast is one hardware
          transaction observed by everyone — there is no per-recipient
          fan-out to thin out, and the snooping schemes depend on every
          cache observing it.
        * ``duplicate_directory``: without §4.4's duplicate directory a
          useless snoop steals an array cycle at the snooped cache;
          skipping the delivery would then change that cache's timing.
          With it, an absent-block snoop is filtered for free — exactly
          the work the sparse path elides.
        * ``not invalidation_acks``: with acks on, round completion runs
          inside the last recipient's INV_ACK handler; a thinner
          recipient set would move that completion in time.
        * ``bias_filter_entries == 0``: skipped caches would miss BIAS
          insertions and diverge on later filtered snoops.
        """
        if self.network == "bus":
            raise ValueError("sparse_fanout is meaningless on a snooping bus")
        opts = self.options
        if not opts.duplicate_directory:
            raise ValueError(
                "sparse_fanout requires options.duplicate_directory=True "
                "(skipped caches must not owe a stolen array cycle)"
            )
        if opts.invalidation_acks:
            raise ValueError(
                "sparse_fanout requires options.invalidation_acks=False "
                "(ack-driven round completion is not position-independent)"
            )
        if opts.bias_filter_entries:
            raise ValueError(
                "sparse_fanout requires options.bias_filter_entries=0 "
                "(skipped caches would miss BIAS insertions)"
            )

    @property
    def cache_blocks(self) -> int:
        return self.cache_sets * self.cache_assoc

    def with_(self, **changes) -> "MachineConfig":
        """Functional update helper (``dataclasses.replace`` wrapper)."""
        return replace(self, **changes)
