"""Versioned snapshot/restore of a running :class:`~repro.system.machine.Machine`.

A checkpoint captures the *entire* simulation — kernel event heap, cache
line arrays and write-back buffers, directory state, in-flight network
messages, RNG streams, controller transaction state, fault-injector
state and telemetry counters — such that::

    restore(checkpoint(machine)).continue_run()

is bit-identical to never having stopped (asserted by the golden tests
for every registry protocol, fault-free and faulted).  The machine graph
is deep-pickled as one object, which preserves every internal alias
(heap entries referencing the same ``Message`` objects as component
queues, caches sharing their workload, ...).

File format
-----------
A magic line, one JSON header line, then the pickle payload::

    %REPRO-CKPT\\n
    {"schema_version": 1, "code_version": ..., "cycle": ..., ...}\\n
    <pickle bytes>

The header is readable without unpickling (:func:`peek`) and carries a
SHA-256 of the payload; :func:`load` verifies it, the results
``schema_version`` (see :mod:`repro.schema`) and the ``code_version``
digest of the ``repro`` sources — a checkpoint taken under different
simulator code would not resume bit-identically, so the mismatch is a
loud :class:`CheckpointError`, overridable with
``allow_code_mismatch=True``.

The simulator numbers the transactions the protocols match by identity
(:meth:`~repro.sim.kernel.Simulator.uid`), so the uid counter is part
of the pickled machine: a restore in a fresh process continues it with
no process-wide state to repair.  A payload whose simulator has no
counter (one taken before the simulator owned it, forced through
``allow_code_mismatch``) is a :class:`CheckpointError`.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
from dataclasses import asdict, dataclass

from repro.atomic import atomic_write
from repro.schema import SCHEMA_VERSION, check_schema
from repro.sim.kernel import SimulationError

#: First line of every checkpoint file.
MAGIC = b"%REPRO-CKPT\n"

__all__ = [
    "MAGIC",
    "CheckpointError",
    "CheckpointHeader",
    "fingerprint",
    "load",
    "peek",
    "resolve_path",
    "restore_bytes",
    "save",
    "snapshot_bytes",
]

class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read or safely restored."""


@dataclass(frozen=True)
class CheckpointHeader:
    """The JSON header of a checkpoint file (readable via :func:`peek`)."""

    schema_version: int
    code_version: str
    protocol: str
    n_processors: int
    cycle: int
    events_processed: int
    payload_sha256: str
    payload_size: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CheckpointHeader":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
        if isinstance(raw, dict):
            raw.pop("uid_floors", None)  # written by older builds; unused
        try:
            return cls(**raw)
        except TypeError as exc:
            raise CheckpointError(
                f"checkpoint header has unexpected fields: {exc}"
            ) from exc


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def snapshot_bytes(machine) -> bytes:
    """Serialize ``machine`` to the full checkpoint file format."""
    from repro.runner.cache import code_version

    try:
        payload = pickle.dumps(machine, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"machine is not picklable: {exc!r} — a component is holding "
            f"a lambda, generator or other unpicklable state"
        ) from exc
    header = CheckpointHeader(
        schema_version=SCHEMA_VERSION,
        code_version=code_version(),
        protocol=machine.config.protocol,
        n_processors=machine.config.n_processors,
        cycle=machine.sim.now,
        events_processed=machine.sim.events_processed,
        payload_sha256=hashlib.sha256(payload).hexdigest(),
        payload_size=len(payload),
    )
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(header.to_json().encode("utf-8"))
    out.write(b"\n")
    out.write(payload)
    return out.getvalue()


def _split(data: bytes, context: str):
    if not data.startswith(MAGIC):
        raise CheckpointError(f"{context}: not a checkpoint (bad magic)")
    rest = data[len(MAGIC):]
    newline = rest.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"{context}: truncated checkpoint header")
    try:
        text = rest[:newline].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(
            f"{context}: corrupt checkpoint header: {exc}"
        ) from exc
    return CheckpointHeader.from_json(text), rest[newline + 1:]


class _Unpickler(pickle.Unpickler):
    """Unpickler naming any class the payload needs but this build lacks
    (a checkpoint restored with ``allow_code_mismatch`` across a change
    that removed or renamed a component)."""

    def find_class(self, module: str, name: str):
        try:
            return super().find_class(module, name)
        except (AttributeError, ImportError) as exc:
            raise CheckpointError(
                f"checkpoint needs {module}.{name}, which this build does "
                f"not have; it cannot be restored under this code version"
            ) from exc


def restore_bytes(data: bytes, allow_code_mismatch: bool = False):
    """Reconstruct a :class:`Machine` from :func:`snapshot_bytes` output.

    Verifies the magic, schema version, payload digest and (unless
    ``allow_code_mismatch``) that the ``repro`` sources are the ones the
    checkpoint was taken under, then unpickles the machine.  The kernel
    checks its event queue and uid counter as it unpickles; a simulator
    it could not run (another code version's entry layout, a crafted
    payload) is a :class:`CheckpointError`.
    """
    from repro.runner.cache import code_version

    header, payload = _split(data, "restore")
    check_schema(header.schema_version, "checkpoint")
    if len(payload) != header.payload_size:
        raise CheckpointError(
            f"truncated checkpoint: payload is {len(payload)} bytes, "
            f"header says {header.payload_size}"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.payload_sha256:
        raise CheckpointError("corrupt checkpoint: payload digest mismatch")
    if not allow_code_mismatch and header.code_version != code_version():
        raise CheckpointError(
            f"checkpoint was taken under code_version "
            f"{header.code_version}, this build is {code_version()}; a "
            f"resume would not be bit-identical (pass "
            f"allow_code_mismatch=True to restore anyway)"
        )
    try:
        return _Unpickler(io.BytesIO(payload)).load()
    except SimulationError as exc:
        raise CheckpointError(
            f"checkpoint holds an invalid simulator: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# File interface
# ----------------------------------------------------------------------
def resolve_path(path: str, cycle: int) -> str:
    """Expand a ``{cycle}`` placeholder in a checkpoint path template."""
    return path.replace("{cycle}", str(cycle))


def save(machine, path: str) -> str:
    """Write ``machine`` to ``path`` atomically; returns the final path.

    ``path`` may contain ``{cycle}``, replaced with the current
    simulation time — ``ckpt-{cycle}.bin`` keeps every interval's
    snapshot instead of overwriting one file.  The write is atomic
    (:func:`repro.atomic.atomic_write`): a crash mid-write never leaves
    a half-written checkpoint at the target path.
    """
    final = resolve_path(path, machine.sim.now)
    data = snapshot_bytes(machine)
    os.makedirs(os.path.dirname(final) or ".", exist_ok=True)
    with atomic_write(final) as fh:
        fh.write(data)
    return final


def load(path: str, allow_code_mismatch: bool = False):
    """Read and restore a checkpoint written by :func:`save`."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return restore_bytes(data, allow_code_mismatch=allow_code_mismatch)


def peek(path: str) -> CheckpointHeader:
    """Read only the header of a checkpoint file (no unpickling)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(65536)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    header, _ = _split(data, path)
    return header


# ----------------------------------------------------------------------
# State fingerprint (test/debug aid)
# ----------------------------------------------------------------------
def fingerprint(machine) -> str:
    """Digest of the machine's state, statistics and event count.

    Two machines that will behave identically from here on — an
    uninterrupted run and its checkpoint-restored twin at the same
    cycle — fingerprint equal; a clone whose caches, memory or
    directory differ does not.  Digests
    :func:`repro.verification.state.machine_state` (cache lines,
    write-back buffers, directory and memory contents, engine queues,
    in-flight messages, the event queue), the merged counters and the
    number of events processed.
    """
    from repro.verification.state import machine_state

    blob = repr(
        (
            machine_state(machine),
            sorted(machine.registry.merged().snapshot().items()),
            machine.sim.events_processed,
        )
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
