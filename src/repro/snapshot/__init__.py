"""Serializable observation plane: immutable snapshots of runtimes and
instances that every detection tool consumes — the contract that lets
fleet instances run in worker processes (see repro.fleet.shard).
"""

from .model import (
    GCSnapshot,
    InstanceSnapshot,
    RuntimeSnapshot,
    snapshot_instance,
    snapshot_runtime,
)

__all__ = [
    "GCSnapshot",
    "InstanceSnapshot",
    "RuntimeSnapshot",
    "snapshot_instance",
    "snapshot_runtime",
]
