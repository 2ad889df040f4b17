"""Serializable observation plane: immutable snapshots of runtimes,
instances, and services that every detection tool consumes — the contract
that lets fleet instances run in worker processes (see repro.fleet.shard).
"""

from .delta import DeltaTracker, InstanceView
from .model import (
    GCSnapshot,
    InstanceSnapshot,
    RuntimeSnapshot,
    ServiceSnapshot,
    snapshot_instance,
    snapshot_runtime,
    snapshot_service,
)

__all__ = [
    "DeltaTracker",
    "GCSnapshot",
    "InstanceSnapshot",
    "InstanceView",
    "RuntimeSnapshot",
    "ServiceSnapshot",
    "snapshot_instance",
    "snapshot_runtime",
    "snapshot_service",
]
