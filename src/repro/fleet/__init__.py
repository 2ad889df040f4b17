"""Microservice fleet simulator: services, instances, RSS/CPU models."""

from .checkpoint import (
    CheckpointUnsupported,
    checkpoint_instance,
    restore_instance,
)
from .cpu import CpuModel, DAY
from .determinism import aggregate_sample, build_instance, instance_seed
from .deployment import (
    Fleet,
    Service,
    ServiceConfig,
    ServiceSample,
    capacity_for,
)
from .service import InstanceMetrics, ServiceInstance, WINDOW_SECONDS
from .shard import ShardedFleet, ShardedService
from .workload import Handler, RequestMix, TrafficShape

__all__ = [
    "CheckpointUnsupported",
    "CpuModel",
    "DAY",
    "Fleet",
    "Handler",
    "InstanceMetrics",
    "RequestMix",
    "Service",
    "ServiceConfig",
    "ServiceSample",
    "ServiceInstance",
    "ShardedFleet",
    "ShardedService",
    "TrafficShape",
    "WINDOW_SECONDS",
    "aggregate_sample",
    "build_instance",
    "capacity_for",
    "checkpoint_instance",
    "instance_seed",
    "restore_instance",
]
