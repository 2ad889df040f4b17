"""Fleet-wide profile collection (§V-A, "Profile collection").

LeakProf fetches goroutine profiles once per day from every service
instance over the network.  The collector does the same against the fleet
simulator, and it is snapshot-first: every instance is frozen into an
:class:`repro.snapshot.InstanceSnapshot` (live instances are snapshotted
on the spot; sharded fleets ship snapshots from their worker processes),
the profile is built from the frozen state, then serialized to the pprof
text format and parsed back — the round-trip mirrors the network transfer
and guarantees the detector only sees what a real profile file contains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Protocol, Tuple

from repro.profiling import GoroutineProfile, dump_text, parse_text
from repro.snapshot import InstanceSnapshot


class Profilable(Protocol):
    """Anything exposing a pprof endpoint: (service, instance, profile)."""

    def profile(self) -> GoroutineProfile:  # pragma: no cover - protocol
        ...


@dataclass
class SweepStats:
    """Bookkeeping for one collection sweep (the §V-B overhead numbers)."""

    instances_swept: int = 0
    goroutines_seen: int = 0
    bytes_transferred: int = 0
    #: Parked goroutines across swept instances, taken from each
    #: snapshot's O(1) census *before* the profile is even serialized —
    #: the cheap fleet-health headline a sweep can report instantly.
    blocked_goroutines: int = 0


def _freeze(instance) -> Optional[InstanceSnapshot]:
    """Resolve one sweep target to an :class:`InstanceSnapshot`.

    Already-frozen snapshots pass through (the sharded-fleet path);
    live instances exposing ``snapshot()`` or the ServiceInstance shape
    are frozen here.  Returns None for bare Profilables, which fall back
    to the direct-profile path.
    """
    if isinstance(instance, InstanceSnapshot):
        return instance
    take = getattr(instance, "snapshot", None)
    if callable(take):
        frozen = take()
        if isinstance(frozen, InstanceSnapshot):
            return frozen
    return None


def sweep(
    instances: Iterable[Profilable],
) -> Tuple[List[GoroutineProfile], SweepStats]:
    """Collect one profile from every instance (live or snapshot).

    Each profile goes through the text serialization round-trip, as
    over the wire.  The blocked-goroutine headline is read from each
    snapshot's O(1) census rather than recounted from the parsed
    profile.
    """
    stats = SweepStats()
    profiles: List[GoroutineProfile] = []
    for instance in instances:
        frozen = _freeze(instance)
        if frozen is not None:
            stats.blocked_goroutines += frozen.runtime.blocked_goroutines
            profile = frozen.profile()
        else:
            runtime = getattr(instance, "runtime", None)
            if runtime is not None:
                stats.blocked_goroutines += runtime.blocked_goroutines_count
            profile = instance.profile()
        text = dump_text(profile)
        stats.bytes_transferred += len(text)
        profile = parse_text(text)
        profiles.append(profile)
        stats.instances_swept += 1
        stats.goroutines_seen += len(profile)
    return profiles, stats
