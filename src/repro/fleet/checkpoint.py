"""Worker-state checkpointing: bounded journal replay for streaming runs.

The sharded fleet supervises workers by journaling every mutating
command and replaying the journal into a fresh process after a crash
(PR 8).  Over a long-lived streaming run that journal grows without
bound — a crash in week three would replay three weeks of windows.
Checkpointing closes that hole: at a checkpoint boundary the worker
serializes each instance into a generator-free blob, the parent stores
the blob and truncates the shard's journal, and respawn becomes
*restore checkpoint, then replay the short tail*.

Why this is exact and not approximate: a checkpoint is only taken at a
quiescent window boundary, and only when the instance has **no pending
timers, no GC machinery, no recorded panics, no external roots, and no
runnable goroutines**.  Under those conditions every surviving goroutine
is parked forever — its generator frames can never run again, so
dropping them loses nothing observable.  What the blob keeps per
goroutine is exactly what observation needs (captured user frames,
state, ``blocked_since``, byte accounting, verdict) plus what future
behavior needs (RNG state, gid sequence position, counters).  A restored
instance is behaviorally identical: future requests draw the same
handler sequence, allocate the same gids, and produce byte-identical
``InstanceMetrics`` and snapshots — property-tested in
``tests/test_streaming_delta.py``.

Instances that violate the preconditions (e.g. gc-enabled services,
whose tracker holds live reference state) raise
:class:`CheckpointUnsupported`; the fleet keeps journaling for that
shard and simply counts the declined checkpoint.

The same blobs are the unit of shard *re-balancing*: an all-or-nothing
``evict`` checkpoints the moving instances out of their source worker
and ``adopt`` restores them on the target.  An entry is ``(slot,
blob)`` and carries no unshipped-change state: at a checkpoint every
live goroutine has been shipped and no sweep has run, so a restored
instance starts with an empty change set and an index of its restored
gids.  The blob dict and
the entry format are specified normatively in
``docs/STREAMING_PROTOCOL.md`` §5, the evict/adopt atomicity rules in
§7.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from repro.runtime import (
    BLOCKED_STATES,
    Goroutine,
    GoroutineState,
)

_STATE_BY_VALUE = {state.value: state for state in GoroutineState}

_CHANNEL_WAIT_STATES = (
    GoroutineState.BLOCKED_SEND,
    GoroutineState.BLOCKED_RECV,
)
# A module global, not an Enum class attribute (a metaclass lookup each).
_BLOCKED_SELECT = GoroutineState.BLOCKED_SELECT


class CheckpointUnsupported(RuntimeError):
    """The instance holds state a checkpoint cannot represent exactly."""


class _RestoredChannel:
    """Stand-in for a channel a parked goroutine was blocked on.

    Only the ``is_nil`` flag is observable through the profiling plane
    (``wait_detail`` says "nil" vs "chan"); the channel itself can never
    transfer again because no runnable code holds a reference to it.
    """

    __slots__ = ("is_nil",)

    def __init__(self, is_nil: bool):
        self.is_nil = is_nil

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_RestoredChannel(is_nil={self.is_nil})"


def _encode_wait(goro: Goroutine) -> Union[None, str, int]:
    if goro.state in _CHANNEL_WAIT_STATES:
        return "nil" if getattr(goro.waiting_on, "is_nil", False) else "chan"
    if goro.state is _BLOCKED_SELECT:
        return len(goro.waiting_on) if isinstance(goro.waiting_on, tuple) else 0
    return None


def _decode_wait(wait: Union[None, str, int]) -> Any:
    if wait == "nil":
        return _RestoredChannel(True)
    if wait == "chan":
        return _RestoredChannel(False)
    if isinstance(wait, int):
        return (None,) * wait
    return None


def checkpoint_instance(instance: Any) -> Dict[str, Any]:
    """Serialize one quiescent instance into a generator-free blob.

    Raises :class:`CheckpointUnsupported` when exactness cannot be
    guaranteed (see module docstring for the precondition argument).
    """
    runtime = instance.runtime
    if runtime._run_queue:
        raise CheckpointUnsupported("runnable goroutines pending")
    if runtime._live_timer_count:
        raise CheckpointUnsupported("live timers pending")
    if runtime._gc_state is not None or runtime._gc_timer is not None:
        raise CheckpointUnsupported("gc machinery enabled")
    if runtime.panics:
        raise CheckpointUnsupported("recorded panics present")
    if runtime.gc_roots:
        raise CheckpointUnsupported("external gc roots pinned")

    goroutines: List[Dict[str, Any]] = []
    for goro in runtime._goroutines.values():
        if not goro.alive:
            continue
        if goro.state not in BLOCKED_STATES:
            raise CheckpointUnsupported(
                f"goroutine {goro.gid} is {goro.state.value}, not parked"
            )
        goroutines.append({
            "gid": goro.gid,
            "name": goro.name,
            "state": goro.state.value,
            "frames": goro.stack(),
            "creation_ctx": goro.creation_ctx,
            "blocked_since": goro.blocked_since,
            "created_at": goro.created_at,
            "stack_bytes": goro.stack_bytes,
            "retained_bytes": goro.retained_bytes,
            "verdict": goro.gc_verdict,
            "is_main": goro.is_main,
            "wait": _encode_wait(goro),
        })

    return {
        "service": instance.service,
        "name": instance.name,
        "mix": instance.mix,
        "traffic": instance.traffic,
        "cpu_model": instance.cpu_model,
        "requests_served": instance.requests_served,
        "last_metrics": instance.last_metrics,
        "runtime": {
            "rng_state": runtime.rng.getstate(),
            "now": runtime.now,
            "steps": runtime.steps,
            "cpu_seconds": runtime.cpu_seconds,
            "spawned": runtime.goroutines_spawned,
            "finished": runtime.goroutines_finished,
            "base_rss": runtime.base_rss,
            "default_stack_bytes": runtime.default_stack_bytes,
            "goroutine_bytes": runtime._goroutine_bytes,
            "chan_bytes": runtime._chan_bytes,
        },
        "goroutines": goroutines,
    }


def restore_instance(blob: Dict[str, Any]) -> Any:
    """Rebuild a :class:`~repro.fleet.service.ServiceInstance` from a blob.

    Parked goroutines come back with ``gen=None`` and their captured
    stack pre-cached — indistinguishable to every observer, and inert
    to the scheduler (nothing can ever wake them; the checkpoint
    preconditions guaranteed that was already true).
    """
    from .service import ServiceInstance  # deferred: service imports obs stack

    runtime_state = blob["runtime"]
    instance = ServiceInstance(
        service=blob["service"],
        mix=blob["mix"],
        traffic=blob["traffic"],
        cpu_model=blob["cpu_model"],
        base_rss=runtime_state["base_rss"],
        seed=0,
        name=blob["name"],
        start_time=runtime_state["now"],
    )
    instance.requests_served = blob["requests_served"]
    instance.last_metrics = blob["last_metrics"]

    runtime = instance.runtime
    runtime.rng.setstate(runtime_state["rng_state"])
    runtime.steps = runtime_state["steps"]
    runtime.cpu_seconds = runtime_state["cpu_seconds"]
    runtime.goroutines_spawned = runtime_state["spawned"]
    runtime.goroutines_finished = runtime_state["finished"]
    runtime.default_stack_bytes = runtime_state["default_stack_bytes"]
    runtime._goroutine_bytes = runtime_state["goroutine_bytes"]
    runtime._chan_bytes = runtime_state["chan_bytes"]

    census = runtime._state_census
    main: Optional[Goroutine] = None
    for entry in sorted(blob["goroutines"], key=lambda e: e["gid"]):
        state = _STATE_BY_VALUE[entry["state"]]
        goro = Goroutine(
            gid=entry["gid"],
            gen=None,
            runtime=runtime,
            name=entry["name"],
            created_at=entry["created_at"],
            creation_ctx=entry["creation_ctx"],
            stack_bytes=entry["stack_bytes"],
            is_main=entry["is_main"],
        )
        goro.state = state
        goro.blocked_since = entry["blocked_since"]
        goro.retained_bytes = entry["retained_bytes"]
        goro.gc_verdict = entry["verdict"]
        goro.waiting_on = _decode_wait(entry["wait"])
        goro._cached_stack = tuple(entry["frames"])
        runtime._goroutines[goro.gid] = goro
        runtime._live_count += 1
        census[state.census_index] += 1
        if goro.is_main:
            main = goro
    if main is not None:
        runtime.main = main
    return instance
