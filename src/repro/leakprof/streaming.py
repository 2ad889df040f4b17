"""Online suspect scoring: LeakProf's incremental collector.

The batch pipeline re-sweeps every instance snapshot on each daily run —
O(total parked goroutines) per run even though almost none of them
changed.  The streaming fleet already knows exactly what changed: the
delta plane ships each goroutine record once (plus a tombstone when it
finishes).  :class:`OnlineSuspectScorer` folds that stream into one
:class:`~repro.leakprof.detector.SignatureAccumulator` per instance, so
producing the current suspect set is O(signatures), not O(goroutines).

Parity holds by construction: ``scan_profile`` and the scorer answer
through the same accumulator — ``scan_profile`` keyed by profile
position, the scorer keyed by gid.  A view's profile lists records in
ascending-gid order, so both orderings agree and
:meth:`OnlineSuspectScorer.suspects` returns a list equal to
``scan_fleet([view.snapshot().profile() ...])`` over the same views
(still asserted per-window by ``bench_fleet_scale.py`` and
property-tested in ``tests/test_streaming_delta.py``).

Under async fleet windows the scorer's inputs are watermark-ordered:
the parent feeds it only *committed* windows (every shard reported the
window), in order, in shard-index order within a window — so
``suspects()`` always answers at the fleet watermark ``W`` and is
byte-identical to a lockstep run advanced exactly ``W`` windows, no
matter how far ahead individual shards are running.  The watermark
rules are specified in ``docs/STREAMING_PROTOCOL.md`` §6.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.profiling import GoroutineRecord
from repro.snapshot.delta import InstanceView

from .detector import DEFAULT_THRESHOLD, SignatureAccumulator, Suspect

#: (service, index) — the fleet's instance key.
InstanceKey = Tuple[str, int]


class OnlineSuspectScorer:
    """Fold the fleet's delta stream into an always-current suspect index."""

    def __init__(self) -> None:
        self._instances: Dict[InstanceKey, SignatureAccumulator] = {}

    # -- stream input (called by the fleet during delta application) ----

    def on_record(self, key: InstanceKey, template: GoroutineRecord) -> None:
        """A record upsert: (re)file the gid under its current signature."""
        acc = self._instances.get(key)
        if acc is None:
            acc = self._instances[key] = SignatureAccumulator()
        if template.is_blocked:
            acc.file(template.gid, template)
        else:
            acc.unfile(template.gid)

    def on_tombstone(self, key: InstanceKey, gid: int) -> None:
        acc = self._instances.get(key)
        if acc is not None:
            acc.unfile(gid)

    def reset_instance(self, key: InstanceKey) -> None:
        """A full (re)ship replaces the instance's state wholesale."""
        self._instances.pop(key, None)

    # -- output ---------------------------------------------------------

    def suspects(
        self,
        views: Iterable[InstanceView],
        threshold: int = DEFAULT_THRESHOLD,
        apply_transient_filter: bool = True,
    ) -> List[Suspect]:
        """The current fleet-wide suspect set, batch-scan-identical.

        ``views`` come in the fleet's instance order (service add
        order, then index), so output ordering matches ``scan_fleet``
        over snapshots taken in that order; each view's
        ``(service, index)`` is its key here.
        """
        suspects: List[Suspect] = []
        for view in views:
            acc = self._instances.get((view.service, view.index))
            if acc is None:
                continue
            suspects.extend(
                acc.suspects(
                    view.record_at,
                    view.service,
                    view.name,
                    threshold=threshold,
                    apply_transient_filter=apply_transient_filter,
                )
            )
        return suspects
