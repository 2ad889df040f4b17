"""Sharded fleet execution: process-parallel simulation over snapshots.

:class:`~repro.fleet.deployment.Fleet` steps every instance serially in
one process, so a production-scale fleet (the paper's ~10.7k instances)
is wall-clock bound long before it is interesting.  The blocker was the
runtime-observer contract, not the algorithms: once every observer
consumes :mod:`repro.snapshot` objects instead of live runtimes,
instances are free to live anywhere.

:class:`ShardedFleet` partitions a fleet's instances across N worker
processes.  Across the process boundary an instance has one address,
its **slot** (its position in service-add, then index order): commands
build, restart, evict and adopt instances by slot, and every reply
names them by slot.  Each worker files every instance's blocked
goroutines by gid in a
:class:`~repro.leakprof.detector.SignatureAccumulator` and ships
**per-signature deltas** (:mod:`repro.snapshot.delta`): one absolute
entry per changed signature.  The O(1) counters of every instance a
command touched ride the same reply as one compressed, slot-ordered
**stat block** of packed rows.  The parent checks every slot a reply
names against ownership, which lives only in the parent, and keeps
**one object per instance** (:class:`_RowMirror`): its slot and name,
its owning shard, its request mix, its committed stat row and one
summary per signature — nothing that grows with the instance's
goroutines.  ``suspects()`` judges the summaries with the criteria
batch ``scan_profile`` applies, with no wire traffic; ``snapshots()``
pulls full snapshots from the workers, LeakProf's collection model.
:meth:`~ShardedFleet.resync` is an on-demand anti-entropy full reship;
``checkpoint_every`` bounds crash-replay cost (below).  Deploys,
partial deploys, and remedy rollouts travel to the owning shards as
commands.

Asynchronous windows and the fleet watermark
--------------------------------------------
Shards are not bound to lockstep.  Every worker keeps a
``window_seq`` counter, bumps it on each ``advance`` command, and
sends it with every reply: the shard watermark.  The parent buffers
out-of-phase replies per shard, tracks each shard's watermark, and
*commits* windows in order once every shard has reached them: the
**fleet watermark**
``W = min(shard watermarks)`` (:attr:`ShardedFleet.watermark`).  The
instance records and ``ServiceSample`` histories only ever contain
committed state, so ``suspects()`` answered at watermark ``W`` is
list-equal to a lockstep run advanced exactly ``W`` windows —
property-gated in ``tests/test_streaming_delta.py``.

Windows advance one way: a *pump round* gives every idle shard its
next registered window if it is within the goal and ``max_lead`` of the
fleet watermark, then polls.  :meth:`run_days` pumps in lockstep
(``max_lead=1``) unless given a larger lead; ``advance_window`` pumps
one window; :meth:`barrier` drains, then pumps laggards up to the
fastest shard — and every whole-fleet operation that must observe one
instant (``checkpoint``/``resync``/``snapshots``/deploys/``rebalance``/an
advance) starts with one.  :meth:`begin_advance`/:meth:`poll` let a
caller pace shards itself.  Every reply's window is checked in one
place as it is received: one that is not the shard watermark + 1 (an
advance) or the watermark itself (any other command) is rejected as a
protocol violation.  A committed row raises its record's watermark to its
reply's window, and a delta older than a record's own watermark is
dropped before it can resurrect a signature a newer delta removed
(``stale_deltas``).

Re-balancing
------------
:meth:`ShardedFleet.rebalance` moves instances between workers through
the checkpoint path (:mod:`repro.fleet.checkpoint`): the source worker
checkpoints and evicts the moving instances (all-or-nothing — an
instance that cannot be checkpointed exactly declines the whole
eviction), the target worker adopts the ``(slot, blob)`` entries and
resumes their delta tracking, and the parent sets each moved
instance's one record to its new shard.  Both ``evict`` and ``adopt``
are journaled, so a SIGKILL at any boundary replays to byte-identical
state (chaos scenario ``rebalance_crash``).  Moves are always explicit: because results are
topology-invariant, a rebalance never changes what the fleet computes —
only which worker computes it.

Determinism guarantee
---------------------
Every instance's runtime is a pure function of its seed, and instance
seeds depend only on (service seed, deploy generation, index) — never on
shard topology.  The parent re-aggregates per-window samples in index
order with exactly the arithmetic ``Service.advance_window`` uses, so
for a fixed seed the ``ServiceSample`` histories of a 1-shard, N-shard,
and single-process run are byte-identical (tested
property-style in ``tests/test_sharded_fleet.py``), and the suspects
judged from an instance's summaries equal ``scan_profile`` over the
snapshot pulled from its worker (``tests/test_streaming_delta.py``).

Supervision guarantee
---------------------
The same purity is what makes crash recovery *provably correct*.  The
parent keeps, per shard, a journal of every state-mutating command
(``init``/``advance``/``restart``/``evict``/``adopt``) since
``start()``.  Worker replies are collected by one wait with a deadline
instead of a blocking ``recv()``, so a dead worker (SIGKILL'd, OOM'd,
wedged) is *detected* — by its process sentinel, pipe EOF, or
deadline expiry — never waited on forever.  Recovery respawns the
worker and replays its journal: every instance is rebuilt through
``fleet.determinism.build_instance`` and re-advanced through the exact
windows it had already seen, so the respawned shard's state — and
therefore the fleet's ``ServiceSample`` history — is byte-identical to
a run where the worker never died.  The in-flight command is the
journal's last entry (or is re-sent, if it was a read), so no window
and no resync, pull or checkpoint request is ever lost.  Delta entries
carry absolute values and are watermark-guarded, so a replayed window
folding into an already-current record changes nothing.

Checkpointing bounds the replay: every ``checkpoint_every`` full-fleet
windows the parent asks each worker to serialize its instances
(:mod:`repro.fleet.checkpoint`); an ``ok`` reply truncates that shard's
journal, and respawn becomes *restore checkpoint, then replay the
post-checkpoint tail* — so replay cost after a late-week crash is
bounded by the cadence, not the uptime (chaos scenario
``checkpoint_crash``).  Workers whose instances cannot be checkpointed
exactly (e.g. gc-enabled services) decline, keep their journal, and are
simply counted.

Fault injection rides the same machinery: ``ShardedFleet(chaos=...)``
accepts a :class:`repro.chaos.ShardChaos` adapter that can kill the
worker, drop the message, or corrupt it at any command boundary — no
monkeypatching, and the supervision path above is the one that heals
every case (chaos-property-tested in ``tests/test_chaos.py``).
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import zlib
from collections import deque
from multiprocessing.connection import wait as _mp_wait
from operator import itemgetter
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro import obs
from repro.leakprof.detector import (
    DEFAULT_THRESHOLD,
    SignatureAccumulator,
    Suspect,
    judge,
)
from repro.obs.fold import fold, well_formed
from repro.obs.registry import monotonic as _monotonic
from repro.profiling import GoroutineRecord, snapshot_goroutine
from repro.snapshot import InstanceSnapshot, snapshot_instance
from repro.snapshot.delta import (
    F_BLOCKED,
    F_CPU,
    F_GOROUTINES,
    F_RSS,
    F_T,
    ROW_BYTES,
    SignatureEntry,
    WireDelta,
    WireRecord,
    pack_row,
    unpack_rows,
    wire_record,
)

from .checkpoint import (
    CheckpointUnsupported,
    checkpoint_instance,
    restore_instance,
)
from .deployment import RolloutBase, ServiceConfig, ServiceSample, publish_health
from .determinism import aggregate_sample, build_instance as _build_instance
from .service import (
    ServiceInstance,
    WINDOW_SECONDS,
    drain,
    windows_in,
)
from .workload import RequestMix

# _build_instance is repro.fleet.determinism.build_instance — the same
# callable ``Service._make_instance`` delegates to.  An instance built in
# shard 3 of 8 is structurally the same pure function as one built
# inline by a single-process ``Service``; no copy to keep in sync.


#: Commands whose replies carry delta payloads and a stat block.
_DELTA_COMMANDS = frozenset({"init", "advance", "restart", "resync"})

#: The row fields ``aggregate_sample`` folds, in its order.
_SAMPLE_FIELDS = itemgetter(F_RSS, F_BLOCKED, F_CPU, F_GOROUTINES)


def _ship(index: SignatureAccumulator, runtime, gids) -> List[SignatureEntry]:
    """File the current records of ``gids`` into ``index`` (unfiling any
    not channel-blocked or finished); return one entry per signature
    they left or joined, in signature order."""
    goroutines = runtime._goroutines
    signature_of = index.signature_of
    touched = set()
    for gid in gids:
        touched.add(signature_of(gid))
        goro = goroutines.get(gid)
        if goro is not None and goro.state.channel_blocked:
            index.file(gid, snapshot_goroutine(goro, 0.0))
            touched.add(signature_of(gid))
        else:
            index.unfile(gid)
    touched.discard(None)
    entries: List[SignatureEntry] = []
    for signature in sorted(touched):
        summary = index.summary(signature)
        entries.append(
            signature + (0, 0, False, None) if summary is None
            else summary[:5] + (wire_record(goroutines[summary[5]]),)
        )
    return entries


def _shard_worker(conn) -> None:
    """One worker process: owns a set of instances, obeys shard commands.

    Protocol: the parent sends one tuple, the worker answers with one
    ``(kind, window_seq, payload)`` tuple.  Per shard the exchange is
    strictly sequential, so a broadcast can send to every worker first
    and then collect, overlapping their compute — and shards need not be
    in phase with each other: every reply carries this worker's
    ``window_seq`` watermark.  Every command and reply names instances
    by slot; which shard owns a slot is known only to the parent.
    """
    #: slot -> instance (init and adopt add, restart overwrites in
    #: place, evict deletes).  Each runtime's ``_delta`` is the set of
    #: gids that parked, woke or took a new gc verdict since its last
    #: ship.
    instances: Dict[int, ServiceInstance] = {}
    #: slot -> the instance's blocked goroutines filed by gid.
    signatures: Dict[int, SignatureAccumulator] = {}
    #: Windows this worker has advanced — the shard watermark.  Carried
    #: by every reply; rebuilt exactly by journal replay, and through a
    #: checkpoint by the ``restore`` command.
    window_seq = 0
    #: CPU-second anchor taken after init/restore, so the ``stop`` reply
    #: reports pure post-construction work (advance + ship + pickle) —
    #: the worker's half of the protocol-overhead accounting.
    cpu_anchor = 0.0

    def _reindex(slot: int) -> List[SignatureEntry]:
        """Index ``slot``'s live goroutines afresh: its full entries."""
        runtime = instances[slot].runtime
        runtime._delta.clear()
        index = signatures[slot] = SignatureAccumulator()
        return _ship(index, runtime, runtime._goroutines)

    def _freeze(slots) -> Dict[str, Any]:
        """Checkpoint the instances in ``slots``, all or nothing: the
        payload carries a ``(slot, blob)`` entry for each, or the reason
        the first instance that cannot be checkpointed exactly
        declined."""
        entries = []
        try:
            for slot in slots:
                inst = instances.get(slot)
                if inst is None:
                    raise CheckpointUnsupported(f"unknown slot {slot}")
                if inst.runtime._delta:  # pragma: no cover
                    # a barrier precedes every checkpoint and eviction
                    raise CheckpointUnsupported(
                        f"unshipped deltas for {inst.name}"
                    )
                entries.append((slot, checkpoint_instance(inst)))
        except CheckpointUnsupported as exc:
            return {"ok": False, "reason": str(exc)}
        return {"ok": True, "entries": entries}

    def _thaw(entries) -> None:
        """Restore checkpointed instances, each with an empty change set
        and an index of its restored goroutines: nothing is unshipped at
        a checkpoint, so that is what the parent's summaries reflect."""
        for slot, blob in entries:
            inst = instances[slot] = restore_instance(blob)
            inst.runtime._delta = set()
            _reindex(slot)

    def _delta_reply(slots, full: bool = False):
        """The reply to a delta command over the instances in ``slots``.

        Each instance's changed gids are shipped (:func:`_ship`); ``full``
        re-indexes its live goroutines.  Entries name only instances
        with something to report.  Every instance in ``slots`` gets a
        stat row: the block is their packed rows in slot order,
        compressed as one buffer (rows of instances in one window repeat
        heavily).  The last element drains their run, window and sweep
        tallies: this command's only, so a reply that replay discards
        never counts twice.
        """
        slots = sorted(slots)
        entries: List[WireDelta] = []
        for slot in slots:
            if full:
                entries.append((slot, True, _reindex(slot)))
                continue
            runtime = instances[slot].runtime
            changed = _ship(signatures[slot], runtime, runtime._delta)
            runtime._delta.clear()
            if changed:
                entries.append((slot, False, changed))
        touched = [instances[slot] for slot in slots]
        block = zlib.compress(b"".join(map(pack_row, touched)), 1)
        return ("delta", window_seq, (
            tuple(slots), block, entries, drain(touched),
        ))

    def _build(config, seed, deploy_gen, pairs, mix, start_time):
        """Build the instances of ``(slot, index)`` pairs, each with an
        empty change set (its first ship is full); return their slots."""
        for slot, index in pairs:
            inst = _build_instance(
                config, seed, deploy_gen, index, mix, start_time
            )
            inst.runtime._delta = set()
            instances[slot] = inst
        return [slot for slot, _index in pairs]

    try:
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "init":
                for config, seed, deploy_gen, pairs, start_time in msg[1]:
                    _build(config, seed, deploy_gen, pairs, config.mix,
                           start_time)
                conn.send(_delta_reply(instances, full=True))
                cpu_anchor = time.process_time()
            elif cmd == "advance":
                window, only = msg[1], msg[2]
                window_seq += 1
                advanced: List[int] = []
                for slot, inst in instances.items():
                    if only is None or inst.service == only:
                        inst.advance_window(window)
                        advanced.append(slot)
                conn.send(_delta_reply(advanced))
            elif cmd == "restart":
                conn.send(_delta_reply(_build(*msg[1:]), full=True))
            elif cmd == "resync":
                # Anti-entropy: reship everything, indexes rebuilt.
                conn.send(_delta_reply(instances, full=True))
            elif cmd == "snapshots":
                # The pull: every owned instance's snapshot, pickled and
                # compressed as one buffer (instances repeat heavily).
                slots = sorted(instances)
                conn.send(("snapshots", window_seq, (
                    tuple(slots), zlib.compress(pickle.dumps([
                        snapshot_instance(instances[slot]) for slot in slots
                    ]), 1),
                )))
            elif cmd == "checkpoint":
                conn.send(("checkpoint", window_seq, _freeze(instances)))
            elif cmd == "evict":
                # Re-balance, source side: checkpoint the moving
                # instances, then drop them.  A decline leaves worker
                # state untouched — deterministic, so a journal replay
                # of a declined evict re-declines.
                reply = _freeze(msg[1])
                if reply["ok"]:
                    for slot in msg[1]:
                        del instances[slot]
                        del signatures[slot]
                conn.send(("evicted", window_seq, reply))
            elif cmd == "adopt":
                # Re-balance, target side: restore the blobs and resume
                # their delta tracking exactly where the source left off.
                _thaw(msg[1])
                conn.send(("adopted", window_seq, None))
            elif cmd == "restore":
                window_seq, entries = msg[1]
                instances.clear()
                signatures.clear()
                _thaw(entries)
                conn.send(("ok", window_seq, None))
                cpu_anchor = time.process_time()
            elif cmd == "stop":
                conn.send(("ok", window_seq, time.process_time() - cpu_anchor))
                return
            else:  # pragma: no cover - protocol guard
                conn.send(("error", window_seq, f"unknown command {cmd!r}"))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown
        return


class _RowMirror:
    """The parent's one record of one remote instance.

    Holds the instance's identity (``slot``, ``service``, ``index``,
    ``name``), its owning ``shard`` (the only place ownership lives; a
    rebalance rewrites this one field), the ``mix`` it runs,
    ``summaries`` (signature -> the last
    :data:`~repro.snapshot.delta.SignatureEntry` shipped for it),
    ``window`` (the highest shard window folded in, its watermark) and
    ``row`` (the committed stat row, unpacked; ``None`` before the
    first commit) — nothing that grows with the instance's goroutines.
    Exposes the observability slice of :class:`ServiceInstance`
    (``rss()``, ``leaked_goroutines()``, ``cpu_utilization()``,
    ``mix``) so consumers like :class:`repro.remedy.StagedRollout`
    drive a sharded service exactly as they drive a live one.
    """

    __slots__ = ("slot", "service", "index", "name", "shard", "mix",
                 "summaries", "window", "row")

    def __init__(
        self, slot: int, service: str, index: int, name: str, shard: int,
        mix: RequestMix,
    ):
        self.slot = slot
        self.service = service
        self.index = index
        self.name = name
        self.shard = shard
        self.mix = mix
        self.summaries: Dict[Tuple[str, str], SignatureEntry] = {}
        self.window = -1
        self.row: Optional[Tuple] = None

    @property
    def key(self) -> Tuple[str, int]:
        return (self.service, self.index)

    def commit(self, row: Tuple, window: int) -> None:
        """Make ``row``, from a reply at ``window``, the committed row."""
        self.row = row
        if window > self.window:
            self.window = window

    def apply(self, delta: WireDelta, window: int) -> bool:
        """Fold one delta, shipped at shard window ``window``, into
        ``summaries``.

        A delta older than the record's watermark is refused (``False``)
        unless it is ``full``, so a late delta cannot resurrect a
        signature a newer one removed; entries are absolute, so
        equal-window re-application is idempotent, which crash replay
        relies on.  A ``full`` delta replaces the signature set.
        """
        _slot, full, entries = delta
        if window < self.window and not full:
            return False
        if window > self.window:
            self.window = window
        summaries = self.summaries
        if full:
            summaries.clear()
        for entry in entries:
            if entry[2]:
                summaries[entry[:2]] = entry
            else:
                summaries.pop(entry[:2], None)
        return True

    def represent(self, wire: WireRecord) -> GoroutineRecord:
        """A representative as of the committed row's instant: the
        template aged by (row time − blocked_since), the formula
        ``snapshot_goroutine`` uses."""
        template, blocked_since = wire
        if blocked_since is None:
            return template
        age = max(0.0, self.row[F_T] - blocked_since)
        return template.aged(age) if age else template

    def suspects(
        self, threshold: int, apply_transient_filter: bool = True
    ) -> List[Suspect]:
        """The instance's suspects, judged from its summaries."""
        return judge(
            self.summaries.values(), self.represent, self.service,
            self.name, threshold=threshold,
            apply_transient_filter=apply_transient_filter,
        )

    def _field(self, index: int, default):
        row = self.row
        return row[index] if row is not None else default

    @property
    def t(self) -> float:
        return self._field(F_T, 0.0)

    def rss(self) -> int:
        return self._field(F_RSS, 0)

    def leaked_goroutines(self) -> int:
        return self._field(F_BLOCKED, 0)

    def cpu_utilization(self) -> float:
        return self._field(F_CPU, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<_RowMirror {self.name!r} shard={self.shard}>"


class ShardedService(RolloutBase):
    """The parent-side handle for one service running across shards.

    API-compatible with :class:`~repro.fleet.deployment.Service` for
    everything the observers and remedy rollouts touch: ``config``,
    ``deploys``, ``history``, ``now``, ``instances`` (the
    :class:`_RowMirror` records), ``advance_window``, and — from the
    shared :class:`~repro.fleet.deployment.RolloutBase` — ``deploy``,
    ``partial_deploy``, ``instances_on``, ``peak_rss`` and
    ``peak_instance_rss``.  Its ``_restart`` hook sends the owning
    shards a ``restart`` command.
    """

    def __init__(self, fleet: "ShardedFleet", config: ServiceConfig, seed: int):
        self._fleet = fleet
        self.config = config
        self.seed = seed
        self.deploys = 0
        self.history: List[ServiceSample] = []
        self.instances: List[_RowMirror] = []

    @property
    def now(self) -> float:
        return self.instances[0].t if self.instances else 0.0

    def _pairs_by_shard(self, indices) -> Dict[int, List[Tuple[int, int]]]:
        """The ``(slot, index)`` pairs of ``indices``, by owning shard:
        what ``init`` and ``restart`` commands carry."""
        by_shard: Dict[int, List[Tuple[int, int]]] = {}
        for index in indices:
            record = self.instances[index]
            by_shard.setdefault(record.shard, []).append(
                (record.slot, index)
            )
        return by_shard

    def _restart(self, indices: List[int], mix: RequestMix) -> None:
        """Restart ``indices`` on ``mix`` as shard commands, at a barrier."""
        fleet = self._fleet
        fleet.barrier()
        start_time = self.now
        fleet._exchange_deltas([
            (shard, ("restart", self.config, self.seed, self.deploys,
                     pairs, mix, start_time))
            for shard, pairs in self._pairs_by_shard(indices).items()
        ])
        for index in indices:
            self.instances[index].mix = mix

    def advance_window(self, window: float = WINDOW_SECONDS) -> ServiceSample:
        """Advance only this service's instances, fleet-parallel."""
        self._fleet._advance(1, window, only=self.config.name)
        return self.history[-1]


class _WorkerFault(Exception):
    """A shard worker died, wedged, or replied garbage mid-command."""

    def __init__(self, shard: int, reason: str):
        super().__init__(f"shard {shard}: {reason}")
        self.shard = shard
        self.reason = reason


#: Commands that mutate worker state and therefore must be journaled.
#: ``resync``/``snapshots``/``checkpoint`` are reads of worker state
#: (re-sent, not replayed, after a respawn — a resync or pull reply is
#: authoritative whenever it arrives, and a checkpoint re-taken after
#: replay captures the identical state); ``restore`` is injected by the
#: supervisor outside the journal; and ``stop`` is terminal.
#: ``evict``/``adopt`` (re-balancing) are mutating: replaying an evict
#: re-declines or re-drops the same instances, replaying an adopt
#: re-restores the same blobs.
_MUTATING = frozenset({"init", "advance", "restart", "evict", "adopt"})


class ShardedFleet:
    """A fleet whose instances live in N worker processes.

    Usage::

        with ShardedFleet(shards=4) as fleet:
            payments = fleet.add_service(config, seed=1)
            fleet.start()
            fleet.run_days(7.0)               # lockstep windows
            fleet.run_days(7.0, max_lead=2)   # shards free-run (watermarked)
            suspects = fleet.suspects(threshold=10_000)   # O(1) wire
            result = leakprof.daily_run(fleet.snapshots(), now=1.0)

    ``add_service`` must happen before ``start``; deploys and partial
    deploys work any time after.  Instances are assigned round-robin
    across shards in (service add order, index) order — the assignment
    affects only wall-clock balance, never results — and can be moved
    later with :meth:`rebalance`.

    Streaming knob:

    * ``checkpoint_every`` — full-fleet windows between worker
      checkpoints (0 = off).  A successful checkpoint truncates that
      shard's journal, bounding crash-replay cost.

    Supervision knobs:

    * ``worker_deadline`` — seconds the parent waits for one reply
      before declaring the worker wedged and respawning it;
    * ``max_respawns`` — total worker respawns tolerated per fleet
      lifetime before supervision gives up (a crash-loop breaker);
    * ``chaos`` — optional fault injector with a
      ``plan(shard, op_index, command)`` method returning ``None``,
      ``"kill"``, ``"drop"``, or ``"corrupt"``
      (:class:`repro.chaos.ShardChaos` is the shipped implementation).
    """

    def __init__(
        self,
        shards: int = 2,
        chaos: Optional[Any] = None,
        worker_deadline: float = 30.0,
        max_respawns: int = 8,
        checkpoint_every: int = 0,
    ):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.num_shards = shards
        self.checkpoint_every = checkpoint_every
        self.services: Dict[str, ShardedService] = {}
        self._conns: List[Any] = [None] * shards
        self._procs: List[Optional[multiprocessing.Process]] = [None] * shards
        self._started = False
        self._closed = False
        self.chaos = chaos
        self.worker_deadline = worker_deadline
        self.max_respawns = max_respawns
        self.worker_restarts = 0
        #: per shard: every mutating command since the last checkpoint
        #: (since start() when checkpointing is off), replay-ready.
        self._journal: List[List[Tuple]] = [[] for _ in range(shards)]
        #: per shard: outbound command ordinal (the chaos hook coordinate).
        self._op_index: List[int] = [0] * shards
        #: per shard: the latest accepted checkpoint as ``(window_seq,
        #: entries)``, what a ``restore`` command carries.
        self._checkpoints: List[Optional[Tuple[int, List]]] = [None] * shards
        # -- streaming state -------------------------------------------
        #: Every instance's record, indexed by stat-row slot (service-add
        #: then index order) and by (service, index) key.
        self._by_slot: List[_RowMirror] = []
        self._by_key: Dict[Tuple[str, int], _RowMirror] = {}
        # -- async window state ----------------------------------------
        #: per shard: highest window received (the shard watermark).
        self._shard_window: List[int] = [0] * shards
        #: Fleet watermark W: highest window folded into the instance
        #: records and histories — always min(shard watermarks).
        self._committed_window = 0
        #: per shard: buffered (window, payload) replies not yet committed.
        self._pending: List[Deque[Tuple[int, Any]]] = [
            deque() for _ in range(shards)
        ]
        #: per shard: the async advance message awaiting a reply.
        self._inflight: List[Optional[Tuple]] = [None] * shards
        self._sent_at: List[float] = [0.0] * shards
        #: window index -> (window seconds, only) for catch-up/commit.
        self._window_args: Dict[int, Tuple[float, Optional[str]]] = {}
        self._checkpoint_due = False
        #: Widest (max - min) shard-watermark spread ever observed.
        self.max_window_spread = 0
        #: Deltas dropped by the record watermark guard.
        self.stale_deltas = 0
        # -- re-balancing ----------------------------------------------
        self.rebalances = 0
        self.instances_moved = 0
        # -- accounting ------------------------------------------------
        self.wire_bytes_total = 0
        self.wire_bytes_by_command: Dict[str, int] = {}
        self.full_resyncs = 0
        self.checkpoints_taken = 0
        self.checkpoints_declined = 0
        self.restores_performed = 0
        #: Post-construction CPU seconds the workers reported at stop —
        #: the worker half of the boundary's compute-cost accounting
        #: (populated by ``close()``; partial if workers died unclean).
        self.worker_cpu_seconds = 0.0
        #: journal length at each respawn (bounded by checkpoint cadence).
        self.replay_lengths: List[int] = []
        self._windows_advanced = 0
        self._last_recv_nbytes = 0
        self._last_exchange_nbytes: List[int] = []
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # a platform without fork
            self._ctx = multiprocessing.get_context("spawn")

    # -- lifecycle -----------------------------------------------------------

    def add_service(self, config: ServiceConfig, seed: int = 0) -> ShardedService:
        if self._started:
            raise RuntimeError("add_service must precede start()")
        if config.name in self.services:
            raise ValueError(f"duplicate service {config.name!r}")
        service = ShardedService(self, config, seed)
        for index in range(config.instances):
            slot = len(self._by_slot)
            record = _RowMirror(
                slot, config.name, index, f"{config.name}/i-{index}",
                slot % self.num_shards, config.mix,
            )
            service.instances.append(record)
            self._by_slot.append(record)
            self._by_key[record.key] = record
        self.services[config.name] = service
        return service

    def _spawn(self, shard: int) -> None:
        """(Re)launch the worker process behind ``shard``'s pipe slot."""
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        self._conns[shard] = parent_conn
        self._procs[shard] = proc

    def start(self) -> "ShardedFleet":
        """Launch the workers and build every instance remotely."""
        if self._started:
            return self
        self._started = True
        for shard in range(self.num_shards):
            self._spawn(shard)
        specs: List[List[Tuple]] = [[] for _ in range(self.num_shards)]
        for service in self.services.values():
            indices = range(len(service.instances))
            for shard, pairs in service._pairs_by_shard(indices).items():
                specs[shard].append(
                    (service.config, service.seed, service.deploys,
                     pairs, 0.0)
                )
        self._exchange_deltas([
            (shard, ("init", specs[shard]))
            for shard in range(self.num_shards)
        ])
        for service in self.services.values():
            service.deploys += 1  # as Service.__init__ does
        return self

    def close(self) -> None:
        """Stop the workers (idempotent), escalating until none survive.

        The polite path sends ``stop`` and joins; a worker that is dead,
        wedged, or mid-crash gets ``terminate()``, then ``kill()``.  On
        return no child of this fleet is alive (asserted in tests).
        """
        if self._closed:
            return
        self._closed = True
        procs = [proc for proc in self._procs if proc is not None]
        for conn, proc in zip(self._conns, self._procs):
            if conn is None or proc is None or not proc.is_alive():
                continue
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):  # pragma: no cover
                continue
        for shard, conn in enumerate(self._conns):
            if conn is None:
                continue
            try:
                while conn.poll(1.0):
                    reply = conn.recv()
                    if (
                        isinstance(reply, tuple)
                        and len(reply) == 3
                        and reply[0] == "ok"
                        and isinstance(reply[2], float)
                    ):
                        self.worker_cpu_seconds += reply[2]
                        break
                    if self._inflight[shard] is not None:
                        # A stale async advance reply preceding the stop
                        # ack — drain it and keep looking.
                        self._inflight[shard] = None
                        continue
                    break
            except (EOFError, OSError):
                continue
        for proc in procs:
            proc.join(timeout=5.0)
        for proc in procs:  # escalation 1: SIGTERM the stragglers
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            if proc.is_alive():
                proc.join(timeout=1.0)
        for proc in procs:  # escalation 2: SIGKILL cannot be ignored
            if proc.is_alive():  # pragma: no cover - needs a wedged worker
                proc.kill()
                proc.join(timeout=1.0)
        for conn in self._conns:
            if conn is not None:
                conn.close()

    def live_workers(self) -> int:
        """How many worker processes are currently alive (0 after close)."""
        return sum(
            1 for proc in self._procs if proc is not None and proc.is_alive()
        )

    def __enter__(self) -> "ShardedFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- command plumbing ----------------------------------------------------

    def _exchange(self, pairs: List[Tuple[int, Tuple]]) -> List[Any]:
        """Send each ``(shard, message)`` pair, then collect every reply.

        The lockstep half of the wire protocol: sending everything
        before receiving anything is what overlaps the workers' compute.
        The collect side is supervised (see :meth:`_collect_reply`), so
        callers above never see a crash.  Must not run while async
        advances are in flight — the per-shard pipe is strictly
        request/reply.
        """
        if not self._started:
            raise RuntimeError("fleet not started")
        if any(message is not None for message in self._inflight):
            raise RuntimeError(
                "exchange attempted with async advances in flight; "
                "drain() or barrier() first"
            )
        for shard, message in pairs:
            self._send(shard, message)
        payloads: List[Any] = []
        nbytes_list: List[int] = []
        for shard, message in pairs:
            payloads.append(self._collect_reply(shard, message))
            nbytes_list.append(self._last_recv_nbytes)
        self._last_exchange_nbytes = nbytes_list
        return payloads

    def _exchange_deltas(self, pairs: List[Tuple[int, Tuple]]) -> None:
        """Exchange delta commands that do not advance a window (init,
        restart, resync), then fold the replies in."""
        for payload in self._exchange(pairs):
            self._ingest(payload)

    def _collect_reply(
        self, shard: int, message: Tuple,
        deadline: Optional[float] = None,
    ) -> Any:
        """Supervised single-reply collection (shared by sync + async).

        A worker that died, wedged past ``worker_deadline``, or replied
        garbage is respawned and its journal replayed before this
        returns, so callers never see the crash.  Every reply's window,
        live or replayed, is checked here (:meth:`_note_window`).  A
        delta or snapshot reply comes back opened (:meth:`_open`); any
        other reply as its payload.  Also the single copy of wire-byte
        accounting.
        """
        if deadline is None:
            deadline = _monotonic() + self.worker_deadline
        command = message[0]
        try:
            kind, window, payload = self._recv(shard, deadline)
            payload = self._open(shard, kind, window, payload, message)
        except _WorkerFault as fault:
            _kind, window, payload = self._respawn_and_replay(
                shard, message, reason=fault.reason
            )
        nbytes = self._last_recv_nbytes
        self.wire_bytes_by_command[command] = (
            self.wire_bytes_by_command.get(command, 0) + nbytes
        )
        reg = obs.default_registry()
        if reg.enabled and command in _DELTA_COMMANDS:
            reg.counter(
                "repro_fleet_delta_bytes_total",
                "Bytes of delta-snapshot replies received from shard "
                "workers",
            ).inc(nbytes)
        self._note_window(shard, window, advance=command == "advance")
        return payload

    def _send(self, shard: int, message: Tuple) -> None:
        """Journal (if mutating) and transmit one command to one shard.

        The chaos hook is consulted here, exactly once per outbound
        command, with coordinate ``(shard, op_index)`` — *after* the
        journal append, so a killed/dropped/corrupted mutating command is
        still recovered by replay: the supervision contract is that a
        command journaled is a command (eventually) executed.
        """
        op_index = self._op_index[shard]
        self._op_index[shard] += 1
        if message[0] in _MUTATING:
            self._journal[shard].append(message)
        plan = (
            self.chaos.plan(shard, op_index, message[0])
            if self.chaos is not None
            else None
        )
        if plan == "kill":
            proc = self._procs[shard]
            if proc is not None and proc.is_alive():
                proc.kill()  # SIGKILL mid-window: no goodbye, no flush
            return
        if plan == "drop":
            return  # swallowed: the recv deadline will notice
        try:
            if plan == "corrupt":
                self._conns[shard].send(("__garbage__", None))
            else:
                self._conns[shard].send(message)
        except (BrokenPipeError, OSError):
            # Worker already gone; the collect side heals it.
            pass

    def _recv(self, shard: int, deadline: float) -> Tuple[str, int, Any]:
        """Deadline-bounded reply collection — never a blocking recv.

        Waits once, up to ``deadline``, on the reply pipe and the
        worker's process sentinel.  A ready pipe is read even when the
        worker has died since: a reply that beat the death still counts.
        Receives raw bytes (for exact wire accounting) and unpickles
        here — ``Connection.recv()`` is precisely this two-step.  Raises
        :class:`_WorkerFault` on pipe EOF, worker death, deadline
        expiry, an undecodable reply, or an ``error`` reply (a worker
        that answered garbage is as untrustworthy as a dead one; replay
        rebuilds it from scratch).
        """
        conn = self._conns[shard]
        try:
            ready = _mp_wait(
                (conn, self._procs[shard].sentinel),
                max(0.0, deadline - _monotonic()),
            )
            if conn in ready:
                return self._decode(shard, conn.recv_bytes())
        except (EOFError, OSError):
            raise _WorkerFault(shard, "pipe EOF (worker died)")
        if ready:
            raise _WorkerFault(shard, "worker process dead")
        raise _WorkerFault(
            shard, f"no reply within worker_deadline={self.worker_deadline}s",
        )

    def _decode(self, shard: int, buf: bytes) -> Tuple[str, int, Any]:
        self.wire_bytes_total += len(buf)
        self._last_recv_nbytes = len(buf)
        try:
            kind, window, payload = pickle.loads(buf)
        except Exception:
            raise _WorkerFault(shard, "undecodable reply") from None
        if kind == "error":
            raise _WorkerFault(shard, f"worker error reply: {payload!r}")
        return kind, window, payload

    def _addressed(self, shard: int, message: Tuple) -> Tuple[int, ...]:
        """The slots ``message`` addresses on ``shard``, in slot order:
        the restarted ones, or every slot the shard owns (of the
        ``only=`` service, for a service advance)."""
        if message[0] == "restart":
            return tuple(sorted(slot for slot, _index in message[4]))
        only = message[2] if message[0] == "advance" else None
        return tuple(
            record.slot for record in self._by_slot
            if record.shard == shard
            and (only is None or record.service == only)
        )

    def _open(
        self, shard: int, kind: str, window: int, payload: Any,
        message: Tuple,
    ) -> Any:
        """Check one reply to ``message`` and return its payload opened.

        A ``delta`` or ``snapshots`` reply must name exactly the ``int``
        slots the command addressed (:meth:`_addressed`).  A delta
        reply's block must inflate to one ``ROW_BYTES`` row per slot,
        each entry must be a three-element ``WireDelta`` naming one of
        its slots, and its tallies must be
        :func:`~repro.obs.fold.well_formed`; it opens to ``(window,
        slots, rows, entries, stats)``.  A snapshot reply's buffer must
        inflate and unpickle to one snapshot per slot; it opens to a
        dict from slot to snapshot.
        Anything else is a worker that answered garbage: it raises
        :class:`_WorkerFault`, and supervision respawns the worker.
        Other replies pass through.
        """
        if kind not in ("delta", "snapshots"):
            return payload
        try:
            if kind == "delta":
                slots, block, entries, stats = payload
                rows = zlib.decompress(block)
                named = set(slots)
                valid = len(rows) == len(slots) * ROW_BYTES and all(
                    len(entry) == 3 and type(entry[0]) is int
                    and entry[0] in named
                    for entry in entries
                ) and well_formed(stats)
            else:
                slots, blob = payload
                snapshots = pickle.loads(zlib.decompress(blob))
                valid = len(snapshots) == len(slots)
            valid = valid and all(
                type(slot) is int for slot in slots
            ) and tuple(slots) == self._addressed(shard, message)
        except (TypeError, ValueError, EOFError, zlib.error,
                pickle.UnpicklingError):
            valid = False
        if not valid:
            raise _WorkerFault(shard, "undecodable reply")
        if kind == "snapshots":
            return dict(zip(slots, snapshots))
        return (window, slots, rows, entries, stats)

    def _recv_replay(
        self, shard: int, message: Optional[Tuple] = None
    ) -> Tuple[str, int, Any]:
        """Reply collection during journal replay: fail hard, no recursion.

        Given the in-flight ``message`` (the one replay reply the caller
        ingests), the reply is checked against it as
        :meth:`_collect_reply` does.
        """
        deadline = _monotonic() + self.worker_deadline
        try:
            kind, window, payload = self._recv(shard, deadline)
            if message is not None:
                payload = self._open(shard, kind, window, payload, message)
        except _WorkerFault as fault:
            raise RuntimeError(
                f"shard {shard} worker failed during journal replay: "
                f"{fault.reason}"
            ) from fault
        return kind, window, payload

    def _respawn_and_replay(
        self, shard: int, message: Tuple, reason: str = "worker fault"
    ) -> Tuple[str, int, Any]:
        """Heal one dead/wedged shard and return the in-flight reply.

        A fresh worker process restores the shard's latest checkpoint
        (when one exists) and replays the journal tail — rebuilding
        every instance and re-advancing it through the exact windows it
        had already seen, which reproduces byte-identical state because
        instances are pure functions of (seed, command sequence).  With
        ``checkpoint_every`` set, the tail replayed here is bounded by
        the cadence, not the uptime.  When the in-flight command was
        mutating it *is* the journal's last entry, so the final replay
        reply is the in-flight reply; a read (``resync``, ``snapshots``,
        ``checkpoint``) is simply re-sent afterwards.  Only that
        in-flight reply is ingested: every earlier replay reply, stat
        block included, is discarded unread.  Chaos is **not**
        consulted during replay and replay does not advance
        ``op_index`` — fault coordinates stay a pure function of the
        logical command sequence.

        Journal entries are replayed exactly as they were journaled:
        they name instances by slot, a slot never changes, and
        ownership lives only in the parent, so the replayed worker ends
        holding exactly the instances a live one would.
        """
        self.worker_restarts += 1
        if self.worker_restarts > self.max_respawns:
            raise RuntimeError(
                f"shard {shard}: worker crash-loop — "
                f"{self.worker_restarts} respawns exceeds "
                f"max_respawns={self.max_respawns} (last fault: {reason})"
            )
        obs.counter(
            "repro_chaos_worker_restarts_total",
            "Shard workers respawned by fleet supervision, by shard",
            ("shard",),
        ).labels(str(shard)).inc()
        with obs.default_tracer().span(
            "chaos.respawn",
            shard=shard,
            command=message[0],
            reason=reason,
        ) as span:
            old = self._procs[shard]
            if old is not None:
                if old.is_alive():
                    old.terminate()
                    old.join(timeout=1.0)
                if old.is_alive():  # pragma: no cover - needs wedged worker
                    old.kill()
                    old.join(timeout=1.0)
            conn = self._conns[shard]
            if conn is not None:
                conn.close()
            self._spawn(shard)
            checkpoint = self._checkpoints[shard]
            if checkpoint is not None:
                self._conns[shard].send(("restore", checkpoint))
                self._recv_replay(shard)
                self.restores_performed += 1
            journal = self._journal[shard]
            in_journal = message[0] in _MUTATING
            self.replay_lengths.append(len(journal))
            last: Optional[Tuple[str, int, Any]] = None
            for pos, entry in enumerate(journal):
                self._conns[shard].send(entry)
                last = self._recv_replay(
                    shard,
                    message if in_journal and pos == len(journal) - 1
                    else None,
                )
            span.attributes.update(
                replayed=len(journal),
                restored=checkpoint is not None,
            )
            if in_journal:
                if last is None:  # pragma: no cover - journal invariant
                    raise RuntimeError(
                        f"shard {shard}: mutating command {message[0]!r} "
                        "missing from journal"
                    )
                return last
            self._conns[shard].send(message)
            return self._recv_replay(shard, message)

    # -- watermarks and async windows ----------------------------------------

    @property
    def watermark(self) -> int:
        """The fleet watermark W: windows committed into the records."""
        return self._committed_window

    @property
    def shard_windows(self) -> Tuple[int, ...]:
        """Each shard's own window watermark (highest reply received)."""
        return tuple(self._shard_window)

    def _note_window(self, shard: int, window: int, advance: bool) -> None:
        """Validate and record one reply's window watermark.

        Called once for every reply :meth:`_collect_reply` returns.  An
        ``advance`` reply must be exactly the next window; any other
        reply must carry the shard's current watermark.  Anything else
        is a watermark regression/skip — a protocol violation the
        parent refuses to ingest.
        """
        have = self._shard_window[shard]
        if advance:
            if window != have + 1:
                raise RuntimeError(
                    f"shard {shard} watermark violation: advance reply "
                    f"tagged window {window}, expected {have + 1}"
                )
            self._shard_window[shard] = window
        elif window != have:
            raise RuntimeError(
                f"shard {shard} watermark regression: reply tagged "
                f"window {window}, shard watermark is {have}"
            )
        spread = max(self._shard_window) - min(self._shard_window)
        if spread > self.max_window_spread:
            self.max_window_spread = spread
        reg = obs.default_registry()
        if reg.enabled:
            reg.gauge(
                "repro_fleet_shard_window",
                "Per-shard window watermark (highest advance reply)",
                ("shard",),
            ).labels(str(shard)).set(float(self._shard_window[shard]))

    def _begin(self, shard: int, message: Tuple) -> None:
        self._send(shard, message)
        self._inflight[shard] = message
        self._sent_at[shard] = _monotonic()

    def begin_advance(
        self, shard: int, window: float = WINDOW_SECONDS
    ) -> int:
        """Send one shard's next window advance without waiting for it.

        Returns the window index the shard will compute.  Collect the
        reply with :meth:`poll`, :meth:`drain`, or :meth:`barrier`.
        All shards must advance a given window index with the same
        ``window`` seconds (determinism), so a conflicting
        re-registration raises.
        """
        if not self._started:
            raise RuntimeError("fleet not started")
        if not 0 <= shard < self.num_shards:
            raise ValueError(f"no shard {shard}")
        if self._inflight[shard] is not None:
            raise RuntimeError(f"shard {shard} already has an advance in flight")
        nxt = self._shard_window[shard] + 1
        args = self._window_args.get(nxt)
        if args is None:
            self._window_args[nxt] = (window, None)
        elif args != (window, None):
            raise ValueError(
                f"window {nxt} already begun with window={args[0]}, "
                f"only={args[1]!r}"
            )
        self._begin(shard, ("advance", window, None))
        return nxt

    def poll(self, timeout: float = 0.0) -> int:
        """Collect any ready async replies; commit newly-complete windows.

        Returns how many replies were collected.  Detects dead/wedged
        workers while polling (a reply, pipe EOF or the worker's exit
        wakes the wait; a worker silent past ``worker_deadline`` is
        respawned).
        """
        busy = [
            shard for shard in range(self.num_shards)
            if self._inflight[shard] is not None
        ]
        if not busy:
            return 0
        shard_of = {}
        for shard in busy:
            shard_of[self._conns[shard]] = shard
            shard_of[self._procs[shard].sentinel] = shard
        try:
            ready = _mp_wait(list(shard_of), timeout)
        except OSError:  # pragma: no cover - dying pipe mid-wait
            ready = list(shard_of)
        ready_shards = {shard_of[obj] for obj in ready}
        now = _monotonic()
        collected = 0
        for shard in busy:
            if (
                shard in ready_shards
                or now - self._sent_at[shard] > self.worker_deadline
            ):
                self._collect_shard(shard)
                collected += 1
        if collected:
            self._commit_ready()
        return collected

    def drain(self) -> None:
        """Collect every in-flight async advance (no catch-up)."""
        while any(message is not None for message in self._inflight):
            self.poll(timeout=0.25)

    def barrier(self) -> None:
        """Drain, catch every laggard up to the fastest shard, commit all.

        After a barrier every shard watermark equals the fleet
        watermark — the required instant for whole-fleet operations
        (checkpoint, resync, deploys, rebalance, advances).  Catch-up
        pumps with no lead bound: the fastest shard already registered
        every window a laggard still owes.
        """
        if not self._started:
            return
        self.drain()
        goal = max(self._shard_window)
        while self._committed_window < goal:
            self._pump(goal, goal)

    def _pump(self, goal: int, max_lead: int) -> None:
        """One pump round: send every idle shard its next registered
        ``(seconds, only)`` window if that window is at most ``goal``
        and ``max_lead`` past the fleet watermark, then poll (which
        commits).  ``max_lead=1`` is lockstep."""
        sent = False
        for shard in range(self.num_shards):
            if self._inflight[shard] is not None:
                continue
            nxt = self._shard_window[shard] + 1
            if nxt > goal or nxt - self._committed_window > max_lead:
                continue
            seconds, only = self._window_args[nxt]
            self._begin(shard, ("advance", seconds, only))
            sent = True
        self.poll(timeout=0.0 if sent else 0.05)

    def _collect_shard(self, shard: int) -> None:
        """Collect one shard's in-flight advance reply and buffer it."""
        message = self._inflight[shard]
        self._inflight[shard] = None
        payload = self._collect_reply(
            shard, message,
            deadline=self._sent_at[shard] + self.worker_deadline,
        )
        self._pending[shard].append((payload[0], payload))

    def _commit_ready(self) -> None:
        """Fold every window all shards have reached into parent state.

        The commit is the only place instance records, signature
        indexes, and ``ServiceSample`` histories move — always one whole
        window at a time, in window order, with every shard's
        contribution — which is why a query at watermark W is
        byte-identical to a lockstep run advanced exactly W windows.
        """
        reg = obs.default_registry()
        while True:
            floor = min(self._shard_window)
            if self._committed_window >= floor:
                break
            window = self._committed_window + 1
            payloads: List[Any] = []
            for shard in range(self.num_shards):
                queue = self._pending[shard]
                if not queue or queue[0][0] != window:  # pragma: no cover
                    raise RuntimeError(
                        f"shard {shard} missing buffered reply for window "
                        f"{window} at commit"
                    )
                payloads.append(queue.popleft()[1])
            for payload in payloads:
                self._ingest(payload)
            self._committed_window = window
            _seconds, only = self._window_args.pop(window)
            for service in self.services.values():
                if only is None or service.config.name == only:
                    self._sample(service)
            if only is None:
                self._windows_advanced += 1
                if (
                    self.checkpoint_every
                    and self._windows_advanced % self.checkpoint_every == 0
                ):
                    self._checkpoint_due = True
            if reg.enabled:
                reg.gauge(
                    "repro_fleet_watermark",
                    "Fleet watermark W: windows committed into records",
                ).set(float(self._committed_window))

    def _run_maintenance(self) -> None:
        """Take the checkpoint a commit flagged as due.

        Runs between pump rounds — never inside a commit, because a
        checkpoint needs a quiesced fleet (it barriers internally).
        """
        if self._checkpoint_due:
            self._checkpoint_due = False
            self.checkpoint()

    # -- ingest --------------------------------------------------------------

    def _ingest(self, payload: Tuple) -> None:
        """Fold one opened delta reply in: rows and deltas into the
        instance records, its tallies into the registry."""
        self._apply_deltas(payload[:4])
        fold(payload[4])

    def _apply_deltas(
        self, payload: Tuple[int, Tuple[int, ...], bytes, List[WireDelta]],
    ) -> None:
        """Fold one worker's opened delta reply into the instance records.

        Each stat row becomes the committed row of the record in its slot,
        at the reply's window; an instance the reply does not name keeps
        its row.  Each delta goes through the record in its slot
        (:meth:`_RowMirror.apply`), which drops a stale one (older than
        the record's watermark) before it reaches the summaries.
        """
        window, slots, rows, deltas = payload
        by_slot = self._by_slot
        for slot, row in zip(slots, unpack_rows(rows)):
            by_slot[slot].commit(row, window)
        total_entries = 0
        stale = 0
        for delta in deltas:
            if not by_slot[delta[0]].apply(delta, window):
                stale += 1
                continue
            total_entries += len(delta[2])
        reg = obs.default_registry()
        if stale:
            self.stale_deltas += stale
            if reg.enabled:
                reg.counter(
                    "repro_fleet_stale_deltas_total",
                    "Delta entries dropped by the view watermark guard",
                ).inc(stale)
        if reg.enabled and deltas:
            reg.counter(
                "repro_fleet_delta_signatures_total",
                "Signature entries shipped in delta snapshots",
            ).inc(total_entries)

    # -- windows -------------------------------------------------------------

    def _advance(
        self,
        windows: int,
        window: float,
        only: Optional[str] = None,
        max_lead: int = 1,
    ) -> None:
        """Barrier, register ``windows`` windows, pump until all commit;
        cadence work runs between rounds."""
        if not self._started:
            raise RuntimeError("fleet not started")
        self.barrier()
        goal = self._committed_window + windows
        for nxt in range(self._committed_window + 1, goal + 1):
            self._window_args[nxt] = (window, only)
        while self._committed_window < goal:
            self._pump(goal, max_lead)
            self._run_maintenance()
        self._run_maintenance()

    def _sample(self, service: ShardedService) -> ServiceSample:
        """Aggregate one window's sample over index-ordered instances.

        Delegates to the shared ``aggregate_sample`` — literally the
        same arithmetic ``Service.advance_window`` runs, which is the
        byte-identical-histories guarantee made structural.  Aggregates
        the committed rows of the service's records; publishes its health.
        """
        rows = [record.row for record in service.instances]
        sample = aggregate_sample(
            rows[0][F_T] if rows else 0.0,
            map(_SAMPLE_FIELDS, rows),
            service.config.instances_represented,
        )
        service.history.append(sample)
        publish_health(service.config.name, sample, len(rows))
        return sample

    # -- the streaming plane -------------------------------------------------

    def resync(self) -> None:
        """Anti-entropy: reship every instance's full state into its record.

        The delta protocol is exact, so this is defense in depth (and
        the recovery story for any future non-determinism bug), not a
        correctness requirement.  Counted in ``full_resyncs`` and the
        ``repro_fleet_full_resync_total`` metric.
        """
        self.barrier()
        self._exchange_deltas([
            (shard, ("resync", None)) for shard in range(self.num_shards)
        ])
        self.full_resyncs += 1
        reg = obs.default_registry()
        if reg.enabled:
            reg.counter(
                "repro_fleet_full_resync_total",
                "Anti-entropy full snapshot resyncs performed",
            ).inc()

    def checkpoint(self) -> int:
        """Checkpoint every worker; truncate journals that succeeded.

        Returns how many shards accepted.  A shard whose instances
        cannot be serialized exactly (see
        :class:`repro.fleet.checkpoint.CheckpointUnsupported`) declines;
        its journal keeps growing, ``checkpoints_declined`` counts it, and
        ``repro_fleet_checkpoints_total{result}`` exports both outcomes.
        """
        self.barrier()
        reg = obs.default_registry()
        started = _monotonic()
        with obs.default_tracer().span(
            "fleet.checkpoint", shards=self.num_shards
        ) as span:
            payloads = self._exchange([
                (shard, ("checkpoint",)) for shard in range(self.num_shards)
            ])
            taken = 0
            for shard, payload in enumerate(payloads):
                if isinstance(payload, dict) and payload.get("ok"):
                    self._checkpoints[shard] = (
                        self._shard_window[shard], payload["entries"],
                    )
                    self._journal[shard].clear()
                    taken += 1
                    self.checkpoints_taken += 1
                    if reg.enabled:
                        reg.histogram(
                            "repro_fleet_checkpoint_bytes",
                            "Serialized size of one shard checkpoint",
                            ("shard",),
                            buckets=(
                                1 << 10, 1 << 12, 1 << 14, 1 << 16,
                                1 << 18, 1 << 20, 1 << 22,
                            ),
                        ).labels(str(shard)).observe(
                            self._last_exchange_nbytes[shard]
                        )
                else:
                    self.checkpoints_declined += 1
            span.attributes.update(
                taken=taken, declined=self.num_shards - taken
            )
            if reg.enabled:
                outcomes = reg.counter(
                    "repro_fleet_checkpoints_total",
                    "Shard checkpoints requested, by result",
                    ("result",),
                )
                if taken:
                    outcomes.labels("taken").inc(taken)
                if taken < self.num_shards:
                    outcomes.labels("declined").inc(self.num_shards - taken)
                reg.histogram(
                    "repro_fleet_checkpoint_seconds",
                    "Wall-clock duration of one fleet-wide checkpoint",
                ).observe(_monotonic() - started)
            return taken

    def suspects(
        self,
        threshold: Optional[int] = None,
        apply_transient_filter: bool = True,
    ):
        """The current LeakProf suspect set from the instance records.

        Each record's signature summaries go through
        :func:`~repro.leakprof.detector.judge`, the criteria batch
        ``scan_profile`` applies; the worker indexes by gid and a
        snapshot's profile lists records in ascending-gid order, so both
        agree by construction.  O(signatures) parent-side work and zero
        wire traffic — answered at the fleet watermark ``W``: list-equal
        to ``scan_fleet`` over the ``snapshots()`` of a lockstep run
        advanced exactly ``W`` windows (the parity the streaming plane
        is gated on), no matter how far ahead individual shards are
        running.  Records are walked in slot order, which is the
        ``snapshots()`` order.
        """
        if threshold is None:
            threshold = DEFAULT_THRESHOLD
        suspects: List[Suspect] = []
        for record in self._by_slot:
            if record.summaries:
                suspects.extend(record.suspects(
                    threshold, apply_transient_filter
                ))
        return suspects

    # -- re-balancing --------------------------------------------------------

    def rebalance(
        self, moves: Dict[Tuple[str, int], int]
    ) -> Dict[Tuple[str, int], int]:
        """Move instances between workers via checkpoint blobs.

        ``moves`` maps ``(service, index)`` keys to target shards; a
        move onto an instance's current shard is dropped.  Runs at a
        barrier; the source worker checkpoints and evicts the instances
        (all-or-nothing per shard), the targets adopt the blobs, and the
        parent sets each moved instance's record to its new shard — one
        field per move.  Summaries, slots and histories are untouched —
        the move is invisible to every observer, which is the
        determinism contract.

        If any source declines (an instance that cannot be checkpointed
        exactly — e.g. gc-enabled services), already-evicted instances
        are re-adopted by their sources and
        :class:`~repro.fleet.checkpoint.CheckpointUnsupported` is
        raised: fleet state is unchanged.  Returns the applied moves.
        """
        if not self._started:
            raise RuntimeError("fleet not started")
        self.barrier()
        moves = dict(moves)
        for key, target in moves.items():
            if key not in self._by_key:
                raise KeyError(f"unknown instance {key!r}")
            if not 0 <= target < self.num_shards:
                raise ValueError(f"no shard {target}")
        moves = {
            key: target for key, target in moves.items()
            if self._by_key[key].shard != target
        }
        if not moves:
            return {}
        reg = obs.default_registry()
        with obs.default_tracer().span(
            "fleet.rebalance", moves=len(moves)
        ) as span:
            targets = {
                self._by_key[key].slot: target
                for key, target in moves.items()
            }
            by_source: Dict[int, List[int]] = {}
            for slot in sorted(targets):
                by_source.setdefault(self._by_slot[slot].shard, []).append(
                    slot
                )
            evicted: Dict[int, List[Tuple]] = {}
            declined: Optional[Tuple[int, str]] = None
            for source in sorted(by_source):
                payload = self._exchange([
                    (source, ("evict", tuple(by_source[source])))
                ])[0]
                if payload.get("ok"):
                    evicted[source] = payload["entries"]
                else:
                    declined = (source, payload.get("reason", "unsupported"))
                    break
            if declined is not None:
                # Roll back: hand every evicted instance straight back
                # to its source shard — blobs round-trip exactly, so the
                # fleet is as if rebalance never ran.
                for source in sorted(evicted):
                    self._adopt(source, evicted[source])
                shard, reason = declined
                span.attributes.update(declined_by=shard)
                raise CheckpointUnsupported(
                    f"rebalance aborted: shard {shard} declined eviction: "
                    f"{reason}"
                )
            for source in sorted(evicted):
                by_target: Dict[int, List[Tuple]] = {}
                for entry in evicted[source]:
                    by_target.setdefault(targets[entry[0]], []).append(entry)
                for target in sorted(by_target):
                    self._adopt(target, by_target[target])
            for key, target in moves.items():
                self._by_key[key].shard = target
            self.rebalances += 1
            self.instances_moved += len(moves)
            span.attributes.update(sources=len(by_source))
            if reg.enabled:
                reg.counter(
                    "repro_fleet_rebalance_total",
                    "Shard rebalances performed",
                ).inc()
                reg.counter(
                    "repro_fleet_rebalance_moves_total",
                    "Instances moved between shards by rebalancing",
                ).inc(len(moves))
        return moves

    def _adopt(self, shard: int, entries: List[Tuple]) -> None:
        """Hand checkpointed ``(slot, blob)`` entries to a worker."""
        self._exchange([(shard, ("adopt", entries))])

    # -- the Fleet-compatible surface ----------------------------------------

    def __iter__(self):
        return iter(self.services.values())

    def advance_window(self, window: float = WINDOW_SECONDS) -> None:
        """Advance every instance one window, in lockstep."""
        self._advance(1, window)

    def run_days(
        self,
        days: float,
        window: float = WINDOW_SECONDS,
        max_lead: int = 1,
    ) -> None:
        """Advance the whole fleet ``days`` of virtual time.

        Every idle shard that is less than ``max_lead`` windows ahead of
        the fleet watermark is immediately given its next window, so
        with ``max_lead=1`` the fleet runs in lockstep and with a larger
        lead no shard waits for the slowest one until the bound bites.
        Histories and instance records advance only at commits, so the
        result is byte-identical for every lead.
        """
        self._advance(
            windows_in(days, window), window, max_lead=max(1, int(max_lead))
        )

    def snapshots(
        self, service: Optional[str] = None
    ) -> List[InstanceSnapshot]:
        """Every instance's snapshot, pulled from the workers as
        LeakProf pulls profiles from running instances, in the
        (service-add, index) order ``Fleet.all_instances()`` yields — so
        a LeakProf daily run over a sharded fleet sees byte-identical
        input.  Starts with a barrier, as ``checkpoint``/``resync`` do:
        it answers at the post-barrier watermark.
        """
        self.barrier()
        payloads = self._exchange([
            (shard, ("snapshots",)) for shard in range(self.num_shards)
        ])
        by_slot: Dict[int, InstanceSnapshot] = {}
        for snapshots in payloads:
            by_slot.update(snapshots)
        return [
            by_slot[record.slot]
            for record in self._by_slot
            if service is None or record.service == service
        ]
