"""The LeakProf read path builds the same objects as the keyword constructors.

Records, runtime and instance snapshots, profiles and suspects are built
on the sweep's hot path by positional constructors: one
``tuple.__new__`` call for the named-tuple records, instance snapshots
and suspects, and directly filled slots for ``RuntimeSnapshot.of`` and
``SignatureAccumulator.of_profile``.  Each one
is compared here with the object the public keyword constructors build
from the same runtime — equal, hash-equal, repr-equal, pickle round trip
and ``dump_text`` bytes — for every registered leaky body and every
healthy body, before and after a ``runtime.gc()`` sweep has stamped
proofs.  The Criterion 2 verdict memo is checked against the uncached
analysis.
"""

import inspect
import pickle

import pytest

from repro.fleet import RequestMix, ServiceInstance, TrafficShape
from repro.fleet.shard import _RowMirror, _ship
from repro.leakprof import filters
from repro.leakprof.detector import (
    SignatureAccumulator,
    Suspect,
    judge,
    scan_profile,
)
from repro.patterns import PATTERNS, healthy
from repro.profiling import (
    GoroutineProfile,
    GoroutineRecord,
    dump_text,
    snapshot_goroutine,
)
from repro.runtime import GoroutineState, Runtime
from repro.snapshot import (
    GCSnapshot,
    InstanceSnapshot,
    RuntimeSnapshot,
    snapshot_instance,
)
from repro.snapshot.delta import pack_row, unpack_rows, wire_record

HEALTHY = sorted(
    (name, fn)
    for name, fn in inspect.getmembers(healthy, inspect.isfunction)
    if fn.__module__ == healthy.__name__ and not name.startswith("_")
)
BODIES = [
    (name, pattern.leaky) for name, pattern in sorted(PATTERNS.items())
] + [(f"healthy.{name}", fn) for name, fn in HEALTHY]
BODY_IDS = [name for name, _ in BODIES]


# -- the keyword-constructor reference --------------------------------------


def keyword_record(goro, now):
    """One record through ``GoroutineRecord``'s keyword ``__init__``."""
    wait_detail = None
    if goro.state in (GoroutineState.BLOCKED_SEND, GoroutineState.BLOCKED_RECV):
        is_nil = getattr(goro.waiting_on, "is_nil", False)
        wait_detail = "nil" if is_nil else "chan"
    elif goro.state is GoroutineState.BLOCKED_SELECT:
        arms = goro.waiting_on
        wait_detail = str(len(arms) if isinstance(arms, tuple) else 0)
    wait_seconds = 0.0
    if goro.blocked_since is not None:
        wait_seconds = max(0.0, now - goro.blocked_since)
    return GoroutineRecord(
        gid=goro.gid,
        name=goro.name,
        state=goro.state,
        user_frames=goro.stack(),
        creation_ctx=goro.creation_ctx,
        wait_seconds=wait_seconds,
        wait_detail=wait_detail,
        proof=goro.gc_verdict,
    )


def keyword_runtime_snapshot(rt):
    gc = None
    if rt.gc_reports:
        last = rt.gc_reports[-1]
        gc = GCSnapshot(
            sweeps=last.sweep_index,
            at=last.at,
            live=last.live,
            possibly_leaked=last.possibly_leaked,
            proven_leaked=last.proven_leaked,
        )
    return RuntimeSnapshot(
        process=rt.name,
        taken_at=rt.now,
        num_goroutines=rt.num_goroutines,
        blocked_goroutines=rt.blocked_goroutines_count,
        rss_bytes=rt.rss(),
        base_rss=rt.base_rss,
        state_census={
            state.value: count for state, count in rt.state_census().items()
        },
        steps=rt.steps,
        gc=gc,
        records=tuple(keyword_record(g, rt.now) for g in rt.live_goroutines()),
    )


def keyword_instance_snapshot(instance):
    rt = instance.runtime
    return InstanceSnapshot(
        service=instance.service,
        name=instance.name,
        requests_served=instance.requests_served,
        cpu_percent=instance.cpu_model.utilization(
            rt.now, rt.blocked_goroutines_count
        ),
        runtime=keyword_runtime_snapshot(rt),
        last_metrics=instance.last_metrics,
    )


def keyword_profile(snapshot, service=None, instance=None):
    return GoroutineProfile(
        taken_at=snapshot.taken_at,
        process=snapshot.process,
        records=list(snapshot.records),
        service=service,
        instance=instance,
    )


def filed_one_by_one(blocked):
    """``scan_profile``'s accumulator, built through ``file``."""
    acc = SignatureAccumulator()
    for position, record in enumerate(blocked):
        acc.file(position, record)
    return acc


def keyword_suspect(suspect):
    return Suspect(**{name: getattr(suspect, name) for name in Suspect._fields})


# -- comparison ----------------------------------------------------------------


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as error:  # an unhashable field (InstanceMetrics)
        return type(error)


def assert_identical(new, ref, same_bytes=True):
    """Equal, hash-equal, repr-equal and equal after a pickle round
    trip; with ``same_bytes`` also pickle-equal (not for values rebuilt
    from a wire copy: unpickling shares equal objects that live records
    hold apart, such as ``wait_detail`` strings, so memo references
    differ)."""
    assert new == ref
    assert hash_or_error(new) == hash_or_error(ref)
    assert repr(new) == repr(ref)
    restored = pickle.loads(pickle.dumps(new))
    assert restored == ref
    assert repr(restored) == repr(ref)
    if same_bytes:
        assert pickle.dumps(new) == pickle.dumps(ref)


def assert_runtime_identical(rt):
    now = rt.now
    for goro in rt.live_goroutines():
        new, ref = snapshot_goroutine(goro, now), keyword_record(goro, now)
        assert_identical(new, ref)
        assert_identical(new.aged(2.5), ref._replace(wait_seconds=2.5))
    new, ref = RuntimeSnapshot.of(rt), keyword_runtime_snapshot(rt)
    assert list(new.state_census.items()) == list(ref.state_census.items())
    assert new.records == ref.records
    assert_identical(new, ref)
    profile = new.profile(service="svc", instance=rt.name)
    ref_profile = keyword_profile(ref, service="svc", instance=rt.name)
    assert_identical(profile, ref_profile)
    assert dump_text(profile) == dump_text(ref_profile)
    blocked = profile.blocked()
    assert blocked == [r for r in profile.records if r.is_blocked]
    assert blocked == [
        r for r in profile.records
        if r.state in (GoroutineState.BLOCKED_SEND, GoroutineState.BLOCKED_RECV,
                       GoroutineState.BLOCKED_SELECT)
    ]
    one_pass = SignatureAccumulator.of_profile(blocked)
    reference = filed_one_by_one(blocked)
    assert one_pass._sigs == reference._sigs
    assert one_pass._sig_of == reference._sig_of
    for transient_filter in (True, False):
        suspects = scan_profile(
            profile, threshold=1, apply_transient_filter=transient_filter
        )
        assert suspects == judge(
            reference.summaries(), blocked.__getitem__, "svc", rt.name,
            threshold=1, apply_transient_filter=transient_filter,
        )
        for suspect in suspects:
            assert_identical(suspect, keyword_suspect(suspect))


def body_runtime(name, body):
    """``body`` run for a quarter second, plus a second copy spawned but
    not yet run (a RUNNABLE record)."""
    rt = Runtime(seed=5, name=name, panic_mode="record")
    rt.run(body, rt, deadline=rt.now + 0.25, detect_global_deadlock=False)
    rt.spawn(body, rt)
    return rt


def body_instance(name, body):
    instance = ServiceInstance(
        service="svc",
        mix=RequestMix().add(name, body),
        traffic=TrafficShape(requests_per_window=2),
        seed=5,
        name=f"svc/{name}",
    )
    instance.advance_window(3_600.0)
    return instance


@pytest.mark.parametrize("name,body", BODIES, ids=BODY_IDS)
def test_runtime_read_path_matches_keyword_constructors(name, body):
    rt = body_runtime(name, body)
    assert_runtime_identical(rt)
    rt.gc()
    assert rt.gc_reports
    assert_runtime_identical(rt)


@pytest.mark.parametrize("name,body", BODIES, ids=BODY_IDS)
def test_instance_snapshot_matches_keyword_constructors(name, body):
    instance = body_instance(name, body)
    # Right after a window the CPU reading is the sample's; after a gc
    # sweep it still is; after the clock moves it is recomputed.
    for step in ("sampled", "gc", "advanced"):
        if step == "gc":
            instance.runtime.gc()
        elif step == "advanced":
            instance.runtime.advance(60.0)
        new, ref = snapshot_instance(instance), keyword_instance_snapshot(instance)
        assert_identical(new, ref)
        assert_identical(new.profile(), keyword_profile(
            ref.runtime, service=ref.service, instance=ref.name))
        assert dump_text(new.profile()) == dump_text(ref.profile())


@pytest.mark.parametrize("name,body", BODIES[:len(PATTERNS)],
                         ids=BODY_IDS[:len(PATTERNS)])
def test_records_read_after_an_advance_are_unchanged(name, body):
    rt = body_runtime(name, body)
    live = body_instance(name, body)
    snapshot, instance = RuntimeSnapshot.of(rt), snapshot_instance(live)
    # Two more snapshots of the same instant, shipped before the advance.
    shipped, shipped_instance = pickle.loads(pickle.dumps(
        (RuntimeSnapshot.of(rt), snapshot_instance(live))
    ))
    rt.advance(1.0)
    live.runtime.advance(1.0)
    assert RuntimeSnapshot.of(rt) != snapshot
    for held, ref in ((snapshot, shipped), (instance.runtime,
                                            shipped_instance.runtime)):
        assert held.records == ref.records
        assert held == ref
        assert dump_text(held.profile()) == dump_text(ref.profile())
    assert instance == shipped_instance
    assert dump_text(instance.profile()) == dump_text(shipped_instance.profile())


def shipped_record(instance):
    """The sharded parent's record of ``instance``, fed one full delta
    (a worker's signature index of its live goroutines) and one stat
    row, both through a pickle round trip (the wire)."""
    rt = instance.runtime
    index = SignatureAccumulator()
    entries = _ship(index, rt, rt._goroutines)
    delta, row = pickle.loads(pickle.dumps(
        ((0, True, entries), pack_row(instance))
    ))
    record = _RowMirror(0, instance.service, 0, instance.name, 0,
                        instance.mix)
    assert record.apply(delta, 0)
    (unpacked,) = unpack_rows(row)
    record.commit(unpacked, 0)
    return record


@pytest.mark.parametrize("name,body", BODIES, ids=BODY_IDS)
def test_wire_records_materialize_as_live_records(name, body):
    """``wire_record`` -> wire -> ``_RowMirror.represent`` equals
    ``snapshot_goroutine`` against the live runtime, aged or not, for
    every live goroutine; every shipped representative is the live
    record of its gid."""
    instance = body_instance(name, body)
    for step in ("sampled", "gc", "advanced"):
        if step == "gc":
            instance.runtime.gc()
        elif step == "advanced":
            instance.runtime.advance(60.0)
        rt = instance.runtime
        record = shipped_record(instance)
        live = {g.gid: g for g in rt.live_goroutines()}
        for gid, goro in live.items():
            wire = pickle.loads(pickle.dumps(wire_record(goro)))
            assert_identical(record.represent(wire),
                             snapshot_goroutine(goro, rt.now), same_bytes=False)
            assert_identical(record.represent(wire),
                             keyword_record(goro, rt.now), same_bytes=False)
        for summary in record.summaries.values():
            goro = live[summary[5][0].gid]
            assert_identical(record.represent(summary[5]),
                             keyword_record(goro, rt.now), same_bytes=False)


@pytest.mark.parametrize("name,body", BODIES, ids=BODY_IDS)
def test_view_snapshots_and_suspects_match_keyword_constructors(name, body):
    """The sharded parent's read path: a pulled snapshot (what a worker
    ships) and the suspects judged from the parent's signature summaries
    equal their keyword-built counterparts."""
    instance = body_instance(name, body)
    instance.runtime.gc()
    snapshot = pickle.loads(pickle.dumps(snapshot_instance(instance)))
    ref = keyword_instance_snapshot(instance)
    assert_identical(snapshot, ref, same_bytes=False)
    assert_identical(snapshot, snapshot_instance(instance), same_bytes=False)
    suspects = shipped_record(instance).suspects(threshold=1)
    assert suspects == scan_profile(ref.profile(), threshold=1)
    assert suspects == scan_profile(snapshot.profile(), threshold=1)
    for suspect in suspects:
        assert_identical(suspect, keyword_suspect(suspect), same_bytes=False)
        assert suspect.key == (suspect.state, suspect.location)


def test_named_tuple_values_keep_their_field_access():
    """Fields read by name and by position; ``count`` is the suspect's
    count, not ``tuple.count``."""
    record = GoroutineRecord(gid=7, name="g", state=GoroutineState.BLOCKED_SEND,
                             user_frames=(), creation_ctx=None)
    assert record.aged(1.5) == record._replace(wait_seconds=1.5)
    assert record.aged(1.5)[5] == 1.5 and record.wait_seconds == 0.0
    suspect = Suspect("svc", "svc/i-0", "chan send", "f.py:1", 3, record)
    assert suspect.count == 3 and suspect.proof is None
    assert suspect == keyword_suspect(suspect)


# -- Criterion 2 memo ------------------------------------------------------------


def leaky_blocked_records():
    records = []
    for name, pattern in sorted(PATTERNS.items()):
        rt = Runtime(seed=5, name=name, panic_mode="record")
        rt.run(pattern.leaky, rt, deadline=rt.now + 5.0,
               detect_global_deadlock=False)
        records += GoroutineProfile.take(rt).blocked()
    return records


def test_criterion2_memo_matches_uncached_verdicts():
    uncached = filters._location_verdict.__wrapped__
    checked = 0
    for record in leaky_blocked_records():
        frame = record.user_frames[0]
        assert filters.is_trivially_nonblocking(record) == uncached(
            record.state, frame.file, frame.line
        )
        checked += record.state is not GoroutineState.BLOCKED_SEND
    assert checked  # recv and select records reached the AST analysis


def test_criterion2_second_call_does_not_walk_the_ast(monkeypatch):
    walks = []
    find = filters._find_blocking_call

    def counting(tree, line, names):
        walks.append(line)
        return find(tree, line, names)

    monkeypatch.setattr(filters, "_find_blocking_call", counting)
    filters._location_verdict.cache_clear()
    record = next(
        r for r in leaky_blocked_records()
        if r.state is GoroutineState.BLOCKED_SELECT
    )
    first = filters.is_trivially_nonblocking(record)
    assert len(walks) == 1
    assert filters.is_trivially_nonblocking(record) == first
    assert len(walks) == 1
