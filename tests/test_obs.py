"""repro.obs — registry semantics, Prometheus exposition invariants,
tracing, and the instrumentation wired through the pipeline + daemon.
"""

import json

import pytest

from repro import obs
from repro.chaos import FaultKind, FaultSchedule, ShardChaos
from repro.fleet import (
    Fleet,
    RequestMix,
    Service,
    ServiceConfig,
    ShardedFleet,
    TrafficShape,
)
from repro.ingest import IngestClient, IngestError, IngestServer, IngestStore
from repro.leakprof import LeakProf
from repro.obs import MetricsRegistry, Tracer
from repro.obs.parse import (
    PromParseError,
    parse_prometheus_text,
    sample_value,
)
from repro.obs.registry import render_prometheus
from repro.patterns import healthy, timeout_leak
from repro.profiling import GoroutineProfile, dump_text
from repro.runtime import Runtime


@pytest.fixture(autouse=True)
def fresh_defaults():
    """Isolate every test behind fresh process-wide defaults."""
    old_reg = obs.set_default_registry(MetricsRegistry())
    old_tracer = obs.set_default_tracer(Tracer())
    yield
    obs.set_default_registry(old_reg)
    obs.set_default_tracer(old_tracer)


def leak_profile_text(seed: int = 7) -> str:
    rt = Runtime(seed=seed, name="i-0")
    for _ in range(6):
        rt.run(timeout_leak.leaky, rt, detect_global_deadlock=False)
    return dump_text(GoroutineProfile.take(rt, service="sim", instance="i-0"))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_c_total", "a counter")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

        g = reg.gauge("repro_g", "a gauge")
        g.set(5)
        g.dec(2)
        assert g.value == 3.0

        h = reg.histogram("repro_h_seconds", "a histogram", buckets=(1, 5))
        for v in (0.5, 3.0, 30.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 33.5

    def test_labels_create_children_idempotently(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_l_total", "labeled", ("kind",))
        c.labels("a").inc()
        c.labels("a").inc()
        c.labels(kind="b").inc()
        assert c.labels("a").value == 2
        assert c.total == 3
        with pytest.raises(ValueError):
            c.labels("a", "b")  # wrong arity
        with pytest.raises(ValueError):
            c.inc()  # labeled metric has no solo child

    def test_factories_are_get_or_create_with_conflict_check(self):
        reg = MetricsRegistry()
        first = reg.counter("repro_x_total", "x")
        assert reg.counter("repro_x_total") is first
        with pytest.raises(ValueError):
            reg.gauge("repro_x_total")  # kind conflict
        with pytest.raises(ValueError):
            reg.counter("repro_x_total", labelnames=("k",))  # label conflict
        with pytest.raises(ValueError):
            reg.counter("0bad name")
        with pytest.raises(ValueError):
            reg.counter("repro_y_total", labelnames=("__reserved",))

    def test_disabled_registry_freezes_values(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_f_total")
        h = reg.histogram("repro_f_seconds")
        c.inc()
        reg.enabled = False
        c.inc(10)
        h.observe(1.0)
        assert c.value == 1
        assert h.count == 0
        reg.enabled = True
        c.inc()
        assert c.value == 2

    def test_snapshot_is_plain_json_able_data(self):
        reg = MetricsRegistry()
        reg.counter("repro_s_total", labelnames=("k",)).labels("a").inc(2)
        reg.histogram("repro_s_seconds", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["repro_s_total"]["samples"]["k=a"] == 2
        hist = snap["repro_s_seconds"]["samples"][""]
        assert hist["count"] == 1
        assert hist["buckets"]["+Inf"] == 1


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------


class TestExposition:
    def test_label_values_are_escaped_and_round_trip(self):
        reg = MetricsRegistry()
        nasty = 'we"ird\nva\\lue'
        reg.counter("repro_esc_total", "help with \\ and\nnewline", ("k",)) \
            .labels(nasty).inc()
        text = reg.render()
        assert '\\"' in text and "\\n" in text and "\\\\" in text
        families = parse_prometheus_text(text)
        assert sample_value(families, "repro_esc_total", {"k": nasty}) == 1.0

    def test_rendering_is_deterministic(self):
        def build(order):
            reg = MetricsRegistry()
            c = reg.counter("repro_d_total", "d", ("k",))
            for k in order:
                c.labels(k).inc()
            reg.gauge("repro_a_gauge", "a").set(1)
            return reg.render()

        assert build(["b", "a", "c"]) == build(["c", "b", "a"])
        # families name-sorted, children label-sorted
        text = build(["b", "a"])
        assert text.index("repro_a_gauge") < text.index("repro_d_total")
        assert text.index('k="a"') < text.index('k="b"')

    def test_histogram_bucket_sum_count_invariants(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_hb_seconds", "h", buckets=(0.1, 1.0, 5.0))
        for v in (0.05, 0.5, 0.5, 3.0, 100.0):
            h.observe(v)
        families = parse_prometheus_text(reg.render())
        fam = families["repro_hb_seconds"]
        assert fam.type == "histogram"
        buckets = {
            s.labels["le"]: s.value
            for s in fam.samples
            if s.name.endswith("_bucket")
        }
        # cumulative and monotonically non-decreasing, +Inf == _count
        assert buckets == {"0.1": 1, "1": 3, "5": 4, "+Inf": 5}
        count = sample_value(families, "repro_hb_seconds_count", {})
        total = sample_value(families, "repro_hb_seconds_sum", {})
        assert count == 5
        assert total == pytest.approx(104.05)
        assert buckets["+Inf"] == count

    def test_histogram_bucket_placement_at_the_edges(self):
        bounds = (0.1, 1.0, 5.0)

        def placed(value):
            """The ``le`` of the bucket a lone observation lands in."""
            h = MetricsRegistry().histogram("repro_edge", "h", buckets=bounds)
            h.observe(value)
            return next(le for le, n in h.labels().bucket_values() if n)

        # a value equal to a bound belongs to that bound's bucket
        assert placed(0.1) == 0.1
        assert placed(1.0) == 1.0
        assert placed(5.0) == 5.0
        # between bounds: the next bound up; below the first: the first
        assert placed(0.5) == 1.0
        assert placed(1.0000001) == 5.0
        assert placed(-3.0) == 0.1
        assert placed(float("-inf")) == 0.1
        # above the last bound, +Inf and NaN all go to +Inf only
        for value in (5.0000001, 1e300, float("inf"), float("nan")):
            assert placed(value) == float("inf"), value

    def test_scrape_then_reparse_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("repro_rt_total", "c", ("a", "b")).labels("x", "y").inc(7)
        reg.gauge("repro_rt_gauge", "g").set(-2.5)
        reg.histogram("repro_rt_seconds", "h", buckets=(1.0,)).observe(0.25)
        text = reg.render()
        families = parse_prometheus_text(text)
        assert sample_value(
            families, "repro_rt_total", {"a": "x", "b": "y"}
        ) == 7.0
        assert sample_value(families, "repro_rt_gauge", {}) == -2.5
        assert families["repro_rt_seconds"].help == "h"
        # the parser folds histogram suffixes into the base family
        assert set(families) == {
            "repro_rt_total", "repro_rt_gauge", "repro_rt_seconds"
        }

    def test_merged_render_first_registry_wins(self):
        private, shared = MetricsRegistry(), MetricsRegistry()
        private.counter("repro_m_total").inc(1)
        shared.counter("repro_m_total").inc(99)
        shared.gauge("repro_only_shared").set(4)
        families = parse_prometheus_text(render_prometheus(private, shared))
        assert sample_value(families, "repro_m_total", {}) == 1.0
        assert sample_value(families, "repro_only_shared", {}) == 4.0

    def test_parser_rejects_garbage(self):
        with pytest.raises(PromParseError):
            parse_prometheus_text("repro_bad{unterminated 1\n")
        with pytest.raises(PromParseError):
            parse_prometheus_text("repro_bad not-a-number\n")


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class TestTracer:
    def test_spans_nest_into_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer", task="t") as outer:
            with tracer.span("inner"):
                assert tracer.current().name == "inner"
        assert tracer.current() is None
        root = tracer.last()
        assert root is outer
        assert [c.name for c in root.children] == ["inner"]
        assert root.duration >= root.children[0].duration
        assert [s.name for s in root.find("inner")] == ["inner"]

    def test_ring_buffer_bounds_retention(self):
        tracer = Tracer(ring=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [r.name for r in tracer.roots()] == ["s2", "s3", "s4"]

    def test_exception_stamps_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("nope")
        root = tracer.last()
        assert root.end is not None
        assert "RuntimeError" in root.attributes["error"]

    def test_disabled_tracer_retains_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ghost") as span:
            span.attributes["x"] = 1  # attribute writes still work
        assert tracer.roots() == []

    def test_to_json_is_loadable(self):
        tracer = Tracer()
        with tracer.span("a", n=1):
            with tracer.span("b"):
                pass
        (tree,) = json.loads(tracer.to_json())
        assert tree["name"] == "a"
        assert tree["attributes"] == {"n": 1}
        assert tree["children"][0]["name"] == "b"


# ---------------------------------------------------------------------------
# Pipeline instrumentation
# ---------------------------------------------------------------------------


class _Endpoint:
    """A bare Profilable: just a pprof endpoint."""

    def __init__(self, runtime):
        self._runtime = runtime

    def profile(self):
        return GoroutineProfile.take(self._runtime)


class TestPipelineInstrumentation:
    def test_scheduler_records_runs_and_steps(self):
        rt = Runtime(seed=3)
        rt.run(timeout_leak.leaky, rt, detect_global_deadlock=False)
        snap = obs.snapshot()
        assert snap["repro_sched_runs_total"]["samples"][""] >= 1
        assert snap["repro_sched_steps_total"]["samples"][""] > 0
        assert snap["repro_sched_run_seconds"]["samples"][""]["count"] >= 1

    def test_each_run_records_its_four_series_together(self):
        """One record per run: queue depth at its start, one run, its
        steps and one duration — also for a run that exhausts its budget."""
        from repro.runtime import SchedulerExhausted, go, gosched

        def spin(rt):
            for _ in range(10):
                yield gosched()

        def main(rt):
            yield go(spin, rt)
            yield go(spin, rt)

        rt = Runtime(seed=3)
        rt.spawn(main, rt)
        rt.spawn(spin, rt)
        with pytest.raises(SchedulerExhausted):
            rt.run_until_quiescent(max_steps=5)
        snap = obs.snapshot()
        assert snap["repro_sched_run_queue_depth"]["samples"][""] == 2
        assert snap["repro_sched_runs_total"]["samples"][""] == 1
        assert snap["repro_sched_steps_total"]["samples"][""] == 5
        assert snap["repro_sched_run_seconds"]["samples"][""]["count"] == 1
        queued = len(rt._run_queue)
        rt.run_until_quiescent()
        snap = obs.snapshot()
        assert snap["repro_sched_run_queue_depth"]["samples"][""] == queued
        assert snap["repro_sched_runs_total"]["samples"][""] == 2
        assert snap["repro_sched_steps_total"]["samples"][""] == rt.steps
        assert snap["repro_sched_run_seconds"]["samples"][""]["count"] == 2

    def test_disabled_obs_records_nothing(self):
        obs.configure(enabled=False, trace_enabled=False)
        rt = Runtime(seed=3)
        rt.run(timeout_leak.leaky, rt, detect_global_deadlock=False)
        LeakProf(threshold=1).daily_run([_Endpoint(rt)])
        assert obs.snapshot() == {}
        assert obs.default_tracer().roots() == []

    def test_gc_sweep_records_phases_and_verdicts(self):
        rt = Runtime(seed=3)
        for _ in range(3):
            rt.run(timeout_leak.leaky, rt, detect_global_deadlock=False)
        rt.gc(full=True)
        snap = obs.snapshot()
        assert snap["repro_gc_sweeps_total"]["samples"][""] == 1
        phases = snap["repro_gc_phase_seconds"]["samples"]
        assert phases["phase=sync"]["count"] == 1
        assert phases["phase=mark"]["count"] == 1
        verdicts = snap["repro_gc_verdicts"]["samples"]
        assert verdicts["verdict=proven_leaked"] >= 1

    def test_daily_run_produces_complete_span_tree(self):
        rt = Runtime(seed=3)
        for _ in range(6):
            rt.run(timeout_leak.leaky, rt, detect_global_deadlock=False)
        result = LeakProf(threshold=3).daily_run([_Endpoint(rt)])
        assert result.new_reports
        (root,) = obs.default_tracer().find("leakprof.daily_run")
        assert [c.name for c in root.children] == [
            "leakprof.sweep", "leakprof.detect"
        ]
        detect = root.children[1]
        assert [c.name for c in detect.children] == [
            "leakprof.scan", "leakprof.rank", "leakprof.file"
        ]
        assert root.attributes["new_reports"] == 1
        snap = obs.snapshot()
        phases = snap["repro_leakprof_phase_seconds"]["samples"]
        assert set(phases) == {
            "phase=sweep", "phase=scan", "phase=rank", "phase=file"
        }
        kinds = snap["repro_leakprof_results_total"]["samples"]
        assert kinds["kind=new_report"] == 1


# ---------------------------------------------------------------------------
# The fleet's window series, folded once per service-window
# ---------------------------------------------------------------------------

#: Every instance serves exactly this many requests per window.
REQUESTS = 3
#: Scheduler steps one window of ``small_fleet`` takes, every window.
WINDOW_STEPS = 66


def small_fleet() -> Fleet:
    fleet = Fleet()
    for name, body in (("leaky", timeout_leak.leaky),
                       ("ok", healthy.request_response)):
        config = ServiceConfig(
            name=name,
            mix=RequestMix().add("h", body, weight=1.0),
            instances=2,
            traffic=TrafficShape(requests_per_window=REQUESTS,
                                 diurnal_fraction=0.0),
        )
        fleet.add(Service(config, seed=11))
    return fleet


def fleet_series(registry: MetricsRegistry) -> dict:
    """The window's hot-path series, read back from a scrape."""
    families = parse_prometheus_text(registry.render())
    out = {
        "runs": sample_value(families, "repro_sched_runs_total"),
        "steps": sample_value(families, "repro_sched_steps_total"),
    }
    for svc in ("leaky", "ok"):
        by_service = {"service": svc}
        out[svc] = (
            sample_value(families, "repro_fleet_windows_total", by_service),
            sample_value(families, "repro_fleet_requests_total", by_service),
            sample_value(families, "repro_fleet_service_health",
                         {**by_service, "field": "blocked_goroutines"}),
            sample_value(families, "repro_fleet_service_health",
                         {**by_service, "field": "instances"}),
        )
    return out


class TestBoundHandles:
    def expected_after_one_window(self, fleet: Fleet) -> dict:
        # one run per request: the window's idle tail rides the last
        # request's run, so it adds no run and no step (66 steps per
        # window, as when the tail had a run of its own)
        instances = sum(len(svc.instances) for svc in fleet)
        return {
            "runs": instances * REQUESTS,
            "steps": WINDOW_STEPS,
            **{
                name: (2, 2 * REQUESTS,
                       svc.history[-1].total_blocked_goroutines, 2)
                for name, svc in fleet.services.items()
            },
        }

    def test_handles_rebind_after_reset(self):
        fleet = small_fleet()
        fleet.advance_window()
        registry = obs.default_registry()
        # hold the first window's families: reset drops them from the
        # registry, and nothing may keep recording into them afterwards
        old = {
            name: registry.get(name).total
            for name in ("repro_sched_runs_total",
                         "repro_fleet_windows_total",
                         "repro_fleet_requests_total")
        }
        held = {name: registry.get(name) for name in old}
        obs.reset()
        fleet.advance_window()
        assert obs.default_registry() is registry
        assert fleet_series(registry) == self.expected_after_one_window(fleet)
        assert {name: family.total for name, family in held.items()} == old

    def test_handles_follow_a_swapped_registry(self):
        fleet = small_fleet()
        fleet.advance_window()
        first = obs.default_registry()
        before = first.render()
        swapped_out = obs.set_default_registry(MetricsRegistry())
        assert swapped_out is first
        fleet.advance_window()
        assert fleet_series(obs.default_registry()) == (
            self.expected_after_one_window(fleet)
        )
        assert first.render() == before

    def test_disabled_registry_moves_no_series(self):
        fleet = small_fleet()
        fleet.advance_window()
        before = obs.render()
        obs.configure(enabled=False)
        fleet.advance_window()
        assert obs.render() == before
        obs.configure(enabled=True)
        fleet.advance_window()
        assert obs.render() != before

    def test_serial_history_is_identical_with_obs_on_and_off(self):
        histories = []
        for enabled in (True, False):
            obs.configure(enabled=enabled)
            fleet = small_fleet()
            for _ in range(4):
                fleet.advance_window()
            histories.append(
                {name: svc.history for name, svc in fleet.services.items()}
            )
        obs.configure(enabled=True)
        assert histories[0] == histories[1]
        assert histories[0]["leaky"][-1].total_blocked_goroutines > 0


# ---------------------------------------------------------------------------
# One metrics path: a sharded scrape equals the serial one
# ---------------------------------------------------------------------------

PARITY_SERVICES = ("leaky", "ok", "idle")
PARITY_WINDOWS = 12


def parity_configs():
    def config(name, body, instances, traffic):
        return ServiceConfig(
            name=name,
            mix=RequestMix().add("h", body, weight=1.0),
            instances=instances,
            traffic=traffic,
        )

    return [
        (config("leaky", timeout_leak.leaky, 3,
                TrafficShape(requests_per_window=4)), 5),
        (config("ok", healthy.request_response, 2,
                TrafficShape(requests_per_window=4)), 6),
        # requests_at swings over [0, 2] and hours 6-9 are silenced, so
        # some of its windows serve no request at all
        (config("idle", healthy.request_response, 2,
                TrafficShape(requests_per_window=1, diurnal_fraction=2.0,
                             surges=((6 * 3600.0, 9 * 3600.0, 0.0),))), 7),
    ]


def parity_series(registry: MetricsRegistry) -> dict:
    """Every run and window series a serial and a sharded scrape share."""
    families = parse_prometheus_text(registry.render())
    out = {
        name: sample_value(families, name)
        for name in ("repro_sched_runs_total", "repro_sched_steps_total",
                     "repro_sched_run_seconds_count")
    }
    for svc in PARITY_SERVICES:
        by_service = {"service": svc}
        for name in ("repro_fleet_windows_total",
                     "repro_fleet_requests_total",
                     "repro_fleet_window_seconds_count"):
            out[name, svc] = sample_value(families, name, by_service)
        for field in ("rss_bytes", "blocked_goroutines", "instances"):
            out["repro_fleet_service_health", svc, field] = sample_value(
                families, "repro_fleet_service_health",
                {**by_service, "field": field},
            )
    return out


def scrape_after_week(make_fleet) -> tuple:
    """Run a fleet into a fresh default registry; return the scrape of
    its run and window series, and the fleet."""
    registry = MetricsRegistry()
    obs.set_default_registry(registry)
    fleet = make_fleet()
    for config, seed in parity_configs():
        if isinstance(fleet, ShardedFleet):
            fleet.add_service(config, seed=seed)
        else:
            fleet.add(Service(config, seed=seed))
    if isinstance(fleet, ShardedFleet):
        with fleet:
            fleet.start()
            fleet.run_days(PARITY_WINDOWS * 3600.0 / 86_400, 3600.0)
    else:
        fleet.run_days(PARITY_WINDOWS * 3600.0 / 86_400, 3600.0)
    return parity_series(registry), fleet


class TestScrapeParity:
    def test_sharded_scrape_equals_serial(self):
        """Worker counts cross the process boundary: at 1 and 2 shards,
        and after a mid-week SIGKILL with a checkpoint behind it, the
        parent's scrape of every run and window series equals the
        serial fleet's — merged into the same label sets, each command's
        counts folded exactly once."""
        serial, fleet = scrape_after_week(Fleet)
        served = [m.requests_served
                  for i in fleet.services["idle"].instances
                  for m in i.metrics]
        assert 0 in served and max(served) > 0, "no idle window; vacuous"
        assert all(value is not None for value in serial.values())
        # one run per request, plus one per zero-request window
        assert serial["repro_sched_runs_total"] == sum(
            i.requests_served for i in fleet.all_instances()
        ) + served.count(0)
        assert serial["repro_fleet_windows_total", "idle"] == (
            2 * PARITY_WINDOWS
        )

        for shards in (1, 2):
            sharded, _ = scrape_after_week(lambda: ShardedFleet(shards=shards))
            assert sharded == serial, shards

        # shard 1's ops: init, four advances, the checkpoint, then the
        # kill lands on window 6's advance; replay re-runs window 5,
        # whose reply (already folded once) is discarded
        schedule = FaultSchedule().pin(FaultKind.KILL_WORKER, 1, 7)
        sharded, fleet = scrape_after_week(lambda: ShardedFleet(
            shards=2, chaos=ShardChaos(schedule), checkpoint_every=4,
            worker_deadline=10.0,
        ))
        assert schedule.fired_count(FaultKind.KILL_WORKER) == 1
        assert fleet.worker_restarts == 1 and fleet.restores_performed == 1
        assert fleet.replay_lengths == [2]
        assert sharded == serial


# ---------------------------------------------------------------------------
# The daemon: /metrics, /healthz, stats single-source
# ---------------------------------------------------------------------------


@pytest.fixture()
def served(tmp_path):
    store = IngestStore(str(tmp_path / "leaks.sqlite"))
    store.register_tenant("acme", "tok-a", threshold=3)
    server = IngestServer(store, admin_token="adm").start()
    yield server
    server.close()
    store.close()


class TestDaemonObservability:
    def test_healthz_reports_uptime(self, served):
        client = IngestClient(served.url, "acme", "tok-a")
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0.0

    def test_metrics_and_stats_share_one_source(self, served):
        client = IngestClient(served.url, "acme", "tok-a")
        client.upload(leak_profile_text(), instance="i-0")
        with pytest.raises(IngestError):
            IngestClient(served.url, "acme", "bad-token").profiles()
        families = parse_prometheus_text(client.metrics())
        assert sample_value(
            families, "repro_ingest_uploads_total", {"result": "accepted"}
        ) == 1.0
        assert sample_value(
            families, "repro_ingest_rejections_total", {"status": "401"}
        ) == 1.0
        assert sample_value(
            families, "repro_ingest_archive", {"kind": "profiles_archived"}
        ) == 1.0
        stats = client.stats()
        assert stats["uploads_accepted"] == 1
        assert stats["uploads_rejected"] == 1
        # request accounting: normalized endpoints, no raw paths
        upload_requests = sample_value(
            families,
            "repro_ingest_requests_total",
            {"method": "POST", "endpoint": "tenant_profiles", "status": "201"},
        )
        assert upload_requests == 1.0
        parse_count = sample_value(
            families, "repro_ingest_parse_seconds_count", {}
        )
        assert parse_count == 1.0
        assert sample_value(
            families, "repro_ingest_upload_bytes_count", {}
        ) == 1.0

    def test_two_servers_do_not_share_counters(self, tmp_path, served):
        other_store = IngestStore(str(tmp_path / "other.sqlite"))
        other_store.register_tenant("acme", "tok-a")
        other = IngestServer(other_store).start()
        try:
            IngestClient(served.url, "acme", "tok-a").upload(
                leak_profile_text(), instance="i-0"
            )
            families = parse_prometheus_text(
                IngestClient(other.url, "acme", "tok-a").metrics()
            )
            # the other server never saw an upload: its accepted child
            # either doesn't exist yet or is zero
            accepted = sample_value(
                families, "repro_ingest_uploads_total", {"result": "accepted"}
            )
            assert accepted in (None, 0.0)
            assert other.stats["uploads_accepted"] == 0
        finally:
            other.close()
            other_store.close()

    def test_metrics_content_type_and_merged_pipeline_series(self, served):
        # drive the pipeline so default-registry series exist...
        rt = Runtime(seed=3)
        rt.run(timeout_leak.leaky, rt, detect_global_deadlock=False)
        rt.gc(full=True)
        scrape = IngestClient(served.url, "acme", "tok-a").metrics()
        families = parse_prometheus_text(scrape)
        # ...and the daemon's scrape carries scheduler, gc, and ingest
        # series in one exposition (the acceptance criterion).
        assert "repro_sched_runs_total" in families
        assert "repro_gc_sweeps_total" in families
        assert "repro_ingest_requests_total" in families

    def test_scan_over_live_daemon_yields_complete_span_tree(self, served):
        client = IngestClient(served.url, "acme", "tok-a")
        client.upload(leak_profile_text(), instance="i-0")
        admin = IngestClient(served.url, "-", "adm")
        scan = admin.scan()
        assert scan["tenants"]["acme"]["new_reports"] >= 1
        (root,) = obs.default_tracer().find("ingest.run_tenant")
        child_names = [c.name for c in root.children]
        assert child_names == [
            "ingest.sweep", "leakprof.detect", "remedy.diagnose"
        ]
        detect = root.children[1]
        assert [c.name for c in detect.children] == [
            "leakprof.scan", "leakprof.rank", "leakprof.file"
        ]
        assert root.attributes["tenant"] == "acme"
        snap = obs.snapshot()
        runs = snap["repro_ingest_tenant_runs_total"]["samples"]
        assert runs["tenant=acme"] == 1


# ---------------------------------------------------------------------------
# Module-level API
# ---------------------------------------------------------------------------


class TestObsModule:
    def test_snapshot_render_and_summary(self):
        obs.counter("repro_api_total", "api").inc(2)
        obs.histogram("repro_api_seconds").observe(0.1)
        with obs.span("api.phase"):
            pass
        assert obs.snapshot()["repro_api_total"]["samples"][""] == 2
        assert "repro_api_total 2" in obs.render()
        digest = obs.summary()
        assert "repro_api_total 2" in digest
        assert "api.phase" in digest
        obs.reset()
        assert obs.snapshot() == {}
        assert obs.default_tracer().roots() == []

    def test_cli_pretty_prints_a_saved_exposition(self, tmp_path, capsys):
        from repro.obs.__main__ import main as obs_main

        reg = MetricsRegistry()
        reg.counter("repro_cli_total", "c", ("k",)).labels("v").inc(3)
        reg.histogram("repro_cli_seconds", "h", buckets=(1.0,)).observe(0.5)
        path = tmp_path / "metrics.prom"
        path.write_text(reg.render())
        assert obs_main(["--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro_cli_total" in out
        assert 'k="v"' in out
        assert obs_main(["--file", str(path), "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["repro_cli_total"]["samples"][0]["value"] == 3.0
