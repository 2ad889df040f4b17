"""repro.ingest — the multi-tenant ingestion service, end to end.

Covers the four layers of the subsystem: the sqlite archive
(:class:`IngestStore`), the restart-safe bug database
(:class:`PersistentBugDatabase`), the per-tenant scheduler, and the
HTTP daemon — the latter over a real loopback port, with golden Go
``debug=2`` fixtures as the uploaded payloads.
"""

import pathlib

import pytest

from repro.ingest import (
    IngestClient,
    IngestError,
    IngestServer,
    IngestStore,
    MultiTenantScheduler,
    PersistentBugDatabase,
    RateLimiter,
    Tenant,
)
from repro.leakprof import LeakProf, scan_profile
from repro.leakprof.reports import ReportStatus
from repro.patterns import timeout_leak
from repro.profiling import GoroutineProfile, dump_text, parse_profile
from repro.runtime import Runtime

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "gopprof"


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


def simulator_leak_text(seed: int = 7) -> str:
    """A simulator-dialect profile with a genuine timeout leak."""
    rt = Runtime(seed=seed, name="i-0")
    for _ in range(6):
        rt.run(timeout_leak.leaky, rt, detect_global_deadlock=False)
    return dump_text(GoroutineProfile.take(rt, service="sim", instance="i-0"))


# ---------------------------------------------------------------------------
# IngestStore


class TestIngestStore:
    def test_register_tenant_is_an_upsert(self, tmp_path):
        store = IngestStore(str(tmp_path / "a.sqlite"))
        store.register_tenant("acme", "old-token", threshold=5)
        store.register_tenant("acme", "new-token", threshold=3)
        tenant = store.tenant("acme")
        assert tenant == Tenant("acme", "new-token", 3, 10, 0.0)
        assert [t.name for t in store.tenants()] == ["acme"]
        store.close()

    def test_profiles_archived_verbatim(self, tmp_path):
        store = IngestStore(str(tmp_path / "a.sqlite"))
        store.register_tenant("acme", "tok")
        text = fixture("go1.19_chan_send_leak.txt")
        pid = store.store_profile(
            "acme", text, dialect="go", goroutines=6,
            service="transactions", instance="i-1", received_at=42.0,
        )
        (stored,) = store.profiles_for("acme")
        assert stored.profile_id == pid
        assert stored.body == text
        assert stored.received_at == 42.0
        profile = stored.parse()
        assert len(profile) == 6
        assert profile.service == "transactions"
        store.close()

    def test_counters_are_durable(self, tmp_path):
        path = str(tmp_path / "a.sqlite")
        store = IngestStore(path)
        assert [store.next_counter("x") for _ in range(3)] == [1, 2, 3]
        store.close()
        store = IngestStore(path)
        assert store.next_counter("x") == 4
        assert store.next_counter("y") == 1  # independent namespaces
        store.close()


# ---------------------------------------------------------------------------
# PersistentBugDatabase


class TestPersistentBugDatabase:
    def _scan_and_file(self, store, tenant="acme"):
        profile, _ = parse_profile(
            fixture("go1.19_chan_send_leak.txt"), service=tenant
        )
        suspects = scan_profile(profile, threshold=3)
        scheduler = MultiTenantScheduler(store)
        db = scheduler.bug_db(tenant)
        leakprof = LeakProf(threshold=3, bug_db=db)
        result = leakprof.analyze_profiles([profile], now=1.0)
        return db, result, suspects

    def test_reports_survive_reopen(self, tmp_path):
        path = str(tmp_path / "bugs.sqlite")
        store = IngestStore(path)
        store.register_tenant("acme", "tok", threshold=3)
        db, result, suspects = self._scan_and_file(store)
        assert len(suspects) == 1
        assert len(result.new_reports) == 1
        assert store.report_count("acme") == 1
        store.close()

        store = IngestStore(path)
        db = PersistentBugDatabase(store, "acme")
        (report,) = db.all_reports()
        assert report.candidate.location == "/srv/transactions/cost.go:8"
        assert report.candidate.state == "chan send"
        assert report.status is ReportStatus.OPEN
        assert db.funnel() == {"reported": 1, "acknowledged": 0, "fixed": 0}
        store.close()

    def test_lifecycle_transitions_persist(self, tmp_path):
        path = str(tmp_path / "bugs.sqlite")
        store = IngestStore(path)
        store.register_tenant("acme", "tok", threshold=3)
        db, _, _ = self._scan_and_file(store)
        (report,) = db.all_reports()
        db.acknowledge(report)
        db.propose_fix(report)
        db.mark_fix_verified(report)
        db.mark_deployed(report)
        store.close()

        store = IngestStore(path)
        (report,) = PersistentBugDatabase(store, "acme").all_reports()
        assert report.status is ReportStatus.DEPLOYED
        assert PersistentBugDatabase(store, "acme").funnel() == {
            "reported": 1, "acknowledged": 1, "fixed": 1,
        }
        store.close()

    def test_report_ids_never_collide_across_restarts(self, tmp_path):
        path = str(tmp_path / "bugs.sqlite")
        store = IngestStore(path)
        store.register_tenant("acme", "tok", threshold=3)
        db, _, _ = self._scan_and_file(store)
        (first,) = db.all_reports()
        store.close()

        # a fresh process must keep allocating *after* the persisted ids
        store = IngestStore(path)
        db = PersistentBugDatabase(store, "acme")
        assert db._next_report_id() > first.report_id
        store.close()

    def test_refiling_known_leak_is_a_duplicate(self, tmp_path):
        store = IngestStore(str(tmp_path / "bugs.sqlite"))
        store.register_tenant("acme", "tok", threshold=3)
        _, first, _ = self._scan_and_file(store)
        _, second, _ = self._scan_and_file(store)
        assert len(first.new_reports) == 1
        assert len(second.new_reports) == 0
        assert len(second.duplicates) == 1
        assert store.report_count("acme") == 1
        store.close()

    def test_tenants_do_not_share_reports(self, tmp_path):
        store = IngestStore(str(tmp_path / "bugs.sqlite"))
        store.register_tenant("acme", "a", threshold=3)
        store.register_tenant("globex", "b", threshold=3)
        self._scan_and_file(store, tenant="acme")
        assert len(PersistentBugDatabase(store, "acme")) == 1
        assert len(PersistentBugDatabase(store, "globex")) == 0
        store.close()


# ---------------------------------------------------------------------------
# RateLimiter


class TestRateLimiter:
    def test_burst_then_refill(self):
        now = [0.0]
        limiter = RateLimiter(rate=1.0, burst=2.0, clock=lambda: now[0])
        assert limiter.allow("acme")
        assert limiter.allow("acme")
        assert not limiter.allow("acme")
        now[0] = 1.0
        assert limiter.allow("acme")

    def test_keys_are_independent(self):
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=lambda: 0.0)
        assert limiter.allow("acme")
        assert not limiter.allow("acme")
        assert limiter.allow("globex")


# ---------------------------------------------------------------------------
# Daemon end-to-end (real HTTP over loopback)


@pytest.fixture
def served(tmp_path):
    """A live daemon over a file-backed store with two tenants."""
    store = IngestStore(str(tmp_path / "ingest.sqlite"))
    store.register_tenant("acme", "tok-a", threshold=3)
    store.register_tenant("globex", "tok-b", threshold=3)
    server = IngestServer(store, admin_token="adm").start()
    yield server, store
    server.close()
    store.close()


class TestDaemon:
    def _upload_fleet(self, server):
        """Two tenants x three dialect-diverse profiles each."""
        acme = IngestClient(server.url, "acme", "tok-a")
        globex = IngestClient(server.url, "globex", "tok-b")
        for name in (
            "go1.19_chan_send_leak.txt",
            "go1.21_wait_states.txt",
            "go1.22_select_timeout_leak.txt",
        ):
            receipt = acme.upload(fixture(name), instance="i-1")
            assert receipt["dialect"] == "go"
        globex.upload(fixture("go1.19_chan_send_leak.txt"), instance="i-9")
        globex.upload(fixture("go1.21_wait_states.txt"), instance="i-9")
        receipt = globex.upload(simulator_leak_text(), instance="i-9")
        assert receipt["dialect"] == "simulator"
        return acme, globex

    def test_health_and_stats(self, served):
        server, _ = served
        client = IngestClient(server.url, "acme", "tok-a")
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0.0
        stats = client.stats()
        assert stats["tenants"] == 2
        assert stats["uploads_accepted"] == 0

    def test_upload_scan_report_cycle(self, served):
        server, store = served
        acme, globex = self._upload_fleet(server)
        assert store.profile_count() == 6

        admin = IngestClient(server.url, "-", "adm")
        scan = admin.scan()
        assert scan["tenants"]["acme"]["profiles_scanned"] == 3
        assert scan["tenants"]["acme"]["new_reports"] == 2
        assert scan["tenants"]["globex"]["new_reports"] >= 2

        reports = acme.reports()
        assert reports["funnel"]["reported"] == 2
        locations = {r["location"] for r in reports["reports"]}
        assert locations == {
            "/srv/transactions/cost.go:8",
            "/srv/checkout/quote.go:73",
        }
        assert all(r["status"] == "open" for r in reports["reports"])

        # re-scanning must not re-file (dedup by candidate key)
        rescan = admin.scan()
        assert rescan["tenants"]["acme"]["new_reports"] == 0
        assert rescan["tenants"]["acme"]["duplicates"] == 2
        assert acme.reports()["funnel"]["reported"] == 2

    def test_suspects_endpoint_is_read_only(self, served):
        server, store = served
        acme, _ = self._upload_fleet(server)
        body = acme.suspects()
        assert body["profiles_scanned"] == 3
        assert {
            (s["state"], s["location"], s["count"])
            for s in body["suspects"]
        } == {
            ("chan send", "/srv/transactions/cost.go:8", 4),
            ("select", "/srv/checkout/quote.go:73", 4),
        }
        assert store.report_count() == 0  # nothing filed

    def test_suspects_dead_letters_a_poison_row(self, served):
        """A poison row in the archive must not turn ``/suspects`` into a
        500: the endpoint reads through the scheduler's sweep, which
        dead-letters the row, so a later scan has nothing to quarantine."""
        from repro.chaos import poison_profile_text

        server, store = served
        store.store_profile(
            "acme", simulator_leak_text(), dialect="simulator", goroutines=7
        )
        (healthy,) = store.profiles_for("acme")
        store.store_profile(
            "acme", poison_profile_text(seed=0),
            dialect="simulator", goroutines=0,
        )
        expected = [
            (s.state, s.location, s.count)
            for s in scan_profile(healthy.parse(), threshold=3)
        ]
        assert expected, "the healthy row reports no suspects; vacuous test"

        body = IngestClient(server.url, "acme", "tok-a").suspects()
        assert body["profiles_scanned"] == 1
        assert [
            (s["state"], s["location"], s["count"]) for s in body["suspects"]
        ] == expected
        assert store.quarantine_count("acme") == 1
        assert store.report_count() == 0  # still files nothing

        scan = IngestClient(server.url, "-", "adm").scan()
        assert scan["tenants"]["acme"]["profiles_scanned"] == 1
        assert scan["tenants"]["acme"].get("quarantined", 0) == 0
        assert store.quarantine_count("acme") == 1

    def test_funnel_survives_daemon_restart(self, served, tmp_path):
        server, store = served
        acme, _ = self._upload_fleet(server)
        IngestClient(server.url, "-", "adm").scan()

        # triage one report through the remediation funnel
        db = server.scheduler.bug_db("acme")
        report = next(
            r for r in db.all_reports()
            if r.candidate.location == "/srv/transactions/cost.go:8"
        )
        db.acknowledge(report)
        db.propose_fix(report)
        db.mark_fix_verified(report)

        server.close()
        store.close()

        # a brand-new daemon over the same sqlite file sees everything
        store2 = IngestStore(str(tmp_path / "ingest.sqlite"))
        with IngestServer(store2, admin_token="adm") as server2:
            acme2 = IngestClient(server2.url, "acme", "tok-a")
            reports = acme2.reports()
            assert reports["funnel"] == {
                "reported": 2, "acknowledged": 1, "fixed": 0,
            }
            statuses = {r["location"]: r["status"] for r in reports["reports"]}
            assert statuses["/srv/transactions/cost.go:8"] == "fix_verified"
            assert statuses["/srv/checkout/quote.go:73"] == "open"
            assert acme2.profiles()["profiles"][0]["dialect"] == "go"
        store2.close()

    def test_content_type_pins_dialect(self, served):
        server, _ = served
        acme = IngestClient(server.url, "acme", "tok-a")
        receipt = acme.upload(
            fixture("go1.21_wait_states.txt"), dialect="go", service="pipeline"
        )
        assert receipt["dialect"] == "go"
        assert receipt["service"] == "pipeline"
        assert receipt["goroutines"] == 7
        # declaring the wrong dialect is a 400, not silent mis-parsing
        with pytest.raises(IngestError) as err:
            acme.upload(fixture("go1.21_wait_states.txt"), dialect="simulator")
        assert err.value.status == 400


class TestDaemonRejections:
    def test_bad_token_is_401(self, served):
        server, _ = served
        client = IngestClient(server.url, "acme", "wrong-token")
        with pytest.raises(IngestError) as err:
            client.upload(fixture("go1.19_chan_send_leak.txt"))
        assert err.value.status == 401

    def test_missing_bearer_is_401(self, served):
        server, _ = served
        import urllib.error
        import urllib.request

        req = urllib.request.Request(
            server.url + "/v1/tenants/acme/profiles",
            data=b"goroutine 1 [running]:\n", method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 401

    def test_unknown_tenant_is_404(self, served):
        server, _ = served
        client = IngestClient(server.url, "initech", "tok-a")
        with pytest.raises(IngestError) as err:
            client.upload(fixture("go1.19_chan_send_leak.txt"))
        assert err.value.status == 404

    def test_unknown_endpoint_is_404(self, served):
        server, _ = served
        client = IngestClient(server.url, "acme", "tok-a")
        with pytest.raises(IngestError) as err:
            client._request("GET", "/v1/tenants/acme/nonsense")
        assert err.value.status == 404

    def test_oversized_body_is_413(self, tmp_path):
        store = IngestStore(str(tmp_path / "x.sqlite"))
        store.register_tenant("acme", "tok", threshold=3)
        with IngestServer(store, max_body_bytes=64) as server:
            client = IngestClient(server.url, "acme", "tok")
            with pytest.raises(IngestError) as err:
                client.upload(fixture("go1.19_chan_send_leak.txt"))
            assert err.value.status == 413
            assert client.stats()["uploads_rejected"] == 1
        store.close()

    def test_truncated_profile_is_400(self, served):
        server, _ = served
        client = IngestClient(server.url, "acme", "tok-a")
        with pytest.raises(IngestError) as err:
            client.upload(fixture("malformed_truncated.txt"))
        assert err.value.status == 400
        assert "unparseable" in err.value.reason

    def test_garbage_and_empty_bodies_are_400(self, served):
        server, _ = served
        client = IngestClient(server.url, "acme", "tok-a")
        with pytest.raises(IngestError) as err:
            client.upload("not a profile at all\n")
        assert err.value.status == 400
        with pytest.raises(IngestError) as err:
            client.upload("")
        assert err.value.status == 400

    def test_rate_limit_is_429(self, tmp_path):
        store = IngestStore(str(tmp_path / "x.sqlite"))
        store.register_tenant("acme", "tok", threshold=3)
        frozen = lambda: 100.0  # noqa: E731 - bucket never refills
        with IngestServer(store, burst=2.0, clock=frozen) as server:
            client = IngestClient(server.url, "acme", "tok")
            client.upload(fixture("go1.19_chan_send_leak.txt"))
            client.upload(fixture("go1.19_chan_send_leak.txt"))
            with pytest.raises(IngestError) as err:
                client.upload(fixture("go1.19_chan_send_leak.txt"))
            assert err.value.status == 429
        store.close()

    def test_scan_requires_admin_token(self, served):
        server, _ = served
        with pytest.raises(IngestError) as err:
            IngestClient(server.url, "-", "tok-a").scan()
        assert err.value.status == 401


# ---------------------------------------------------------------------------
# CLI


class TestCli:
    def test_add_tenant_then_offline_scan(self, tmp_path, capsys):
        from repro.ingest.__main__ import main

        db = str(tmp_path / "cli.sqlite")
        assert main(["add-tenant", "--db", db, "--name", "acme",
                     "--token", "tok", "--threshold", "3"]) == 0
        store = IngestStore(db)
        assert store.tenant("acme").threshold == 3
        store.store_profile(
            "acme", fixture("go1.19_chan_send_leak.txt"),
            dialect="go", goroutines=6,
        )
        store.close()
        assert main(["scan", "--db", db]) == 0
        out = capsys.readouterr().out
        assert '"new_reports": 1' in out


# ---------------------------------------------------------------------------
# Hardening: sqlite hygiene, crash-shaped restarts, the dead-letter CLI


class TestStoreHardening:
    def test_file_stores_run_wal_with_busy_timeout(self, tmp_path):
        store = IngestStore(str(tmp_path / "wal.sqlite"))
        (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
        (timeout,) = store._conn.execute("PRAGMA busy_timeout").fetchone()
        assert mode == "wal"
        assert timeout == 5000
        store.close()

    def test_corrupt_file_is_a_typed_startup_error(self, tmp_path):
        from repro.ingest import StoreCorruptError

        path = tmp_path / "corrupt.sqlite"
        path.write_bytes(b"SQLite format 3\x00" + b"\x81" * 512)
        with pytest.raises(StoreCorruptError):
            IngestStore(str(path))

    def test_quarantine_moves_bytes_out_of_the_live_archive(self, tmp_path):
        store = IngestStore(str(tmp_path / "q.sqlite"))
        store.register_tenant("acme", "tok")
        store.store_profile(
            "acme", "not a profile \x00", dialect="simulator", goroutines=0
        )
        (profile,) = store.profiles_for("acme")
        store.quarantine_profile(profile, reason="boom", at=9.0)
        assert store.profiles_for("acme") == []
        (entry,) = store.quarantined("acme")
        assert entry.body == "not a profile \x00"
        assert entry.reason == "boom"
        assert entry.profile_id == profile.profile_id
        assert store.quarantine_count() == 1
        store.close()


class TestDaemonCrashRestart:
    def test_crash_between_uploads_loses_no_state(self, tmp_path):
        """The crash drill: ``abort()`` the daemon mid-life (no drain, no
        goodbye), restart over the same sqlite file, and verify the
        archive, the report-id counter, and the FILED->ACK funnel all
        resume exactly where they were."""
        db = str(tmp_path / "crash.sqlite")

        store = IngestStore(db)
        store.register_tenant("acme", "tok-a", threshold=3)
        server = IngestServer(store, admin_token="adm").start()
        acme = IngestClient(server.url, "acme", "tok-a")
        acme.upload(fixture("go1.19_chan_send_leak.txt"), instance="i-1")
        IngestClient(server.url, "-", "adm").scan()
        db_before = server.scheduler.bug_db("acme")
        (report,) = db_before.all_reports()
        db_before.acknowledge(report)
        first_id = report.report_id
        server.abort()  # crash-shaped: sockets die, nothing flushed
        store.close()

        store2 = IngestStore(db)
        with IngestServer(store2, admin_token="adm") as server2:
            acme2 = IngestClient(server2.url, "acme", "tok-a")
            # the archive survived the crash
            assert len(acme2.profiles()["profiles"]) == 1
            acme2.upload(
                fixture("go1.22_select_timeout_leak.txt"), instance="i-2"
            )
            IngestClient(server2.url, "-", "adm").scan()
            payload = acme2.reports()
            assert payload["funnel"]["reported"] == 2
            assert payload["funnel"]["acknowledged"] == 1
            ids = sorted(r["report_id"] for r in payload["reports"])
            assert ids[0] == first_id
            assert ids[1] > first_id, "report-id counter reset by the crash"
        store2.close()

    def test_graceful_close_drains_inflight_requests(self, tmp_path):
        """close() must let an already-accepted (stalled) upload finish."""
        import threading

        from repro.chaos import DaemonChaos, FaultKind, FaultSchedule

        schedule = FaultSchedule().pin(
            FaultKind.DAEMON_STALL, "tenant_profiles", 0, param=0.3
        )
        store = IngestStore(str(tmp_path / "drain.sqlite"))
        store.register_tenant("acme", "tok-a", threshold=3)
        server = IngestServer(
            store, fault_injector=DaemonChaos(schedule)
        ).start()
        client = IngestClient(server.url, "acme", "tok-a")
        receipts = []

        def slow_upload():
            receipts.append(
                client.upload(
                    fixture("go1.19_chan_send_leak.txt"), instance="i-1"
                )
            )

        thread = threading.Thread(target=slow_upload)
        thread.start()
        deadline = __import__("time").monotonic() + 2.0
        while server._inflight == 0:  # request accepted, now stalling
            assert __import__("time").monotonic() < deadline
        server.close()  # must drain, not sever
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert receipts and receipts[0]["dialect"] == "go"
        assert len(store.profiles_for("acme")) == 1
        store.close()


class TestQuarantineCli:
    def test_scan_reports_quarantine_and_cli_lists_it(self, tmp_path, capsys):
        from repro.chaos import poison_profile_text
        from repro.ingest.__main__ import main

        db = str(tmp_path / "deadletter.sqlite")
        assert main(["add-tenant", "--db", db, "--name", "acme",
                     "--token", "tok", "--threshold", "3"]) == 0
        store = IngestStore(db)
        store.store_profile(
            "acme", poison_profile_text(seed=3),
            dialect="simulator", goroutines=0,
        )
        store.close()

        assert main(["scan", "--db", db]) == 0
        assert '"quarantined": 1' in capsys.readouterr().out

        assert main(["quarantine", "--db", db, "--tenant", "acme",
                     "--show-body"]) == 0
        import json as _json

        (line,) = capsys.readouterr().out.strip().splitlines()
        entry = _json.loads(line)
        assert entry["tenant"] == "acme"
        assert entry["body"] == poison_profile_text(seed=3)
        assert entry["reason"]
