"""Persistent state of the ingestion service: sqlite archive + bug DB.

One sqlite file holds everything a restart must survive:

* ``tenants`` — the tenant registry (auth token, per-tenant scan knobs);
* ``profiles`` — the raw uploaded profile texts, dialect-tagged, so a
  scan (or a re-scan with different thresholds) always works from the
  bytes that actually arrived;
* ``reports`` — the per-tenant bug databases: every
  :class:`~repro.leakprof.LeakReport` with its full
  :class:`~repro.leakprof.LeakCandidate` (representative stack included)
  as JSON, keyed by the same (service, state, location) identity the
  in-memory :class:`~repro.leakprof.BugDatabase` dedupes on.

:class:`PersistentBugDatabase` subclasses ``BugDatabase`` and
write-through-persists every mutation, so the paper's
``FILED → ACK → FIX_VERIFIED → DEPLOYED`` funnel is durable: a daemon
restart reloads each tenant's funnel exactly where it left off.

The store is thread-safe (one connection guarded by an RLock): the
ingestion daemon serves uploads from a thread pool.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.leakprof.detector import DEFAULT_THRESHOLD
from repro.leakprof.impact import LeakCandidate
from repro.leakprof.reports import BugDatabase, LeakReport, ReportStatus
from repro.profiling import GoroutineProfile, GoroutineRecord, parse_profile
from repro.runtime.goroutine import GoroutineState
from repro.runtime.stack import Frame

_SCHEMA = """
CREATE TABLE IF NOT EXISTS tenants (
    name        TEXT PRIMARY KEY,
    token       TEXT NOT NULL,
    threshold   INTEGER NOT NULL,
    top_n       INTEGER NOT NULL,
    created_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS profiles (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    tenant      TEXT NOT NULL REFERENCES tenants(name),
    received_at REAL NOT NULL,
    dialect     TEXT NOT NULL,
    service     TEXT,
    instance    TEXT,
    goroutines  INTEGER NOT NULL,
    body        TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS profiles_by_tenant
    ON profiles (tenant, received_at);
CREATE TABLE IF NOT EXISTS reports (
    tenant      TEXT NOT NULL,
    key         TEXT NOT NULL,
    report_id   INTEGER NOT NULL,
    status      TEXT NOT NULL,
    owner       TEXT,
    filed_at    REAL NOT NULL,
    candidate   TEXT NOT NULL,
    footprint   TEXT NOT NULL,
    PRIMARY KEY (tenant, key)
);
CREATE TABLE IF NOT EXISTS counters (
    name        TEXT PRIMARY KEY,
    value       INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS quarantine (
    id              INTEGER PRIMARY KEY AUTOINCREMENT,
    tenant          TEXT NOT NULL,
    profile_id      INTEGER NOT NULL,
    quarantined_at  REAL NOT NULL,
    reason          TEXT NOT NULL,
    dialect         TEXT NOT NULL,
    body            TEXT NOT NULL
);
"""


class StoreCorruptError(RuntimeError):
    """The sqlite file failed its open-time ``PRAGMA integrity_check``.

    Raised at :class:`IngestStore` construction so a corrupt archive is
    a loud, typed startup failure — not an ``OperationalError`` thrown
    from the middle of a multi-tenant sweep hours later.
    """


@dataclass(frozen=True)
class Tenant:
    """One tenant's registration: identity, auth, and scan knobs."""

    name: str
    token: str
    threshold: int = DEFAULT_THRESHOLD
    top_n: int = 10
    created_at: float = 0.0


@dataclass(frozen=True)
class StoredProfile:
    """One archived upload, as the scheduler reads it back."""

    profile_id: int
    tenant: str
    received_at: float
    dialect: str
    service: Optional[str]
    instance: Optional[str]
    goroutines: int
    body: str

    def parse(self) -> GoroutineProfile:
        profile, _ = parse_profile(
            self.body,
            dialect=self.dialect,
            process=self.instance or self.tenant,
            taken_at=self.received_at,
            service=self.service,
            instance=self.instance,
        )
        return profile


@dataclass(frozen=True)
class QuarantinedProfile:
    """One dead-lettered upload: poison the sweep refused to re-eat."""

    quarantine_id: int
    tenant: str
    profile_id: int
    quarantined_at: float
    reason: str
    dialect: str
    body: str


# -- JSON codec for the report payloads --------------------------------------
# Frames, records, and candidates are plain value objects; encoding them
# field-by-field (instead of pickling) keeps the archive inspectable with
# the sqlite3 CLI and stable across code changes.

def _frame_to_json(frame: Optional[Frame]):
    if frame is None:
        return None
    return [frame.function, frame.file, frame.line]


def _frame_from_json(data) -> Optional[Frame]:
    if data is None:
        return None
    return Frame(data[0], data[1], data[2])


def _record_to_json(record: GoroutineRecord) -> Dict:
    return {
        "gid": record.gid,
        "name": record.name,
        "state": record.state.value,
        "user_frames": [_frame_to_json(f) for f in record.user_frames],
        "creation_ctx": _frame_to_json(record.creation_ctx),
        "wait_seconds": record.wait_seconds,
        "wait_detail": record.wait_detail,
        "proof": record.proof,
    }


_STATE_BY_VALUE = {state.value: state for state in GoroutineState}

#: Milliseconds sqlite waits on a locked database before it raises.
BUSY_TIMEOUT_MS = 5_000


def _record_from_json(data: Dict) -> GoroutineRecord:
    return GoroutineRecord(
        gid=data["gid"],
        name=data["name"],
        state=_STATE_BY_VALUE[data["state"]],
        user_frames=tuple(
            _frame_from_json(f) for f in data["user_frames"]
        ),
        creation_ctx=_frame_from_json(data["creation_ctx"]),
        wait_seconds=data["wait_seconds"],
        wait_detail=data["wait_detail"],
        proof=data["proof"],
    )


def _candidate_to_json(candidate: LeakCandidate) -> str:
    return json.dumps(
        {
            "service": candidate.service,
            "state": candidate.state,
            "location": candidate.location,
            "rms_blocked": candidate.rms_blocked,
            "total_blocked": candidate.total_blocked,
            "peak_instance_count": candidate.peak_instance_count,
            "instances_affected": candidate.instances_affected,
            "representative": _record_to_json(candidate.representative),
        }
    )


def _candidate_from_json(payload: str) -> LeakCandidate:
    data = json.loads(payload)
    return LeakCandidate(
        service=data["service"],
        state=data["state"],
        location=data["location"],
        rms_blocked=data["rms_blocked"],
        total_blocked=data["total_blocked"],
        peak_instance_count=data["peak_instance_count"],
        instances_affected=data["instances_affected"],
        representative=_record_from_json(data["representative"]),
    )


class IngestStore:
    """The sqlite-backed persistence layer of the ingestion service.

    Connection hygiene for a store that serves a threaded daemon while a
    scheduler sweeps it: WAL journaling (readers never block the upload
    writer), a ``busy_timeout`` so a momentarily-locked database waits
    instead of raising ``database is locked``, and an open-time
    ``PRAGMA integrity_check`` that turns a corrupt file into a typed
    :class:`StoreCorruptError` before any sweep trusts it.

    ``fault_hook`` is the chaos plane's injection point: when set, it is
    called with the operation name before each public operation touches
    sqlite — raising from it is indistinguishable from sqlite failing
    (see :class:`repro.chaos.StoreChaos`).  Product code never sets it.
    """

    def __init__(
        self,
        path: str = ":memory:",
        fault_hook: Optional[Callable[[str], None]] = None,
    ):
        self.path = path
        self._fault_hook = fault_hook
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        try:
            if path != ":memory:":
                self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            row = self._conn.execute("PRAGMA integrity_check").fetchone()
        except sqlite3.DatabaseError as err:
            self._conn.close()
            raise StoreCorruptError(
                f"{path!r} is not a usable sqlite database: {err}"
            ) from err
        if row is None or row[0] != "ok":
            self._conn.close()
            raise StoreCorruptError(
                f"{path!r} failed integrity_check: {row[0] if row else '?'}"
            )
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    def _faults(self, op: str) -> None:
        if self._fault_hook is not None:
            self._fault_hook(op)

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- tenant registry -----------------------------------------------------

    def register_tenant(
        self,
        name: str,
        token: str,
        threshold: int = DEFAULT_THRESHOLD,
        top_n: int = 10,
        created_at: float = 0.0,
    ) -> Tenant:
        """Register (or re-key/re-tune) a tenant; idempotent by name."""
        self._faults("register_tenant")
        tenant = Tenant(name, token, threshold, top_n, created_at)
        with self._lock:
            self._conn.execute(
                "INSERT INTO tenants (name, token, threshold, top_n,"
                " created_at) VALUES (?, ?, ?, ?, ?)"
                " ON CONFLICT(name) DO UPDATE SET token=excluded.token,"
                " threshold=excluded.threshold, top_n=excluded.top_n",
                (name, token, threshold, top_n, created_at),
            )
            self._conn.commit()
        return tenant

    def tenant(self, name: str) -> Optional[Tenant]:
        self._faults("tenant")
        with self._lock:
            row = self._conn.execute(
                "SELECT name, token, threshold, top_n, created_at"
                " FROM tenants WHERE name = ?",
                (name,),
            ).fetchone()
        return Tenant(*row) if row else None

    def tenants(self) -> List[Tenant]:
        self._faults("tenants")
        with self._lock:
            rows = self._conn.execute(
                "SELECT name, token, threshold, top_n, created_at"
                " FROM tenants ORDER BY name"
            ).fetchall()
        return [Tenant(*row) for row in rows]

    # -- profile archive -----------------------------------------------------

    def store_profile(
        self,
        tenant: str,
        body: str,
        dialect: str,
        goroutines: int,
        service: Optional[str] = None,
        instance: Optional[str] = None,
        received_at: float = 0.0,
    ) -> int:
        """Archive one upload verbatim; returns the profile id."""
        self._faults("store_profile")
        with self._lock:
            cursor = self._conn.execute(
                "INSERT INTO profiles (tenant, received_at, dialect,"
                " service, instance, goroutines, body)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    tenant,
                    received_at,
                    dialect,
                    service,
                    instance,
                    goroutines,
                    body,
                ),
            )
            self._conn.commit()
            return int(cursor.lastrowid)

    def profiles_for(self, tenant: str) -> List[StoredProfile]:
        """A tenant's archived uploads, oldest first."""
        self._faults("profiles_for")
        with self._lock:
            rows = self._conn.execute(
                "SELECT id, tenant, received_at, dialect, service, instance,"
                " goroutines, body FROM profiles WHERE tenant = ?"
                " ORDER BY id",
                (tenant,),
            ).fetchall()
        return [StoredProfile(*row) for row in rows]

    def profile_count(self, tenant: Optional[str] = None) -> int:
        with self._lock:
            if tenant is None:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM profiles"
                ).fetchone()
            else:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM profiles WHERE tenant = ?",
                    (tenant,),
                ).fetchone()
        return int(row[0])

    # -- dead-letter quarantine ----------------------------------------------

    def quarantine_profile(
        self, profile: StoredProfile, reason: str, at: float = 0.0
    ) -> int:
        """Move one archived upload into the dead-letter table.

        The row leaves ``profiles`` (so no later sweep re-parses it) but
        its bytes are kept verbatim in ``quarantine`` for inspection —
        ``python -m repro.ingest quarantine`` lists them.  Returns the
        quarantine id.
        """
        self._faults("quarantine_profile")
        with self._lock:
            cursor = self._conn.execute(
                "INSERT INTO quarantine (tenant, profile_id,"
                " quarantined_at, reason, dialect, body)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (
                    profile.tenant,
                    profile.profile_id,
                    at,
                    reason,
                    profile.dialect,
                    profile.body,
                ),
            )
            self._conn.execute(
                "DELETE FROM profiles WHERE id = ?", (profile.profile_id,)
            )
            self._conn.commit()
            return int(cursor.lastrowid)

    def quarantined(
        self, tenant: Optional[str] = None
    ) -> List[QuarantinedProfile]:
        """Dead-lettered uploads, oldest first (all tenants by default)."""
        self._faults("quarantined")
        query = (
            "SELECT id, tenant, profile_id, quarantined_at, reason,"
            " dialect, body FROM quarantine"
        )
        params: List = []
        if tenant is not None:
            query += " WHERE tenant = ?"
            params.append(tenant)
        query += " ORDER BY id"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [QuarantinedProfile(*row) for row in rows]

    def quarantine_count(self, tenant: Optional[str] = None) -> int:
        with self._lock:
            if tenant is None:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM quarantine"
                ).fetchone()
            else:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM quarantine WHERE tenant = ?",
                    (tenant,),
                ).fetchone()
        return int(row[0])

    # -- report persistence (PersistentBugDatabase's backend) ----------------

    @staticmethod
    def _report_key(candidate: LeakCandidate) -> str:
        return json.dumps(list(candidate.key))

    def save_report(self, tenant: str, report: LeakReport) -> None:
        self._faults("save_report")
        with self._lock:
            self._conn.execute(
                "INSERT INTO reports (tenant, key, report_id, status,"
                " owner, filed_at, candidate, footprint)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
                " ON CONFLICT(tenant, key) DO UPDATE SET"
                " status=excluded.status, owner=excluded.owner,"
                " footprint=excluded.footprint",
                (
                    tenant,
                    self._report_key(report.candidate),
                    report.report_id,
                    report.status.value,
                    report.owner,
                    report.filed_at,
                    _candidate_to_json(report.candidate),
                    json.dumps(report.memory_footprint),
                ),
            )
            self._conn.commit()

    def load_reports(self, tenant: str) -> List[LeakReport]:
        self._faults("load_reports")
        with self._lock:
            rows = self._conn.execute(
                "SELECT report_id, status, owner, filed_at, candidate,"
                " footprint FROM reports WHERE tenant = ?"
                " ORDER BY report_id",
                (tenant,),
            ).fetchall()
        reports = []
        for report_id, status, owner, filed_at, candidate, footprint in rows:
            reports.append(
                LeakReport(
                    report_id=report_id,
                    candidate=_candidate_from_json(candidate),
                    owner=owner,
                    status=ReportStatus(status),
                    filed_at=filed_at,
                    memory_footprint=[
                        (t, rss) for t, rss in json.loads(footprint)
                    ],
                )
            )
        return reports

    def report_count(self, tenant: Optional[str] = None) -> int:
        with self._lock:
            if tenant is None:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM reports"
                ).fetchone()
            else:
                row = self._conn.execute(
                    "SELECT COUNT(*) FROM reports WHERE tenant = ?",
                    (tenant,),
                ).fetchone()
        return int(row[0])

    def next_counter(self, name: str) -> int:
        """Monotonic durable counter (report ids across restarts)."""
        self._faults("next_counter")
        with self._lock:
            self._conn.execute(
                "INSERT INTO counters (name, value) VALUES (?, 0)"
                " ON CONFLICT(name) DO NOTHING",
                (name,),
            )
            self._conn.execute(
                "UPDATE counters SET value = value + 1 WHERE name = ?",
                (name,),
            )
            row = self._conn.execute(
                "SELECT value FROM counters WHERE name = ?", (name,)
            ).fetchone()
            self._conn.commit()
        return int(row[0])


class PersistentBugDatabase(BugDatabase):
    """A per-tenant :class:`~repro.leakprof.BugDatabase` backed by sqlite.

    Construction loads the tenant's filed reports; every mutation —
    filing and each triage/remediation transition — writes through, so
    the funnel state observed after a daemon restart is exactly the
    state before it.  Report ids come from a durable counter scoped to
    the tenant: ids never collide across restarts.
    """

    def __init__(self, store: IngestStore, tenant: str):
        super().__init__()
        self._store = store
        self._tenant = tenant
        for report in store.load_reports(tenant):
            self._by_key[report.candidate.key] = report

    def _next_report_id(self) -> int:
        return self._store.next_counter(f"report_ids/{self._tenant}")

    def _persist(self, report: LeakReport) -> None:
        self._store.save_report(self._tenant, report)
