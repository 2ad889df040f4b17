"""Multi-tenant scheduling: one LeakProf daily run per tenant.

The paper runs LeakProf "daily over every service of the platform"; here
each *tenant* is such a platform slice.  A run loads the tenant's
archived uploads, replays them through the unchanged detection pipeline
(:class:`repro.leakprof.LeakProf` — threshold scan, transient filter,
RMS ranking, top-N, dedup) against the tenant's **persistent** bug
database, and finally hands every suspect whose stack matches a
registered pattern to :func:`repro.remedy.diagnose` so the report
arrives pre-triaged.

Per-tenant knobs (``threshold``, ``top_n``) come from the tenant
registry: a tenant ingesting profiles from small test deployments can
run at threshold 50 while a production tenant keeps the paper's 10K bar.

Failure handling (the chaos plane's contract with this module):

* **tenant isolation** — :meth:`MultiTenantScheduler.run_once` never
  lets one tenant's failure abort the sweep: the failed tenant yields a
  :class:`TenantRunResult` with ``error`` set and every other tenant
  still runs;
* **circuit breaker** — after ``breaker_threshold`` *consecutive*
  failures a tenant's breaker opens and later sweeps skip it
  (``skipped=True``) for ``breaker_cooldown`` runs, then probe it
  half-open; the probe's outcome closes or re-opens the breaker.
  Breaker state is exported as the ``repro_ingest_breaker_state`` gauge
  (0=closed, 1=open, 2=half-open);
* **poison quarantine** — an archived profile whose parse crashes is
  moved to the store's dead-letter table
  (:meth:`~repro.ingest.store.IngestStore.quarantine_profile`) instead
  of re-crashing every future sweep, counted in
  ``repro_ingest_quarantined_total``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.leakprof import LeakProf, LeakReport, OwnershipRouter, Suspect
from repro.leakprof.impact import LeakCandidate
from repro.obs.registry import monotonic as _monotonic

from .resilience import BreakerState, CircuitBreaker
from .store import IngestStore, PersistentBugDatabase, Tenant


@dataclass
class TenantRunResult:
    """One tenant's daily-run outcome, JSON-friendly for the daemon."""

    tenant: str
    profiles_scanned: int
    suspects: List[Suspect]
    new_reports: List[LeakReport]
    duplicates: List[LeakCandidate]
    #: suspect key -> diagnosis (pattern name + confidence), for the
    #: suspects whose representative stack matched a registered pattern.
    diagnoses: Dict[str, object] = field(default_factory=dict)
    #: poison profiles dead-lettered during this run's archive sweep.
    quarantined: int = 0
    #: set when the tenant's run raised: the failure, as one line.
    error: Optional[str] = None
    #: True when the run never happened (circuit breaker open).
    skipped: bool = False

    @classmethod
    def failed(
        cls, tenant: str, error: str, skipped: bool = False
    ) -> "TenantRunResult":
        return cls(
            tenant=tenant,
            profiles_scanned=0,
            suspects=[],
            new_reports=[],
            duplicates=[],
            error=error,
            skipped=skipped,
        )

    def summary(self) -> Dict:
        payload = {
            "tenant": self.tenant,
            "profiles_scanned": self.profiles_scanned,
            "suspects": len(self.suspects),
            "new_reports": len(self.new_reports),
            "duplicates": len(self.duplicates),
            "diagnosed": len(self.diagnoses),
        }
        if self.quarantined:
            payload["quarantined"] = self.quarantined
        if self.error is not None:
            payload["error"] = self.error
        if self.skipped:
            payload["skipped"] = True
        return payload


class MultiTenantScheduler:
    """Runs LeakProf per tenant over the ingest archive.

    ``diagnose`` is injectable mainly for tests; by default it is
    :func:`repro.remedy.diagnose`, imported lazily so the scheduler (and
    daemon) do not pay the pattern-probe cost until a run actually needs
    a diagnosis.  ``remediator`` is threaded through to each tenant's
    :class:`LeakProf`, so the automated remedy engine can ride along.
    """

    def __init__(
        self,
        store: IngestStore,
        router: Optional[OwnershipRouter] = None,
        diagnose: Optional[Callable] = None,
        remediator: Optional[Callable[[LeakReport], object]] = None,
        breaker_threshold: int = 3,
        breaker_cooldown: int = 1,
    ):
        self.store = store
        self.router = router or OwnershipRouter()
        self._diagnose = diagnose
        self.remediator = remediator
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._sweeps = 0  # the run counter clocking every breaker

    def bug_db(self, tenant: str) -> PersistentBugDatabase:
        """The tenant's durable bug database (fresh view of the store)."""
        return PersistentBugDatabase(self.store, tenant)

    def breaker(self, tenant: str) -> CircuitBreaker:
        """The tenant's circuit breaker (created closed on first use)."""
        breaker = self._breakers.get(tenant)
        if breaker is None:
            breaker = CircuitBreaker(
                threshold=self.breaker_threshold,
                cooldown=self.breaker_cooldown,
            )
            self._breakers[tenant] = breaker
        return breaker

    # -- one tenant ----------------------------------------------------------

    def sweep_archive(self, tenant: Tenant, now: float):
        """Parse the tenant's archive, dead-lettering poison profiles.

        The one read path from the archive to parsed profiles — daily
        runs and the daemon's ``/suspects`` both come through here.  A
        profile whose parse raises is quarantined (removed from the live
        archive, bytes kept in the dead-letter table, stamped ``now``) so
        it is inspected once and never crashes a sweep again.  Returns
        ``(profiles, quarantined)``.
        """
        profiles = []
        quarantined = 0
        for item in self.store.profiles_for(tenant.name):
            try:
                profiles.append(item.parse())
            except Exception as err:
                self.store.quarantine_profile(
                    item,
                    reason=f"{type(err).__name__}: {err}",
                    at=now,
                )
                quarantined += 1
                obs.counter(
                    "repro_ingest_quarantined_total",
                    "Poison profiles dead-lettered during archive sweeps",
                    ("tenant",),
                ).labels(tenant.name).inc()
        return profiles, quarantined

    def run_tenant(
        self, tenant: Tenant, now: float = 0.0
    ) -> TenantRunResult:
        """One daily run for one tenant.

        Traced as an ``ingest.run_tenant`` root span: the archive sweep
        (``ingest.sweep``), the nested ``leakprof.detect`` tree, and the
        ``remedy.diagnose`` pass all land as its children.
        """
        reg = obs.default_registry()
        tracer = obs.default_tracer()
        run_started = _monotonic()
        with tracer.span("ingest.run_tenant", tenant=tenant.name) as root:
            with tracer.span("ingest.sweep", tenant=tenant.name) as sw:
                profiles, quarantined = self.sweep_archive(tenant, now)
                sw.attributes.update(
                    profiles=len(profiles), quarantined=quarantined
                )
            leakprof = LeakProf(
                threshold=tenant.threshold,
                top_n=tenant.top_n,
                router=self.router,
                bug_db=self.bug_db(tenant.name),
                remediator=self.remediator,
            )
            result = leakprof.analyze_profiles(profiles, now=now)
            diagnoses: Dict[str, object] = {}
            diagnose = self._resolve_diagnose()
            if diagnose is not None:
                with tracer.span(
                    "remedy.diagnose", tenant=tenant.name
                ) as diag:
                    for suspect in result.suspects:
                        diagnosis = diagnose(suspect)
                        if diagnosis is not None:
                            diagnoses["|".join(suspect.key)] = diagnosis
                    diag.attributes.update(
                        suspects=len(result.suspects),
                        diagnosed=len(diagnoses),
                    )
            root.attributes.update(
                profiles=len(profiles),
                new_reports=len(result.new_reports),
            )
        if reg.enabled:
            reg.histogram(
                "repro_ingest_scan_seconds",
                "Wall-clock duration of one tenant daily run",
                ("tenant",),
            ).labels(tenant.name).observe(_monotonic() - run_started)
            reg.counter(
                "repro_ingest_tenant_runs_total",
                "Per-tenant LeakProf daily runs",
                ("tenant",),
            ).labels(tenant.name).inc()
        return TenantRunResult(
            tenant=tenant.name,
            profiles_scanned=len(profiles),
            suspects=result.suspects,
            new_reports=result.new_reports,
            duplicates=result.duplicates,
            diagnoses=diagnoses,
            quarantined=quarantined,
        )

    # -- the sweep -----------------------------------------------------------

    def _export_breaker_state(self, tenant: str) -> None:
        obs.gauge(
            "repro_ingest_breaker_state",
            "Per-tenant circuit breaker (0=closed, 1=open, 2=half-open)",
            ("tenant",),
        ).labels(tenant).set(float(self.breaker(tenant).state.value))

    def run_once(self, now: float = 0.0) -> Dict[str, TenantRunResult]:
        """The full multi-tenant sweep: every registered tenant, in name
        order (deterministic, like everything else in this repo).

        One tenant's failure is *that tenant's* result, never the
        sweep's: exceptions are caught per tenant, fed to its circuit
        breaker, and reported as ``TenantRunResult(error=...)``.
        """
        self._sweeps += 1
        results: Dict[str, TenantRunResult] = {}
        for tenant in self.store.tenants():
            breaker = self.breaker(tenant.name)
            previous_state = breaker.state
            if not breaker.allow(self._sweeps):
                results[tenant.name] = TenantRunResult.failed(
                    tenant.name,
                    error="circuit breaker open; run skipped",
                    skipped=True,
                )
                self._export_breaker_state(tenant.name)
                continue
            try:
                result = self.run_tenant(tenant, now=now)
                breaker.record_success()
            except Exception as err:
                breaker.record_failure(self._sweeps)
                obs.counter(
                    "repro_ingest_tenant_failures_total",
                    "Tenant daily runs that raised (isolated per tenant)",
                    ("tenant",),
                ).labels(tenant.name).inc()
                result = TenantRunResult.failed(
                    tenant.name, error=f"{type(err).__name__}: {err}"
                )
            if breaker.state is not previous_state:
                obs.counter(
                    "repro_ingest_breaker_transitions_total",
                    "Circuit breaker transitions, by tenant and new state",
                    ("tenant", "to"),
                ).labels(tenant.name, breaker.state.name.lower()).inc()
            self._export_breaker_state(tenant.name)
            results[tenant.name] = result
        return results

    def _resolve_diagnose(self) -> Optional[Callable]:
        if self._diagnose is not None:
            return self._diagnose
        from repro.remedy import diagnose  # deferred: probes patterns

        self._diagnose = diagnose
        return self._diagnose


# Re-exported for API convenience: scheduler users configure breakers.
__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "MultiTenantScheduler",
    "TenantRunResult",
]
