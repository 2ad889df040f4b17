"""The ``ingest-mixed`` workload: uploads beside admin scans over HTTP.

One closed-loop client uploads real Go ``debug=2`` goroutine dumps for
three tenants to an in-process :class:`repro.ingest.IngestServer` on
loopback, backed by a file sqlite store in a temporary directory under
the checkout.  After every ``UPLOADS_PER_SCAN`` uploads an admin
``POST /v1/scan`` runs the multi-tenant daily run, which re-parses each
tenant's whole archive, so scans grow as the archive grows.  An episode
is ``SCANS`` such rounds on a fresh store; a run repeats identical
episodes.  The op is one upload; scans are timed separately.

The dumps have the stanza shape of ``benchmarks/bench_ingest.py``'s
``build_dump``: runtime sub-stacks, ``created by`` trailers and minute
ages.  Each dump also parks a seeded share of its goroutines at one leak
site, which a tenant's threshold may or may not flag.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Dict, List, Optional, Tuple

from harness import (
    OFF, OUT, Outcome, Spans, histogram_total, peak_rss_mb,
)

from repro import obs
from repro.ingest import IngestClient, IngestError, IngestServer, IngestStore
from repro.leakprof import scan_profile
from repro.profiling import parse_profile

#: (tenant, LeakProf threshold) — thresholds differ so scans differ.
TENANTS = (("alpha", 12), ("bravo", 16), ("charlie", 20))
ADMIN_TOKEN = "perfbench-admin"

_HEAD = "goroutine 1 [running]:\nmain.main()\n\t/srv/svc/main.go:10 +0x1\n"
_STANZA = """\
goroutine {gid} [chan send, {minutes} minutes]:
runtime.gopark(0xc000076058?, 0xc00003e770?, 0x40?, 0xbc?, 0xc00003e7a8?)
\t/usr/local/go/src/runtime/proc.go:364 +0xd6
runtime.chansend(0xc000076000, 0xc00003e7e8, 0x1, 0x1)
\t/usr/local/go/src/runtime/chan.go:259 +0x42c
svc.worker.func{variant}()
\t/srv/svc/worker.go:{line} +0x3c
created by svc.worker in goroutine 1
\t/srv/svc/worker.go:12 +0x9a
"""
#: Source line of the leak site; background lines are 20..59.
LEAK_LINE = 97


@dataclass(frozen=True)
class Size:
    pool: int  # distinct dumps per tenant
    goroutines: Tuple[int, int]  # per-dump range
    uploads_per_scan: int
    scans: int  # per episode


FULL = Size(pool=8, goroutines=(200, 240), uploads_per_scan=16, scans=3)
TINY = Size(pool=2, goroutines=(30, 40), uploads_per_scan=6, scans=2)


@dataclass(frozen=True)
class Dump:
    body: str
    goroutines: int
    suspects: int  # offline scan_profile count at the tenant's threshold


def build_dump(rng: random.Random, size: Size) -> Tuple[str, int]:
    goroutines = rng.randint(*size.goroutines)
    leak_share = 0.0 if rng.random() < 1 / 3 else rng.uniform(0.08, 0.25)
    chunks = [_HEAD]
    for gid in range(2, goroutines + 1):
        leaking = rng.random() < leak_share
        chunks.append(_STANZA.format(
            gid=gid,
            minutes=gid % 240,
            variant=gid % 7,
            line=LEAK_LINE if leaking else 20 + gid % 40,
        ))
    return "\n".join(chunks), goroutines


def dumps(seed: int, size: Size) -> Dict[str, List[Dump]]:
    """Each tenant's dump pool, with its offline expectation."""
    rng = random.Random(seed)
    pools: Dict[str, List[Dump]] = {}
    for tenant, threshold in TENANTS:
        pool = []
        for _ in range(size.pool):
            body, goroutines = build_dump(rng, size)
            profile, _dialect = parse_profile(body)
            pool.append(Dump(
                body, goroutines, len(scan_profile(profile, threshold)),
            ))
        pools[tenant] = pool
    return pools


class _TracedStore(IngestStore):
    """The daemon's store, with a span around each archive write."""

    spans: Spans = OFF

    def store_profile(self, *args, **kwargs):
        token = self.spans.begin("ingest.store")
        try:
            return super().store_profile(*args, **kwargs)
        finally:
            self.spans.end(token)


class Deployment:
    """A running daemon over a fresh file store, and one client per tenant."""

    def __init__(self, spans: Spans = OFF):
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="ingest-", dir=OUT / "tmp")
        path = f"{self.tmp}/archive.sqlite"
        if spans.enabled:
            self.store = _TracedStore(path)
            self.store.spans = spans
        else:
            self.store = IngestStore(path)
        for tenant, threshold in TENANTS:
            self.store.register_tenant(tenant, f"tok-{tenant}",
                                       threshold=threshold)
        self.server = IngestServer(
            self.store, rate=1e9, burst=1e9, admin_token=ADMIN_TOKEN,
        ).start()
        self.clients = {
            tenant: IngestClient(self.server.url, tenant, f"tok-{tenant}")
            for tenant, _threshold in TENANTS
        }
        self.admin = IngestClient(self.server.url, "admin", ADMIN_TOKEN)

    def close(self) -> None:
        try:
            self.server.close()
            self.store.close()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)


def scan_ok(reply: Dict, archived: Dict[str, List[Dump]]) -> bool:
    """Each tenant's scan saw its whole archive and found what an offline
    ``scan_profile`` over the same bodies finds."""
    tenants = reply.get("tenants", {})
    return all(
        "error" not in tenants.get(tenant, {"error": "missing"})
        and tenants[tenant]["profiles_scanned"] == len(archived[tenant])
        and tenants[tenant]["suspects"]
        == sum(dump.suspects for dump in archived[tenant])
        for tenant, _threshold in TENANTS
    )


def run(seed: int, seconds: Optional[float] = None,
        episodes: Optional[int] = None, spans: Spans = OFF,
        corrupt: bool = False, size: Size = FULL) -> Outcome:
    """Closed loop of upload/scan episodes; every receipt and scan checked."""
    out = Outcome()
    pools = dumps(seed, size)
    names = [tenant for tenant, _threshold in TENANTS]
    tracer = obs.default_tracer()
    reg = obs.default_registry()
    scans = parsed = 0
    parse_s = request_s = scan_run_s = 0.0
    product_ms = {"ingest.sweep": 0.0, "leakprof.detect": 0.0,
                  "remedy.diagnose": 0.0}
    while out.more(seconds, episodes):
        deployment = Deployment(spans)
        archived: Dict[str, List[Dump]] = {tenant: [] for tenant in names}
        scan_run0 = histogram_total(reg, "repro_ingest_scan_seconds")[0]
        cpu0, wall0 = process_time(), perf_counter()
        try:
            for upload in range(size.uploads_per_scan * size.scans):
                tenant = names[upload % len(names)]
                pool = pools[tenant]
                dump = pool[(upload // len(names)) % len(pool)]
                started = perf_counter()
                op = spans.begin_op("ingest-mixed.upload")
                try:
                    got = deployment.clients[tenant].upload(
                        dump.body)["goroutines"]
                except IngestError as err:
                    got = f"{err}"
                spans.end_op(op)
                out.op_ms.append((perf_counter() - started) * 1e3)
                archived[tenant].append(dump)
                if corrupt and isinstance(got, int):
                    got += 1  # negative control: an off-by-one receipt
                out.check(got == dump.goroutines,
                          f"upload {upload}: receipt says {got} goroutines")
                if (upload + 1) % size.uploads_per_scan:
                    continue
                if spans.enabled:
                    tracer.clear()
                started = perf_counter()
                op = spans.begin_op("ingest-mixed.scan")
                try:
                    reply = deployment.admin.scan()
                except IngestError as err:
                    reply = {"error": f"{err}"}
                spans.end_op(op)
                out.scan_ms.append((perf_counter() - started) * 1e3)
                out.check(scan_ok(reply, archived),
                          f"scan after upload {upload}: {reply}")
                scans += 1
                parsed += sum(
                    summary.get("profiles_scanned", 0)
                    for summary in reply.get("tenants", {}).values()
                )
                if spans.enabled:
                    for name in product_ms:
                        product_ms[name] += sum(
                            span.duration * 1e3 for span in tracer.find(name)
                        )
            cpu_s, wall_s = process_time() - cpu0, perf_counter() - wall0
            registry = deployment.server.registry
            parse_s += histogram_total(
                registry, "repro_ingest_parse_seconds")[0]
            request_s += histogram_total(
                registry, "repro_ingest_request_seconds",
                endpoint="tenant_profiles")[0]
            scan_run_s += (
                histogram_total(reg, "repro_ingest_scan_seconds")[0]
                - scan_run0
            )
        finally:
            deployment.close()
        out.add_episode(size.uploads_per_scan * size.scans, wall_s, cpu_s)
    out.peak_rss_mb = peak_rss_mb()
    if spans.enabled:
        uploads = out.total_units
        store_ms = spans.self_ms_by_name().get("ingest.store", 0.0)
        upload_layers = {
            "profiling.parse_ms": parse_s * 1e3 / uploads,
            "ingest.store_ms": store_ms / uploads,
            # Client round trip minus the daemon's own request time.
            "ingest.http_ms": (sum(out.op_ms) - request_s * 1e3) / uploads,
        }
        scan_layers = {
            "ingest.sweep_ms": product_ms["ingest.sweep"] / scans,
            "leakprof.analyze_ms": product_ms["leakprof.detect"] / scans,
            "remedy.diagnose_ms": product_ms["remedy.diagnose"] / scans,
        }
        for name, value in {**upload_layers, **scan_layers}.items():
            out.layers[name] = (value, "ms")
        out.layers["ingest.scan_run_ms"] = (scan_run_s * 1e3 / scans, "ms")
        out.layers["layers.coverage_pct"] = (
            100.0 * sum(upload_layers.values()) * uploads / sum(out.op_ms),
            "%")
        out.layers["layers.scan_coverage_pct"] = (
            100.0 * sum(scan_layers.values()) * scans / sum(out.scan_ms),
            "%")
        out.layers["ingest.scan_reparse_ratio"] = (parsed / uploads, "ratio")
    return out
