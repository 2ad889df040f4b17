"""GoLeak's public API: ``find``, ``verify_none``, ``verify_test_main``.

The decision procedure is the paper's Fact 1 / Corollary 1: after a test
target finishes, any goroutine still present in the process address space
is reported (modulo options/suppressions).  The runtime's virtual clock
lets the retry loop give slow-but-healthy goroutines time to exit without
real sleeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.profiling import GoroutineRecord
from repro.runtime.scheduler import Runtime
from repro.snapshot import RuntimeSnapshot, snapshot_runtime

from .classify import BlockType, classify
from .options import Options, build_options


class LeakError(AssertionError):
    """Raised by :func:`verify_none` when goroutines linger after a test."""

    def __init__(self, leaks: Sequence[GoroutineRecord]):
        self.leaks = list(leaks)
        super().__init__(format_leaks(self.leaks))


def format_leaks(leaks: Sequence[GoroutineRecord]) -> str:
    """Human-readable leak report, shaped like goleak's failure output."""
    lines = [f"found unexpected goroutines: {len(leaks)}"]
    for record in leaks:
        lines.append(
            f"  goroutine {record.gid} [{record.state.value}] {record.name}"
        )
        for frame in record.frames:
            lines.append(f"    {frame}")
        if record.creation_ctx is not None:
            lines.append(f"    created by {record.creation_ctx}")
    return "\n".join(lines)


def find(
    runtime: Union[Runtime, RuntimeSnapshot],
    *options,
    strategy: str = "snapshot",
) -> List[GoroutineRecord]:
    """Collect lingering goroutines, retrying to let stragglers finish.

    Accepts a live :class:`Runtime` or a frozen
    :class:`~repro.snapshot.RuntimeSnapshot` — the decision procedure
    itself only ever reads snapshot records, so verification works
    identically against a runtime in this process and a snapshot shipped
    from a shard worker.

    With the default ``strategy="snapshot"`` and a live runtime, the
    retry loop advances the *virtual* clock between snapshots, so a
    goroutine that only needed another few milliseconds (e.g. draining a
    buffered channel) is not misreported — mirroring goleak's real-time
    backoff without wall-clock cost.  Once nothing is runnable and no
    timer (the gc sweep timer included) is due before the last retry's
    deadline, the retries can only move the clock, so they run without
    a snapshot each and one final snapshot is judged: the same leaks,
    ages, clock and runs as the full loop.  A frozen snapshot has no
    clock to advance: its records are judged as-is.

    ``strategy="reachability"`` replaces the exit-point snapshot with a
    :mod:`repro.gc` sweep and reports exactly the goroutines *proven*
    leaked — no retries, no grace period, and no test exit point needed:
    a proof is already exact, so slow-but-healthy goroutines can never
    be misreported.  On a frozen snapshot the proof annotations stamped
    by the source runtime's last sweep are used — which makes a sweep a
    *precondition*: a snapshot that still holds goroutines but whose
    source never swept carries no annotations at all, and judging it
    would pass vacuously on a leaky process, so it raises ``ValueError``
    instead (sweep before snapshotting, or set ``gc_interval`` on fleet
    instances).
    """
    opts = build_options(*options)
    if strategy not in ("snapshot", "reachability"):
        raise ValueError(
            f"unknown strategy {strategy!r}; use 'snapshot' or 'reachability'"
        )
    proven_only = strategy == "reachability"
    if isinstance(runtime, RuntimeSnapshot):
        if proven_only and runtime.gc is None and runtime.num_goroutines:
            # A snapshot with residue but no sweep carries no proof
            # annotations: judging it would pass vacuously on a leaky
            # process.  (A live runtime gets its sweep below; an idle
            # snapshot has nothing to prove either way.)
            raise ValueError(
                "reachability strategy needs proof annotations, but this "
                "snapshot's source runtime never ran a gc sweep; call "
                "runtime.gc() before snapshotting (or configure "
                "gc_interval on fleet instances)"
            )
        return _lingering_in(runtime, opts, proven_only=proven_only)
    # Live-runtime adapters: snapshot first, judge the snapshot.
    if proven_only:
        runtime.gc()
        return _lingering_in(
            snapshot_runtime(runtime), opts, proven_only=True
        )
    leaks = _lingering_in(snapshot_runtime(runtime), opts)
    attempt = 0
    while leaks and attempt < opts.retries:
        # The clock the remaining retries would reach, one addition
        # each, as ``advance`` makes it.
        end = runtime.now
        for _ in range(opts.retries - attempt):
            end = max(end, end + opts.retry_interval)
        if runtime.idle_until(end):
            # Nothing can run before the last retry's deadline, so the
            # retries can only move the clock: run them, judge once.
            for _ in range(opts.retries - attempt):
                runtime.advance(opts.retry_interval)
            return _lingering_in(snapshot_runtime(runtime), opts)
        runtime.advance(opts.retry_interval)
        leaks = _lingering_in(snapshot_runtime(runtime), opts)
        attempt += 1
    return leaks


def _lingering_in(
    snapshot: RuntimeSnapshot, opts: Options, proven_only: bool = False
) -> List[GoroutineRecord]:
    """The actual decision procedure: filter a snapshot's records."""
    return [
        record
        for record in snapshot.records
        if (not proven_only or record.proof == "proven")
        and not record.name.startswith("_goleak")  # exclude ourselves
        and not opts.ignored(record)
    ]


def verify_none(
    runtime: Union[Runtime, RuntimeSnapshot],
    *options,
    strategy: str = "snapshot",
) -> None:
    """Assert no unexpected goroutines linger (``goleak.VerifyNone``).

    Accepts a live runtime or a :class:`~repro.snapshot.RuntimeSnapshot`.
    ``strategy="reachability"`` asserts on *proven* leaks instead of
    exit-point residue — an exact alternative that also works mid-run,
    where a snapshot would misreport still-working goroutines.  A live
    runtime is swept on demand; a frozen snapshot must carry sweep
    annotations already (see :func:`find`), else this raises
    ``ValueError`` rather than passing vacuously.
    """
    leaks = find(runtime, *options, strategy=strategy)
    if leaks:
        raise LeakError(leaks)


@dataclass
class TestCase:
    """One unit test: a generator function run as the main goroutine.

    ``deadline`` bounds the *virtual* clock per test (the ``go test``
    timeout analog) so workloads with unstoppable tickers terminate.
    """

    __test__ = False  # not a pytest test class

    name: str
    body: object  # generator function taking (runtime,)
    deadline: float = 30.0
    max_steps: int = 2_000_000

    def run(self, runtime: Runtime) -> None:
        runtime.run(
            self.body,
            runtime,
            deadline=runtime.now + self.deadline,
            max_steps=self.max_steps,
            detect_global_deadlock=False,
        )


@dataclass
class TestTarget:
    """A Bazel-style test target: the test suite of one package."""

    __test__ = False  # not a pytest test class

    package: str
    tests: List[TestCase] = field(default_factory=list)
    owner: Optional[str] = None

    def add(self, name: str, body: object, deadline: float = 30.0) -> "TestTarget":
        self.tests.append(TestCase(name, body, deadline=deadline))
        return self


@dataclass
class TargetResult:
    """Outcome of running one instrumented test target."""

    package: str
    tests_run: int
    leaks: List[GoroutineRecord]
    suppressed: List[GoroutineRecord]
    test_failures: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        """Failed = a test failed OR unsuppressed goroutines lingered."""
        return bool(self.test_failures or self.leaks)

    def leak_types(self) -> List[BlockType]:
        return [classify(record) for record in self.leaks]


def verify_test_main(
    target: TestTarget,
    *options,
    runtime: Optional[Runtime] = None,
    seed: int = 0,
) -> TargetResult:
    """Run all tests in ``target`` then check for lingering goroutines.

    The analog of ``goleak.VerifyTestMain(m)``: a single runtime (process)
    executes every test in the target, and the leak check runs once at the
    end — so a leak in any test fails the whole target, exactly as the
    paper's TestMain instrumentation does.

    Options may include ``SuppressionList.as_filter()``; goroutines caught
    by *suppression* filters are reported separately so CI can tell
    pre-existing leaks from new ones.
    """
    from .options import SuppressionList  # local import to avoid cycle noise

    rt = runtime or Runtime(seed=seed, name=f"test:{target.package}")
    failures: List[str] = []
    for test in target.tests:
        try:
            test.run(rt)
        except Exception as exc:  # noqa: BLE001 - test harness boundary
            failures.append(f"{test.name}: {exc}")

    suppressions = [opt for opt in options if isinstance(opt, SuppressionList)]
    other = [opt for opt in options if not isinstance(opt, SuppressionList)]

    lingering = find(rt, *other)
    suppressed: List[GoroutineRecord] = []
    leaks: List[GoroutineRecord] = []
    for record in lingering:
        if any(sup.covers(record) for sup in suppressions):
            suppressed.append(record)
        else:
            leaks.append(record)
    return TargetResult(
        package=target.package,
        tests_run=len(target.tests),
        leaks=leaks,
        suppressed=suppressed,
        test_failures=failures,
    )
