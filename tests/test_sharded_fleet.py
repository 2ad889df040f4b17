"""Sharded fleet execution (repro.fleet.shard).

The hard requirement under test: **shard topology must be invisible in
the results**.  For a fixed seed, a single-process fleet and 1-, 2- and
4-shard fleets must produce byte-identical ``ServiceSample`` histories
and identical LeakProf daily-run suspects — the property the paper-scale
benchmarks lean on when they trade one process for many.

Also here: the structural-equality regression tests for
``Service.partial_deploy`` (equal-but-distinct ``RequestMix`` objects
used to miscount rollout coverage) and remedy rollouts driven over a
sharded service.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet import (
    aggregate_sample,
    build_instance,
    instance_seed,
    Fleet,
    RequestMix,
    Service,
    ServiceConfig,
    ShardedFleet,
    TrafficShape,
)
from repro.leakprof import LeakProf
from repro.patterns import healthy, timeout_leak
from repro.remedy import StagedRollout
from repro.snapshot import snapshot_instance


def leaky_mix(payload=32 * 1024):
    return RequestMix().add(
        "checkout", timeout_leak.leaky, weight=1.0, payload_bytes=payload
    )


def fixed_mix(payload=32 * 1024):
    return RequestMix().add(
        "checkout", timeout_leak.fixed, weight=1.0, payload_bytes=payload
    )


def clean_mix():
    return RequestMix().add("ping", healthy.request_response, weight=1.0)


def _configs():
    return [
        (
            ServiceConfig(
                name="payments",
                mix=leaky_mix(),
                instances=3,
                traffic=TrafficShape(requests_per_window=12),
            ),
            1,
        ),
        (
            ServiceConfig(
                name="search",
                mix=clean_mix(),
                instances=2,
                traffic=TrafficShape(requests_per_window=12),
            ),
            2,
        ),
    ]


def _single_process_histories(seed_offset, windows):
    fleet = Fleet()
    for config, seed in _configs():
        fleet.add(Service(config, seed=seed + seed_offset))
    for _ in range(windows):
        fleet.advance_window(3600.0)
    result = LeakProf(threshold=20).daily_run(fleet.all_instances(), now=1.0)
    return {n: s.history for n, s in fleet.services.items()}, result


def _sharded_histories(shards, seed_offset, windows):
    with ShardedFleet(shards=shards) as fleet:
        for config, seed in _configs():
            fleet.add_service(config, seed=seed + seed_offset)
        fleet.start()
        for _ in range(windows):
            fleet.advance_window(3600.0)
        result = LeakProf(threshold=20).daily_run(fleet.snapshots(), now=1.0)
        return {n: s.history for n, s in fleet.services.items()}, result


class TestShardDeterminism:
    @settings(max_examples=4, deadline=None)
    @given(seed_offset=st.integers(min_value=0, max_value=10_000))
    def test_histories_and_suspects_identical_across_shard_counts(
        self, seed_offset
    ):
        """The tentpole guarantee, property-tested over seeds: identical
        ServiceSample histories and DailyRunResult suspects for a
        single-process run vs 1, 2 and 4 shards."""
        reference, ref_result = _single_process_histories(seed_offset, 3)
        assert any(
            s.total_blocked_goroutines > 0
            for s in reference["payments"]
        ), "fixture lost its leak; the parity assertion would be vacuous"
        for shards in (1, 2, 4):
            histories, result = _sharded_histories(shards, seed_offset, 3)
            assert histories == reference, f"{shards}-shard history diverged"
            assert result.suspects == ref_result.suspects
            assert result.sweep_stats == ref_result.sweep_stats

    def test_deploy_mid_run_stays_deterministic(self):
        """Deploys change instance seeds via the deploy generation; the
        generation bookkeeping must match across topologies."""
        fix = fixed_mix()

        fleet = Fleet()
        for config, seed in _configs():
            fleet.add(Service(config, seed=seed))
        for _ in range(2):
            fleet.advance_window(3600.0)
        fleet.services["payments"].deploy(fixed_mix())
        for _ in range(2):
            fleet.advance_window(3600.0)
        reference = {n: s.history for n, s in fleet.services.items()}

        with ShardedFleet(shards=2) as sharded:
            for config, seed in _configs():
                sharded.add_service(config, seed=seed)
            sharded.start()
            for _ in range(2):
                sharded.advance_window(3600.0)
            sharded.services["payments"].deploy(fix)
            for _ in range(2):
                sharded.advance_window(3600.0)
            assert {
                n: s.history for n, s in sharded.services.items()
            } == reference
            # the post-deploy windows stopped leaking in both worlds
            assert (
                sharded.services["payments"].history[-1].total_blocked_goroutines
                == 0
            )

    def test_partial_deploy_mid_run_stays_deterministic(self):
        fleet = Fleet()
        for config, seed in _configs():
            fleet.add(Service(config, seed=seed))
        fleet.advance_window(3600.0)
        fleet.services["payments"].partial_deploy(fixed_mix(), count=2)
        for _ in range(2):
            fleet.advance_window(3600.0)
        reference = {n: s.history for n, s in fleet.services.items()}

        with ShardedFleet(shards=3) as sharded:
            for config, seed in _configs():
                sharded.add_service(config, seed=seed)
            sharded.start()
            sharded.advance_window(3600.0)
            restarted = sharded.services["payments"].partial_deploy(
                fixed_mix(), count=2
            )
            assert restarted == [0, 1]
            for _ in range(2):
                sharded.advance_window(3600.0)
            assert {
                n: s.history for n, s in sharded.services.items()
            } == reference


    @pytest.mark.parametrize("shards", [1, 2])
    def test_single_service_advances_interleave_with_fleet_advances(
        self, shards
    ):
        """``ShardedService.advance_window`` runs only that service's
        instances (an ``only=`` advance); the other service's stat rows
        must keep their committed values across it, before and after a
        rebalance moves instances of both services."""
        serial = Fleet()
        for config, seed in _configs():
            serial.add(Service(config, seed=seed))

        def steps(fleet, rebalance):
            yield fleet.advance_window
            yield fleet.services["payments"].advance_window
            yield fleet.advance_window
            yield rebalance
            yield fleet.services["search"].advance_window
            yield fleet.services["payments"].advance_window
            yield fleet.advance_window

        with ShardedFleet(shards=shards) as sharded:
            for config, seed in _configs():
                sharded.add_service(config, seed=seed)
            sharded.start()
            moves = {("payments", 2): shards - 1, ("search", 1): shards - 1}
            pairs = zip(
                steps(serial, lambda *_: None),
                steps(sharded, lambda *_: sharded.rebalance(moves)),
            )
            for serial_step, sharded_step in pairs:
                serial_step(3600.0)
                sharded_step(3600.0)
                assert sharded.snapshots() == [
                    snapshot_instance(inst) for inst in serial.all_instances()
                ]
                assert {
                    n: s.history for n, s in sharded.services.items()
                } == {n: s.history for n, s in serial.services.items()}
            assert sharded.rebalances == (1 if shards > 1 else 0)


class TestShardedServiceSurface:
    def test_run_days_and_history_accessor(self):
        config = ServiceConfig(
            name="svc",
            mix=clean_mix(),
            instances=2,
            traffic=TrafficShape(requests_per_window=5),
        )
        # (days, window, windows): 23 * 600 / 86_400 days is
        # 22.999999999999996 windows in floating point, not 22
        for days, window, windows in (
            (0.25, 3600.0, 6),
            (23 * 600 / 86_400, 600.0, 23),
        ):
            serial = Fleet()
            serial.add(Service(config, seed=3))
            serial.run_days(days, window=window)
            assert len(serial.services["svc"].history) == windows
            with ShardedFleet(shards=2) as fleet:
                fleet.add_service(config, seed=3)
                fleet.start()
                fleet.run_days(days, window=window)
                history = fleet.services["svc"].history
                assert len(history) == windows
                assert history[-1].t == pytest.approx(
                    windows * window
                )

    def test_add_service_after_start_rejected(self):
        with ShardedFleet(shards=1) as fleet:
            fleet.add_service(
                ServiceConfig(name="a", mix=clean_mix(), instances=1), seed=0
            )
            fleet.start()
            with pytest.raises(RuntimeError):
                fleet.add_service(
                    ServiceConfig(name="b", mix=clean_mix(), instances=1),
                    seed=0,
                )

    def test_staged_rollout_travels_as_shard_commands(self):
        """A remedy StagedRollout drives a ShardedService unchanged:
        canary → ramp → full, every restart a cross-process command."""
        with ShardedFleet(shards=2) as fleet:
            service = fleet.add_service(
                ServiceConfig(
                    name="payments",
                    mix=leaky_mix(payload=256 * 1024),
                    instances=4,
                    traffic=TrafficShape(requests_per_window=15),
                    base_rss=16 * 1024 * 1024,  # leak RSS must dominate
                ),
                seed=9,
            )
            fleet.start()
            for _ in range(3):
                fleet.advance_window(3600.0)
            assert service.history[-1].total_blocked_goroutines > 0

            rollout = StagedRollout(
                windows_per_stage=1, drain_windows=1, window=3600.0
            )
            result = rollout.execute(service, fixed_mix(payload=256 * 1024))
            assert result.completed, result.summary
            assert service.instances_on(fixed_mix(payload=256 * 1024)) == [
                0, 1, 2, 3,
            ]
            assert service.history[-1].total_blocked_goroutines == 0
            # every byte of leak memory is gone: post RSS is pure baseline
            assert result.post_instance_rss == 16 * 1024 * 1024
            assert result.rss_recovery > 0.3


class TestPartialDeployStructuralEquality:
    """Regression: ``instance.mix is mix`` miscounted rollout coverage
    for equal-but-distinct RequestMix objects (ISSUE 4 satellite)."""

    def _service(self):
        return Service(
            ServiceConfig(
                name="payments",
                mix=leaky_mix(),
                instances=3,
                traffic=TrafficShape(requests_per_window=8),
            ),
            seed=11,
        )

    def test_equal_but_distinct_mix_counts_as_deployed(self):
        service = self._service()
        service.advance_window(3600.0)
        service.partial_deploy(fixed_mix(), count=2)
        # A *fresh* equal mix object must see the deployed instances.
        assert service.instances_on(fixed_mix()) == [0, 1]

    def test_second_wave_with_fresh_mix_object_skips_done_instances(self):
        service = self._service()
        service.partial_deploy(fixed_mix(), count=2)
        # Under identity comparison this restarted [0, 1] again (wiping
        # canary state); structurally it must finish the rollout at [2].
        restarted = service.partial_deploy(fixed_mix(), count=2)
        assert restarted == [2]
        assert service.config.mix == fixed_mix()

    def test_full_coverage_updates_config_with_fresh_object(self):
        service = self._service()
        service.partial_deploy(fixed_mix())
        assert service.config.mix == fixed_mix()
        # Re-deploying the same (equal) mix is a no-op, not a restart.
        assert service.partial_deploy(fixed_mix()) == []

    def test_redeploying_current_mix_is_noop(self):
        service = self._service()
        deploys_before = service.deploys
        assert service.partial_deploy(leaky_mix()) == []
        assert service.deploys == deploys_before


class TestDeterminismHelpers:
    """The shared seed/build/aggregate formulas (repro.fleet.determinism)
    are the single source both execution paths consume."""

    def test_instance_seed_is_pure_and_topology_free(self):
        assert instance_seed(7, 0, 3) == 7003
        assert instance_seed(7, 2, 3) == 7203
        # regenerating an instance after N deploys lands on the same
        # seed regardless of which shard asks
        assert instance_seed(42, 1, 0) == instance_seed(42, 1, 0)

    def test_build_instance_matches_service_private_path(self):
        config = ServiceConfig(name="checkout", instances=2, mix=leaky_mix())
        service = Service(config, seed=9)
        # live instances were built one generation back: Service.__init__
        # bumps the deploy counter after constructing them
        built = build_instance(
            config, 9, service.deploys - 1, 1, config.mix, service.now
        )
        twin = service.instances[1]
        assert built.name == twin.name
        # same seed formula => identical freshly-seeded RNG state
        assert built.runtime.rng.getstate() == twin.runtime.rng.getstate()

    def test_aggregate_sample_accepts_any_iterable_once(self):
        rows = iter(
            [(100, 2, 50.0, 10), (300, 4, 30.0, 20)]
        )  # a generator: must be consumed exactly once internally
        sample = aggregate_sample(5.0, rows, scale=3)
        assert sample.t == 5.0
        assert sample.total_rss_bytes == 400 * 3
        assert sample.peak_instance_rss == 300
        assert sample.total_blocked_goroutines == 6 * 3
        assert sample.peak_instance_blocked == 4
        assert sample.mean_cpu_percent == 40.0
        assert sample.max_cpu_percent == 50.0
        assert sample.total_goroutines == 30 * 3
