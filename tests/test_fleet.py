"""Fleet simulator: instances, services, RSS/CPU models, deploy mechanics."""

import pytest

from repro.fleet import (
    CpuModel,
    DAY,
    Fleet,
    RequestMix,
    Service,
    ServiceConfig,
    ServiceInstance,
    TrafficShape,
    capacity_for,
)
from repro.leakprof import LeakProf
from repro.patterns import healthy, timeout_leak

MB = 1024 * 1024


def leaky_mix(payload=64 * 1024):
    return RequestMix().add(
        "compute", timeout_leak.leaky, weight=1.0, payload_bytes=payload
    )


def fixed_mix(payload=64 * 1024):
    return RequestMix().add(
        "compute", timeout_leak.fixed, weight=1.0, payload_bytes=payload
    )


def healthy_mix():
    return (
        RequestMix()
        .add("pong", healthy.request_response, weight=3.0)
        .add("barrier", healthy.waitgroup_barrier, weight=1.0)
    )


class TestRequestMix:
    def test_sampling_respects_weights(self):
        import random

        mix = (
            RequestMix()
            .add("hot", healthy.request_response, weight=9.0)
            .add("cold", healthy.waitgroup_barrier, weight=1.0)
        )
        rng = random.Random(0)
        names = [mix.sample(rng).name for _ in range(500)]
        assert names.count("hot") > 400

    def test_params_bound_to_handler(self):
        mix = leaky_mix(payload=123)
        handler = mix.handlers[0]
        assert dict(handler.params)["payload_bytes"] == 123
        body, name = handler.main
        assert body.keywords == {"payload_bytes": 123}
        assert name == "leaky"
        assert handler.main is handler.main

    def test_sample_draws_one_uniform(self):
        import random

        mix = (
            RequestMix()
            .add("a", healthy.request_response, weight=0.7)
            .add("b", healthy.waitgroup_barrier, weight=0.2)
            .add("c", timeout_leak.leaky, weight=0.1)
        )
        rng, reference = random.Random(5), random.Random(5)
        for _ in range(200):
            point = reference.uniform(0, 0.7 + 0.2 + 0.1)
            expected = "a" if point <= 0.7 else "b" if point <= 0.7 + 0.2 else "c"
            assert mix.sample(rng).name == expected
        assert rng.getstate() == reference.getstate()
        # add() drops the weight table: the new handler is reachable
        mix.add("d", healthy.request_response, weight=100.0)
        assert "d" in {mix.sample(rng).name for _ in range(20)}

    def test_memoized_values_stay_out_of_pickles_and_equality(self):
        import pickle
        import random

        def fresh():
            return (leaky_mix(payload=7), TrafficShape(), CpuModel())

        used = fresh()
        mix, traffic, cpu = used
        mix.sample(random.Random(1))
        mix.handlers[0].main
        traffic.requests_at(3600.0)
        cpu.baseline(3600.0)
        assert all("_memo" in vars(obj)
                   for obj in (mix, mix.handlers[0], traffic, cpu))
        assert used == fresh()
        assert hash(traffic) == hash(TrafficShape())
        assert pickle.dumps(used) == pickle.dumps(fresh())
        restored = pickle.loads(pickle.dumps(used))
        assert restored == used
        assert not any("_memo" in vars(obj) for obj in (
            restored[0], restored[0].handlers[0], restored[1], restored[2]))


class TestTrafficShape:
    def test_diurnal_swing(self):
        shape = TrafficShape(requests_per_window=100, diurnal_fraction=0.5)
        samples = [shape.requests_at(t * 3600.0) for t in range(24)]
        assert min(samples) < 90
        assert max(samples) > 110

    def test_surge_multiplier(self):
        shape = TrafficShape(
            requests_per_window=100,
            diurnal_fraction=0.0,
            surges=((1000.0, 2000.0, 3.0),),
        )
        assert shape.requests_at(1500.0) == 3 * shape.requests_at(0.0)


class TestCpuModel:
    def test_baseline_is_diurnal(self):
        model = CpuModel(base_percent=6.0, diurnal_amplitude=12.0)
        values = [model.baseline(t * 3600.0) for t in range(24)]
        assert min(values) >= 6.0
        assert max(values) <= 18.0
        assert max(values) - min(values) > 10.0

    def test_leak_burn_scales_linearly(self):
        model = CpuModel()
        assert model.leak_burn(0) == 0.0
        assert model.leak_burn(2000) == pytest.approx(
            2 * model.leak_burn(1000)
        )

    def test_utilization_capped(self):
        model = CpuModel()
        assert model.utilization(0.0, 10**9) == 100.0

    def test_burn_matches_runtime_accounting_at_small_scale(self):
        """The analytic model agrees with actually simulated burn effects."""
        from repro.patterns import timer_loop
        from repro.runtime import Runtime

        period = 60.0
        count = 5
        rt = Runtime(seed=0)
        for _ in range(count):
            rt.run(
                lambda rt: timer_loop.leaky(rt, period=period),
                rt,
                deadline=rt.now,
                detect_global_deadlock=False,
            )
        hours = 2.0
        rt.advance(hours * 3600.0)
        simulated_fraction = rt.cpu_seconds / (hours * 3600.0)
        model = CpuModel(
            cpu_per_wakeup=timer_loop.REPORT_CPU_SECONDS,
            wakeup_period=period,
            cores=1,
        )
        assert 100.0 * simulated_fraction == pytest.approx(
            model.leak_burn(count), rel=0.05
        )


class TestServiceInstance:
    def test_healthy_instance_stays_flat(self):
        instance = ServiceInstance(
            "svc", healthy_mix(), TrafficShape(requests_per_window=20),
            base_rss=64 * MB, seed=1,
        )
        for _ in range(5):
            instance.advance_window()
        assert instance.rss() == 64 * MB
        assert instance.leaked_goroutines() == 0
        assert instance.requests_served > 0

    def test_leaky_instance_accumulates(self):
        instance = ServiceInstance(
            "svc", leaky_mix(), TrafficShape(requests_per_window=20),
            base_rss=64 * MB, seed=1,
        )
        samples = [instance.advance_window() for _ in range(4)]
        rss = [s.rss_bytes for s in samples]
        goroutines = [s.goroutines for s in samples]
        assert rss == sorted(rss)  # monotone growth
        assert goroutines[-1] > goroutines[0]
        assert rss[-1] > 64 * MB

    def test_profile_carries_service_identity(self):
        instance = ServiceInstance(
            "payments", leaky_mix(), TrafficShape(requests_per_window=5),
            seed=2,
        )
        instance.advance_window()
        profile = instance.profile()
        assert profile.service == "payments"
        assert profile.instance == instance.name
        assert len(profile.blocked()) > 0


class TestServiceDeploy:
    def test_fix_deploy_clears_leaks_and_rss(self):
        config = ServiceConfig(
            name="S", mix=leaky_mix(), instances=2,
            traffic=TrafficShape(requests_per_window=20),
            base_rss=64 * MB,
        )
        service = Service(config, seed=3)
        for _ in range(4):
            service.advance_window()
        before = max(i.rss() for i in service.instances)
        assert before > 64 * MB
        service.deploy(fixed_mix())
        assert all(i.rss() == 64 * MB for i in service.instances)
        for _ in range(4):
            service.advance_window()
        after = max(i.rss() for i in service.instances)
        assert after == 64 * MB  # the fixed handler never leaks

    def test_deploy_preserves_clock(self):
        config = ServiceConfig(name="S", mix=leaky_mix(), instances=1)
        service = Service(config, seed=1)
        service.advance_window()
        t = service.now
        service.deploy(fixed_mix())
        assert service.now == pytest.approx(t)

    def test_history_scaled_by_represented_instances(self):
        config = ServiceConfig(
            name="S", mix=healthy_mix(), instances=1,
            base_rss=64 * MB, instances_represented=100,
        )
        service = Service(config, seed=1)
        sample = service.advance_window()
        assert sample.total_rss_bytes == 64 * MB * 100


class TestFleetAndLeakProf:
    def test_leakprof_flags_only_the_leaky_service(self):
        fleet = Fleet()
        fleet.add(
            Service(
                ServiceConfig(
                    name="leaky-svc", mix=leaky_mix(),
                    instances=2,
                    traffic=TrafficShape(requests_per_window=30),
                ),
                seed=4,
            )
        )
        fleet.add(
            Service(
                ServiceConfig(
                    name="clean-svc", mix=healthy_mix(), instances=2,
                    traffic=TrafficShape(requests_per_window=30),
                ),
                seed=5,
            )
        )
        for _ in range(4):
            fleet.advance_window()
        leakprof = LeakProf(threshold=50, top_n=10)
        result = leakprof.daily_run(fleet.all_instances())
        services = {r.candidate.service for r in result.new_reports}
        assert services == {"leaky-svc"}

    def test_run_days_advances_clock(self):
        fleet = Fleet().add(
            Service(
                ServiceConfig(name="S", mix=healthy_mix(), instances=1,
                              traffic=TrafficShape(requests_per_window=2)),
                seed=1,
            )
        )
        fleet.run_days(0.5)
        assert fleet.services["S"].now == pytest.approx(0.5 * DAY)


class TestCapacityModel:
    def test_rounds_up_to_granularity(self):
        assert capacity_for(int(2.5 * 1024**3), safety=1.0) == 3.0
        assert capacity_for(1, safety=1.0) == 1.0

    def test_safety_factor(self):
        one_gb = 1024**3
        assert capacity_for(one_gb, safety=1.3) == 2.0
