"""Async fleet windows: watermarks, rebalancing, lockstep parity.

Run:  python examples/async_fleet.py

A sharded streaming fleet advances windows *asynchronously* — no shard
waits for the slowest one — while every delta reply carries its
shard's window watermark and the parent commits a window only once
every shard has reported it.  Mid-run, an instance is
rebalanced to another worker through the checkpoint path.  The payoff
assertion at the end: histories and LeakProf suspects from the async
run are byte-identical to a lockstep run over the same span, because
queries always answer at the fleet watermark (see
docs/STREAMING_PROTOCOL.md for the rules).
"""

from repro.fleet import RequestMix, ServiceConfig, ShardedFleet
from repro.patterns import healthy, timeout_leak

WINDOWS = 6
WINDOW = 3600.0
DAYS = WINDOWS * WINDOW / 86_400.0


def _specs():
    leaky = RequestMix().add("checkout", timeout_leak.leaky, weight=1.0)
    clean = RequestMix().add("ping", healthy.request_response, weight=1.0)
    return [
        (ServiceConfig(name="payments", mix=leaky, instances=3), 1),
        (ServiceConfig(name="search", mix=clean, instances=2), 2),
    ]


def _build(shards):
    fleet = ShardedFleet(shards=shards, checkpoint_every=2)
    for config, seed in _specs():
        fleet.add_service(config, seed=seed)
    return fleet.start()


def main():
    print("== async windows: shards free-run behind a watermark ==")
    fleet = _build(shards=2)
    try:
        fleet.run_days(DAYS / 2, window=WINDOW, max_lead=3)
        # How far shards actually ran apart depends on OS scheduling —
        # only the *bound* is deterministic, and committed results never
        # depend on pacing at all.
        assert fleet.max_window_spread <= 3, fleet.max_window_spread
        print(f"   shard watermarks {fleet.shard_windows}, "
              f"fleet watermark W={fleet.watermark}, "
              f"spread stayed <= max_lead")

        # -- move an instance between workers, mid-run -------------------
        moves = {("payments", 2): 1}
        fleet.rebalance(moves)
        for (service, index), shard in sorted(moves.items()):
            print(f"   rebalanced {service}[{index}] -> shard {shard}")

        fleet.run_days(DAYS / 2, window=WINDOW, max_lead=3)
        suspects = fleet.suspects(threshold=10)
        histories = {
            name: list(service.history)
            for name, service in fleet.services.items()
        }
        print(f"   after {fleet.watermark} committed windows: "
              f"{len(suspects)} suspect(s), "
              f"{fleet.stale_deltas} stale delta(s) dropped, "
              f"{fleet.rebalances} rebalance(s)")
        for s in suspects:
            print(f"   suspect {s.service}/{s.instance}: "
                  f"{s.count} blocked at {s.location}")
    finally:
        fleet.close()

    print("\n== same span, lockstep — the parity check ==")
    lockstep = _build(shards=2)
    try:
        lockstep.run_days(DAYS, window=WINDOW)
        assert histories == {
            name: list(service.history)
            for name, service in lockstep.services.items()
        }, "async histories diverged from lockstep"
        assert suspects == lockstep.suspects(threshold=10), \
            "async suspects diverged from lockstep"
    finally:
        lockstep.close()
    print("   histories and suspects byte-identical at the same watermark")


if __name__ == "__main__":
    main()
