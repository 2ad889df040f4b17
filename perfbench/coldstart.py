"""One cold start of a workload's system, for the ``setup_s`` metric.

Run:  python3 perfbench/coldstart.py <workload> <seed>

Imports the product, builds what the workload needs before its first op
(fleet, sharded fleet with its workers and init exchange, test runtime,
or ingest store plus daemon), prints one JSON line with ``import_s`` and
``build_s``, then tears the system down and exits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402  (stdlib only; not part of the timed import)


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    harness.use_checkout_sources()
    try:
        build(workload, seed)
    finally:
        harness.stop_helpers()


def build(workload: str, seed: int) -> None:
    started = perf_counter()
    if workload in ("fleet-serial", "fleet-async"):
        import wl_fleet as module
    elif workload == "goleak-ci":
        import wl_goleak as module
    elif workload == "ingest-mixed":
        import wl_ingest as module
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    imported = perf_counter()
    close = None
    if workload == "fleet-serial":
        module.build_serial(seed)
    elif workload == "fleet-async":
        close = module.build_sharded(seed).close
    elif workload == "goleak-ci":
        module.first_target(seed)
    else:
        close = module.Deployment().close
    built = perf_counter()
    print(json.dumps({
        "import_s": imported - started,
        "build_s": built - imported,
    }), flush=True)
    if close is not None:
        close()

if __name__ == "__main__":
    main()
