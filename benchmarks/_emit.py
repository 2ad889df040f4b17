"""Machine-readable benchmark artifacts.

Every benchmark prints a human table (see ``conftest.print_table``) and,
via :func:`emit`, drops a ``BENCH_<name>.json`` file next to it so the
perf trajectory of the repo can be tracked across commits without
scraping stdout.  CI uploads these files as workflow artifacts.

Schema (one JSON object per file)::

    {
      "bench": "<name>",
      "metric": "<what the headline number measures>",
      "value": <number>,
      "unit": "<optional unit>",
      "seed": <rng seed the run used, if any>,
      "runtime_steps": <scheduler steps consumed, if known>,
      "host": {"python": "3.11.7", "cpus": 2, "cpu_model": "..."},
      ...extra key/values the bench wants to record
    }

``host`` names the machine a run measured, so figures from two files
are only compared when their hosts match.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
from typing import Any, Dict, Optional

#: Artifacts land next to the bench files themselves.
ARTIFACT_DIR = pathlib.Path(__file__).resolve().parent


def host() -> Dict[str, Any]:
    """The Python version, CPU count and CPU model of this machine.

    The model is ``/proc/cpuinfo``'s first ``model name``; where that
    file is missing or names none, ``platform.processor()`` (or
    ``platform.machine()``) stands in.
    """
    model = ""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "cpu_model": model or platform.processor() or platform.machine(),
    }


def emit(
    name: str,
    metric: str,
    value: Any,
    unit: Optional[str] = None,
    seed: Optional[int] = None,
    runtime_steps: Optional[int] = None,
    **extra: Any,
) -> pathlib.Path:
    """Write ``BENCH_<name>.json``; returns the path written."""
    payload = {"bench": name, "metric": metric, "value": value}
    if unit is not None:
        payload["unit"] = unit
    if seed is not None:
        payload["seed"] = seed
    if runtime_steps is not None:
        payload["runtime_steps"] = runtime_steps
    payload["host"] = host()
    payload.update(extra)
    path = ARTIFACT_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, default=str) + "\n")
    return path
