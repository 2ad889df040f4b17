"""pprof analog: goroutine profiles and their text serializations.

Two dialects share one in-memory model: the simulator's headered
round-trip format (:mod:`.pprof`) and real Go ``debug=2`` output
(:mod:`.gopprof`, the ingestion-service dialect).
"""

from .profile import (
    GoroutineProfile,
    GoroutineRecord,
    runtime_frames_for,
    snapshot_goroutine,
)
from .pprof import dump_text, parse_text
from .gopprof import (
    DIALECT_GO,
    DIALECT_SIMULATOR,
    GoPprofParseError,
    dump_go_debug2,
    parse_go_debug2,
    parse_profile,
    sniff_dialect,
)

__all__ = [
    "DIALECT_GO",
    "DIALECT_SIMULATOR",
    "GoPprofParseError",
    "GoroutineProfile",
    "GoroutineRecord",
    "dump_go_debug2",
    "dump_text",
    "parse_go_debug2",
    "parse_profile",
    "parse_text",
    "runtime_frames_for",
    "snapshot_goroutine",
    "sniff_dialect",
]
