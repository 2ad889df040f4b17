"""Goroutine-spawning wrappers: the abstractions that defeat static tools.

Table II shows a third of production spawns go through wrapper functions
rather than the bare ``go`` keyword; §II-B notes that "hiding concurrent
operations behind high-level APIs ... severely impedes the detection of
partial deadlocks unless such API calls are properly recognized", while
the dynamic tools need no special support.  This module provides the two
wrapper shapes the monorepo study implies:

* :func:`safe_go` — a recover-and-log spawn helper (the ubiquitous
  "don't crash the process" wrapper), and
* :class:`ErrGroup` — a ``golang.org/x/sync/errgroup`` analog: structured
  spawning with a ``wait`` barrier and first-error propagation.

Both ultimately yield plain ``GoOp`` effects, so goleak/leakprof see
wrapper-spawned goroutines exactly like direct ones — reproducing the
paper's point that dynamic analysis is abstraction-proof.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .errors import Panic
from .ops import GoOp
from .sync import WaitGroup


def safe_go(fn: Callable[..., Any], *args: Any,
            on_panic: Optional[Callable[[BaseException], None]] = None,
            name: Optional[str] = None) -> GoOp:
    """Spawn ``fn`` with a recover() guard (the classic spawn wrapper).

    Panics inside the child are swallowed (optionally reported via
    ``on_panic``) instead of crashing the program — Go services wrap
    nearly every spawn this way.
    """

    def guarded():
        try:
            result = fn(*args)
            if hasattr(result, "__next__"):
                yield from result
        except Panic as exc:
            if on_panic is not None:
                on_panic(exc)

    return GoOp(guarded, (), name or f"safe_go:{_name_of(fn)}")


def _name_of(fn: Callable[..., Any]) -> str:
    return getattr(fn, "__qualname__", repr(fn))


class ErrGroup:
    """``errgroup.Group`` analog: spawn tasks, wait for all, keep 1st error.

    Usage (inside a goroutine)::

        group = ErrGroup()
        yield group.go(fetch_a)
        yield group.go(fetch_b)
        err = yield from group.wait()

    Tasks are generator functions returning an error value (``None`` for
    success) or raising :class:`Panic`.  ``wait`` blocks until every task
    finishes and returns the first non-None error.  Like the real
    errgroup, it does NOT cancel siblings — a task leaked on a channel op
    leaks through the group too, which is how wrapper-hidden leaks arise.
    """

    def __init__(self) -> None:
        self._wg = WaitGroup()
        self._first_error: Optional[Any] = None
        self._launched = 0

    @property
    def launched(self) -> int:
        return self._launched

    def go(self, fn: Callable[..., Any], *args: Any,
           name: Optional[str] = None) -> GoOp:
        """Effect: spawn one task under the group."""
        self._wg.add(1)
        self._launched += 1

        def task():
            error: Optional[Any] = None
            try:
                result = fn(*args)
                if hasattr(result, "__next__"):
                    error = yield from result
                else:
                    error = result
            except Panic as exc:
                error = exc.message
            finally:
                if error is not None and self._first_error is None:
                    self._first_error = error
                self._wg.done()

        return GoOp(task, (), name or f"errgroup:{_name_of(fn)}")

    def wait(self):
        """Sub-generator: block until all tasks finish; first error out."""
        yield self._wg.wait()
        return self._first_error
