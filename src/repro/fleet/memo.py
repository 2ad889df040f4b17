"""Values the per-request path derives from fleet configuration, kept once.

A request mix, its handlers, a traffic shape and a CPU model are
configuration: ``partial_deploy`` compares mixes structurally, and
restarts, shard workers and checkpoints pickle them.  What a window
derives from them — a handler's bound body and goroutine name, a mix's
weight table, the request count and CPU baseline at one instant — is
kept in the object's ``__dict__`` under ``_memo`` (the class default is
None: nothing derived yet).  That is not a dataclass field, so it stays
out of ``==``, ``hash`` and ``repr``, and :class:`Memoized` keeps it out
of pickles: a pickle has the same bytes whether or not the value was
derived yet.
"""

from __future__ import annotations

from typing import Any, Dict


class Memoized:
    """Mixin: pickles the instance ``__dict__`` without its ``_memo``."""

    __slots__ = ()
    _memo: Any = None

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_memo", None)
        return state
