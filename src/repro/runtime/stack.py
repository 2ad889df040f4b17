"""Call-stack capture for suspended goroutines.

A goroutine body is a chain of generators connected by ``yield from``.
While suspended, each generator in the chain exposes its current frame via
``gi_frame`` and the generator it delegates to via ``gi_yieldfrom``.
Walking this chain from the root yields an honest call stack — leaf (the
blocking operation site) first, creation site last — which is exactly the
information Go's ``runtime.Stack`` provides and that both goleak and
leakprof consume.
"""

from __future__ import annotations

import types
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple


@dataclass(frozen=True, slots=True)
class Frame:
    """One stack frame: a function name and its source location."""

    function: str
    file: str
    line: int

    @property
    def location(self) -> str:
        """``file:line`` string, the identity leakprof groups leaks by."""
        return f"{self.file}:{self.line}"

    def __str__(self) -> str:
        return f"{self.function} ({self.file}:{self.line})"


def _frame_of(gen: Any) -> Optional[Frame]:
    frame = getattr(gen, "gi_frame", None)
    if frame is None:
        return None
    code = frame.f_code
    name = getattr(code, "co_qualname", code.co_name)
    return Frame(name, code.co_filename, frame.f_lineno)


def capture_stack(root_gen: Any) -> Tuple[Frame, ...]:
    """Walk a suspended generator chain and return frames, leaf first.

    ``root_gen`` is the outermost generator of a goroutine (the function
    passed to ``go``).  Delegated sub-generators reached through
    ``yield from`` appear *above* their callers, so after reversal the
    first frame is the innermost call — the site of the blocking channel
    operation, mirroring a Go stack trace read top-down.
    """
    frames: List[Frame] = []
    gen: Any = root_gen
    seen = set()
    while gen is not None and id(gen) not in seen:
        seen.add(id(gen))
        frame = _frame_of(gen)
        if frame is not None:
            frames.append(frame)
        gen = getattr(gen, "gi_yieldfrom", None)
        # ``yield from`` can delegate to plain iterators; only generators
        # (and coroutines) carry frames.
        if gen is not None and not isinstance(
            gen, (types.GeneratorType, types.CoroutineType)
        ):
            gen = None
    frames.reverse()
    return tuple(frames)
