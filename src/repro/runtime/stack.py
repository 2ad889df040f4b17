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
from typing import Any, Dict, List, Optional, Tuple


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


#: Interned frames: ``id(code) -> (code, {line: Frame})``.  Holding the
#: code object keeps its id from being reused.  Code compiled from a
#: string (a ``<...>`` filename, e.g. generated fuzz programs) is never
#: interned, so the table cannot keep such code alive.
_INTERNED: Dict[int, Tuple[types.CodeType, Dict[int, Frame]]] = {}

_GENERATOR_TYPES = (types.GeneratorType, types.CoroutineType)


def _frame_at(code: types.CodeType, line: int) -> Frame:
    """The one :class:`Frame` for ``(code, line)``."""
    entry = _INTERNED.get(id(code))
    if entry is not None:
        frames = entry[1]
    else:
        frames = {}
        if not code.co_filename.startswith("<"):
            _INTERNED[id(code)] = (code, frames)
    frame = frames.get(line)
    if frame is None:
        frame = frames[line] = Frame(
            getattr(code, "co_qualname", code.co_name), code.co_filename, line
        )
    return frame


def _frame_of(gen: Any) -> Optional[Frame]:
    frame = getattr(gen, "gi_frame", None)
    if frame is None:
        return None
    return _frame_at(frame.f_code, frame.f_lineno)


def leaf_frame(root_gen: Any) -> Optional[Frame]:
    """``capture_stack(root_gen)[0]`` without building the other frames.

    The ``go`` effect's creation context: the innermost frame of the
    spawning goroutine's ``yield from`` chain.
    """
    if root_gen.__class__ is not types.GeneratorType:
        stack = capture_stack(root_gen)
        return stack[0] if stack else None
    leaf = root_gen.gi_frame
    gen = root_gen.gi_yieldfrom
    # Only generators carry frames (and delegate further).
    while gen.__class__ is types.GeneratorType:
        frame = gen.gi_frame
        if frame is not None:
            leaf = frame
        gen = gen.gi_yieldfrom
    if leaf is None:
        return None
    return _frame_at(leaf.f_code, leaf.f_lineno)


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
        if gen is not None and not isinstance(gen, _GENERATOR_TYPES):
            gen = None
    frames.reverse()
    return tuple(frames)
