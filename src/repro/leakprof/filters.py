"""Criterion 2: filtering trivially non-blocking operations (§V-A).

The paper: "some select statements feature only transiently blocking case
arms, e.g. when listening to time.Tick and context.Done.  Such trivially
non-blocking operations are filtered through simple AST-level static
analyses."

This module performs the same analysis on our workloads' *Python* source:
given a blocked goroutine's source location, it parses the enclosing
module's AST, finds the blocking ``select(...)`` / ``recv(...)`` call on
that line, and checks whether every channel arm is produced by a
transient source — ``after(...)``/``time.After``, ``tick(...)``,
``new_ticker``/``.channel`` or ``ctx.done()``.  Those arms always become
ready eventually, so a goroutine parked there is not leaked.
"""

from __future__ import annotations

import ast
import functools
from typing import Optional

from repro.profiling import GoroutineRecord
from repro.runtime.goroutine import GoroutineState

#: Call names whose result channels unblock on their own.
_TRANSIENT_CALLS = {"after", "tick", "done", "new_ticker"}
#: Attribute accesses that denote ticker channels.
_TRANSIENT_ATTRS = {"channel"}
# Module globals, not Enum class attributes (a metaclass lookup each).
_BLOCKED_SELECT = GoroutineState.BLOCKED_SELECT
_BLOCKED_RECV = GoroutineState.BLOCKED_RECV


@functools.lru_cache(maxsize=512)
def _module_ast(path: str) -> Optional[ast.Module]:
    try:
        with open(path, "r") as source_file:
            return ast.parse(source_file.read(), filename=path)
    except (OSError, SyntaxError):
        return None


def _call_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def _covers_line(node: ast.AST, line: int) -> bool:
    lineno = getattr(node, "lineno", None)
    end = getattr(node, "end_lineno", lineno)
    return lineno is not None and lineno <= line <= (end or lineno)


def _find_blocking_call(tree: ast.Module, line: int, names) -> Optional[ast.Call]:
    """Innermost call to one of ``names`` whose span covers ``line``."""
    best: Optional[ast.Call] = None
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and _call_name(node) in names
            and _covers_line(node, line)
        ):
            if best is None or node.lineno >= best.lineno:
                best = node
    return best


def _channel_expr_is_transient(expr: ast.AST) -> bool:
    """Does this channel expression denote a self-unblocking channel?"""
    for node in ast.walk(expr):
        if isinstance(node, ast.Call) and _call_name(node) in _TRANSIENT_CALLS:
            return True
        if isinstance(node, ast.Attribute) and node.attr in _TRANSIENT_ATTRS:
            return True
    return False


def _select_is_trivially_nonblocking(call: ast.Call) -> bool:
    """Every non-default arm listens on a transient channel source."""
    arms = list(call.args)
    if not arms:
        return False  # select{} blocks forever: maximally suspicious
    for arm in arms:
        if not isinstance(arm, ast.Call):
            return False
        name = _call_name(arm)
        if name in ("case_send",):
            return False  # sends are never transient
        if not arm.args or not _channel_expr_is_transient(arm.args[0]):
            return False
    # A default arm would make it non-blocking outright; absent that,
    # transient arms still guarantee eventual progress.
    return True


def _recv_is_trivially_nonblocking(call: ast.Call) -> bool:
    return bool(call.args) and _channel_expr_is_transient(call.args[0])


def is_trivially_nonblocking(record: GoroutineRecord) -> bool:
    """Criterion 2 for one blocked goroutine.

    True when static analysis of the blocking operation shows it always
    eventually unblocks (timer/ticker/context arms only).  Conservative:
    any analysis failure returns False (keep the candidate).
    """
    frame = record.user_frames[0] if record.user_frames else None
    if frame is None:
        return False
    return _location_verdict(record.state, frame.file, frame.line)


@functools.lru_cache(maxsize=4096)
def _location_verdict(state: GoroutineState, path: str, line: int) -> bool:
    """Criterion 2 for the operation at ``path:line`` blocked in ``state``.

    Memoized per location: finding the call walks the module's whole
    AST, and like :func:`_module_ast` the verdict assumes source files
    do not change within a process.
    """
    tree = _module_ast(path)
    if tree is None:
        return False
    if state is _BLOCKED_SELECT:
        call = _find_blocking_call(tree, line, ("select",))
        return call is not None and _select_is_trivially_nonblocking(call)
    if state is _BLOCKED_RECV:
        call = _find_blocking_call(tree, line, ("recv", "recv_ok"))
        return call is not None and _recv_is_trivially_nonblocking(call)
    return False
