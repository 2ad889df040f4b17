"""ChanLang: a small IR of Go-style channel programs.

The paper's static baselines (GCatch, GOAT, Gomela) analyze Go source; our
analogs analyze this IR, which models exactly the features the paper says
make or break those tools:

* channel make/send/recv/close, buffered capacities (incl. dynamic sizes),
* goroutine spawns of named functions, *anonymous* functions, wrapper
  functions (higher-order spawn helpers) and *dynamic dispatch* (indirect
  calls with several possible targets),
* nondeterministic branching (error paths), bounded loops, range-over-
  channel loops, select statements with optional defaults,
* channel aliasing.

Programs are data (frozen dataclasses), so analyzers traverse them and the
oracle executes them on the CSP runtime for ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

# ---------------------------------------------------------------------------
# Callees: how control reaches another function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Direct:
    """A statically known call edge: ``f(...)``."""

    name: str


@dataclass(frozen=True)
class Anon:
    """An anonymous function literal (closure), defined inline.

    Its body may reference channels of the enclosing scope by name —
    ChanLang closures capture the parent environment, as Go closures do.
    """

    body: Tuple["Stmt", ...]
    label: str = "anon"


@dataclass(frozen=True)
class Indirect:
    """Dynamic dispatch: one of ``candidates`` runs, unknown statically.

    Models interface method calls / function values.  The paper: programs
    "that involve dynamic dispatch typically blindside [Gomela]".
    """

    candidates: Tuple[str, ...]


Callee = Union[Direct, Anon, Indirect]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MakeChan:
    """``var := make(chan T, capacity)``; capacity ``DYNAMIC`` = runtime-sized."""

    var: str
    capacity: int = 0


#: Sentinel capacity for dynamically sized buffers (len(items) etc.).
DYNAMIC = -1


@dataclass(frozen=True)
class Send:
    """``chan <- v`` at source location ``loc``."""

    chan: str
    loc: str


@dataclass(frozen=True)
class Recv:
    """``<-chan`` at source location ``loc``."""

    chan: str
    loc: str


@dataclass(frozen=True)
class Close:
    """``close(chan)``."""

    chan: str


@dataclass(frozen=True)
class Alias:
    """``new := old`` — a second name for the same channel."""

    var: str
    of: str


@dataclass(frozen=True)
class Go:
    """``go callee(args...)`` — args are channel variable names."""

    callee: Callee
    args: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Call:
    """A synchronous call."""

    callee: Callee
    args: Tuple[str, ...] = ()


@dataclass(frozen=True)
class If:
    """A branch whose condition is opaque to analysis (error paths)."""

    then: Tuple["Stmt", ...]
    orelse: Tuple["Stmt", ...] = ()
    #: Identifies correlated branches: two Ifs with the same non-None
    #: ``cond_id`` always take the same direction at runtime.  Path-
    #: enumeration analyses that ignore correlation explore impossible
    #: path combinations — a documented GCatch imprecision source.
    cond_id: Optional[str] = None


@dataclass(frozen=True)
class Loop:
    """A loop with ``times`` statically known iterations (``times >= 0``)."""

    times: int
    body: Tuple["Stmt", ...]


@dataclass(frozen=True)
class ForRange:
    """``for v := range chan { body }`` — receives until close."""

    chan: str
    body: Tuple["Stmt", ...]
    loc: str = ""


@dataclass(frozen=True)
class SelectCaseIR:
    """One arm of a select: a Send/Recv op guarding a body."""

    op: Union[Send, Recv]
    body: Tuple["Stmt", ...] = ()
    #: Marks arms on transient channels (time.Tick / ctx.Done analogs).
    transient: bool = False


@dataclass(frozen=True)
class SelectStmt:
    """``select { cases... [default] }`` at source location ``loc``."""

    cases: Tuple[SelectCaseIR, ...]
    default: Optional[Tuple["Stmt", ...]] = None
    loc: str = ""


@dataclass(frozen=True)
class Return:
    """Early return from the enclosing function."""


@dataclass(frozen=True)
class Sleep:
    """``time.Sleep(seconds)``: timing only; invisible to static analysis."""

    seconds: float = 0.1


Stmt = Union[
    MakeChan, Send, Recv, Close, Alias, Go, Call, If, Loop, ForRange,
    SelectStmt, Return, Sleep,
]


# ---------------------------------------------------------------------------
# Functions and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuncDef:
    """A function: named parameters (all channel-typed) and a body."""

    name: str
    params: Tuple[str, ...] = ()
    body: Tuple[Stmt, ...] = ()
    #: Wrapper functions spawn their function-valued argument; the paper
    #: notes wrappers "severely impede" detection unless recognized.
    is_wrapper: bool = False


@dataclass
class Program:
    """A ChanLang compilation unit: functions plus an entry point."""

    name: str
    funcs: Dict[str, FuncDef] = field(default_factory=dict)
    entry: str = "main"

    def func(self, name: str) -> FuncDef:
        return self.funcs[name]

    def add(self, func: FuncDef) -> "Program":
        self.funcs[func.name] = func
        return self
