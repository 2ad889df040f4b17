"""Gomela analog: per-function bounded model checking with a time budget.

The paper (§II-B): Gomela translates Go functions to Promela and model-
checks them with SPIN.  It needs no program entry point — it analyzes
functions embedded deep in libraries — but "its inter-procedural reasoning
capabilities are limited to only pursuing anonymous functions that are
called immediately or statically known call edges", programs with
higher-order wrappers or dynamic dispatch "typically blindside it", and
models may "run out of memory ... or take too long", so the deployment
imposed a 60-second per-model verification limit.

The analog: for every function that allocates a channel, build a *model* —
the function body with direct call edges followed one level, anonymous
closures kept, indirect calls and deeper calls dropped — then exhaustively
execute the model with the oracle executor under a step budget.  Blocking
locations found are reported; budget exhaustion abandons the model.

Because callees beyond one level are dropped, partner operations hiding in
helper functions disappear, producing the spurious blocking reports that
put Gomela's measured precision (34%) below GCatch's and GOAT's.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from .ir import (
    Alias,
    Anon,
    Call,
    Close,
    Direct,
    ForRange,
    FuncDef,
    Go,
    If,
    Indirect,
    Loop,
    MakeChan,
    Program,
    Recv,
    Return,
    SelectCaseIR,
    SelectStmt,
    Send,
    Sleep,
)
from .common import Report
from .oracle import execute

TOOL = "gomela"

#: The paper's 60-second SPIN limit, expressed in interpreter steps.
DEFAULT_STEP_BUDGET = 20_000

#: Model-checking explores schedules; a handful suffices for tiny models.
DEFAULT_RUNS = 8

#: Levels of direct calls the front end inlines; deeper callees vanish.
CALL_DEPTH = 1


class _ModelBuilder:
    """Builds the intraprocedural model Gomela's front end can see."""

    def __init__(self, program: Program):
        self.program = program
        self.blinded: List[str] = []

    def build(self, func: FuncDef) -> FuncDef:
        return FuncDef(
            name=func.name,
            params=func.params,
            body=self._prune(func.body, CALL_DEPTH),
        )

    def _prune(self, body, depth: int) -> Tuple:
        out = []
        for stmt in body:
            if isinstance(
                stmt, (MakeChan, Send, Recv, Close, Alias, Return, Sleep)
            ):
                out.append(stmt)
            elif isinstance(stmt, If):
                out.append(
                    If(
                        then=self._prune(stmt.then, depth),
                        orelse=self._prune(stmt.orelse, depth),
                        cond_id=stmt.cond_id,
                    )
                )
            elif isinstance(stmt, Loop):
                out.append(Loop(stmt.times, self._prune(stmt.body, depth)))
            elif isinstance(stmt, ForRange):
                out.append(
                    ForRange(stmt.chan, self._prune(stmt.body, depth), stmt.loc)
                )
            elif isinstance(stmt, SelectStmt):
                out.append(
                    SelectStmt(
                        cases=tuple(
                            SelectCaseIR(
                                op=case.op,
                                body=self._prune(case.body, depth),
                                transient=case.transient,
                            )
                            for case in stmt.cases
                        ),
                        default=(
                            self._prune(stmt.default, depth)
                            if stmt.default is not None
                            else None
                        ),
                        loc=stmt.loc,
                    )
                )
            elif isinstance(stmt, (Go, Call)):
                inlined = self._inline(stmt, depth)
                if inlined is not None:
                    out.append(inlined)
            else:  # pragma: no cover - exhaustive over Stmt
                raise TypeError(f"unknown statement {stmt!r}")
        return tuple(out)

    def _inline(self, stmt, depth: int):
        callee = stmt.callee
        if isinstance(callee, Anon):
            # anonymous function called immediately: fully visible
            pruned = Anon(self._prune(callee.body, depth), callee.label)
            return type(stmt)(callee=pruned, args=stmt.args)
        if isinstance(callee, Indirect):
            self.blinded.append("|".join(callee.candidates))
            return None  # dynamic dispatch: the statement vanishes
        if isinstance(callee, Direct):
            if depth <= 0:
                self.blinded.append(callee.name)
                return None  # beyond the one-level static call edge
            func = self.program.func(callee.name)
            bindings = tuple(
                Alias(var=param, of=arg)
                for param, arg in zip(func.params, stmt.args)
            )
            body = bindings + self._prune(func.body, depth - 1)
            return type(stmt)(
                callee=Anon(body, label=func.name), args=()
            )
        raise TypeError(f"unknown callee {callee!r}")


def _is_model_candidate(func: FuncDef) -> bool:
    """Gomela's entry heuristic: model concurrency-bearing functions.

    Gomela needs no program entry point; it models any function that
    allocates a channel *or spawns a goroutine* — including library
    functions whose callers (and their closes/receives) are invisible,
    the principal source of its spurious reports.
    """

    def visit(body) -> bool:
        for stmt in body:
            if isinstance(stmt, (MakeChan, Go)):
                return True
            if isinstance(stmt, If) and (visit(stmt.then) or visit(stmt.orelse)):
                return True
            if isinstance(stmt, (Loop, ForRange)) and visit(stmt.body):
                return True
            if isinstance(stmt, SelectStmt):
                for case in stmt.cases:
                    if visit(case.body):
                        return True
                if stmt.default and visit(stmt.default):
                    return True
            if isinstance(stmt, Call) and isinstance(stmt.callee, Anon):
                if visit(stmt.callee.body):
                    return True
        return False

    return visit(func.body)


def analyze(
    program: Program,
    step_budget: int = DEFAULT_STEP_BUDGET,
    runs: int = DEFAULT_RUNS,
) -> List[Report]:
    """Model-check every channel-allocating function of the program."""
    reports: List[Report] = []
    reported: Set[str] = set()
    for func in program.funcs.values():
        if not _is_model_candidate(func):
            continue
        builder = _ModelBuilder(program)
        model_func = builder.build(func)
        # Channel parameters have no caller in a per-function model:
        # Gomela materializes them as fresh (partner-less) channels — the
        # over-approximation behind many of its spurious reports.
        entry_body = (
            tuple(MakeChan(param, 0) for param in model_func.params)
            + model_func.body
        )
        model = Program(name=f"{program.name}::{func.name}")
        model.add(FuncDef(name=func.name, params=(), body=entry_body))
        model.entry = func.name
        leaked: Set[str] = set()
        timed_out = False
        for seed in range(runs):
            try:
                result = execute(
                    model, seed=seed, deadline=30.0, max_steps=step_budget
                )
            except Exception:
                timed_out = True  # model too large: the SPIN-timeout analog
                break
            leaked.update(result.leaked_locations)
        if timed_out:
            continue
        for loc in leaked:
            if loc in reported:
                continue
            reported.add(loc)
            reports.append(
                Report(
                    tool=TOOL,
                    program=program.name,
                    loc=loc,
                    reason="model checking found a blocked process",
                )
            )
    return reports
