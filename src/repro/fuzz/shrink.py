"""Delta-debugging shrinker: minimize a disagreeing program.

Greedy ddmin over the scenario tree.  Candidate edits, in order of how
much they remove:

1. delete a whole scenario (at any depth),
2. flatten a ``nested`` scenario into its children (drops the spawn
   layer while keeping the children's behaviour),
3. shrink a scenario's numeric parameters toward their floor (fewer
   workers, fewer arms, smaller buffers, zero warm-up items).

A candidate is accepted when the re-run still produces a disagreement
with the **same (detector, kind) signature** as the original finding —
the standard delta-debugging invariant, which is also exactly what
``tests/test_fuzz.py`` asserts as shrinker soundness.  Because every
candidate is re-executed through the full stack, a minimized reproducer
is a true reproducer by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Tuple

from .judge import JudgeResult, examine
from .optree import FuzzProgram, Scenario, make_scenario

#: (detector, kind) — the disagreement signature a shrink must preserve.
Target = Tuple[str, str]

#: Candidate re-runs one shrink may spend.
MAX_ATTEMPTS = 400


def _without_index(items: Tuple, index: int) -> Tuple:
    return items[:index] + items[index + 1:]


def _edit_forest(
    scenarios: Tuple[Scenario, ...]
) -> Iterator[Tuple[Scenario, ...]]:
    """All single-edit variants of a scenario forest (recursive)."""
    for index, scenario in enumerate(scenarios):
        # 1. drop the scenario entirely
        yield _without_index(scenarios, index)
        # 2. flatten a nested node into its children
        if scenario.kind == "nested" and scenario.children:
            yield (
                scenarios[:index]
                + scenario.children
                + scenarios[index + 1:]
            )
        # 3. shrink parameters in place
        for shrunk in _param_shrinks(scenario):
            yield scenarios[:index] + (shrunk,) + scenarios[index + 1:]
        # recurse into children
        for edited_children in _edit_forest(scenario.children):
            yield (
                scenarios[:index]
                + (replace(scenario, children=edited_children),)
                + scenarios[index + 1:]
            )


def _with_params(scenario: Scenario, **params: int) -> Scenario:
    merged = {key: value for key, value in scenario.params}
    merged.update(params)
    return make_scenario(
        scenario.kind,
        scenario.sid,
        scenario.leaky,
        children=scenario.children,
        **merged,
    )


def _param_shrinks(sc: Scenario) -> Iterator[Scenario]:
    """Domain-aware parameter reductions that keep the scenario well-formed."""
    kind = sc.kind
    if kind == "send_block":
        # Params-derived truth: reductions only shift the expected count,
        # never desynchronize it.  receives <= senders keeps the host's
        # unblocking receives satisfiable (main must always terminate).
        n = sc.param("senders")
        k = sc.param("receives", 0 if sc.leaky else n)
        if n > 1:
            new_n = n - 1
            yield _with_params(sc, senders=new_n, receives=min(k, new_n))
        if k > 0:
            yield _with_params(sc, receives=k - 1)
    elif kind == "recv_block":
        # Truth is params-derived (see optree.scenario_truth), so any
        # reduction stays oracle-consistent: fewer sends simply means
        # more expected leaks unless a close() wakes everyone.
        n, k = sc.param("receivers"), sc.param("sends", 0)
        if n > 1:
            new_n = n - 1
            yield _with_params(sc, receivers=new_n, sends=min(k, new_n))
        if k > 0:
            yield _with_params(sc, sends=k - 1)
    elif kind == "buffered_overfill":
        if sc.param("capacity") > 1:
            yield _with_params(sc, capacity=1)
        if sc.param("extra") > 1:
            yield _with_params(sc, extra=1)
    elif kind == "select_block":
        if sc.param("arms") > 1:
            yield _with_params(sc, arms=1)
    elif kind == "range_unclosed":
        if sc.param("items") > 0:
            yield _with_params(sc, items=0)
    elif kind == "wg_wait":
        if sc.param("waiters") > 1:
            yield _with_params(sc, waiters=1)
    elif kind in ("timer_loop", "ticker_abandon"):
        if sc.param("interval_tenths") > 5:
            yield _with_params(sc, interval_tenths=5)
    elif kind == "noise":
        if sc.param("alloc_kib") > 1:
            yield _with_params(sc, alloc_kib=1)
        if sc.param("sleep_tenths") > 0:
            yield _with_params(sc, sleep_tenths=0)


@dataclass
class ShrinkResult:
    """Outcome of one shrink run."""

    program: FuzzProgram  # the minimized reproducer
    target: Target
    attempts: int  # candidates executed
    accepted: int  # edits that kept the disagreement
    final: JudgeResult  # judge output of the minimized program


def still_disagrees(result: JudgeResult, target: Target) -> bool:
    return bool(result.matching(target))


def shrink(
    program: FuzzProgram,
    target: Target,
    check: Optional[Callable[[FuzzProgram], JudgeResult]] = None,
) -> ShrinkResult:
    """Minimize ``program`` while preserving a ``target`` disagreement.

    ``check`` runs a candidate and returns its :class:`JudgeResult`
    (defaults to the full observe+judge pipeline; tests inject judges
    with deliberately broken detectors here).
    """
    if check is None:
        check = lambda candidate: examine(candidate)[1]  # noqa: E731

    attempts = 0
    accepted = 0
    current = program
    final = check(current)
    if not still_disagrees(final, target):
        raise ValueError(
            f"program does not reproduce target disagreement {target!r}"
        )

    improved = True
    while improved and attempts < MAX_ATTEMPTS:
        improved = False
        for edited in _edit_forest(current.scenarios):
            if attempts >= MAX_ATTEMPTS:
                break
            candidate = replace(current, scenarios=edited)
            if candidate.size == 0:
                continue  # nothing left to disagree about
            attempts += 1
            result = check(candidate)
            if still_disagrees(result, target):
                current = candidate
                final = result
                accepted += 1
                improved = True
                break  # restart the edit scan from the smaller tree
    return ShrinkResult(
        program=current,
        target=target,
        attempts=attempts,
        accepted=accepted,
        final=final,
    )
