"""The fuzzer's program model: composable scenario op-trees.

A generated program is a tree of :class:`Scenario` nodes over the runtime
primitives (channels, selects, timers/tickers, WaitGroup/Mutex, context
cancellation, nested spawns).  The defining property — and the reason the
fuzzer can judge every detector without a reference implementation — is
that **ground truth is decided at construction time**: every blocking
operation is generated together with (or deliberately without) its
matching unblocker, so :func:`FuzzProgram.truth` can enumerate exactly
which goroutines must still be parked when the program quiesces, before
it ever executes.

Scenario kinds mirror the paper's leak taxonomy; each kind names its
analog in :data:`repro.patterns.registry.PATTERNS` (see
:data:`PATTERN_ANALOGS`), and the generator draws its kind mix from the
same §VI category weights the pattern census uses.

Trees are frozen dataclasses, so they hash, compare, pickle, and
round-trip through JSON (:func:`program_to_dict` / ``program_from_dict``)
— the serialization the regression corpus and CI artifacts use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

#: GoroutineState.value strings the truth model speaks (kept as literals
#: so a serialized truth table is readable without importing the runtime).
STATE_SEND = "chan send"
STATE_RECV = "chan receive"
STATE_SELECT = "select"
STATE_SEMACQUIRE = "semacquire"

#: States LeakProf's profile scan can observe (channel ops only).
CHANNEL_STATES = frozenset({STATE_SEND, STATE_RECV, STATE_SELECT})

#: Every scenario kind the generator can emit.
KINDS = (
    "send_block",
    "recv_block",
    "buffered_overfill",
    "select_block",
    "ctx_select",
    "range_unclosed",
    "wg_wait",
    "mutex_hold",
    "timer_loop",
    "ticker_abandon",
    "nested",
    "noise",
)

#: Scenario kind -> the registered leak pattern it generalizes.  The
#: fuzzer is the pattern registry made unbounded: each kind randomizes
#: the dimensions (fan-out, buffering, arm counts, nesting) its analog
#: fixes.  Kinds without a registry analog model healthy or shared-memory
#: behaviour the registry does not enumerate.
PATTERN_ANALOGS: Dict[str, Optional[str]] = {
    "send_block": "ncast",
    "recv_block": "unclosed_range",
    "buffered_overfill": "premature_return",
    "select_block": "contract_violation",
    "ctx_select": "contract_violation_context",
    "range_unclosed": "unclosed_range",
    "wg_wait": None,
    "mutex_hold": None,
    "timer_loop": "timer_loop",
    "ticker_abandon": "timer_loop",
    "nested": None,
    "noise": None,
}


@dataclass(frozen=True)
class Scenario:
    """One (blocker, unblocker?) unit of a generated program.

    ``leaky`` decides whether the matching unblocker is emitted; ``params``
    is a sorted tuple of (name, int) pairs so the node stays hashable and
    JSON-trivial.  ``nested`` scenarios run their children's host code
    inside a spawned goroutine instead of ``main``.
    """

    kind: str
    sid: str
    leaky: bool
    params: Tuple[Tuple[str, int], ...] = ()
    children: Tuple["Scenario", ...] = ()

    def param(self, name: str, default: Optional[int] = None) -> int:
        for key, value in self.params:
            if key == name:
                return value
        if default is None:
            raise KeyError(f"scenario {self.sid} ({self.kind}): no param {name!r}")
        return default

    def walk(self) -> Iterator["Scenario"]:
        yield self
        for child in self.children:
            yield from child.walk()


def make_scenario(
    kind: str,
    sid: str,
    leaky: bool,
    children: Tuple[Scenario, ...] = (),
    **params: int,
) -> Scenario:
    if kind not in KINDS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    return Scenario(
        kind=kind,
        sid=sid,
        leaky=leaky,
        params=tuple(sorted(params.items())),
        children=children,
    )


@dataclass(frozen=True)
class LeakGroup:
    """Construction-time ground truth for one scenario's goroutines.

    ``names`` are the goroutine names the scenario spawns (several spawns
    may share one name); exactly ``count`` records carrying one of these
    names must be parked — in ``state`` at the op labeled ``loc_label`` —
    once the program quiesces.  ``count == 0`` is the healthy promise:
    any detector report against the group is a false positive.
    """

    sid: str
    names: Tuple[str, ...]
    count: int
    state: str
    loc_label: str
    #: True when the blocking op is a channel op LeakProf can see.
    channel_visible: bool = True
    #: True when the scenario lowers to ChanLang and, if leaky, the range
    #: linter is expected to flag it.
    lintable: bool = False


@dataclass(frozen=True)
class FuzzProgram:
    """A complete generated program: a forest of scenarios under main."""

    name: str
    seed: int
    scenarios: Tuple[Scenario, ...] = ()

    def walk(self) -> Iterator[Scenario]:
        for scenario in self.scenarios:
            yield from scenario.walk()

    def truth(self) -> Tuple[LeakGroup, ...]:
        """The oracle: every scenario's leak groups, by construction."""
        groups: List[LeakGroup] = []
        for scenario in self.walk():
            groups.extend(scenario_truth(scenario))
        return tuple(groups)

    def expected_leaks(self) -> int:
        return sum(group.count for group in self.truth())

    @property
    def size(self) -> int:
        """Scenario count — the measure the shrinker minimizes first."""
        return sum(1 for _ in self.walk())


def _name(scenario: Scenario, role: str) -> str:
    return f"fz.{scenario.sid}.{role}"


def scenario_truth(scenario: Scenario) -> Tuple[LeakGroup, ...]:
    """Ground truth contributed by one scenario node (children excluded)."""
    sid = scenario.sid
    kind = scenario.kind
    leaky = scenario.leaky
    # For the kinds below the unblocker is itself parameterized (receive
    # counts, close flags, drain flags), so truth derives from the params
    # ALONE — the ``leaky`` flag is generator intent, not a second source
    # of truth.  This keeps the oracle consistent under any parameter
    # edit (the shrinker floors counts freely) and under hand-authored
    # corpus entries whose flag disagrees with their params.
    if kind == "send_block":
        n = scenario.param("senders")
        k = scenario.param("receives", 0 if leaky else n)
        return (
            LeakGroup(sid, (_name(scenario, "sender"),), n - k,
                      STATE_SEND, f"{sid}.send"),
        )
    if kind == "recv_block":
        n = scenario.param("receivers")
        k = scenario.param("sends", 0)
        # close() wakes every remaining receiver with the zero value.
        count = 0 if scenario.param("close", 0) else n - k
        return (
            LeakGroup(sid, (_name(scenario, "receiver"),), count,
                      STATE_RECV, f"{sid}.recv"),
        )
    if kind == "buffered_overfill":
        undrained = not scenario.param("drain", 0)
        overfills = scenario.param("extra") > 0
        return (
            LeakGroup(sid, (_name(scenario, "filler"),),
                      1 if (undrained and overfills) else 0,
                      STATE_SEND, f"{sid}.send"),
        )
    if kind == "select_block":
        has_default = bool(scenario.param("has_default", 0))
        count = 1 if (leaky and not has_default) else 0
        return (
            LeakGroup(sid, (_name(scenario, "selector"),), count,
                      STATE_SELECT, f"{sid}.select"),
        )
    if kind == "ctx_select":
        return (
            LeakGroup(sid, (_name(scenario, "waiter"),), 1 if leaky else 0,
                      STATE_SELECT, f"{sid}.select"),
        )
    if kind == "range_unclosed":
        return (
            LeakGroup(sid, (_name(scenario, "ranger"),), 1 if leaky else 0,
                      STATE_RECV, f"{sid}.range", lintable=True),
        )
    if kind == "wg_wait":
        w = scenario.param("waiters")
        return (
            LeakGroup(sid, (_name(scenario, "waiter"),), w if leaky else 0,
                      STATE_SEMACQUIRE, f"{sid}.wait", channel_visible=False),
        )
    if kind == "mutex_hold":
        return (
            LeakGroup(sid, (_name(scenario, "locker"),), 1 if leaky else 0,
                      STATE_SEMACQUIRE, f"{sid}.lock", channel_visible=False),
        )
    if kind == "timer_loop":
        # The leaky variant loops <-time.After forever (never terminates,
        # so it is lingering by Fact 1); the healthy variant has a done-
        # channel escape hatch its host closes.
        if leaky:
            return (
                LeakGroup(sid, (_name(scenario, "looper"),), 1,
                          STATE_RECV, f"{sid}.tick"),
            )
        return (
            LeakGroup(sid, (_name(scenario, "looper"),), 0,
                      STATE_SELECT, f"{sid}.select"),
        )
    if kind == "ticker_abandon":
        if leaky:
            return (
                LeakGroup(sid, (_name(scenario, "ticker"),), 1,
                          STATE_RECV, f"{sid}.tickrange"),
            )
        return (
            LeakGroup(sid, (_name(scenario, "ticker"),), 0,
                      STATE_SELECT, f"{sid}.select"),
        )
    if kind == "nested":
        # The host goroutine runs the children's host code, then exits;
        # children contribute their own groups via FuzzProgram.walk().
        return (
            LeakGroup(sid, (_name(scenario, "host"),), 0,
                      "-", f"{sid}.host", channel_visible=False),
        )
    if kind == "noise":
        return (
            LeakGroup(sid, (_name(scenario, "noise"),), 0,
                      "-", f"{sid}.noise", channel_visible=False),
        )
    raise ValueError(f"unknown scenario kind {kind!r}")


# ---------------------------------------------------------------------------
# Serialization — the regression-corpus / CI-artifact format
# ---------------------------------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict:
    payload: dict = {
        "kind": scenario.kind,
        "sid": scenario.sid,
        "leaky": scenario.leaky,
    }
    if scenario.params:
        payload["params"] = {key: value for key, value in scenario.params}
    if scenario.children:
        payload["children"] = [
            scenario_to_dict(child) for child in scenario.children
        ]
    return payload


def scenario_from_dict(payload: dict) -> Scenario:
    return make_scenario(
        payload["kind"],
        payload["sid"],
        bool(payload["leaky"]),
        children=tuple(
            scenario_from_dict(child) for child in payload.get("children", ())
        ),
        **{key: int(value) for key, value in payload.get("params", {}).items()},
    )


def program_to_dict(program: FuzzProgram) -> dict:
    return {
        "name": program.name,
        "seed": program.seed,
        "scenarios": [scenario_to_dict(s) for s in program.scenarios],
    }


def program_from_dict(payload: dict) -> FuzzProgram:
    return FuzzProgram(
        name=payload["name"],
        seed=int(payload["seed"]),
        scenarios=tuple(
            scenario_from_dict(s) for s in payload.get("scenarios", ())
        ),
    )
