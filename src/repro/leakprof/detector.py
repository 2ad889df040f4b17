"""The §V-A detector: Criterion 1, Criterion 2 and the proof tier.

Criterion 1 is the per-profile blocked-goroutine threshold: "The
threshold is set to 10K blocked goroutines at the same source location
in a program; the threshold was determined empirically by starting at a
larger number and slowly reducing it as long as the ratio of true
positives remained high."  Criterion 2 (the transient filter) lives in
:mod:`.filters`; all three tiers are applied in one place,
:meth:`SignatureAccumulator.suspects`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.profiling import GoroutineProfile, GoroutineRecord

from .filters import is_trivially_nonblocking

#: The paper's production threshold.
DEFAULT_THRESHOLD = 10_000


class Suspect(NamedTuple):
    """One blocking source location exceeding the threshold in one profile.

    A named tuple: :meth:`SignatureAccumulator.suspects` builds each one
    with a single ``tuple.__new__`` call over every field by position.
    """

    service: Optional[str]
    instance: Optional[str]
    state: str  # "chan send" | "chan receive" | "select"
    location: str  # file:line of the blocking operation
    count: int
    representative: GoroutineRecord  # one stack for the report
    #: "proven" when the instance's repro.gc sweep proved the leak; such
    #: suspects bypass Criterion 1 (threshold) and Criterion 2 (transient
    #: filter) entirely — a proof needs no statistical corroboration.
    proof: Optional[str] = None

    @property
    def key(self) -> Tuple[str, str]:
        """Identity for fleet-wide aggregation: (state, location)."""
        return (self.state, self.location)


#: (state value, blocking location) — Suspect.key.
Signature = Tuple[str, str]

_new = tuple.__new__


class SignatureAccumulator:
    """One instance's blocked goroutines filed by signature: the §V-A core.

    The only implementation of Criterion 1 (threshold), Criterion 2
    (transient filter) and the proof tier.  Members are keyed by an
    *ordinal* — a profile position for :func:`scan_profile`, a gid for
    a sharded fleet's per-instance signature index — and
    :meth:`suspects` orders signatures
    by their least member, with the least (proven) member as the
    representative.  For a profile that is first-appearance order, so
    batch and streaming answers agree by construction.
    """

    __slots__ = ("_sigs", "_sig_of")

    def __init__(self) -> None:
        #: signature -> (member ordinals, proven member ordinals).
        self._sigs: Dict[Signature, Tuple[Set[int], Set[int]]] = {}
        #: ordinal -> signature it is currently filed under.
        self._sig_of: Dict[int, Signature] = {}

    def file(self, ordinal: int, record: GoroutineRecord) -> None:
        """(Re)file ``ordinal`` under channel-blocked ``record``'s signature.

        A record with no user frame has no signature: the ordinal is
        unfiled instead.
        """
        location = record.blocking_location
        if location is None:
            self.unfile(ordinal)
            return
        signature = (record.state.value, location)
        sig_of = self._sig_of
        previous = sig_of.get(ordinal)
        if previous != signature:
            if previous is not None:
                self.unfile(ordinal)
            sig_of[ordinal] = signature
            sets = self._sigs.get(signature)
            if sets is None:
                sets = self._sigs[signature] = (set(), set())
            sets[0].add(ordinal)
        else:
            sets = self._sigs[signature]
        proven = sets[1]
        if record.proof == "proven":
            proven.add(ordinal)
        elif proven:
            proven.discard(ordinal)

    @classmethod
    def of_profile(
        cls, records: Sequence[GoroutineRecord]
    ) -> "SignatureAccumulator":
        """A fresh accumulator with ``records`` filed by position.

        The same state as calling :meth:`file` on each position in
        turn, built in one pass: every position is new, so none of
        :meth:`file`'s re-filing bookkeeping applies.
        """
        acc = cls()
        sigs = acc._sigs
        sig_of = acc._sig_of
        # Leaf frames are interned, so a profile's records share few of
        # them: each one's ``location`` string is built once, memoized
        # by identity (``Frame.__hash__`` costs more than the string).
        locations: Dict[int, str] = {}
        for position, record in enumerate(records):
            frames = record.user_frames
            if not frames:
                continue
            leaf = frames[0]
            location = locations.get(id(leaf))
            if location is None:
                location = locations[id(leaf)] = leaf.location
            # ``_value_``: Enum's ``value`` is a Python-level descriptor.
            signature = (record.state._value_, location)
            sig_of[position] = signature
            sets = sigs.get(signature)
            if sets is None:
                sets = sigs[signature] = (set(), set())
            sets[0].add(position)
            if record.proof == "proven":
                sets[1].add(position)
        return acc

    def unfile(self, ordinal: int) -> None:
        """Drop ``ordinal`` from whatever signature holds it."""
        signature = self._sig_of.pop(ordinal, None)
        if signature is None:
            return
        members, proven = self._sigs[signature]
        members.discard(ordinal)
        proven.discard(ordinal)
        if not members:
            del self._sigs[signature]

    def suspects(
        self,
        record_at: Callable[[int], GoroutineRecord],
        service: Optional[str],
        instance: Optional[str],
        threshold: int = DEFAULT_THRESHOLD,
        apply_transient_filter: bool = True,
    ) -> List[Suspect]:
        """The signatures that pass the criteria, least member first.

        ``record_at`` maps an ordinal back to its record.  A signature
        with a repro.gc ``proof=proven`` member is promoted regardless
        of count or filter — the reachability engine already proved it
        can never be woken.
        """
        suspects: List[Suspect] = []
        for least, (state, location), proven, count in sorted(
            (min(members), signature, proven, len(members))
            for signature, (members, proven) in self._sigs.items()
        ):
            if proven:
                representative = record_at(min(proven))
                proof: Optional[str] = "proven"
            else:
                if count < threshold:
                    continue
                representative = record_at(least)
                if apply_transient_filter and is_trivially_nonblocking(
                    representative
                ):
                    continue
                proof = None
            suspects.append(_new(Suspect, (
                service,
                instance,
                state,
                location,
                count,
                representative,
                proof,
            )))
        return suspects


def scan_profile(
    profile: GoroutineProfile,
    threshold: int = DEFAULT_THRESHOLD,
    apply_transient_filter: bool = True,
) -> List[Suspect]:
    """Find suspicious blocking concentrations in one goroutine profile.

    Implements both of the paper's criteria and the proof tier through
    :class:`SignatureAccumulator`, filing each blocked record under its
    profile position.
    """
    if not profile.records:
        return []
    blocked = profile.blocked()
    if not blocked:
        return []
    return SignatureAccumulator.of_profile(blocked).suspects(
        blocked.__getitem__,
        profile.service,
        profile.instance,
        threshold=threshold,
        apply_transient_filter=apply_transient_filter,
    )


def scan_fleet(
    profiles,
    threshold: int = DEFAULT_THRESHOLD,
    apply_transient_filter: bool = True,
) -> List[Suspect]:
    """Scan every instance profile of a fleet sweep."""
    suspects: List[Suspect] = []
    for profile in profiles:
        suspects.extend(
            scan_profile(
                profile,
                threshold=threshold,
                apply_transient_filter=apply_transient_filter,
            )
        )
    return suspects
