"""The check core's ``detector.*`` metrics counters, pinned.

With the metrics registry on, the check core counts every access it
checks, how many a preliminary check passed, how many reached the race
tier, how many races it reported, and how many R5 verdicts the 16-bit
Bloom lock summaries got wrong (filters intersect, true lock sets
disjoint).  These totals are pinned here for four racy registry
workloads, one race-free stencil, and a small kernel whose per-block
locks alias in the Bloom filter, so any change to the check path that
moves an access between tiers shows up as a counter difference.
"""

import pytest

from repro.core import IGuard
from repro.obs import metrics
from repro.workloads import get_workload, run_workload
from repro.gpu.instructions import load, store
from repro.workloads.patterns import lock_acquire, lock_release, signal, wait_for

from tests.conftest import detect

COUNTERS = (
    "detector.accesses_checked",
    "detector.preliminary_pass",
    "detector.race_checks_run",
    "detector.races_reported",
    "detector.bloom.false_positives",
)

#: (accesses_checked, preliminary_pass, race_checks_run, races_reported,
#: bloom.false_positives) per workload, default seeds.
PINNED = {
    "reduction": (672, 618, 54, 54, 0),
    "graph-color": (467, 449, 18, 18, 0),
    "hashtable": (518, 512, 6, 6, 0),
    "interac": (39140, 38565, 575, 10, 0),
    "hotspot": (1920, 1920, 0, 0, 0),
}

#: The same counters for :func:`_aliased_locks` (16 blocks, seed 1): 15
#: consecutive-turn pairs reach R5, 7 are reported and 8 alias.
PINNED_ALIASED_LOCKS = (987, 972, 15, 7, 8)


@pytest.fixture
def registry():
    metrics.set_enabled(True)
    metrics.get_registry().reset()
    yield metrics.get_registry()
    metrics.set_enabled(False)
    metrics.get_registry().reset()


def _totals(registry):
    snapshot = registry.snapshot()
    return tuple(snapshot[name]["value"] for name in COUNTERS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_registry_workload_counters(registry, name):
    run_workload(get_workload(name), lambda: IGuard())
    assert _totals(registry) == PINNED[name]


def _aliased_locks(ctx, data, locks, turn):
    # Block leaders take turns updating one word, each under its *own*
    # lock.  The lock release fence orders consecutive turns, so only R5
    # can flag a pair — and it does only where the two locks' Bloom
    # summaries are disjoint.  At this device's allocation addresses,
    # locks 8 words apart share Bloom bits, so the order 0, 8, 1, 9, ...
    # alternates a reported R5 race with a filter false positive.
    lock = ctx.block_id // 2 + 8 * (ctx.block_id % 2)
    if ctx.is_block_leader:
        yield from wait_for(turn, 0, ctx.block_id)
        yield from lock_acquire(locks, lock)
        value = yield load(data, 0)
        yield store(data, 0, value + 1)
        yield from lock_release(locks, lock)
        yield from signal(turn, 0)


def test_bloom_false_positives_counted(registry):
    detect(
        _aliased_locks, 16, 32, {"data": 1, "locks": 16, "turn": 1}, seed=1
    )
    totals = _totals(registry)
    assert totals == PINNED_ALIASED_LOCKS
    assert totals[-1] > 0
