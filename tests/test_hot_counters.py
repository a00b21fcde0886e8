"""The check core's ``detector.*`` metrics counters, pinned.

With the metrics registry on, the check core counts every access it
checks, how many a preliminary check passed, how many reached the race
tier, and how many races it reported.  These totals are pinned here for
four racy registry workloads, one race-free stencil, and a small kernel
whose per-block locks alias in the Bloom filter, so any change to the
check path that moves an access between tiers shows up as a counter
difference.  The R5 verdicts the 16-bit Bloom lock summaries get wrong
(filters intersect, true lock sets disjoint) are the reference
detector's ``bloom`` divergences, pinned for the aliasing kernel.  The
detector folds the first three from its per-launch statistics, so a
columnar replay of ``reduction`` must reach the same totals as the live
run.
"""

import pytest

from repro.core import IGuard
from repro.core.reference import diff, live
from repro.core.sharding import replay_columnar_sharded
from repro.engine.coltrace import save_columnar
from repro.engine.replay import capture_workload
from repro.obs import metrics
from repro.workloads import get_workload, run_workload
from repro.gpu.arch import TEST_GPU
from repro.gpu.instructions import load, store
from repro.workloads.patterns import lock_acquire, lock_release, signal, wait_for

from tests.conftest import detect

COUNTERS = (
    "detector.accesses_checked",
    "detector.preliminary_pass",
    "detector.race_checks_run",
    "detector.races_reported",
)

#: (accesses_checked, preliminary_pass, race_checks_run, races_reported)
#: per workload, default seeds.
PINNED = {
    "reduction": (672, 618, 54, 54),
    "graph-color": (467, 449, 18, 18),
    "hashtable": (518, 512, 6, 6),
    "interac": (39140, 38565, 575, 10),
    "hotspot": (1920, 1920, 0, 0),
}

#: The same counters for :func:`_aliased_locks` (16 blocks, seed 1): 15
#: consecutive-turn pairs reach R5, 7 are reported and 8 alias.
PINNED_ALIASED_LOCKS = (987, 972, 15, 7)


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


def test_columnar_replay_counters(registry, tmp_path):
    path = tmp_path / "reduction.ctr"
    save_columnar(capture_workload(get_workload("reduction")), path)
    registry.reset()
    replay_columnar_sharded(str(path))
    assert _totals(registry) == PINNED["reduction"]


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
    assert _totals(registry) == PINNED_ALIASED_LOCKS

    def drive(device):
        data = device.alloc("data", 1)
        locks = device.alloc("locks", 16)
        turn = device.alloc("turn", 1)
        device.launch(
            _aliased_locks, 16, 32, args=(data, locks, turn), seed=1
        )

    _, reference = diff(live(drive, TEST_GPU))
    # The 8 aliasing pairs are the only divergences from the reference,
    # and the reference reports the R5 race iGUARD misses there.
    assert reference.labels == {"bloom": 8}
    assert not reference.unlabelled
    assert [str(t) for _, t in reference.races.sites()] == ["IL"]
