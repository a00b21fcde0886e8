"""End-to-end tests of the iGUARD detector on small kernels.

These exercise the whole pipeline — instrumentation events, metadata
updates, lock inference, the two-tier checks, reporting — on the paper's
canonical bug patterns and their fixed variants.
"""

import pytest

from repro.core import IGuard, RaceType
from repro.core.config import DEFAULT_CONFIG, IGuardConfig
from repro.gpu.instructions import (
    Scope,
    atomic_add,
    atomic_cas,
    atomic_exch,
    atomic_load,
    fence_block,
    fence_device,
    load,
    store,
    syncthreads,
    syncwarp,
)

from tests.conftest import detect, fresh_device


def types_of(det):
    return {t for _, t in det.races.sites()}


class TestRaceFreePatterns:
    def test_private_slots(self):
        def kern(ctx, data):
            yield store(data, ctx.tid, 1)
            v = yield load(data, ctx.tid)
            yield store(data, ctx.tid, v + 1)

        det, _ = detect(kern, 2, 8, {"data": 16})
        assert det.race_count == 0

    def test_read_only_sharing(self):
        def kern(ctx, data, out):
            v = yield load(data, 0)
            yield store(out, ctx.tid, v)

        det, _ = detect(kern, 2, 8, {"data": (1, 7), "out": 16})
        assert det.race_count == 0

    def test_barrier_protected_handoff(self):
        def kern(ctx, data, out):
            yield store(data, ctx.tid, ctx.tid)
            yield syncthreads()
            v = yield load(data, ctx.block_id * ctx.block_dim
                           + (ctx.tid_in_block + 1) % ctx.block_dim)
            yield store(out, ctx.tid, v)

        det, _ = detect(kern, 2, 8, {"data": 16, "out": 16})
        assert det.race_count == 0

    def test_syncwarp_protected_handoff(self):
        def kern(ctx, data, out):
            yield store(data, ctx.tid, ctx.lane)
            yield syncwarp()
            base = ctx.warp_id * ctx.warp_size
            v = yield load(data, base + (ctx.lane + 1) % ctx.warp_size)
            yield store(out, ctx.tid, v)

        det, _ = detect(kern, 2, 8, {"data": 16, "out": 16})
        assert det.race_count == 0

    def test_fence_atomic_publication(self):
        def kern(ctx, data, flag, out):
            if ctx.block_id == 0 and ctx.tid_in_block == 0:
                yield store(data, 0, 42)
                yield fence_device()
                yield atomic_add(flag, 0, 1)
            if ctx.block_id == 1 and ctx.tid_in_block == 0:
                while (yield atomic_load(flag, 0)) == 0:
                    pass
                v = yield load(data, 0)
                yield store(out, 0, v)

        det, arrays = detect(kern, 2, 8, {"data": 1, "flag": 1, "out": 1})
        assert det.race_count == 0
        assert arrays["out"].read(0) == 42

    def test_device_atomics_any_block(self):
        def kern(ctx, counter):
            yield atomic_add(counter, 0, 1)

        det, arrays = detect(kern, 4, 8, {"counter": 1})
        assert det.race_count == 0
        assert arrays["counter"].read(0) == 32

    def test_block_atomics_single_block(self):
        def kern(ctx, counter):
            yield atomic_add(counter, 0, 1, scope=Scope.BLOCK)

        det, _ = detect(kern, 1, 8, {"counter": 1})
        assert det.race_count == 0

    def test_proper_locking(self):
        def kern(ctx, locks, data):
            while (yield atomic_cas(locks, 0, 0, 1)) != 0:
                pass
            yield fence_device()
            v = yield load(data, 0)
            yield store(data, 0, v + 1)
            yield fence_device()
            yield atomic_exch(locks, 0, 0)

        det, arrays = detect(kern, 2, 4, {"locks": 1, "data": 1})
        assert det.race_count == 0
        assert arrays["data"].read(0) == 8  # lost-update free


class TestRacyPatterns:
    def test_missing_barrier_intra_block(self):
        def kern(ctx, data, flag, out):
            if ctx.warp_in_block == 0 and ctx.lane == 0:
                yield store(data, 0, 1)
                yield atomic_add(flag, 0, 1)
            if ctx.warp_in_block == 1 and ctx.lane == 0:
                while (yield atomic_load(flag, 0)) == 0:
                    pass
                v = yield load(data, 0)
                yield store(out, 0, v)

        det, _ = detect(kern, 1, 8, {"data": 1, "flag": 1, "out": 1})
        assert det.race_count == 1
        assert types_of(det) == {RaceType.INTRA_BLOCK}

    def test_missing_fence_inter_block(self):
        def kern(ctx, data, flag, out):
            if ctx.block_id == 0 and ctx.tid_in_block == 0:
                yield store(data, 0, 1)
                yield atomic_add(flag, 0, 1)  # no fence before publication
            if ctx.block_id == 1 and ctx.tid_in_block == 0:
                while (yield atomic_load(flag, 0)) == 0:
                    pass
                v = yield load(data, 0)
                yield store(out, 0, v)

        det, _ = detect(kern, 2, 8, {"data": 1, "flag": 1, "out": 1})
        assert det.race_count == 1
        assert types_of(det) == {RaceType.INTER_BLOCK}

    def test_missing_syncwarp_its(self):
        def kern(ctx, data, flag, out):
            if ctx.warp_id == 0 and ctx.lane == 1:
                yield store(data, 0, 1)
                yield atomic_add(flag, 0, 1)
            if ctx.warp_id == 0 and ctx.lane == 0:
                while (yield atomic_load(flag, 0)) == 0:
                    pass
                v = yield load(data, 0)
                yield store(out, 0, v)

        det, _ = detect(kern, 1, 4, {"data": 1, "flag": 1, "out": 1})
        assert det.race_count == 1
        assert types_of(det) == {RaceType.ITS}

    def test_block_scope_fence_insufficient_across_blocks(self):
        def kern(ctx, data, flag, out):
            if ctx.block_id == 0 and ctx.tid_in_block == 0:
                yield store(data, 0, 1)
                yield fence_block()  # wrong scope
                yield atomic_add(flag, 0, 1)
            if ctx.block_id == 1 and ctx.tid_in_block == 0:
                while (yield atomic_load(flag, 0)) == 0:
                    pass
                v = yield load(data, 0)
                yield store(out, 0, v)

        det, _ = detect(kern, 2, 8, {"data": 1, "flag": 1, "out": 1})
        assert det.race_count == 1
        assert types_of(det) == {RaceType.INTER_BLOCK}

    def test_scoped_atomic_race(self):
        def kern(ctx, counter, flag, out):
            if ctx.block_id == 0 and ctx.tid_in_block == 0:
                yield atomic_add(counter, 0, 1, scope=Scope.BLOCK)
                yield atomic_add(flag, 0, 1)
            if ctx.block_id == 1 and ctx.tid_in_block == 0:
                while (yield atomic_load(flag, 0)) == 0:
                    pass
                v = yield load(counter, 0)
                yield store(out, 0, v)

        det, _ = detect(kern, 2, 8, {"counter": 1, "flag": 1, "out": 1})
        assert det.race_count == 1
        assert types_of(det) == {RaceType.ATOMIC_SCOPE}

    def test_per_thread_lock_race_detected_somewhere(self):
        # Figure 9: distinct per-thread locks "protecting" one word.
        def kern(ctx, locks, data):
            while (yield atomic_cas(locks, ctx.lane, 0, 1)) != 0:
                pass
            yield fence_device()
            v = yield load(data, ctx.warp_id)
            yield store(data, ctx.warp_id, v + 1)
            yield fence_device()
            yield atomic_exch(locks, ctx.lane, 0)

        hits = 0
        for seed in range(10):
            det, _ = detect(kern, 2, 8, {"locks": 4, "data": 4}, seed=seed)
            if det.race_count:
                hits += 1
        assert hits >= 5  # schedule-dependent, but found in most schedules

    def test_race_report_contents(self):
        def kern(ctx, data, flag, out):
            if ctx.block_id == 0 and ctx.tid_in_block == 0:
                yield store(data, 0, 1)
                yield atomic_add(flag, 0, 1)
            if ctx.block_id == 1 and ctx.tid_in_block == 0:
                while (yield atomic_load(flag, 0)) == 0:
                    pass
                v = yield load(data, 0)
                yield store(out, 0, v)

        det, _ = detect(kern, 2, 8, {"data": 1, "flag": 1, "out": 1})
        (record,) = det.races.records()[:1]
        assert record.location == "data[0]"
        assert record.access == "load"
        assert "kern" in record.ip
        assert record.race_type is RaceType.INTER_BLOCK
        assert "DR" in record.describe()


class TestDetectorMechanics:
    def test_dedup_one_site_many_occurrences(self):
        def kern(ctx, data, out):
            # Every thread of warp 1 reads what warp 0 wrote, no barrier:
            # many dynamic races, one source site.
            if ctx.warp_in_block == 0 and ctx.lane == 0:
                yield store(data, 0, 1)
                yield atomic_add(out, 1, 1)
            if ctx.warp_in_block == 1:
                while (yield atomic_load(out, 1)) == 0:
                    pass
                v = yield load(data, 0)
                yield store(out, 2 + ctx.lane, v)

        det, _ = detect(kern, 1, 8, {"data": 1, "out": 8})
        assert det.race_count == 1
        assert len(det.races.records()) >= 1

    def test_metadata_reset_between_kernels(self):
        # The implicit barrier at kernel completion orders everything:
        # writing in kernel 1 and reading in kernel 2 is race-free.
        dev = fresh_device()
        det = dev.add_tool(IGuard())
        data = dev.alloc("data", 8, init=0)
        out = dev.alloc("out", 8, init=0)

        def writer(ctx, data, out):
            yield store(data, ctx.tid, ctx.tid)

        def reader(ctx, data, out):
            v = yield load(data, (ctx.tid + 3) % 8)
            yield store(out, ctx.tid, v)

        dev.launch(writer, 1, 8, args=(data, out))
        dev.launch(reader, 1, 8, args=(data, out))
        assert det.race_count == 0
        assert out.to_list() == [(i + 3) % 8 for i in range(8)]

    def test_stats_recorded_per_launch(self):
        def kern(ctx, data):
            yield store(data, ctx.tid, 1)

        det, _ = detect(kern, 1, 8, {"data": 8})
        assert len(det.stats) == 1
        stat = det.stats[0]
        assert stat.accesses_checked > 0
        assert stat.kernel == "kern"

    def test_coalescing_reduces_checks(self):
        def kern(ctx, data):
            for _ in range(4):
                v = yield load(data, 0)  # whole warp loads one address
                yield store(data, 1 + ctx.tid, v)

        dev = fresh_device()
        det = dev.add_tool(IGuard())
        data = dev.alloc("data", 16, init=0)
        dev.launch(kern, 1, 4, args=(data,), seed=1, split_probability=0.0)
        assert det.stats[0].accesses_coalesced > 0

    def test_coalescing_disabled_by_config(self):
        def kern(ctx, data):
            v = yield load(data, 0)
            yield store(data, 1 + ctx.tid, v)

        config = IGuardConfig(coalescing=False)
        dev = fresh_device()
        det = dev.add_tool(IGuard(config))
        data = dev.alloc("data", 16, init=0)
        dev.launch(kern, 1, 4, args=(data,), seed=1, split_probability=0.0)
        assert det.stats[0].accesses_coalesced == 0

    def test_coalescing_does_not_hide_races(self):
        # The paper: coalescing merges same-warp loads/atomics "without
        # the possibility of missing a race".
        def kern(ctx, data, flag, out):
            if ctx.warp_in_block == 0 and ctx.lane == 0:
                yield store(data, 0, 9)
                yield atomic_add(flag, 0, 1)
            if ctx.warp_in_block == 1:
                while (yield atomic_load(flag, 0)) == 0:
                    pass
                v = yield load(data, 0)  # coalesced racy load
                yield store(out, ctx.lane, v)

        det, _ = detect(kern, 1, 8, {"data": 1, "flag": 1, "out": 4})
        assert det.race_count == 1

    def test_summary_format(self):
        def kern(ctx, data):
            yield store(data, ctx.tid, 1)

        det, _ = detect(kern, 1, 4, {"data": 4})
        assert "0 race site(s)" in det.summary()

    def test_timeout_flushes_races(self):
        def kern(ctx, data, flag):
            if ctx.tid == 1:
                yield store(data, 0, 1)
                yield atomic_add(flag, 1, 1)
            if ctx.tid == 0:
                while (yield atomic_load(flag, 1)) == 0:
                    pass
                v = yield load(data, 0)
                yield store(data, 1, v)
                while (yield atomic_load(flag, 0)) == 0:
                    pass  # livelock forever

        dev = fresh_device()
        det = dev.add_tool(IGuard())
        data = dev.alloc("data", 2, init=0)
        flag = dev.alloc("flag", 2, init=0)
        run = dev.launch(kern, 1, 4, args=(data, flag), max_batches=3000)
        assert run.timed_out
        assert det.race_count == 1  # detected before the timeout, flushed

    def test_race_types_helper(self):
        def kern(ctx, data, flag, out):
            if ctx.block_id == 0 and ctx.tid_in_block == 0:
                yield store(data, 0, 1)
                yield atomic_add(flag, 0, 1)
            if ctx.block_id == 1 and ctx.tid_in_block == 0:
                while (yield atomic_load(flag, 0)) == 0:
                    pass
                v = yield load(data, 0)
                yield store(out, 0, v)

        det, _ = detect(kern, 2, 8, {"data": 1, "flag": 1, "out": 1})
        assert det.race_types() == {RaceType.INTER_BLOCK}


class TestScoRDMode:
    def test_misses_its_races(self):
        def kern(ctx, data, flag, out):
            if ctx.warp_id == 0 and ctx.lane == 1:
                yield store(data, 0, 1)
                yield atomic_add(flag, 0, 1)
            if ctx.warp_id == 0 and ctx.lane == 0:
                while (yield atomic_load(flag, 0)) == 0:
                    pass
                v = yield load(data, 0)
                yield store(out, 0, v)

        config = DEFAULT_CONFIG.scord_mode()
        det, _ = detect(kern, 1, 4, {"data": 1, "flag": 1, "out": 1},
                        config=config)
        assert det.race_count == 0  # lockstep assumption hides the race

    def test_still_catches_scoped_races(self):
        def kern(ctx, counter, flag, out):
            if ctx.block_id == 0 and ctx.tid_in_block == 0:
                yield atomic_add(counter, 0, 1, scope=Scope.BLOCK)
                yield atomic_add(flag, 0, 1)
            if ctx.block_id == 1 and ctx.tid_in_block == 0:
                while (yield atomic_load(flag, 0)) == 0:
                    pass
                v = yield load(counter, 0)
                yield store(out, 0, v)

        config = DEFAULT_CONFIG.scord_mode()
        det, _ = detect(kern, 2, 8, {"counter": 1, "flag": 1, "out": 1},
                        config=config)
        assert det.race_count == 1
        assert types_of(det) == {RaceType.ATOMIC_SCOPE}


class TestDefaultArgumentHygiene:
    def test_cost_objects_not_shared_between_detectors(self):
        a, b = IGuard(), IGuard()
        assert a.costs is not b.costs
        assert a.contention_params is not b.contention_params
        assert a.uvm_params is not b.uvm_params
