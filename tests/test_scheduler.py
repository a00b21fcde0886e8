"""Tests for the lockstep and ITS warp schedulers."""

import pytest

from repro.errors import DeadlockError, KernelSourceError, LaunchError
from repro.gpu.arch import TEST_GPU, PRE_VOLTA
from repro.gpu.device import Device
from repro.gpu.instructions import (
    atomic_add,
    atomic_load,
    compute,
    load,
    store,
    syncthreads,
    syncwarp,
)
from repro.gpu.scheduler import SchedulerKind
from repro.instrument.nvbit import Tool

from tests.conftest import fresh_device


class TestBasicExecution:
    def test_all_threads_run(self):
        dev = fresh_device()
        out = dev.alloc("out", 16, init=0)

        def kern(ctx, out):
            yield store(out, ctx.tid, ctx.tid + 1)

        dev.launch(kern, 2, 8, args=(out,))
        assert out.to_list() == list(range(1, 17))

    def test_load_returns_value(self):
        dev = fresh_device()
        data = dev.alloc("data", 4, init=5)
        out = dev.alloc("out", 4, init=0)

        def kern(ctx, data, out):
            v = yield load(data, ctx.tid)
            yield store(out, ctx.tid, v * 2)

        dev.launch(kern, 1, 4, args=(data, out))
        assert out.to_list() == [10, 10, 10, 10]

    def test_atomic_returns_old_value(self):
        dev = fresh_device()
        counter = dev.alloc("c", 1, init=0)
        olds = dev.alloc("olds", 8, init=-1)

        def kern(ctx, counter, olds):
            old = yield atomic_add(counter, 0, 1)
            yield store(olds, ctx.tid, old)

        dev.launch(kern, 1, 8, args=(counter, olds))
        assert counter.read(0) == 8
        assert sorted(olds.to_list()) == list(range(8))

    def test_non_generator_kernel_rejected(self):
        dev = fresh_device()

        def not_a_kernel(ctx):
            return 42

        with pytest.raises(KernelSourceError):
            dev.launch(not_a_kernel, 1, 4)

    def test_bad_yield_rejected(self):
        dev = fresh_device()

        def kern(ctx):
            yield "not an instruction"

        with pytest.raises(KernelSourceError):
            dev.launch(kern, 1, 4)

    def test_empty_thread_ok(self):
        dev = fresh_device()
        out = dev.alloc("out", 1, init=0)

        def kern(ctx, out):
            if ctx.tid == 0:
                yield store(out, 0, 1)
            # other threads yield nothing and finish immediately

        dev.launch(kern, 1, 8, args=(out,))
        assert out.read(0) == 1


class TestBarriers:
    def test_syncthreads_orders_block(self):
        dev = fresh_device()
        data = dev.alloc("data", 8, init=0)
        out = dev.alloc("out", 8, init=0)

        def kern(ctx, data, out):
            yield store(data, ctx.tid, ctx.tid * 10)
            yield syncthreads()
            v = yield load(data, (ctx.tid + 1) % ctx.block_dim)
            yield store(out, ctx.tid, v)

        for seed in range(5):
            dev = fresh_device()
            data = dev.alloc("data", 8, init=0)
            out = dev.alloc("out", 8, init=0)
            dev.launch(kern, 1, 8, args=(data, out), seed=seed)
            assert out.to_list() == [(i + 1) % 8 * 10 for i in range(8)]

    def test_syncwarp_orders_warp(self):
        for seed in range(5):
            dev = fresh_device()
            data = dev.alloc("data", 4, init=0)
            out = dev.alloc("out", 4, init=0)

            def kern(ctx, data, out):
                yield store(data, ctx.lane, ctx.lane + 100)
                yield syncwarp()
                v = yield load(data, (ctx.lane + 1) % ctx.warp_size)
                yield store(out, ctx.lane, v)

            dev.launch(kern, 1, 4, args=(data, out), seed=seed)
            assert out.to_list() == [(i + 1) % 4 + 100 for i in range(4)]

    def test_barrier_with_finished_siblings(self):
        # Threads that exit before the barrier must not deadlock it.
        dev = fresh_device()
        out = dev.alloc("out", 8, init=0)

        def kern(ctx, out):
            if ctx.tid >= 4:
                return
                yield  # pragma: no cover - makes this a generator
            yield store(out, ctx.tid, 1)
            yield syncthreads()
            yield store(out, ctx.tid + 4, 2)

        dev.launch(kern, 1, 8, args=(out,))
        assert out.to_list() == [1, 1, 1, 1, 2, 2, 2, 2]

    def test_divergent_barrier_deadlocks(self):
        dev = fresh_device()

        def kern(ctx):
            if ctx.tid == 1:
                # Lane 1 waits at a *warp* barrier while its warp siblings
                # wait at the *block* barrier: neither can ever complete.
                yield syncwarp()
            else:
                yield syncthreads()

        with pytest.raises(DeadlockError):
            dev.launch(kern, 1, 4)

    def test_multi_block_barriers_independent(self):
        dev = fresh_device()
        out = dev.alloc("out", 16, init=0)

        def kern(ctx, out):
            yield syncthreads()
            yield store(out, ctx.tid, ctx.block_id)
            yield syncthreads()

        dev.launch(kern, 2, 8, args=(out,))
        assert out.to_list() == [0] * 8 + [1] * 8


class TestSchedulingModes:
    def test_its_seed_determinism(self):
        def kern(ctx, out):
            yield atomic_add(out, 0, ctx.tid)
            yield compute(2)
            yield atomic_add(out, 1, 1)

        def batches(seed):
            dev = fresh_device()
            out = dev.alloc("out", 2, init=0)
            run = dev.launch(kern, 2, 8, args=(out,), seed=seed)
            return run.batches

        assert batches(3) == batches(3)

    def test_different_seeds_change_interleaving(self):
        # The observable interleaving (atomic arrival order) varies by seed.
        def kern(ctx, order, cursor):
            slot = yield atomic_add(cursor, 0, 1)
            yield store(order, slot, ctx.tid)

        orders = set()
        for seed in range(8):
            dev = fresh_device()
            order = dev.alloc("order", 16, init=0)
            cursor = dev.alloc("cursor", 1, init=0)
            dev.launch(kern, 2, 8, args=(order, cursor), seed=seed)
            orders.add(tuple(order.to_list()))
        assert len(orders) > 1

    def test_lockstep_mode_runs(self):
        dev = Device(PRE_VOLTA)
        out = dev.alloc("out", 32, init=0)

        def kern(ctx, out):
            yield store(out, ctx.tid, 1)

        run = dev.launch(kern, 1, 32, args=(out,))
        assert out.to_list() == [1] * 32

    def test_its_rejected_without_support(self):
        dev = Device(PRE_VOLTA)
        with pytest.raises(LaunchError):
            dev.launch(lambda ctx: iter(()), 1, 4, scheduler=SchedulerKind.ITS)

    def test_spin_on_flag_makes_progress(self):
        # Producer/consumer through an atomic flag must terminate under ITS.
        dev = fresh_device()
        flag = dev.alloc("flag", 1, init=0)
        out = dev.alloc("out", 1, init=0)

        def kern(ctx, flag, out):
            if ctx.tid == 0:
                yield compute(5)
                yield atomic_add(flag, 0, 1)
            elif ctx.tid == 1:
                while (yield atomic_load(flag, 0)) == 0:
                    pass
                yield store(out, 0, 1)

        run = dev.launch(kern, 1, 8, args=(flag, out), seed=2)
        assert out.read(0) == 1
        assert not run.timed_out

    def test_timeout_flag(self):
        dev = fresh_device()
        flag = dev.alloc("flag", 1, init=0)

        def kern(ctx, flag):
            while (yield atomic_load(flag, 0)) == 0:
                pass  # livelock: nobody ever sets the flag

        run = dev.launch(kern, 1, 4, args=(flag,), max_batches=200)
        assert run.timed_out


class TestConvergenceGroups:
    def test_divergent_branches_have_singleton_masks(self):
        dev = fresh_device()
        masks = dev.alloc("masks", 2, init=0)
        recorded = []

        class Spy(Tool):
            def on_memory(self, e, l):
                recorded.append((e.where.lane, tuple(sorted(e.active_mask))))

        dev.add_tool(Spy())

        def kern(ctx, masks):
            if ctx.lane == 0:
                yield store(masks, 0, 1)
            elif ctx.lane == 1:
                yield store(masks, 1, 1)

        dev.launch(kern, 1, 4, args=(masks,), seed=1)
        by_lane = dict(recorded)
        assert by_lane[0] == (0,)
        assert by_lane[1] == (1,)

    def test_convergent_threads_share_mask(self):
        dev = fresh_device()
        data = dev.alloc("data", 4, init=0)
        masks = []

        class Spy(Tool):
            def on_memory(self, e, l):
                masks.append(len(e.active_mask))

        dev.add_tool(Spy())

        def kern(ctx, data):
            yield store(data, ctx.lane, 1)

        # split_probability=0: the full warp executes as one batch.
        dev.launch(kern, 1, 4, args=(data,), seed=1, split_probability=0.0)
        assert all(m == 4 for m in masks)
