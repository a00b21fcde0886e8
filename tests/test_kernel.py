"""Tests for ThreadCtx and the generator-thread wrapper."""

import pytest

from repro.errors import KernelSourceError
from repro.gpu.ids import locate
from repro.gpu.instructions import Compute, Load, compute, load, store
from repro.gpu.kernel import KernelThread, ThreadCtx, ThreadStatus
from repro.gpu.memory import GlobalMemory


def make_ctx(tid=0, block_dim=8, grid_dim=2, warp_size=4):
    return ThreadCtx(locate(tid, block_dim, warp_size), block_dim, grid_dim, warp_size)


class TestThreadCtx:
    def test_builtin_variables(self):
        ctx = make_ctx(tid=13)
        assert ctx.tid == 13
        assert ctx.block_id == 1
        assert ctx.tid_in_block == 5
        assert ctx.warp_in_block == 1
        assert ctx.lane == 1
        assert ctx.warp_id == 3

    def test_num_threads(self):
        assert make_ctx().num_threads == 16

    def test_leaders(self):
        assert make_ctx(0).is_block_leader and make_ctx(0).is_grid_leader
        assert make_ctx(8).is_block_leader and not make_ctx(8).is_grid_leader
        assert not make_ctx(3).is_block_leader


class TestKernelThread:
    def test_priming_fetches_first_instruction(self):
        def kern(ctx):
            yield compute(1)

        t = KernelThread(kern, make_ctx(), ())
        assert isinstance(t.pending, Compute)
        assert t.status is ThreadStatus.READY

    def test_complete_advances(self):
        mem = GlobalMemory(1024 * 1024)
        arr = mem.alloc("a", 4, init=9)

        def kern(ctx, arr):
            v = yield load(arr, 0)
            yield store(arr, 1, v)

        t = KernelThread(kern, make_ctx(), (arr,))
        assert isinstance(t.pending, Load)
        t.complete(9)  # deliver the load result
        assert t.pending.value == 9  # flowed into the store
        t.complete(None)
        assert t.done

    def test_ip_has_function_and_line(self):
        def my_kern(ctx):
            yield compute(1)

        t = KernelThread(my_kern, make_ctx(), ())
        name, _, line = t.pending_ip.partition(":")
        assert name == "my_kern"
        assert line.isdigit()

    def test_ip_descends_into_yield_from(self):
        def helper():
            yield compute(1)

        def outer(ctx):
            yield from helper()

        t = KernelThread(outer, make_ctx(), ())
        assert t.pending_ip.startswith("helper:")

    def test_rejects_plain_function(self):
        with pytest.raises(KernelSourceError):
            KernelThread(lambda ctx: 42, make_ctx(), ())

    def test_rejects_non_instruction_yield(self):
        def kern(ctx):
            yield 123

        with pytest.raises(KernelSourceError):
            KernelThread(kern, make_ctx(), ())

    def test_empty_generator_is_done(self):
        def kern(ctx):
            if False:
                yield compute(1)

        t = KernelThread(kern, make_ctx(), ())
        assert t.done

    def test_barrier_parking(self):
        def kern(ctx):
            yield compute(1)
            yield compute(2)

        t = KernelThread(kern, make_ctx(), ())
        t.park_at_barrier(ThreadStatus.AT_BLOCK_BARRIER)
        assert t.status is ThreadStatus.AT_BLOCK_BARRIER
        assert not t.done
        t.release_from_barrier()
        assert t.status is ThreadStatus.READY
        assert t.pending.cycles == 2

    def test_step_counter(self):
        def kern(ctx):
            yield compute(1)
            yield compute(1)

        t = KernelThread(kern, make_ctx(), ())
        t.complete(None)
        t.complete(None)
        assert t.done
