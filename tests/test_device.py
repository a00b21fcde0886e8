"""Tests for Device launch mechanics, timing, and tool dispatch."""

import pytest

from repro.errors import LaunchError
from repro.gpu.arch import TEST_GPU
from repro.gpu.costs import CostParams, effective_parallelism
from repro.gpu.device import Device
from repro.gpu.events import AccessKind, SyncKind
from repro.gpu.instructions import (
    Scope,
    atomic_add,
    compute,
    fence_block,
    fence_device,
    load,
    store,
    syncthreads,
    syncwarp,
)
from repro.instrument.nvbit import Tool
from repro.instrument.timing import Category, TimingBreakdown

from tests.conftest import fresh_device


class Recorder(Tool):
    """Captures every event for assertions."""

    name = "recorder"

    def __init__(self):
        self.memory = []
        self.sync = []
        self.launches = []
        self.allocs = []
        self.ended = 0

    def on_alloc(self, allocation):
        self.allocs.append(allocation.name)

    def on_launch_begin(self, launch):
        self.launches.append(launch)

    def on_memory(self, event, launch):
        self.memory.append(event)

    def on_sync(self, event, launch):
        self.sync.append(event)

    def on_launch_end(self, launch):
        self.ended += 1


class TestLaunchValidation:
    def test_block_too_large(self):
        dev = fresh_device()
        with pytest.raises(LaunchError):
            dev.launch(lambda ctx: iter(()), 1, TEST_GPU.max_threads_per_block + 1)

    def test_grid_zero(self):
        dev = fresh_device()
        with pytest.raises(LaunchError):
            dev.launch(lambda ctx: iter(()), 0, 4)

    def test_run_result_fields(self):
        dev = fresh_device()
        data = dev.alloc("data", 8)

        def kern(ctx, data):
            yield store(data, ctx.tid, 1)

        run = dev.launch(kern, 2, 4, args=(data,))
        assert run.kernel_name == "kern"
        assert run.grid_dim == 2 and run.block_dim == 4
        assert run.num_threads == 8
        assert run.instructions == 8
        assert run.batches >= 1
        assert not run.timed_out
        assert run.overhead == pytest.approx(1.0)

    def test_runs_accumulate(self):
        dev = fresh_device()
        data = dev.alloc("data", 4)

        def kern(ctx, data):
            yield store(data, ctx.tid, 1)

        dev.launch(kern, 1, 4, args=(data,))
        dev.launch(kern, 1, 4, args=(data,))
        assert len(dev.runs) == 2


class TestToolDispatch:
    def test_memory_events_delivered(self):
        dev = fresh_device()
        rec = dev.add_tool(Recorder())
        data = dev.alloc("data", 8)

        def kern(ctx, data):
            v = yield load(data, ctx.tid)
            yield store(data, ctx.tid, v + 1)
            yield atomic_add(data, ctx.tid, 1)

        dev.launch(kern, 1, 4, args=(data,))
        kinds = [e.kind for e in rec.memory]
        assert kinds.count(AccessKind.LOAD) == 4
        assert kinds.count(AccessKind.STORE) == 4
        assert kinds.count(AccessKind.ATOMIC) == 4

    def test_event_values(self):
        dev = fresh_device()
        rec = dev.add_tool(Recorder())
        data = dev.alloc("data", 1, init=10)

        def kern(ctx, data):
            if ctx.tid == 0:
                old = yield atomic_add(data, 0, 5)
                yield store(data, 0, old)

        dev.launch(kern, 1, 4, args=(data,))
        atomic = next(e for e in rec.memory if e.kind is AccessKind.ATOMIC)
        assert atomic.value_loaded == 10
        assert atomic.value_stored == 5

    def test_sync_events_delivered(self):
        dev = fresh_device()
        rec = dev.add_tool(Recorder())
        data = dev.alloc("data", 8)

        def kern(ctx, data):
            yield fence_device()
            yield fence_block()
            yield syncthreads()
            yield syncwarp()

        dev.launch(kern, 1, 8, args=(data,))
        kinds = [e.kind for e in rec.sync]
        assert kinds.count(SyncKind.FENCE) == 16  # 8 threads x 2 fences
        assert kinds.count(SyncKind.SYNCTHREADS) == 1  # once per completion
        assert kinds.count(SyncKind.SYNCWARP) == 2  # one per warp

    def test_fence_event_scope(self):
        dev = fresh_device()
        rec = dev.add_tool(Recorder())
        dev.alloc("data", 1)

        def kern(ctx):
            yield fence_block()

        dev.launch(kern, 1, 1)
        assert rec.sync[0].scope is Scope.BLOCK

    def test_alloc_hook(self):
        dev = fresh_device()
        rec = dev.add_tool(Recorder())
        dev.alloc("x", 4)
        dev.alloc("y", 4)
        assert rec.allocs == ["x", "y"]

    def test_launch_lifecycle(self):
        dev = fresh_device()
        rec = dev.add_tool(Recorder())
        dev.alloc("d", 1)

        def kern(ctx):
            yield compute(1)

        dev.launch(kern, 1, 2)
        assert len(rec.launches) == 1
        assert rec.ended == 1
        launch = rec.launches[0]
        assert launch.warps_per_block == 1
        assert launch.num_threads == 2

    def test_ip_points_into_kernel(self):
        dev = fresh_device()
        rec = dev.add_tool(Recorder())
        data = dev.alloc("data", 2)

        def my_kernel(ctx, data):
            yield store(data, 0, 1)

        dev.launch(my_kernel, 1, 1, args=(data,))
        assert rec.memory[0].ip.startswith("my_kernel:")


class TestCostModel:
    def test_fence_ratio_is_21x(self):
        costs = CostParams()
        assert costs.fence_device == 21 * costs.fence_block

    def test_cost_of_each_instruction(self):
        from repro.gpu.instructions import Atomic, AtomicOp, Compute, Fence, Load, Store
        costs = CostParams()
        assert costs.cost_of(Load(0)) == costs.load
        assert costs.cost_of(Store(0, 1)) == costs.store
        assert costs.cost_of(Atomic(AtomicOp.ADD, 0, 1, Scope.BLOCK)) == costs.atomic_block
        assert costs.cost_of(Atomic(AtomicOp.ADD, 0, 1, Scope.DEVICE)) == costs.atomic_device
        assert costs.cost_of(Fence(Scope.BLOCK)) == costs.fence_block
        assert costs.cost_of(Fence(Scope.DEVICE)) == costs.fence_device
        assert costs.cost_of(Compute(5)) == 5

    def test_wall_clock_parallel_division(self):
        # One category's parallel cycles divide by the parallelism; its
        # serial cycles are charged as-is.
        timing = TimingBreakdown(parallelism=4)
        timing.charge(Category.DETECTION, 100)
        timing.charge(Category.DETECTION, 10, serial=True)
        assert timing.time_of(Category.DETECTION) == 35.0

    def test_effective_parallelism(self):
        assert effective_parallelism(10, 100) == 10
        assert effective_parallelism(1000, 100) == 100
        assert effective_parallelism(0, 100) == 1

    def test_native_time_scales_with_work(self):
        def kern_light(ctx, data):
            yield store(data, ctx.tid, 1)

        def kern_heavy(ctx, data):
            yield store(data, ctx.tid, 1)
            yield compute(100)

        def native(kern):
            dev = fresh_device()
            data = dev.alloc("data", 4)
            return dev.launch(kern, 1, 4, args=(data,)).native_time

        assert native(kern_heavy) > native(kern_light)


class TestTimingBreakdown:
    def test_charge_and_time(self):
        t = TimingBreakdown(parallelism=2)
        t.charge(Category.NATIVE, 100)
        t.charge(Category.DETECTION, 10, serial=True)
        assert t.time_of(Category.NATIVE) == 50
        assert t.time_of(Category.DETECTION) == 10
        assert t.total_time == 60
        assert t.overhead == pytest.approx(60 / 50)

    def test_fractions_sum_to_one(self):
        t = TimingBreakdown(parallelism=1)
        t.charge(Category.NATIVE, 10)
        t.charge(Category.NVBIT, 30, serial=True)
        fractions = t.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_zero_native_overhead_is_one(self):
        assert TimingBreakdown().overhead == 1.0

    def test_snapshot_keys(self):
        snap = TimingBreakdown().snapshot()
        assert set(snap) == {
            "native", "nvbit", "setup", "instrumentation", "detection", "misc"
        }
