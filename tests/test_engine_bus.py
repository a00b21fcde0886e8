"""The event bus: dispatch of device events to the device's one tool."""

import pytest

from repro.engine.bus import NO_TOOL
from repro.gpu.device import Device
from repro.gpu.instructions import store
from repro.instrument.nvbit import Tool
from repro.workloads.base import SIM_GPU


class Recorder(Tool):
    """Counts every callback, including the kernel-end record."""

    name = "recorder"

    def __init__(self):
        self.counts = {
            "attach": 0, "alloc": 0, "begin": 0, "memory": 0,
            "sync": 0, "end": 0, "timeout": 0, "kernel_end": 0,
        }

    def attach(self, device):
        self.counts["attach"] += 1

    def on_alloc(self, allocation):
        self.counts["alloc"] += 1

    def on_launch_begin(self, launch):
        self.counts["begin"] += 1

    def on_memory(self, event, launch):
        self.counts["memory"] += 1

    def on_sync(self, event, launch):
        self.counts["sync"] += 1

    def on_launch_end(self, launch):
        self.counts["end"] += 1

    def on_timeout(self, launch):
        self.counts["timeout"] += 1

    def on_kernel_end(self, run, launch):
        self.counts["kernel_end"] += 1


def _small_kernel(ctx, arr):
    yield store(arr, ctx.tid, 1)


class TestEventBus:
    def test_kernel_end_published(self):
        device = Device(SIM_GPU)
        recorder = device.add_tool(Recorder())
        a = device.alloc("a", 4)
        device.launch(_small_kernel, grid_dim=1, block_dim=4, args=(a,))
        assert recorder.counts == {
            "attach": 1, "alloc": 1, "begin": 1, "memory": 4,
            "sync": 0, "end": 1, "timeout": 0, "kernel_end": 1,
        }

    def test_second_add_tool_raises(self):
        device = Device(SIM_GPU)
        first = device.add_tool(Recorder())
        with pytest.raises(ValueError, match="already has tool"):
            device.add_tool(Recorder())
        assert device.bus.sink is first

    def test_toolless_device_launches(self):
        device = Device(SIM_GPU)
        a = device.alloc("a", 4)
        run = device.launch(_small_kernel, grid_dim=1, block_dim=4, args=(a,))
        assert device.bus.sink is NO_TOOL
        assert run.instructions == 4 and not run.timed_out
        assert run.overhead == 1.0
