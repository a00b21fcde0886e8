"""The event bus: ordered dispatch of device events to sinks."""

from repro.engine import EventBus
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


class MinimalSink:
    """Only the classic seven callbacks — no on_kernel_end, no attach need."""

    def __init__(self):
        self.seen = []

    def attach(self, device):
        self.seen.append("attach")

    def on_alloc(self, allocation):
        self.seen.append("alloc")

    def on_launch_begin(self, launch):
        self.seen.append("begin")

    def on_memory(self, event, launch):
        self.seen.append("memory")

    def on_sync(self, event, launch):
        self.seen.append("sync")

    def on_launch_end(self, launch):
        self.seen.append("end")

    def on_timeout(self, launch):
        self.seen.append("timeout")


def _small_kernel(ctx, arr):
    yield store(arr, ctx.tid, 1)


class TestEventBus:
    def test_device_tools_alias_the_bus_sinks(self):
        device = Device(SIM_GPU)
        assert device.tools is device.bus.sinks
        tool = Recorder()
        device.tools.append(tool)  # legacy direct append still dispatches
        device.alloc("a", 4)
        assert tool.counts["alloc"] == 1

    def test_publish_order_is_registration_order(self):
        bus = EventBus()
        order = []
        for tag in ("first", "second"):
            sink = MinimalSink()
            sink.on_alloc = lambda allocation, tag=tag: order.append(tag)
            bus.add_sink(sink)
        bus.publish_alloc(object())
        assert order == ["first", "second"]

    def test_kernel_end_published_and_optional(self):
        device = Device(SIM_GPU)
        recorder = device.add_tool(Recorder())
        minimal = device.add_sink(MinimalSink())
        a = device.alloc("a", 4)
        device.launch(_small_kernel, grid_dim=1, block_dim=4, args=(a,))
        assert recorder.counts["kernel_end"] == 1
        assert recorder.counts["begin"] == 1
        # the minimal sink saw everything except the record it lacks
        assert minimal.seen == ["attach", "alloc", "begin"] + ["memory"] * 4 + ["end"]
