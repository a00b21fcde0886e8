"""The event bus: execution publishes, one tool subscribes.

Historically the simulated :class:`~repro.gpu.device.Device` pushed events
synchronously into its attached tools — execution and detection were one
loop.  The bus makes the event stream an explicit seam: the device
*publishes* typed records (allocations, launch boundaries, memory and sync
operations, kernel completion) and its one sink, a
:class:`~repro.instrument.nvbit.Tool`, consumes them.

The bus carries live :class:`~repro.gpu.device.Device` runs only: a
replay hands recorded records straight to
:meth:`~repro.instrument.nvbit.Tool.feed` (:mod:`repro.engine.replay`).
Each tool runs on its own device: a detector, or a
:class:`~repro.engine.trace.TraceSink` recording the stream for a later
replay (``explain`` replays one to reconstruct a race's provenance).
"""

from __future__ import annotations

from repro.instrument.nvbit import Tool

#: The sink of a device without a tool: every callback is a no-op.
NO_TOOL = Tool()


class EventBus:
    """Synchronous dispatch of device events to the device's one tool.

    ``sink`` is :data:`NO_TOOL` until
    :meth:`~repro.gpu.device.Device.add_tool` replaces it.  The per-
    instruction publishes are the hottest calls in the system, so each
    is one attribute load and one call.  The bus keeps no metrics of its
    own, so dispatch takes the same path whether the metrics registry is
    on or off.
    """

    __slots__ = ("sink",)

    def __init__(self) -> None:
        self.sink: Tool = NO_TOOL

    def publish_alloc(self, allocation) -> None:
        self.sink.on_alloc(allocation)

    def publish_launch_begin(self, launch) -> None:
        self.sink.on_launch_begin(launch)

    def publish_memory(self, event, launch) -> None:
        self.sink.on_memory(event, launch)

    def publish_sync(self, event, launch) -> None:
        self.sink.on_sync(event, launch)

    def publish_launch_end(self, launch) -> None:
        self.sink.on_launch_end(launch)

    def publish_timeout(self, launch) -> None:
        self.sink.on_timeout(launch)

    def publish_kernel_end(self, run, launch) -> None:
        """Deliver the completed :class:`~repro.gpu.device.KernelRun`."""
        self.sink.on_kernel_end(run, launch)
