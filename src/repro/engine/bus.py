"""The event bus: execution publishes, detection subscribes.

Historically the simulated :class:`~repro.gpu.device.Device` pushed events
synchronously into its attached tools — execution and detection were one
loop.  The bus makes the event stream an explicit seam: the device
*publishes* typed records (allocations, launch boundaries, memory and sync
operations, kernel completion) and any number of *sinks* consume them.

A sink is anything with the :class:`~repro.instrument.nvbit.Tool` callback
shape — every existing detector already qualifies, unchanged.  The bus
carries live :class:`~repro.gpu.device.Device` runs only: a replay hands
recorded records straight to :meth:`~repro.instrument.nvbit.Tool.feed`
(:mod:`repro.engine.replay`).  Each detector run attaches to its own
device; several sinks share one device
only when they observe one execution together (a detector plus a
:class:`~repro.instrument.tracer.Tracer` or
:class:`~repro.engine.trace.TraceSink`).
"""

from __future__ import annotations

from typing import List


class EventBus:
    """An ordered dispatch of device events to registered sinks.

    Sinks are invoked synchronously in registration order, which preserves
    the exact callback sequence tools saw before the bus existed.

    The common deployment is a single detector riding one execution, and
    the per-instruction publishes are the hottest calls in the system —
    so ``publish_memory``/``publish_sync`` carry a monomorphic fast path:
    with exactly one sink the bus calls a cached bound method instead of
    looping and re-resolving ``sink.on_memory`` per event.  The cache is
    guarded by identity against ``sinks`` (which legacy code may append
    to directly via the ``device.tools`` alias), so mutations from any
    path fall back to the general loop and re-prime the cache.  The bus
    keeps no metrics of its own, so dispatch takes the same path whether
    the metrics registry is on or off.
    """

    __slots__ = ("sinks", "_solo", "_solo_memory", "_solo_sync")

    def __init__(self) -> None:
        self.sinks: List = []
        self._solo = None
        self._solo_memory = None
        self._solo_sync = None

    def add_sink(self, sink, device=None):
        """Register a sink; if ``device`` is given, attach the sink to it."""
        self.sinks.append(sink)
        if device is not None:
            attach = getattr(sink, "attach", None)
            if attach is not None:
                attach(device)
        return sink

    def _prime_solo(self, sink) -> None:
        """Cache the single sink's bound hot callbacks."""
        self._solo = sink
        self._solo_memory = sink.on_memory
        self._solo_sync = sink.on_sync

    # -- publication ----------------------------------------------------

    def publish_alloc(self, allocation) -> None:
        for sink in self.sinks:
            sink.on_alloc(allocation)

    def publish_launch_begin(self, launch) -> None:
        for sink in self.sinks:
            sink.on_launch_begin(launch)

    def publish_memory(self, event, launch) -> None:
        sinks = self.sinks
        if len(sinks) == 1:
            if sinks[0] is not self._solo:
                self._prime_solo(sinks[0])
            self._solo_memory(event, launch)
            return
        for sink in sinks:
            sink.on_memory(event, launch)

    def publish_sync(self, event, launch) -> None:
        sinks = self.sinks
        if len(sinks) == 1:
            if sinks[0] is not self._solo:
                self._prime_solo(sinks[0])
            self._solo_sync(event, launch)
            return
        for sink in sinks:
            sink.on_sync(event, launch)

    def publish_launch_end(self, launch) -> None:
        for sink in self.sinks:
            sink.on_launch_end(launch)

    def publish_timeout(self, launch) -> None:
        for sink in self.sinks:
            sink.on_timeout(launch)

    def publish_kernel_end(self, run, launch) -> None:
        """Deliver the completed :class:`~repro.gpu.device.KernelRun`.

        Guarded with ``getattr`` because minimal hand-rolled sinks (tests,
        user tools predating the bus) may implement only the classic seven
        callbacks.
        """
        for sink in self.sinks:
            callback = getattr(sink, "on_kernel_end", None)
            if callback is not None:
                callback(run, launch)

