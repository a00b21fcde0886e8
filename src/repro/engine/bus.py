"""The event bus: execution publishes, detection subscribes.

Historically the simulated :class:`~repro.gpu.device.Device` pushed events
synchronously into its attached tools — execution and detection were one
loop.  The bus makes the event stream an explicit seam: the device
*publishes* typed records (allocations, launch boundaries, memory and sync
operations, kernel completion) and any number of *sinks* consume them.

A sink is anything with the :class:`~repro.instrument.nvbit.Tool` callback
shape — every existing detector already qualifies, unchanged.  The
:class:`ToolSink` adapter adds the two facilities multi-detector fan-out
needs on top of a plain tool:

- **failure isolation** — a tool aborting with one of the runner's
  recognized failure modes (unsupported feature, OOM, detection timeout)
  is detached from the stream with its status recorded, instead of killing
  the execution pass for every other detector;
- **private timing** — the tool charges a per-sink view of the launch
  timing (see :func:`~repro.instrument.timing.shared_native_view`), so N
  detectors riding one execution each report the overhead they would have
  measured alone.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

from repro.errors import (
    OutOfMemoryError,
    TimeoutError_,
    UnsupportedFeatureError,
)
from repro.instrument.timing import TimingBreakdown, shared_native_view


class EventBus:
    """An ordered fan-out of device events to registered sinks.

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

    def remove_sink(self, sink) -> None:
        """Unregister a sink (no further events are delivered to it)."""
        self.sinks.remove(sink)
        self._solo = None
        self._solo_memory = None
        self._solo_sync = None

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


#: Failure modes a ToolSink absorbs, mapped to WorkloadResult statuses.
_FAILURE_STATUS = (
    (UnsupportedFeatureError, "unsupported"),
    (OutOfMemoryError, "oom"),
    (TimeoutError_, "timeout"),
)


class ToolSink:
    """Run one tool as an isolated bus sink with its own timing view.

    Args:
        tool: the wrapped instrumentation tool.
        isolate: absorb the tool's unsupported/OOM/timeout failures into
            :attr:`failure` instead of propagating (required for fan-out);
            other exceptions always propagate — they are bugs.
        private_timing: hand the tool a per-sink timing view instead of
            the launch's shared breakdown.
    """

    def __init__(self, tool, isolate: bool = True, private_timing: bool = True):
        self.tool = tool
        self.isolate = isolate
        self.private_timing = private_timing
        #: ``(status, detail)`` once the tool has dropped out of the stream.
        self.failure: Optional[Tuple[str, str]] = None
        #: One private timing per *completed* launch (mirrors the live
        #: runner's use of ``device.runs``: aborted launches don't count).
        self.completed_timings: List[TimingBreakdown] = []
        self._current: Optional[Tuple[object, object]] = None

    @property
    def name(self) -> str:
        return self.tool.name

    @property
    def disabled(self) -> bool:
        """Whether the tool has failed and stopped observing the stream."""
        return self.failure is not None

    # -- plumbing -------------------------------------------------------

    def attach(self, device) -> None:
        self.tool.attach(device)

    def _call(self, callback, *args) -> None:
        if self.disabled:
            return
        if not self.isolate:
            callback(*args)
            return
        try:
            callback(*args)
        except tuple(exc for exc, _ in _FAILURE_STATUS) as exc:
            for exc_type, status in _FAILURE_STATUS:
                if isinstance(exc, exc_type):
                    self.failure = (status, str(exc))
                    break

    def _view_of(self, launch):
        """The per-sink LaunchInfo for ``launch`` (identity-cached)."""
        if self._current is not None and self._current[0] is launch:
            return self._current[1]
        return launch

    # -- sink callbacks -------------------------------------------------

    def on_alloc(self, allocation) -> None:
        self._call(self.tool.on_alloc, allocation)

    def on_launch_begin(self, launch) -> None:
        if self.disabled:
            return
        view = launch
        if self.private_timing:
            view = replace(launch, timing=shared_native_view(launch.timing))
        self._current = (launch, view)
        self._call(self.tool.on_launch_begin, view)

    def on_memory(self, event, launch) -> None:
        self._call(self.tool.on_memory, event, self._view_of(launch))

    def on_sync(self, event, launch) -> None:
        self._call(self.tool.on_sync, event, self._view_of(launch))

    def on_launch_end(self, launch) -> None:
        self._call(self.tool.on_launch_end, self._view_of(launch))

    def on_timeout(self, launch) -> None:
        self._call(self.tool.on_timeout, self._view_of(launch))

    def on_kernel_end(self, run, launch) -> None:
        if self.disabled:
            return
        view = self._view_of(launch)
        self.completed_timings.append(view.timing)
        self._current = None
        callback = getattr(self.tool, "on_kernel_end", None)
        if callback is not None:
            self._call(callback, run, view)
