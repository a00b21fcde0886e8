"""Tool interface: the reproduction's NVBit.

NVBit lets a tool observe and extend every SASS instruction of a running
CUDA binary without recompilation.  Here, the simulated
:class:`~repro.gpu.device.Device` plays the role of the instrumented GPU:
one :class:`Tool` can be attached to it, and its
callbacks fire on the same occasions iGUARD's injected functions do —
memory accesses, synchronization operations, kernel launch boundaries, and
``cudaMalloc`` calls (which iGUARD intercepts to budget metadata
pre-faulting, section 6.1).

A tool charges its own runtime into ``launch.timing`` using the Figure 13
categories; a tool that charges nothing is a zero-overhead observer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.faults.quarantine import poison
from repro.gpu.events import MemoryEvent, SyncEvent
from repro.instrument.timing import TimingBreakdown

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.gpu.device import Device
    from repro.gpu.memory import Allocation


@dataclass
class LaunchInfo:
    """Everything a tool may need to know about one kernel launch."""

    kernel_name: str
    grid_dim: int
    block_dim: int
    warp_size: int
    warps_per_block: int
    num_threads: int
    timing: TimingBreakdown
    device: "Device"
    seed: int = 0
    static_instruction_count: int = 0

    @property
    def num_warps(self) -> int:
        return self.grid_dim * self.warps_per_block


class Tool:
    """Base class for instrumentation tools; all callbacks default to no-ops.

    A live :class:`~repro.gpu.device.Device` calls the callbacks through
    its event bus; a replay hands recorded records to :meth:`feed`.

    Subclasses: :class:`repro.core.detector.IGuard`, the baselines
    (:class:`repro.baselines.barracuda.Barracuda`, ...),
    :class:`repro.engine.trace.TraceSink`, and the test utilities.  A
    plain ``Tool()`` is the no-op sink of a device without a tool.
    """

    #: Human-readable tool name used in experiment output.
    name: str = "tool"
    #: The device the tool is attached to; set by :meth:`attach`.
    device = None

    def attach(self, device: "Device") -> None:
        """Called when the tool is registered with a device."""
        self.device = device

    def feed(self, records) -> None:
        """Replay one slice of a recorded stream (the one replay entry).

        Memory and sync records go to :meth:`on_memory`/:meth:`on_sync`
        with the device's open launch, every other record to
        :func:`repro.engine.replay.replay_boundary`; a record that raises
        is quarantined (:mod:`repro.faults.quarantine`).
        """
        from repro.engine.replay import replay_boundary

        device = self.device
        for record in records:
            kind = type(record)
            try:
                if kind is MemoryEvent:
                    self.on_memory(record, device.launch)
                elif kind is SyncEvent:
                    self.on_sync(record, device.launch)
                else:
                    replay_boundary(self, record)
            except Exception as exc:
                poison(record, exc, "replay")

    def on_alloc(self, allocation: "Allocation") -> None:
        """Called on each application ``cudaMalloc`` (section 6.1)."""

    def on_launch_begin(self, launch: LaunchInfo) -> None:
        """Called before the first instruction of a kernel executes."""

    def on_memory(self, event: MemoryEvent, launch: LaunchInfo) -> None:
        """Called after every load/store/atomic."""

    def on_sync(self, event: SyncEvent, launch: LaunchInfo) -> None:
        """Called after every fence and on each barrier completion."""

    def on_launch_end(self, launch: LaunchInfo) -> None:
        """Called after the kernel finishes (all threads done)."""

    def on_timeout(self, launch: LaunchInfo) -> None:
        """Called when the step budget expires (the paper's timeout path:
        detected races are flushed to the CPU before termination)."""

    def on_kernel_end(self, run, launch: LaunchInfo) -> None:
        """Called once the completed :class:`~repro.gpu.device.KernelRun`
        exists, after ``on_launch_end``/``on_timeout``."""
