"""Record/replay: re-drive detectors from a trace, no GPU simulation.

Capture is cheap — a :class:`~repro.engine.trace.TraceSink` rides one
execution pass as a zero-overhead observer — and replay is deterministic:
:func:`replay` walks the recorded stream and publishes each event on a
fresh bus, so any detector analyses *exactly* the execution that was
captured.  Because every tool in this codebase is a pure observer (the
scheduler interleaving depends only on the seed, never on attached
tools), a trace captured natively is bit-for-bit the stream a live
detector run would have seen: replayed race sites, types, and Figure 13
timing breakdowns match live runs exactly.

:class:`ReplayDevice` is the minimal device stand-in detectors read
through ``launch.device``: the hardware config and an address map rebuilt
from the recorded allocations (for metadata sizing and ``name[index]``
race descriptions).  Tool failures replicate organically — Barracuda's
memory reservation, event-budget timeout, and unsupported-feature checks
fire during replay dispatch exactly where they fired live.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Tuple

from repro.engine.bus import EventBus
from repro.engine.trace import RunMarker, Trace, TraceSink
from repro.errors import (
    DeadlockError,
    OutOfMemoryError,
    TimeoutError_,
    UnsupportedFeatureError,
)
from repro.faults import quarantine
from repro.gpu.arch import GPUConfig, TITAN_RTX
from repro.gpu.costs import CostParams, DEFAULT_COSTS
from repro.gpu.device import Device, KernelRun
from repro.gpu.events import (
    AllocEvent,
    KernelEndEvent,
    LaunchEvent,
    MemoryEvent,
    SyncEvent,
)
from repro.gpu.memory import WORD_BYTES, Allocation, GlobalMemory
from repro.instrument.nvbit import LaunchInfo, Tool
from repro.instrument.timing import Category, TimingBreakdown
from repro.obs.metrics import HOT
from repro.workloads.base import SIM_GPU, Workload, WorkloadResult


class ReplayMemory(GlobalMemory):
    """An address map rebuilt from recorded allocations, no backing data.

    Detectors only read the map — capacity, bytes allocated, and
    ``describe()`` for race reports — so replay restores allocations at
    their recorded bases without materializing contents.
    """

    def restore(self, event: AllocEvent) -> Allocation:
        allocation = Allocation(
            name=event.name, base=event.base, num_words=event.num_words
        )
        self._allocations.append(allocation)
        self._bytes_allocated += allocation.num_bytes
        self._bump = max(self._bump, allocation.end + WORD_BYTES)
        return allocation


class ReplayDevice:
    """The device stand-in a replayed launch hangs off ``launch.device``.

    Mirrors the :class:`~repro.gpu.device.Device` surface detectors
    actually touch: ``config``, ``costs``, ``memory``, the event ``bus``
    (with the same ``tools`` alias), and completed ``runs``.
    """

    def __init__(
        self,
        config: GPUConfig = TITAN_RTX,
        costs: CostParams = DEFAULT_COSTS,
    ):
        self.config = config
        self.costs = costs
        self.memory = ReplayMemory(config.memory_bytes)
        self.bus = EventBus()
        self.tools: List[Tool] = self.bus.sinks
        self.runs: List[KernelRun] = []

    def add_tool(self, tool: Tool) -> Tool:
        return self.bus.add_sink(tool, self)

    def add_sink(self, sink):
        return self.bus.add_sink(sink, self)


def replay(
    events: Iterable,
    tools: Iterable[Tool] = (),
    config: Optional[GPUConfig] = None,
    device: Optional[ReplayDevice] = None,
) -> ReplayDevice:
    """Publish a recorded event stream to ``tools`` on a replay device.

    ``events`` is a :class:`~repro.engine.trace.Trace` or any iterable of
    typed stream records; a recorded :class:`~repro.gpu.arch.GPUConfig`
    header configures the device unless ``config`` or ``device`` is given.
    Tool failures (unsupported feature, OOM, detection timeout) propagate
    mid-stream exactly as they would mid-execution.

    Returns the device; detector state (races, timings) lives on the
    attached tools and ``device.runs``.
    """
    if device is None and config is None:
        config, events = peek_gpu_config(events)
    if device is None:
        device = ReplayDevice(config)
    for tool in tools:
        device.add_tool(tool)

    launch: Optional[LaunchInfo] = None
    for event in events:
        if isinstance(event, (GPUConfig, RunMarker)):
            continue
        if HOT.enabled:
            HOT.replay_events.inc()
        try:
            launch = _replay_one(device, event, launch)
        except (
            UnsupportedFeatureError, OutOfMemoryError, TimeoutError_,
            DeadlockError,
        ):
            # Policy signals propagate mid-stream exactly as they would
            # mid-execution (the docstring's contract).
            raise
        except Exception as exc:
            # Poison-event quarantine: one malformed record must not
            # abort a million-event replay.  poison() re-raises exempt
            # exceptions and overflows past the absorption budget.
            quarantine.poison(event, exc, "replay")
    return device


def peek_gpu_config(events: Iterable) -> Tuple[GPUConfig, Iterable]:
    """The stream's recorded :class:`GPUConfig` header, and the stream.

    A materialized input (a list or :class:`Trace`) is scanned without
    being consumed.  A lazy stream (a coltrace chunk generator) is
    peeked just past the preamble — the header precedes
    the first run's events — and the buffered records are chained back,
    so the stream is never materialized whole.  Without a header the
    config is :data:`TITAN_RTX`.
    """
    if isinstance(events, (list, Trace)):
        config = next(
            (e for e in events if isinstance(e, GPUConfig)), TITAN_RTX
        )
        return config, events
    iterator = iter(events)
    buffered: list = []
    config = TITAN_RTX
    for event in iterator:
        buffered.append(event)
        if isinstance(event, GPUConfig):
            config = event
            break
        if not isinstance(event, RunMarker):
            break
    return config, itertools.chain(buffered, iterator)


def launch_info(event: LaunchEvent, device) -> LaunchInfo:
    """Rebuild the :class:`LaunchInfo` a recorded launch began with."""
    return LaunchInfo(
        kernel_name=event.kernel_name,
        grid_dim=event.grid_dim,
        block_dim=event.block_dim,
        warp_size=event.warp_size,
        warps_per_block=event.warps_per_block,
        num_threads=event.num_threads,
        timing=TimingBreakdown(parallelism=event.parallelism),
        device=device,
        seed=event.seed,
        static_instruction_count=event.static_instruction_count,
    )


def kernel_run(event: KernelEndEvent, launch: LaunchInfo) -> KernelRun:
    """Rebuild the :class:`KernelRun` a recorded launch ended with."""
    return KernelRun(
        kernel_name=event.kernel_name,
        grid_dim=launch.grid_dim,
        block_dim=launch.block_dim,
        num_threads=launch.num_threads,
        batches=event.batches,
        instructions=event.instructions,
        timed_out=event.timed_out,
        timing=launch.timing,
    )


def _replay_one(device, event, launch: Optional[LaunchInfo]):
    """Dispatch one trace record; returns the (possibly new) launch."""
    if isinstance(event, AllocEvent):
        device.bus.publish_alloc(device.memory.restore(event))
    elif isinstance(event, LaunchEvent):
        launch = launch_info(event, device)
        device.bus.publish_launch_begin(launch)
    elif isinstance(event, MemoryEvent):
        device.bus.publish_memory(event, launch)
    elif isinstance(event, SyncEvent):
        device.bus.publish_sync(event, launch)
    elif isinstance(event, KernelEndEvent):
        # Rebuild the native account before finalizing tools: iGUARD's
        # end-of-launch charges are fractions of native time.
        launch.timing.charge(Category.NATIVE, event.native_parallel)
        launch.timing.charge(
            Category.NATIVE, event.native_serial, serial=True
        )
        if event.timed_out:
            device.bus.publish_timeout(launch)
        else:
            device.bus.publish_launch_end(launch)
        run = kernel_run(event, launch)
        device.runs.append(run)
        device.bus.publish_kernel_end(run, launch)
        launch = None
    else:
        raise TypeError(f"unexpected trace event {event!r}")
    return launch


def capture_workload(
    workload: Workload,
    seeds=None,
    config: GPUConfig = SIM_GPU,
) -> Trace:
    """Execute ``workload`` natively once per seed, recording the stream.

    The trace carries the device config header and a
    :class:`~repro.engine.trace.RunMarker` per seed, so
    :func:`replay_workload` can re-run any detector over it with the
    runner's fresh-device-per-seed semantics.  A deadlocking kernel (a
    legitimate racy outcome) simply truncates that seed's recording, the
    same way it aborts a live run.
    """
    seeds = tuple(seeds) if seeds is not None else workload.seeds
    trace = Trace([config])
    for seed in seeds:
        sink = TraceSink(trace, header=False)
        sink.mark_run(seed)
        device = Device(config)
        device.add_sink(sink)
        try:
            workload.run(device, seed)
        except DeadlockError:
            pass
    return trace


def replay_workload(
    trace: Trace,
    tool_factory,
    workload_name: str = "replay",
) -> WorkloadResult:
    """Run a detector over a captured workload trace.

    The merge semantics mirror :func:`repro.workloads.runner.run_workload`
    exactly — per-seed fresh device and tool, race sites unioned in seed
    order, timing averaged, and the unsupported/OOM/timeout statuses
    replicated from the tool's own failures during replay.
    """
    from repro.workloads.runner import (
        SeedOutcome,
        _collect_outcome,
        _merge_outcomes,
        detector_name,
    )

    name = detector_name(tool_factory)
    config = trace.gpu_config or SIM_GPU
    outcomes = []
    for _seed, events in trace.runs():
        device = ReplayDevice(config)
        tool = device.add_tool(tool_factory())
        status, detail = "ok", ""
        try:
            replay(events, device=device)
        except UnsupportedFeatureError as exc:
            outcomes.append(
                SeedOutcome(status="unsupported", detail=str(exc))
            )
            break
        except OutOfMemoryError as exc:
            outcomes.append(SeedOutcome(status="oom", detail=str(exc)))
            break
        except TimeoutError_ as exc:
            status, detail = "timeout", str(exc)
        outcomes.append(_collect_outcome(device, tool, status, detail))
        if status == "timeout":
            break
    return _merge_outcomes(workload_name, name, outcomes)
