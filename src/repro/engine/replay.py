"""Record/replay: re-drive a detector from a trace, no GPU simulation.

Capture is cheap — a :class:`~repro.engine.trace.TraceSink` rides one
execution pass as a zero-overhead observer — and replay is deterministic:
:func:`replay` hands the recorded stream, in slices, to the tool's one
replay entry, :meth:`~repro.instrument.nvbit.Tool.feed`, so a detector
analyses *exactly* the execution that was captured.  Because every tool
in this codebase is a pure observer (the scheduler interleaving depends
only on the seed, never on attached tools), a trace captured natively is
bit-for-bit the stream a live detector run would have seen: replayed
race sites, types, and Figure 13 timing breakdowns match live runs
exactly.

:class:`ReplayDevice` is the minimal device stand-in detectors read
through ``launch.device``: the hardware config, an address map rebuilt
from the recorded allocations (for metadata sizing and ``name[index]``
race descriptions), and the open launch.  Tool failures replicate
organically — Barracuda's memory reservation, event-budget timeout, and
unsupported-feature checks fire during replay exactly where they fired
live.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Tuple

from repro.engine.trace import RunMarker, Trace, TraceSink
from repro.errors import DeadlockError
from repro.gpu.arch import GPUConfig, TITAN_RTX
from repro.gpu.device import Device, KernelRun
from repro.gpu.events import AllocEvent, KernelEndEvent, LaunchEvent
from repro.gpu.memory import WORD_BYTES, Allocation, GlobalMemory
from repro.instrument.nvbit import LaunchInfo, Tool
from repro.instrument.timing import Category, TimingBreakdown
from repro.obs.metrics import HOT
from repro.workloads.base import SIM_GPU, Workload, WorkloadResult

#: Records per :meth:`~repro.instrument.nvbit.Tool.feed` call, replayed
#: or live: enough to pay the loop's set-up once per thousand records,
#: few enough that a slice never shows in peak memory.
PENDING_RECORDS = 1024


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
    actually touch: ``config``, ``memory`` and completed ``runs``, plus
    the ``launch`` a replay has open (None between launches).
    """

    def __init__(self, config: GPUConfig = TITAN_RTX):
        self.config = config
        self.memory = ReplayMemory(config.memory_bytes)
        self.runs: List[KernelRun] = []
        self.launch: Optional[LaunchInfo] = None


def replay(
    events: Iterable,
    tool: Tool,
    config: Optional[GPUConfig] = None,
    device: Optional[ReplayDevice] = None,
) -> ReplayDevice:
    """Feed a recorded event stream to ``tool`` on a replay device.

    ``events`` is a :class:`~repro.engine.trace.Trace` or any iterable of
    typed stream records; a recorded :class:`~repro.gpu.arch.GPUConfig`
    header configures the device unless ``config`` or ``device`` is given.
    The stream reaches :meth:`~repro.instrument.nvbit.Tool.feed` in
    slices of :data:`PENDING_RECORDS`, so a lazy stream is never
    materialized whole.  Tool failures (unsupported feature, OOM,
    detection timeout) propagate mid-stream exactly as they would
    mid-execution.

    Returns the device; detector state (races, timings) lives on the
    tool and ``device.runs``.
    """
    if device is None:
        if config is None:
            config, events = peek_gpu_config(events)
        device = ReplayDevice(config)
    tool.attach(device)
    records = iter(events)
    while True:
        piece = list(itertools.islice(records, PENDING_RECORDS))
        if not piece:
            return device
        if HOT.enabled:
            _feed_counted(tool, piece)
        else:
            tool.feed(piece)


def _feed_counted(tool: Tool, piece: List) -> None:
    """``tool.feed(piece)``, counting into ``replay.events`` the records
    the tool took (headers and run markers excluded), so a replay that a
    tool failure aborts mid-slice counts up to the failing record."""
    fed = 0

    def taken():
        nonlocal fed
        for record in piece:
            if not isinstance(record, (GPUConfig, RunMarker)):
                fed += 1
            yield record

    try:
        tool.feed(taken())
    finally:
        HOT.replay_events.inc(fed)


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


def replay_boundary(tool: Tool, event) -> None:
    """Replay one record that is neither a memory nor a sync access.

    A kernel end rebuilds the native account first: iGUARD's
    end-of-launch charges are fractions of native time.
    """
    device = tool.device
    kind = type(event)
    if kind is LaunchEvent:
        launch = LaunchInfo(
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
        tool.on_launch_begin(launch)
        # Opened only once the tool took it: the records after a
        # quarantined begin never see a half-built launch.
        device.launch = launch
    elif kind is KernelEndEvent:
        launch = device.launch
        launch.timing.charge(Category.NATIVE, event.native_parallel)
        launch.timing.charge(
            Category.NATIVE, event.native_serial, serial=True
        )
        if event.timed_out:
            tool.on_timeout(launch)
        else:
            tool.on_launch_end(launch)
        run = KernelRun(
            kernel_name=event.kernel_name,
            grid_dim=launch.grid_dim,
            block_dim=launch.block_dim,
            num_threads=launch.num_threads,
            batches=event.batches,
            instructions=event.instructions,
            timed_out=event.timed_out,
            timing=launch.timing,
        )
        device.runs.append(run)
        tool.on_kernel_end(run, launch)
        device.launch = None
    elif kind is AllocEvent:
        tool.on_alloc(device.memory.restore(event))
    elif kind is not GPUConfig and kind is not RunMarker:
        raise TypeError(f"unexpected trace event {event!r}")


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
        device.add_tool(sink)
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

    Each recorded seed is one run of the live runner's per-seed ladder
    (:func:`repro.workloads.runner._run_seed`) with a replay as its
    ``drive``: a fresh device and tool per seed, race sites unioned in seed
    order, timing averaged, and the unsupported/OOM/timeout statuses
    replicated from the tool's own failures during replay.  A
    ``workload_name`` from the registry gets the live runner's refusal of
    a binary the detector cannot run, before any seed replays.
    """
    from repro.workloads.registry import REGISTRY
    from repro.workloads.runner import (
        _merge_outcomes,
        _run_seed,
        binary_refusal,
        detector_name,
    )

    detector = detector_name(tool_factory)
    for workload in REGISTRY:
        if workload.name == workload_name:
            refusal = binary_refusal(workload, detector)
            if refusal is not None:
                return refusal
    config = trace.gpu_config or SIM_GPU

    def outcomes():
        # Lazy: the merge stops at the first unsupported, OOM or
        # timeout seed, so later seeds never replay.
        for _seed, events in trace.runs():
            device = ReplayDevice(config)
            tool = tool_factory()
            yield _run_seed(
                device, tool, lambda: replay(events, tool, device=device)
            )

    return _merge_outcomes(workload_name, detector, outcomes())
