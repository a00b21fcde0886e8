"""Multi-detector fan-out: one execution pass, N detectors riding it.

Live comparisons like Table 4 / Figure 11 run every workload once per
detector.  With the event bus, one pass suffices: each detector is
wrapped in a :class:`~repro.engine.bus.ToolSink` (failure isolation +
a private timing view over the shared native account), attached to the
same device, and observes the identical stream.  Because tools are pure
observers and per-sink timing views share the executor's NATIVE account
while keeping overhead categories private, each detector's races *and*
its Figure 13 overhead accounting come out exactly equal to a solo
:func:`~repro.workloads.runner.run_workload` — down to float identity —
for a single execution's cost.

A detector dropping out mid-stream (Barracuda's unsupported scoped
atomics, memory reservation OOM, event-budget timeout) detaches only
itself; the pass keeps feeding the others, and its result reports the
same status a solo run would have.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.engine.bus import ToolSink
from repro.errors import (
    DeadlockError,
    OutOfMemoryError,
    TimeoutError_,
    UnsupportedFeatureError,
)
from repro.gpu.arch import GPUConfig
from repro.gpu.device import Device
from repro.workloads.base import SIM_GPU, Workload, WorkloadResult
from repro.workloads.runner import (
    SeedOutcome,
    _merge_outcomes,
    _unsupported_binary,
    detector_name,
)


def _sink_outcome(sink: ToolSink, status: str, detail: str) -> SeedOutcome:
    """One sink's per-seed harvest, shaped like the runner's outcomes."""
    if sink.failure is not None:
        status, detail = sink.failure
        if status in ("unsupported", "oom"):
            return SeedOutcome(status=status, detail=detail)
    outcome = SeedOutcome(status=status, detail=detail)
    races = getattr(sink.tool, "races", None)
    if races is not None:
        for ip, race_type in races.sites():
            outcome.sites[ip] = str(race_type)
    timings = sink.completed_timings
    if timings:
        native = sum(t.native_time for t in timings)
        total = sum(t.total_time for t in timings)
        outcome.overhead = total / native if native > 0 else 1.0
        outcome.native_time = native
        outcome.total_time = total
        totals: dict = {}
        for timing in timings:
            for category, time in timing.snapshot().items():
                totals[category] = totals.get(category, 0.0) + time
        outcome.breakdown = totals
    return outcome


def run_workload_fanout(
    workload: Workload,
    tool_factories: Sequence,
    config: GPUConfig = SIM_GPU,
    seeds=None,
) -> List[WorkloadResult]:
    """Run ``workload`` once per seed with every detector attached.

    Returns one :class:`~repro.workloads.base.WorkloadResult` per factory,
    in factory order, each equal to what a solo
    :func:`~repro.workloads.runner.run_workload` with that factory would
    have produced (races, statuses, and overhead breakdowns alike).
    """
    seeds = tuple(seeds) if seeds is not None else workload.seeds
    names = [detector_name(factory) for factory in tool_factories]

    active = [
        not (workload.complex_binary and name in ("Barracuda", "CURD"))
        for name in names
    ]
    per_factory: List[List[SeedOutcome]] = [[] for _ in tool_factories]

    if any(active):
        for seed in seeds:
            device = Device(config)
            sinks: List[Optional[ToolSink]] = []
            for factory, is_active in zip(tool_factories, active):
                if not is_active:
                    sinks.append(None)
                    continue
                sinks.append(device.add_sink(ToolSink(factory())))
            status, detail = "ok", ""
            try:
                workload.run(device, seed)
            except UnsupportedFeatureError as exc:
                status, detail = "unsupported", str(exc)
            except OutOfMemoryError as exc:
                status, detail = "oom", str(exc)
            except TimeoutError_ as exc:
                status, detail = "timeout", str(exc)
            except DeadlockError as exc:
                detail = f"deadlock: {exc}"
            for sink, bucket in zip(sinks, per_factory):
                if sink is not None:
                    bucket.append(_sink_outcome(sink, status, detail))

    results: List[WorkloadResult] = []
    for name, is_active, outcomes in zip(names, active, per_factory):
        if not is_active:
            results.append(_unsupported_binary(workload, name))
        else:
            results.append(_merge_outcomes(workload.name, name, outcomes))
    return results

def _stream_runs(stream, default_config: GPUConfig = SIM_GPU):
    """Split a lazy event stream at RunMarker boundaries.

    Yields ``(config, events)`` per run — the same split
    :meth:`~repro.engine.trace.Trace.runs` performs on a materialized
    trace, but holding only one run's events in memory at a time, so a
    columnar chunk stream never materializes the whole file.
    """
    from repro.engine.trace import RunMarker

    config = default_config
    current: List = []
    pending = False
    for event in stream:
        if isinstance(event, GPUConfig):
            config = event
            continue
        if isinstance(event, RunMarker):
            if pending:
                yield config, current
                current = []
            pending = True
            continue
        current.append(event)
        pending = True
    if pending:
        yield config, current


def replay_trace_fanout(
    source,
    tool_factories: Sequence,
    workload_name: str = "replay",
) -> List[WorkloadResult]:
    """Replay one saved trace through many detectors in a single pass.

    ``source`` is a :class:`~repro.engine.trace.Trace` or a path to a
    saved trace file (JSONL or columnar; paths are streamed run by run,
    never loaded whole).  Each detector observes the identical stream
    behind its own :class:`~repro.engine.bus.ToolSink`, so the results
    match what a solo :func:`~repro.engine.replay.replay_workload` with
    that factory would produce — one decode pass instead of N.
    """
    from repro.engine.replay import ReplayDevice, replay
    from repro.engine.trace import Trace, stream_events

    names = [detector_name(factory) for factory in tool_factories]
    per_factory: List[List[SeedOutcome]] = [[] for _ in tool_factories]

    if isinstance(source, Trace):
        runs = (
            (source.gpu_config or SIM_GPU, events)
            for _seed, events in source.runs()
        )
    else:
        runs = _stream_runs(stream_events(source))

    for config, events in runs:
        device = ReplayDevice(config)
        sinks = [
            device.add_sink(ToolSink(factory())) for factory in tool_factories
        ]
        replay(events, device=device)
        for sink, bucket in zip(sinks, per_factory):
            bucket.append(_sink_outcome(sink, "ok", ""))

    return [
        _merge_outcomes(workload_name, name, outcomes)
        for name, outcomes in zip(names, per_factory)
    ]
