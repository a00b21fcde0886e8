"""The event-pipeline engine: execution decoupled from detection.

The engine makes the instrumented event stream a first-class artifact
instead of an implicit callback side effect:

- :mod:`repro.engine.bus` — the :class:`EventBus` the device publishes
  typed events into, with pluggable sinks (every existing
  :class:`~repro.instrument.nvbit.Tool` is already sink-shaped) and the
  :class:`ToolSink` adapter adding failure isolation + per-sink timing;
- :mod:`repro.engine.trace` — the trace codec: capture one execution to a
  compact JSONL (optionally gzipped) record stream;
- :mod:`repro.engine.coltrace` — the columnar trace container (``.ctr``)
  that replays decode chunk by chunk;
- :mod:`repro.engine.replay` — re-drive any detector over a recorded
  trace deterministically, without re-simulating the GPU;
- :mod:`repro.engine.fanout` — one execution pass feeding N detectors
  simultaneously, each with its own timing accounting.

Submodules that depend on :mod:`repro.workloads` are imported lazily to
keep ``gpu.device -> engine.bus`` cycle-free.
"""

from __future__ import annotations

from repro.engine.bus import EventBus, ToolSink
from repro.engine.trace import Trace, TraceSink, RunMarker

__all__ = [
    "EventBus",
    "ToolSink",
    "Trace",
    "TraceSink",
    "RunMarker",
    "capture_workload",
    "replay",
    "replay_workload",
    "ReplayDevice",
    "run_workload_fanout",
]

_LAZY = {
    "capture_workload": "repro.engine.replay",
    "replay": "repro.engine.replay",
    "replay_workload": "repro.engine.replay",
    "ReplayDevice": "repro.engine.replay",
    "run_workload_fanout": "repro.engine.fanout",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.engine' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
