"""The event-pipeline engine: execution decoupled from detection.

The engine makes the instrumented event stream a first-class artifact
instead of an implicit callback side effect:

- :mod:`repro.engine.bus` — the :class:`EventBus` a live device publishes
  typed events into, delivered to the device's one
  :class:`~repro.instrument.nvbit.Tool`;
- :mod:`repro.engine.trace` — the in-memory :class:`Trace` of one or more
  executions and the :class:`TraceSink` that records it;
- :mod:`repro.engine.coltrace` — the columnar container (``.ctr`` /
  ``.ctr.gz``), the one on-disk trace format, decoded chunk by chunk;
- :mod:`repro.engine.replay` — re-drive one detector over a recorded
  trace deterministically, without re-simulating the GPU: the stream
  goes to the tool's replay entry,
  :meth:`~repro.instrument.nvbit.Tool.feed`, not through a bus.

Submodules that depend on :mod:`repro.workloads` are imported lazily to
keep ``gpu.device -> engine.bus`` cycle-free.
"""

from __future__ import annotations

from repro.engine.bus import EventBus
from repro.engine.trace import Trace, TraceSink, RunMarker

__all__ = [
    "EventBus",
    "Trace",
    "TraceSink",
    "RunMarker",
    "capture_workload",
    "replay",
    "replay_workload",
    "ReplayDevice",
]

_LAZY = {
    "capture_workload": "repro.engine.replay",
    "replay": "repro.engine.replay",
    "replay_workload": "repro.engine.replay",
    "ReplayDevice": "repro.engine.replay",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.engine' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
