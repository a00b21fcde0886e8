"""Span tracing with Chrome/Perfetto ``trace_event`` JSON export.

A :class:`SpanTracer` accumulates *complete* events (``"ph": "X"``) in the
Chrome trace-event format, which both ``chrome://tracing`` and
https://ui.perfetto.dev load directly.  A whole suite run renders as one
timeline: kernel launches and seed cells on the wall-clock track, and
per-warp activity of a simulated launch on a synthetic "simulated time"
track (timestamps in scheduler batches rather than microseconds — the
shape of the interleaving, not its wall-clock cost).

Timestamps are wall-anchored: the process computes ``time.time() -
perf_counter()`` once at import and reports ``perf_counter``-resolution
microseconds on that epoch base.

Disabled (the default), the tracer costs one attribute test per guarded
call site — hot paths never create spans at all (per-event spans would
dwarf the traced work); the finest-grained wall-clock spans are per
launch and per suite cell.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional

#: Wall-clock anchor for perf_counter-based timestamps (per process).
_EPOCH_OFFSET = time.time() - time.perf_counter()


def now_us() -> float:
    """Current wall-anchored timestamp in microseconds."""
    return (_EPOCH_OFFSET + time.perf_counter()) * 1e6


class SpanTracer:
    """An accumulator of Chrome trace-event records.

    Guard hot call sites with ``if TRACER.enabled:`` so a disabled tracer
    costs one attribute load; the recording methods also no-op themselves
    when disabled, so cold call sites may skip the guard.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.events: List[dict] = []
        self._named_tids: Dict[str, int] = {}
        self._named_pids: Dict[str, int] = {}

    # -- recording ------------------------------------------------------

    def add_complete(
        self,
        name: str,
        ts_us: float,
        dur_us: float,
        cat: str = "obs",
        pid: Optional[int] = None,
        tid: int = 0,
        args: Optional[dict] = None,
    ) -> None:
        """One finished span (a ``"ph": "X"`` complete event)."""
        if not self.enabled:
            return
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": round(ts_us, 3),
            "dur": round(dur_us, 3),
            "pid": pid if pid is not None else os.getpid(),
            "tid": tid,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def add_instant(
        self,
        name: str,
        ts_us: Optional[float] = None,
        cat: str = "obs",
        pid: Optional[int] = None,
        tid: int = 0,
        args: Optional[dict] = None,
    ) -> None:
        """A zero-duration marker (``"ph": "i"``)."""
        if not self.enabled:
            return
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "t",
            "ts": round(ts_us if ts_us is not None else now_us(), 3),
            "pid": pid if pid is not None else os.getpid(),
            "tid": tid,
        }
        if args:
            event["args"] = args
        self.events.append(event)

    def name_process(self, pid: int, name: str) -> None:
        """Label a pid track (Perfetto shows the name instead of the number)."""
        self.events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name},
        })

    def name_thread(self, pid: int, tid: int, name: str) -> None:
        """Label a tid track within a pid."""
        self.events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name},
        })

    def tid_for(self, name: str) -> int:
        """A stable small integer tid for a named track (e.g. a sink)."""
        tid = self._named_tids.get(name)
        if tid is None:
            tid = len(self._named_tids) + 1
            self._named_tids[name] = tid
            self.name_thread(os.getpid(), tid, name)
        return tid

    def synthetic_pid(self, name: str) -> int:
        """A stable synthetic pid for a non-wall-clock track.

        Used for the "simulated time" tracks, whose timestamps are
        scheduler batch indices; a synthetic pid keeps them from
        interleaving with real wall-clock spans.
        """
        pid = self._named_pids.get(name)
        if pid is None:
            pid = 1_000_000 + len(self._named_pids)
            self._named_pids[name] = pid
            self.name_process(pid, name)
        return pid

    # -- export ---------------------------------------------------------

    def to_document(self) -> dict:
        """The exported JSON object (Chrome trace-event array format)."""
        return {
            "traceEvents": list(self.events),
            "displayTimeUnit": "ms",
            "otherData": {"generated_by": "repro.obs.spans"},
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_document(), handle, indent=None, separators=(",", ":"))
            handle.write("\n")


#: The process-wide tracer.  ``IGUARD_TRACE=1`` enables it at import.
TRACER = SpanTracer(
    enabled=os.environ.get("IGUARD_TRACE", "") not in ("", "0", "false")
)


def set_tracing(enabled: bool) -> None:
    TRACER.enabled = enabled
