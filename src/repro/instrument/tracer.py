"""An event tracer: record the instrumented stream for offline inspection.

The companion tool to the detector: where iGUARD *consumes* the event
stream, :class:`Tracer` just records it — handy for debugging kernels and
the detector itself, for building custom analyses over the same events
iGUARD sees, and for understanding a race after the fact (what actually
executed around the racy access).  Supports bounded in-memory capture and
text dumps in execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.gpu.events import AccessKind, MemoryEvent, SyncEvent, SyncKind
from repro.instrument.nvbit import LaunchInfo, Tool


@dataclass(frozen=True)
class TraceLine:
    """One rendered trace entry."""

    index: int
    batch: int
    kind: str
    where: str
    detail: str

    def render(self) -> str:
        return (
            f"{self.index:>7} b{self.batch:<6} {self.where:<14} "
            f"{self.kind:<11} {self.detail}"
        )


class Tracer(Tool):
    """Record every memory and synchronization event of a launch.

    Args:
        limit: maximum events retained (oldest dropped beyond it).
        memory_only: skip synchronization events.
        address_filter: if set, record only accesses to this byte address's
            granule (4-byte aligned) — the "watchpoint" mode.
    """

    name = "tracer"

    def __init__(
        self,
        limit: int = 100_000,
        memory_only: bool = False,
        address_filter: Optional[int] = None,
    ):
        self.limit = limit
        self.memory_only = memory_only
        self.address_filter = address_filter
        self.lines: List[TraceLine] = []
        self.dropped = 0
        self._counter = 0

    @classmethod
    def from_trace(cls, trace, **kwargs) -> "Tracer":
        """Rebuild a rendered trace from a recorded event stream.

        ``trace`` is a :class:`~repro.engine.trace.Trace` (or any iterable
        of stream records), or a path to a saved trace file — paths are
        streamed lazily, chunk by chunk, rather than loaded whole; the
        tracer observes the stream through
        :func:`repro.engine.replay.replay` instead of a live device.
        """
        from repro.engine.replay import replay

        if isinstance(trace, (str, bytes)) or hasattr(trace, "__fspath__"):
            from repro.engine.coltrace import stream_events

            trace = stream_events(trace)
        tracer = cls(**kwargs)
        replay(trace, tracer)
        return tracer

    # ------------------------------------------------------------------

    def _push(self, batch: int, kind: str, where, detail: str) -> None:
        self._counter += 1
        if len(self.lines) >= self.limit:
            self.lines.pop(0)
            self.dropped += 1
        self.lines.append(
            TraceLine(
                index=self._counter,
                batch=batch,
                kind=kind,
                where=f"w{where.warp_id}.t{where.lane}/b{where.block_id}",
                detail=detail,
            )
        )

    def on_memory(self, event: MemoryEvent, launch: LaunchInfo) -> None:
        if self.address_filter is not None:
            if event.address // 4 != self.address_filter // 4:
                return
        location = launch.device.memory.describe(event.address)
        if event.kind is AccessKind.LOAD:
            detail = f"{location} -> {event.value_loaded!r} @ {event.ip}"
        elif event.kind is AccessKind.STORE:
            detail = f"{location} <- {event.value_stored!r} @ {event.ip}"
        else:
            detail = (
                f"{location} {event.atomic_op.value}"
                f"({event.value_stored!r}) was {event.value_loaded!r} "
                f"[{event.scope.name.lower()}] @ {event.ip}"
            )
        self._push(event.batch, event.kind.value, event.where, detail)

    def on_sync(self, event: SyncEvent, launch: LaunchInfo) -> None:
        if self.memory_only:
            return
        if event.kind is SyncKind.FENCE:
            detail = f"scope={event.scope.name.lower()} @ {event.ip}"
        else:
            detail = f"mask={sorted(event.active_mask)} @ {event.ip}"
        self._push(event.batch, event.kind.value, event.where, detail)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.lines)

    def render(self, last: Optional[int] = None) -> str:
        """The trace as text, optionally only the last N entries."""
        lines = self.lines if last is None else self.lines[-last:]
        header = f"{'#':>7} {'batch':<7} {'thread':<14} {'event':<11} detail"
        body = [line.render() for line in lines]
        suffix = []
        if self.dropped:
            suffix.append(f"({self.dropped} earlier events dropped)")
        return "\n".join([header] + body + suffix)

    def events_for(self, location_substring: str) -> List[TraceLine]:
        """Trace lines whose detail mentions a location (e.g. 'data[0]')."""
        return [l for l in self.lines if location_substring in l.detail]
