"""The recorded event stream: a serializable record/replay artifact.

A :class:`Trace` is the ordered list of typed events one or more executions
published on the bus — a :class:`~repro.gpu.arch.GPUConfig` header,
:class:`~repro.gpu.events.AllocEvent` /
:class:`~repro.gpu.events.LaunchEvent` /
:class:`~repro.gpu.events.MemoryEvent` /
:class:`~repro.gpu.events.SyncEvent` /
:class:`~repro.gpu.events.KernelEndEvent` records, with
:class:`RunMarker` boundaries between independently-executed runs (one per
scheduler seed).  On disk a trace is the columnar container of
:mod:`repro.engine.coltrace` (``.ctr``, or ``.ctr.gz`` gzipped); any other
extension is a :class:`~repro.errors.ConfigError`.

Capture once, analyze forever: the predictive-analysis literature (e.g.
*Predictive Data Race Detection for GPUs*) argues for exactly this —
detection over a fixed observed execution, reproducible and decoupled
from the cost of producing it.  :mod:`repro.engine.replay` consumes these
traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.errors import TraceCorruptionError
from repro.gpu.arch import GPUConfig
from repro.gpu.events import AllocEvent, KernelEndEvent, LaunchEvent
from repro.instrument.nvbit import LaunchInfo, Tool
from repro.instrument.timing import Category
from repro.obs.log import get_logger


@dataclass(frozen=True)
class RunMarker:
    """Boundary between independently-executed runs within one trace."""

    seed: int


# ---------------------------------------------------------------------------
# The trace container
# ---------------------------------------------------------------------------


class Trace:
    """An ordered stream of typed events, saved as a columnar container."""

    def __init__(self, events: Iterable = ()):
        self.events: List = list(events)
        #: Set by ``load(salvage=True)`` when the file was truncated.
        self.corruption: Optional[TraceCorruptionError] = None

    def append(self, event) -> None:
        self.events.append(event)

    def extend(self, events: Iterable) -> None:
        self.events.extend(events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator:
        return iter(self.events)

    @property
    def gpu_config(self) -> Optional[GPUConfig]:
        """The recorded device configuration (the trace header), if any."""
        for event in self.events:
            if isinstance(event, GPUConfig):
                return event
        return None

    def runs(self) -> List[Tuple[int, List]]:
        """Split the stream at :class:`RunMarker` boundaries.

        Returns ``(seed, events)`` pairs, markers and the header excluded.
        A trace recorded without markers is one run with seed 0.
        """
        segments: List[Tuple[int, List]] = []
        current: Optional[List] = None
        seed = 0
        preamble: List = []
        for event in self.events:
            if isinstance(event, GPUConfig):
                continue
            if isinstance(event, RunMarker):
                if current is not None:
                    segments.append((seed, current))
                seed, current = event.seed, []
                continue
            if current is None:
                preamble.append(event)
            else:
                current.append(event)
        if current is not None:
            segments.append((seed, current))
        if preamble:
            # Events before any marker form an implicit first run.
            segments.insert(0, (0, preamble))
        return segments

    # -- serialization --------------------------------------------------

    def save(self, path) -> None:
        """Write the trace to a ``.ctr`` / ``.ctr.gz`` columnar container.

        Any other extension raises :class:`~repro.errors.ConfigError`.
        """
        from repro.engine.coltrace import save_columnar

        save_columnar(self.events, path)

    @classmethod
    def load(cls, path, salvage: bool = False) -> "Trace":
        """Read a trace written by :meth:`save`.

        A truncated or corrupt file (a crash mid-chunk, a bad byte, a
        clipped gzip stream) raises :class:`TraceCorruptionError` carrying
        the block ordinal and the byte offset of the last intact chunk.
        With ``salvage=True`` the intact chunk prefix is returned instead
        — the corruption details are attached as ``trace.corruption`` so
        replay consumers can tell a salvaged trace from a complete one.
        """
        from repro.engine.coltrace import read_events

        events, corruption = read_events(path, salvage=salvage)
        if corruption is not None:
            get_logger("trace").warning(
                "salvaged %d event(s) from %s (%s)",
                len(events), path, corruption,
            )
        trace = cls(events)
        trace.corruption = corruption
        return trace


# ---------------------------------------------------------------------------
# The recording sink
# ---------------------------------------------------------------------------


class TraceSink(Tool):
    """A zero-overhead sink recording the full typed stream into a Trace.

    Attach with ``device.add_tool(TraceSink())``; it charges nothing.
    The device configuration is written as a header on attach, so the
    trace is self-contained.
    """

    name = "trace"

    def __init__(self, trace: Optional[Trace] = None, header: bool = True):
        self.trace = trace if trace is not None else Trace()
        self._header = header

    def attach(self, device) -> None:
        # No ``super().attach``: a device-sink cycle would keep a finished
        # capture's trace alive until the next garbage collection (+2 MiB
        # peak memory in the benchmark's stream-large set-up).
        if self._header:
            self.trace.append(device.config)
            self._header = False

    def mark_run(self, seed: int) -> None:
        """Insert a run boundary (fresh device/tool semantics on replay)."""
        self.trace.append(RunMarker(seed))

    def on_alloc(self, allocation) -> None:
        self.trace.append(AllocEvent.of(allocation))

    def on_launch_begin(self, launch: LaunchInfo) -> None:
        self.trace.append(
            LaunchEvent(
                kernel_name=launch.kernel_name,
                grid_dim=launch.grid_dim,
                block_dim=launch.block_dim,
                warp_size=launch.warp_size,
                warps_per_block=launch.warps_per_block,
                num_threads=launch.num_threads,
                seed=launch.seed,
                static_instruction_count=launch.static_instruction_count,
                parallelism=launch.timing.parallelism,
            )
        )

    def on_memory(self, event, launch) -> None:
        self.trace.append(event)

    def on_sync(self, event, launch) -> None:
        self.trace.append(event)

    def on_kernel_end(self, run, launch) -> None:
        native = launch.timing.accounts[Category.NATIVE]
        self.trace.append(
            KernelEndEvent(
                kernel_name=run.kernel_name,
                timed_out=run.timed_out,
                native_parallel=native.parallel,
                native_serial=native.serial,
                batches=run.batches,
                instructions=run.instructions,
            )
        )
