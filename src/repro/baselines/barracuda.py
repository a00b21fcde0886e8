"""Barracuda: the CPU-side happens-before baseline (PLDI'17).

Barracuda instruments GPU binaries (at PTX level) to *log* memory and
synchronization events, serializes the log, and ships it to the CPU where
a happens-before detector processes it one event at a time.  That design
is exactly what iGUARD's evaluation contrasts against:

- all detection work is **serialized** on the CPU — no GPU parallelism —
  which is where the 10-1000x overheads come from;
- **scoped atomics are unsupported**: workloads using ``atomic*_block``
  abort (the paper could not run ScoR or the CG suite under Barracuda);
- **ITS is unsupported**: Barracuda assumes pre-Volta lockstep warps, so
  same-warp accesses are considered ordered and missing-``syncwarp``
  races are invisible (``syncwarp`` itself is ignored);
- **half of device memory is reserved** for its buffers, so applications
  with footprints beyond 50% of capacity fail to start (Figure 14);
- large event streams (e.g. Kilo-TM's ``interac`` with its spin loops)
  exhaust the processing budget: the run "does not terminate".

The happens-before engine itself — FastTrack-style per-thread vector
clocks, per-address write epoch + read epoch/VC, release/acquire edges
through (fence, atomic) pairs, barrier joins at each ``syncthreads`` —
lives in :class:`repro.core.engine.HBCore`; this class is the Tool
adapter that owns Barracuda's *tool* behaviours (event costing, the
processing budget, the memory reservation, the unsupported-feature
aborts) and feeds the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.engine import HBCore
from repro.errors import OutOfMemoryError, TimeoutError_, UnsupportedFeatureError
from repro.gpu.events import AccessKind, MemoryEvent, SyncEvent
from repro.gpu.instructions import Scope
from repro.instrument.nvbit import LaunchInfo, Tool
from repro.instrument.timing import Category


@dataclass(frozen=True)
class BarracudaCosts:
    """Cycle constants for Barracuda's runtime (calibrated for shape)."""

    #: Recompilation / runtime linking, charged per launch: a small fixed
    #: part plus a duration-proportional part (same scaling rationale as
    #: the iGUARD detector's host costs).
    recompile_fixed: float = 30.0
    recompile_fraction: float = 0.5
    #: Injected logging code, runs in parallel on the GPU.
    instrument_per_event: float = 5.0
    #: Serializing one event out of the GPU into the shared buffer.
    ship_per_event: float = 0.5
    #: CPU-side happens-before processing of one event (serial!).  This
    #: single constant is the heart of the comparison: all of Barracuda's
    #: race detection funnels through it with no parallelism at all.
    cpu_per_event: float = 24.0


class Barracuda(Tool):
    """The Barracuda baseline as an instrumentation tool."""

    name = "Barracuda"
    #: Fraction of device memory pinned for Barracuda's buffers.
    MEMORY_RESERVATION = 0.5
    #: Extra device memory Barracuda needs per byte of application
    #: footprint (shadow/log space), on top of the fixed reservation.
    SHADOW_FACTOR = 0.6
    #: HBCore configuration of this backend (see the core's docstring).
    ITS_SUPPORT = False
    SAME_WARP_ORDERED = True

    def __init__(
        self,
        costs: BarracudaCosts = BarracudaCosts(),
        event_budget: int = 12_000,
    ):
        self.costs = costs
        self.event_budget = event_budget
        self.events_processed = 0
        self.gave_up = False
        self.core = HBCore(
            its=self.ITS_SUPPORT, same_warp_ordered=self.SAME_WARP_ORDERED
        )
        self.races = self.core.races
        self._launch: Optional[LaunchInfo] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def on_alloc(self, allocation) -> None:
        """Enforce the pinned-buffer reservation at allocation time.

        The application's footprint plus Barracuda's proportional shadow
        space must fit in what the fixed 50% reservation leaves — this is
        the failure Figure 14 shows past 8 GB on a 24 GB GPU.
        """
        if self.device is None:
            return
        budget = self.device.memory.capacity_bytes * (1 - self.MEMORY_RESERVATION)
        needed = self.device.memory.bytes_allocated * (1 + self.SHADOW_FACTOR)
        if needed > budget:
            raise OutOfMemoryError(
                f"Barracuda reserves {int(self.MEMORY_RESERVATION * 100)}% of "
                f"device memory for buffers; allocation of "
                f"{allocation.name!r} plus shadow space needs "
                f"{int(needed)} bytes but only {int(budget)} remain"
            )

    def on_launch_begin(self, launch: LaunchInfo) -> None:
        self._launch = launch
        self.events_processed = 0
        self.gave_up = False
        self.core.begin_launch(launch)
        launch.timing.charge(
            Category.NVBIT, self.costs.recompile_fixed, serial=True
        )

    def on_launch_end(self, launch: LaunchInfo) -> None:
        self.core.finish_launch(launch)
        launch.timing.charge(
            Category.NVBIT,
            self.costs.recompile_fraction * launch.timing.native_time,
            serial=True,
        )

    def on_timeout(self, launch: LaunchInfo) -> None:
        self.core.finish_launch(launch)

    # ------------------------------------------------------------------
    # Event costing and budget
    # ------------------------------------------------------------------

    def _charge_event(self, launch: LaunchInfo) -> None:
        launch.timing.charge(
            Category.INSTRUMENTATION, self.costs.instrument_per_event
        )
        launch.timing.charge(
            Category.DETECTION,
            self.costs.ship_per_event + self.costs.cpu_per_event,
            serial=True,
        )
        self.events_processed += 1
        if self.events_processed > self.event_budget:
            self.gave_up = True
            raise TimeoutError_(
                f"Barracuda did not terminate: CPU-side detection exceeded "
                f"{self.event_budget} events on {launch.kernel_name!r}"
            )

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------

    def on_sync(self, event: SyncEvent, launch: LaunchInfo) -> None:
        self._charge_event(launch)
        self.core.apply_sync(event, launch)

    def on_memory(self, event: MemoryEvent, launch: LaunchInfo) -> None:
        self._charge_event(launch)

        if event.kind is AccessKind.ATOMIC:
            if event.scope.effective is Scope.BLOCK:
                raise UnsupportedFeatureError(
                    "Barracuda does not support scoped atomic operations "
                    f"(block-scope atomic at {event.ip})"
                )
            # Atomics are release/acquire synchronization through the
            # location, not checked accesses.
            self.core.atomic_sync(event)
            return

        self.core.handle(event, event.address, launch)

    # ------------------------------------------------------------------

    @property
    def race_count(self) -> int:
        """Unique racy sites found by the CPU-side pass."""
        return self.races.num_sites
