"""FastTrack: a pure happens-before oracle over the same HB engine.

Barracuda's blind spots are *tool* policies, not happens-before limits:
it ignores ``syncwarp`` (pre-Volta lockstep assumption), declares all
same-warp accesses ordered, aborts on block-scope atomics, reserves half
of device memory, and gives up past an event budget.  This backend is
the same :class:`repro.core.engine.HBCore` state machine with every one
of those policies removed — an idealized FastTrack (PLDI'09) detector
with ITS awareness — useful as a cross-check oracle against iGUARD's
metadata-based checks and as the fifth backend of the suite:

- ``syncwarp`` joins the warp's vector clocks (ITS-aware), so
  intra-warp races missing a warp barrier are visible;
- no lockstep assumption: same-warp accesses race unless ordered;
- block-scope atomics synchronize through per-block location clocks
  instead of aborting;
- no memory reservation, no event budget, and no cost model beyond a
  uniform per-event charge (it is an oracle, not a performance claim).
"""

from __future__ import annotations

from repro.core.engine import HBCore
from repro.gpu.events import AccessKind, MemoryEvent, SyncEvent
from repro.instrument.nvbit import LaunchInfo, Tool
from repro.instrument.timing import Category


class FastTrack(Tool):
    """An idealized ITS-aware FastTrack detector (oracle, no cost model)."""

    name = "FastTrack"
    #: Uniform per-event detection charge: enough to make timing totals
    #: well-formed, deliberately not calibrated against any real tool.
    CHECK_COST = 1.0

    def __init__(self):
        self.core = HBCore(its=True, same_warp_ordered=False)
        self.races = self.core.races

    # ------------------------------------------------------------------

    def on_launch_begin(self, launch: LaunchInfo) -> None:
        self.core.begin_launch(launch)

    def on_launch_end(self, launch: LaunchInfo) -> None:
        self.core.finish_launch(launch)

    def on_timeout(self, launch: LaunchInfo) -> None:
        self.on_launch_end(launch)

    # ------------------------------------------------------------------

    def on_sync(self, event: SyncEvent, launch: LaunchInfo) -> None:
        launch.timing.charge(Category.DETECTION, self.CHECK_COST)
        self.core.apply_sync(event, launch)

    def on_memory(self, event: MemoryEvent, launch: LaunchInfo) -> None:
        launch.timing.charge(Category.DETECTION, self.CHECK_COST)
        if event.kind is AccessKind.ATOMIC:
            self.core.atomic_sync(event)
            return
        self.core.handle(event, event.address, launch)

    # ------------------------------------------------------------------

    @property
    def race_count(self) -> int:
        """Unique racy sites detected."""
        return self.races.num_sites
