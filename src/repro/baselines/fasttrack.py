"""FastTrack: a pure happens-before oracle over the same HB engine.

Barracuda's blind spots are *tool* policies, not happens-before limits:
it ignores ``syncwarp`` (pre-Volta lockstep assumption), declares all
same-warp accesses ordered, aborts on block-scope atomics, reserves half
of device memory, and gives up past an event budget.  This backend is
the same :class:`repro.core.engine.HBCore` state machine with every one
of those policies removed — an idealized FastTrack (PLDI'09) detector
with ITS awareness — useful as a cross-check oracle against iGUARD's
metadata-based checks and as the fifth backend of the sharded suite:

- ``syncwarp`` joins the warp's vector clocks (ITS-aware), so
  intra-warp races missing a warp barrier are visible;
- no lockstep assumption: same-warp accesses race unless ordered;
- block-scope atomics synchronize through per-block location clocks
  instead of aborting;
- no memory reservation, no event budget, and no cost model beyond a
  uniform per-event charge (it is an oracle, not a performance claim).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.engine import HBCore, HBSyncState
from repro.core.report import RaceLog
from repro.errors import ConfigError
from repro.gpu.events import AccessKind, MemoryEvent, SyncEvent
from repro.instrument.nvbit import LaunchInfo, Tool
from repro.instrument.timing import Category


class FastTrack(Tool):
    """An idealized ITS-aware FastTrack detector (oracle, no cost model)."""

    name = "FastTrack"
    #: Uniform per-event detection charge: enough to make timing totals
    #: well-formed, deliberately not calibrated against any real tool.
    CHECK_COST = 1.0

    def __init__(self, shards: Optional[int] = None):
        if shards is None:
            from repro.core.sharding import default_shards

            shards = default_shards()
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.device = None
        self.races = RaceLog(capacity=16_384)
        self.sync = HBSyncState()
        self.cores: List[HBCore] = [
            HBCore(
                its=True,
                same_warp_ordered=False,
                sync=self.sync,
                shard_id=i,
            )
            for i in range(shards)
        ]
        for core in self.cores:
            core.report_sink = self._report_sink

    def _report_sink(self, record) -> bool:
        return self.races.report(record)

    def _shard_of(self, address: int) -> int:
        if self.shards == 1:
            return 0
        from repro.core.sharding import shard_of

        return shard_of(address, self.shards)

    # ------------------------------------------------------------------

    def attach(self, device) -> None:
        self.device = device

    def on_launch_begin(self, launch: LaunchInfo) -> None:
        self.sync = HBSyncState()
        for core in self.cores:
            core.rebind_sync(self.sync)
            core.begin_launch(launch)

    def on_launch_end(self, launch: LaunchInfo) -> None:
        for core in self.cores:
            core.finish_launch(launch)
        self.races.flush()

    def on_timeout(self, launch: LaunchInfo) -> None:
        self.on_launch_end(launch)

    # ------------------------------------------------------------------

    def on_sync(self, event: SyncEvent, launch: LaunchInfo) -> None:
        launch.timing.charge(Category.DETECTION, self.CHECK_COST)
        self._sync_barrier()
        self.cores[0].apply_sync(event, launch)

    def on_memory(self, event: MemoryEvent, launch: LaunchInfo) -> None:
        launch.timing.charge(Category.DETECTION, self.CHECK_COST)
        if event.kind is AccessKind.ATOMIC:
            self._sync_barrier()
            self.cores[0].atomic_sync(event)
            return
        self._dispatch(self._shard_of(event.address), event, launch)

    def _dispatch(self, shard: int, event: MemoryEvent, launch: LaunchInfo) -> None:
        """Run the routed check now.  Batched drivers override to queue."""
        self.cores[shard].handle(event, event.address, launch)

    def _sync_barrier(self) -> None:
        """Quiesce shard queues before a sync-state mutation (see IGuard)."""

    # ------------------------------------------------------------------

    @property
    def race_count(self) -> int:
        """Unique racy sites detected."""
        return self.races.num_sites
