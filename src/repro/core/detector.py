"""The iGUARD detector: an instrumentation tool running "on the GPU".

This is the paper's contribution assembled: on every load/store/atomic the
detector reads the access's metadata entry, updates the sharing flags, runs
the two-tier Table 2 checks, and writes the access back into the metadata;
on every synchronization operation it updates the live counters and the
lock tables.  Everything happens inline with (simulated) kernel execution
— there is no CPU-side pass — so detection work is charged as *parallel*
cycles, and only genuine metadata-lock contention is serialized.

Since the engine extraction, this class is a thin **adapter**: the Table 2
state machine itself lives in :class:`repro.core.engine.IGuardCore`, and
``IGuard`` keeps only what is *not* detection state — cycle charging, UVM
residency, metadata-lock contention, coalescing, per-launch statistics,
and the Tool lifecycle.  The adapter drives one core per shard
(``shards=1`` by default): memory events route to the shard owning their
granule, synchronization events and lock-inferring atomics apply once to
the shared synchronization state every core reads.  Because the adapter
feeds shards inline, in serial event order, a sharded run is byte-for-byte
identical to a serial one — races, types, stats, and cycle breakdowns —
for any shard count (see :mod:`repro.core.sharding` for the router and
the batched/process-pool drivers built on the same cores).

Performance features from the paper, all modeled:

- NVBit-style one-time binary analysis cost per kernel (Figure 13 "NVBit");
- metadata pre-faulting through UVM (Figure 14, "Setup" in Figure 13);
- opportunistic coalescing of same-warp, same-address loads/atomics —
  one representative thread checks on behalf of the converged group;
- dynamic exponential backoff on the per-entry metadata locks.

Every access that coalescing does not skip runs the full Table 2 check,
as in the paper: the reproduction adds no check elision and no static
pruning of its own.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

# Re-exported for compatibility: these historically lived here and are
# imported by the baselines and experiment harnesses.
from repro.core.engine import DetectorCosts, IGuardCore, LaunchStats
from repro.core.config import DEFAULT_CONFIG, IGuardConfig
from repro.core.contention import ContentionModel, ContentionParams
from repro.core.report import RaceLog
from repro.core.syncstate import SyncMetadata
from repro.core.uvm import ManagedMetadataSpace, UVMParams
from repro.common.budget import mem_budget
from repro.errors import ConfigError
from repro.gpu.events import AccessKind, MemoryEvent, SyncEvent
from repro.gpu.instructions import AtomicOp
from repro.instrument.nvbit import LaunchInfo, Tool
from repro.instrument.timing import Category
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import HOT

__all__ = ["DetectorCosts", "LaunchStats", "IGuard"]


class IGuard(Tool):
    """iGUARD attached to a simulated device.

    Typical use::

        device = Device()
        detector = device.add_tool(IGuard())
        ... allocate, launch kernels ...
        for race in detector.races.sites():
            print(race)

    ``shards`` splits the per-granule detection state across N
    :class:`~repro.core.engine.IGuardCore` instances sharing one
    synchronization state; results are identical for every value.  The
    default consults :func:`repro.core.sharding.default_shards` (the
    ``IGUARD_SHARDS`` environment variable, else 1).
    """

    name = "iGUARD"

    def __init__(
        self,
        config: IGuardConfig = DEFAULT_CONFIG,
        costs: Optional[DetectorCosts] = None,
        contention_params: Optional[ContentionParams] = None,
        uvm_params: Optional[UVMParams] = None,
        shards: Optional[int] = None,
    ):
        # Per-instance factories, not def-time defaults: a default built
        # at function definition would be one shared instance across every
        # detector ever constructed.
        self.config = config
        self.costs = costs if costs is not None else DetectorCosts()
        self.contention_params = (
            contention_params
            if contention_params is not None
            else ContentionParams()
        )
        self.uvm_params = uvm_params if uvm_params is not None else UVMParams()
        if shards is None:
            from repro.core.sharding import default_shards

            shards = default_shards()
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        if shards > 1 and config.metadata_max_entries is not None:
            raise ConfigError(
                "sharding partitions the metadata table; a global "
                "metadata_max_entries eviction cap cannot be enforced "
                "coherently across shards (use shards=1)"
            )
        self.shards = shards
        self.device = None
        self.races = RaceLog(capacity=config.race_buffer_capacity)
        self.sync = SyncMetadata(config.lock_table_entries)
        self.cores: List[IGuardCore] = [
            IGuardCore(config, self.costs, sync=self.sync, shard_id=i)
            for i in range(shards)
        ]
        for core in self.cores:
            core.report_sink = self._report_sink
        # IGUARD_MEM_BUDGET: bound total metadata growth by FIFO-evicting
        # tables, the budget split evenly across shards.  Same degradation
        # contract as metadata_max_entries — bounded recall loss, never a
        # false positive — but unlike the config knob it composes with
        # sharding: the operator asked for a memory ceiling, accepting
        # that per-shard eviction order may hide different races than a
        # serial run's would.
        budget = mem_budget()
        if budget is not None and config.metadata_max_entries is None:
            per_core = max(
                1, budget // config.metadata_entry_bytes // shards
            )
            for core in self.cores:
                core.table.max_entries = per_core
        self.stats: List[LaunchStats] = []
        self._launch: Optional[LaunchInfo] = None
        self._contention: Optional[ContentionModel] = None
        self._uvm: Optional[ManagedMetadataSpace] = None
        self._current: Optional[LaunchStats] = None
        self._coalesce_key: Optional[Tuple[int, int]] = None
        self._probe = None
        #: Per-shard routed-event counts for the current launch (HOT
        #: imbalance accounting; reset each launch).
        self._shard_routed: List[int] = [0] * shards
        #: Per-shard routed-event totals across the tool's whole life —
        #: the benchmark under ``benchmarks/`` reads this directly, so it
        #: accumulates whether or not the HOT recorder is on.
        self.shard_routed_total: List[int] = [0] * shards

    # ------------------------------------------------------------------
    # Delegation: the detection state lives on the cores
    # ------------------------------------------------------------------

    @property
    def table(self):
        """The metadata table (of shard 0 when sharded)."""
        return self.cores[0].table

    @property
    def probe(self):
        """Forensic probe, forwarded to every core."""
        return self._probe

    @probe.setter
    def probe(self, probe) -> None:
        self._probe = probe
        for core in self.cores:
            core.probe = probe

    def _report_sink(self, record, md) -> bool:
        """Shared race log across all shards, preserving serial order.

        Cores run inline in event order, so records arrive here exactly
        when serial detection would have produced them.
        """
        if self.races.report(record):
            if self._current is not None:
                self._current.races_reported += 1
            return True
        return False

    def _shard_of(self, granule: int) -> int:
        if self.shards == 1:
            return 0
        from repro.core.sharding import shard_of

        return shard_of(granule, self.shards)

    # ------------------------------------------------------------------
    # Tool lifecycle
    # ------------------------------------------------------------------

    def attach(self, device) -> None:
        self.device = device

    def on_launch_begin(self, launch: LaunchInfo) -> None:
        self._launch = launch
        self._coalesce_key = None
        self._current = LaunchStats(kernel=launch.kernel_name)
        self.stats.append(self._current)
        self._shard_routed = [0] * self.shards

        # Fresh synchronization metadata per kernel: counters describe the
        # *running* kernel's threads.  The adapter owns the (shared) sync
        # state; every core is rebound to the new instance.  Memory
        # metadata resets inside each core — the implicit barrier at kernel
        # completion orders everything, so stale entries could only cause
        # false positives.
        self.sync = SyncMetadata(self.config.lock_table_entries)
        for core in self.cores:
            core.rebind_sync(self.sync)
            core.begin_launch(launch)

        # NVBit binary analysis and injection (the duration-proportional
        # share is charged at launch end, once native time is known).
        launch.timing.charge(
            Category.NVBIT,
            self.costs.nvbit_fixed
            + self.costs.nvbit_per_instruction * launch.static_instruction_count,
            serial=True,
        )

        # Metadata allocation: managed (UVM) or nothing to pre-fault.
        memory = launch.device.memory
        app_bytes = memory.bytes_allocated
        metadata_needed = app_bytes * 4  # 16 bytes per 4-byte granule
        self._uvm = ManagedMetadataSpace(
            metadata_virtual_bytes=metadata_needed,
            device_free_bytes=max(0, memory.capacity_bytes - app_bytes),
            prefault=self.config.prefault and self.config.use_uvm,
            params=self.uvm_params,
        )
        self._current.uvm_prefaulted_pages = self._uvm.prefaulted_pages
        launch.timing.charge(
            Category.SETUP,
            self.costs.setup_fixed + self._uvm.setup_cycles,
            serial=True,
        )
        launch.timing.charge(Category.MISC, self.costs.misc_fixed, serial=True)

        # Contention accounting for this launch.
        concurrent_warps = max(
            1,
            min(
                launch.num_warps,
                launch.device.config.max_concurrent_lanes // launch.warp_size,
            ),
        )
        self._contention = ContentionModel(
            num_threads=launch.num_threads,
            concurrent_warps=concurrent_warps,
            dynamic_backoff=self.config.dynamic_backoff,
            params=self.contention_params,
        )

    def on_launch_end(self, launch: LaunchInfo) -> None:
        self._finish(launch)

    def on_timeout(self, launch: LaunchInfo) -> None:
        # The paper's timeout path: flush detected races to the CPU, then
        # terminate the kernel.
        self._finish(launch)

    def _finish(self, launch: LaunchInfo) -> None:
        for core in self.cores:
            core.finish_launch(launch)
        self.races.flush()
        # Duration-proportional host-side shares (see DetectorCosts).
        native = launch.timing.native_time
        launch.timing.charge(
            Category.NVBIT, self.costs.nvbit_fraction * native, serial=True
        )
        launch.timing.charge(
            Category.SETUP, self.costs.setup_fraction * native, serial=True
        )
        launch.timing.charge(
            Category.MISC, self.costs.misc_fraction * native, serial=True
        )
        if self._current is not None:
            self._current.contention_cycles = (
                self._contention.serialized_cycles if self._contention else 0.0
            )
            self._current.uvm_faults = self._uvm.faults if self._uvm else 0
            self._current.metadata_entries = sum(
                len(core.table) for core in self.cores
            )
        if self.shards > 1:
            routed = self._shard_routed
            for shard, count in enumerate(routed):
                self.shard_routed_total[shard] += count
            if HOT.enabled:
                total = sum(routed)
                registry = obs_metrics.get_registry()
                for shard, depth in enumerate(routed):
                    HOT.shard_queue_depth.observe(depth)
                    if depth:
                        # Per-shard labelled series for the telemetry
                        # pipeline (iguard_shard_events_total{shard="i"}
                        # after OpenMetrics label folding).
                        registry.counter(f"shard.{shard}.events").inc(depth)
                if total:
                    # Imbalance: the hottest shard's load relative to
                    # perfect balance (1.0 = perfectly even).
                    HOT.shard_imbalance.set(
                        max(routed) * self.shards / total
                    )

    # ------------------------------------------------------------------
    # Synchronization operations
    # ------------------------------------------------------------------

    def on_sync(self, event: SyncEvent, launch: LaunchInfo) -> None:
        launch.timing.charge(
            Category.INSTRUMENTATION, self.costs.instrument_per_event
        )
        launch.timing.charge(Category.DETECTION, self.costs.sync_per_event)
        self._sync_barrier()
        # One application mutates the shared sync state every core reads.
        if HOT.enabled and self.shards > 1:
            HOT.shard_broadcast.inc()
        self.cores[0].apply_sync(event, launch)

    # ------------------------------------------------------------------
    # Memory operations
    # ------------------------------------------------------------------

    def on_memory(self, event: MemoryEvent, launch: LaunchInfo) -> None:
        launch.timing.charge(
            Category.INSTRUMENTATION, self.costs.instrument_per_event
        )

        # Lock inference precedes race checking (Figure 6's orange boxes).
        # CAS/EXCH mutate the shared lock tables, so in batched modes all
        # shard queues must drain first.
        if event.kind is AccessKind.ATOMIC:
            if event.atomic_op in (AtomicOp.CAS, AtomicOp.EXCH):
                self._sync_barrier()
                if HOT.enabled and self.shards > 1:
                    HOT.shard_broadcast.inc()
            self.cores[0].infer_locks(event)

        # Opportunistic coalescing: active threads of one warp loading (or
        # atomically updating) the same location cannot race with each
        # other, so a single representative performs the metadata access
        # on behalf of the converged group (section 6.5).  The key is the
        # granule index: the real implementation's warp match runs on the
        # *metadata* address, so converged lanes touching different bytes
        # of one granule coalesce into a single check of that granule's
        # entry.
        granule = self.cores[0].table.granule_of(event.address)
        if self.config.coalescing and event.kind in (
            AccessKind.LOAD,
            AccessKind.ATOMIC,
        ):
            key = (event.batch, granule)
            if key == self._coalesce_key:
                self._current.accesses_coalesced += 1
                if HOT.enabled:
                    HOT.detector_coalesced.inc()
                launch.timing.charge(
                    Category.DETECTION, self.costs.coalesced_skip
                )
                return
            self._coalesce_key = key
        else:
            self._coalesce_key = None

        # Metadata residency (UVM) and entry-lock contention, both serial.
        if self.config.use_uvm and self._uvm is not None:
            fault_cost = self._uvm.access(
                granule * self.config.metadata_entry_bytes
            )
            if fault_cost:
                if HOT.enabled:
                    HOT.detector_uvm_faults.inc()
                launch.timing.charge(
                    Category.DETECTION, fault_cost, serial=True
                )
        if self._contention is not None:
            stall = self._contention.on_metadata_access(
                granule, event.batch, event.where.warp_id
            )
            if stall:
                if HOT.enabled:
                    HOT.contention_stalls.inc()
                    HOT.contention_cycles.inc(stall)
                launch.timing.charge(Category.DETECTION, stall, serial=True)
        launch.timing.charge(Category.DETECTION, self.costs.check_per_access)

        shard = self._shard_of(granule)
        self._shard_routed[shard] += 1
        if HOT.enabled and self.shards > 1:
            HOT.shard_routed.inc()
        self._dispatch(shard, event, granule, launch)

    def _dispatch(
        self, shard: int, event: MemoryEvent, granule: int, launch: LaunchInfo
    ) -> None:
        """Run the routed check now.  Batched drivers override to queue.

        Dispatching through :meth:`DetectorCore.handle` quarantines a
        poison event (one whose check raises) instead of aborting — the
        same absorption the batched drains apply, so all modes stay
        byte-identical on every non-quarantined record.
        """
        self.cores[shard].handle(event, granule, launch, self._current)

    def _sync_barrier(self) -> None:
        """Quiesce shard queues before a sync-state mutation.

        The inline adapter checks every event immediately, so there is
        nothing to drain; batched drivers (:mod:`repro.core.sharding`)
        override this to flush their per-shard run queues.
        """

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------

    @property
    def race_count(self) -> int:
        """Number of unique racy sites detected so far."""
        return self.races.num_sites

    def race_types(self):
        """The set of race types detected so far."""
        return self.races.types()

    def summary(self) -> str:
        """Multi-line human-readable report of all detected races."""
        lines = [f"iGUARD: {self.race_count} race site(s) detected"]
        for ip, race_type in self.races.sites():
            lines.append(f"  [{race_type}] at {ip}")
        return "\n".join(lines)
