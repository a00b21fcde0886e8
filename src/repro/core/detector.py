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
and the Tool lifecycle.  The adapter drives exactly one core, which owns
the synchronization state as well as the metadata.

The front end is one loop, :meth:`IGuard.feed`, whichever way the events
arrive.  Live runs append each record to a pending list
(``on_memory``/``on_sync``) and feed it every :data:`PENDING_RECORDS`
records and at launch end; replays (:func:`repro.engine.replay.replay`)
feed the recorded stream in slices of the same size, and columnar
replays (:func:`repro.core.sharding.replay_columnar_sharded`) feed each
decoded chunk with its vectorized granules.  Inside one ``feed`` call
the checks queue up and run as one
:meth:`~repro.core.engine.DetectorCore.drain_batch` at the next
synchronization mutation (barrier, fence, CAS/EXCH lock inference,
launch boundary) and at the end of the call.  Between two such mutations
each check depends only on its own granule's metadata plus the frozen
synchronization state, so this is order-equivalent to checking every
access on arrival: race records reach the log in stream order, and the
queue never outlives one pending batch or one chunk.

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

from typing import List, Optional

# Re-exported for compatibility: these historically lived here and are
# imported by the baselines and experiment harnesses.
from repro.core.engine import DetectorCosts, IGuardCore, LaunchStats
from repro.core.config import DEFAULT_CONFIG, IGuardConfig
from repro.core.contention import ContentionModel, ContentionParams
from repro.core.uvm import ManagedMetadataSpace, UVMParams
from repro.common.budget import mem_budget
from repro.engine.replay import PENDING_RECORDS, replay_boundary
from repro.faults.quarantine import poison as _poison
from repro.gpu.events import AccessKind, MemoryEvent, SyncEvent
from repro.gpu.instructions import AtomicOp
from repro.instrument.nvbit import LaunchInfo, Tool
from repro.instrument.timing import Category
from repro.obs.metrics import HOT

__all__ = ["DetectorCosts", "LaunchStats", "IGuard", "PENDING_RECORDS"]


class _Front:
    """One launch's front-end state, kept on the detector between feeds.

    ``launch`` is None outside a launch; a memory record arriving then
    finds no contention model to call and is quarantined as poison.
    """

    __slots__ = (
        "launch", "stats", "uvm", "contention", "co_batch", "co_granule",
        "checked", "coalesced", "syncs", "faults", "stalls", "stall_cycles",
        "serial_cycles", "folded_checked", "folded_passed",
    )

    def __init__(self, launch=None, stats=None, uvm=None, contention=None):
        self.launch = launch
        self.stats = stats
        #: The launch's managed metadata space; with ``use_uvm`` each
        #: check walks its residency.
        self.uvm = uvm
        self.contention = contention
        #: Coalescing key ``(batch, granule)`` of the last load/atomic.
        self.co_batch = self.co_granule = None
        #: The ``stats`` check counts already folded into ``HOT``.
        self.folded_checked = self.folded_passed = 0
        self.clear_counts()

    def clear_counts(self) -> None:
        """Zero the per-event tallies :meth:`IGuard._close` folds."""
        self.checked = self.coalesced = self.syncs = 0
        self.faults = self.stalls = 0
        self.stall_cycles = 0.0
        #: UVM fault and contention stall cycles, one running sum in
        #: event order: the serial DETECTION account.
        self.serial_cycles = 0.0


class IGuard(Tool):
    """iGUARD attached to a simulated device.

    Typical use::

        device = Device()
        detector = device.add_tool(IGuard())
        ... allocate, launch kernels ...
        for race in detector.races.sites():
            print(race)
    """

    name = "iGUARD"

    def __init__(
        self,
        config: IGuardConfig = DEFAULT_CONFIG,
        costs: Optional[DetectorCosts] = None,
        contention_params: Optional[ContentionParams] = None,
        uvm_params: Optional[UVMParams] = None,
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
        self.core = IGuardCore(config, self.costs)
        self.core.report_sink = self._report_sink
        # IGUARD_MEM_BUDGET: bound metadata growth by FIFO-evicting the
        # table.  Same degradation contract as metadata_max_entries —
        # bounded recall loss, never a false positive — but set by the
        # operator as a memory ceiling rather than in the config.
        budget = mem_budget()
        if budget is not None and config.metadata_max_entries is None:
            self.core.table.max_entries = max(
                1, budget // config.metadata_entry_bytes
            )
        self._stats: List[LaunchStats] = []
        self._pending: list = []
        self._front = _Front()
        #: Always ``[0]``: kept because the benchmark under
        #: ``benchmarks/`` reads it.
        self.shard_routed_total: List[int] = [0]

    # ------------------------------------------------------------------
    # Delegation: the detection state lives on the core
    # ------------------------------------------------------------------

    @property
    def races(self):
        """The core's race log, with every pending record checked."""
        self._settle()
        return self.core.races

    @property
    def stats(self) -> List[LaunchStats]:
        """Per-launch statistics, with every pending record counted."""
        self._settle()
        return self._stats

    @property
    def table(self):
        """The core's metadata table."""
        return self.core.table

    @property
    def probe(self):
        """Forensic probe, forwarded to the core."""
        return self.core.probe

    @probe.setter
    def probe(self, probe) -> None:
        self.core.probe = probe

    def _report_sink(self, record) -> bool:
        """Report into the race log, counting new sites per launch."""
        if self.core.races.report(record):
            stats = self._front.stats
            if stats is not None:
                stats.races_reported += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Tool lifecycle
    # ------------------------------------------------------------------

    def on_launch_begin(self, launch: LaunchInfo) -> None:
        # A launch the stream truncated (a deadlocked kernel) never
        # ended: check and count what it left first, as it ran.
        self._settle()
        stats = LaunchStats(kernel=launch.kernel_name)
        self._stats.append(stats)
        # The core starts the kernel with fresh synchronization metadata
        # (and, by default, fresh memory metadata).
        self.core.begin_launch(launch)

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
        uvm = ManagedMetadataSpace(
            metadata_virtual_bytes=metadata_needed,
            device_free_bytes=max(0, memory.capacity_bytes - app_bytes),
            prefault=self.config.prefault and self.config.use_uvm,
            params=self.uvm_params,
        )
        stats.uvm_prefaulted_pages = uvm.prefaulted_pages
        launch.timing.charge(
            Category.SETUP,
            self.costs.setup_fixed + uvm.setup_cycles,
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
        contention = ContentionModel(
            num_threads=launch.num_threads,
            concurrent_warps=concurrent_warps,
            dynamic_backoff=self.config.dynamic_backoff,
            params=self.contention_params,
        )
        self._front = _Front(launch, stats, uvm, contention)

    def on_launch_end(self, launch: LaunchInfo) -> None:
        self._finish(launch)

    def on_timeout(self, launch: LaunchInfo) -> None:
        # The paper's timeout path: flush detected races to the CPU, then
        # terminate the kernel.
        self._finish(launch)

    def _finish(self, launch: LaunchInfo) -> None:
        self._settle()
        front = self._front
        self.core.finish_launch(launch)
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
        if front.stats is not None:
            front.stats.contention_cycles = front.contention.serialized_cycles
            front.stats.uvm_faults = front.uvm.faults
            front.stats.metadata_entries = len(self.core.table)
        self._front = _Front()

    # ------------------------------------------------------------------
    # Memory and synchronization operations
    # ------------------------------------------------------------------

    def on_memory(self, event: MemoryEvent, launch: LaunchInfo) -> None:
        """Hold the record for the front-end loop (see :meth:`feed`)."""
        pending = self._pending
        pending.append(event)
        if len(pending) >= PENDING_RECORDS:
            self._feed_pending()

    on_sync = on_memory

    def _feed_pending(self) -> None:
        pending, self._pending = self._pending, []
        self.feed(pending)

    def _settle(self) -> None:
        """Feed the pending records, then fold the open launch's tallies."""
        if self._pending:
            self._feed_pending()
        self._close()

    def _close(self) -> None:
        """Fold the open launch's tallies into stats, timing and HOT.

        The fixed per-event costs are charged in bulk: every shipped cost
        model uses integers or halves, whose multiples and sums are exact,
        so a bulk product equals the per-event running sum bit for bit.
        UVM faults and contention stalls vary per event and arrive as one
        running sum in event order.  Called at launch end, before the
        next launch, and whenever the report is read.
        """
        front = self._front
        launch = front.launch
        if launch is None:
            return
        costs = self.costs
        timing = launch.timing
        checked, coalesced, syncs = front.checked, front.coalesced, front.syncs
        if checked or coalesced or syncs:
            timing.charge(
                Category.INSTRUMENTATION,
                costs.instrument_per_event * (checked + coalesced + syncs),
            )
        if checked:
            timing.charge(Category.DETECTION, costs.check_per_access * checked)
        if coalesced:
            timing.charge(Category.DETECTION, costs.coalesced_skip * coalesced)
            front.stats.accesses_coalesced += coalesced
        if syncs:
            timing.charge(Category.DETECTION, costs.sync_per_event * syncs)
        if front.serial_cycles:
            timing.charge(Category.DETECTION, front.serial_cycles, serial=True)
        if HOT.enabled:
            # The check core counts checks in the launch's stats only;
            # the registry gets what is new since the last fold.
            stats = front.stats
            checked_total = stats.accesses_checked
            passed_total = sum(stats.preliminary_pass.values())
            new_checked = checked_total - front.folded_checked
            new_passed = passed_total - front.folded_passed
            if new_checked:
                HOT.detector_checked.inc(new_checked)
                HOT.detector_prelim_pass.inc(new_passed)
                HOT.detector_race_tier.inc(new_checked - new_passed)
            front.folded_checked = checked_total
            front.folded_passed = passed_total
            if coalesced:
                HOT.detector_coalesced.inc(coalesced)
            if front.faults:
                HOT.detector_uvm_faults.inc(front.faults)
            if front.stalls:
                HOT.contention_stalls.inc(front.stalls)
                HOT.contention_cycles.inc(front.stall_cycles)
        front.clear_counts()

    def _drain(self, queue: list) -> None:
        """Run the queued checks, in order, before a sync-state mutation."""
        if queue:
            front = self._front
            self.core.drain_batch(queue, front.launch, front.stats)
            queue.clear()

    def feed(self, events, granules=None) -> None:
        """Run the front end over one slice of the event stream, in order.

        ``events`` is any iterable of stream records: the pending list
        of a live run, or a replayed slice or chunk whose launch
        boundaries, allocations and native cycles arrive as records too
        and go to :func:`repro.engine.replay.replay_boundary` (GPU
        config headers and run markers carry no detector work).  ``granules``
        optionally supplies the precomputed granule of each memory record
        in order (a columnar chunk shifts its whole address column at
        once).

        Per record, in stream order: lock inference for atomics (a
        CAS/EXCH first drains the queue, since it mutates the lock
        tables), coalescing, the UVM residency walk, the contention
        model, then the check joins the queue.  Per-launch state lives on
        the detector, so a launch may span any number of calls; the
        queue does not — every call ends with it drained.  A record that
        raises is quarantined (:mod:`repro.faults.quarantine`) and the
        loop goes on.
        """
        core = self.core
        config = self.config
        queue: list = []
        enqueue = queue.append
        drain = self._drain
        infer_locks = core.infer_locks
        apply_sync = core.apply_sync
        granule_of = core.table.granule_of
        entry_bytes = config.metadata_entry_bytes
        coalescing = config.coalescing
        use_uvm = config.use_uvm
        # Loop-invariant bindings: every global the per-record hot path
        # touches is a local.
        mem_cls, sync_cls = MemoryEvent, SyncEvent
        atomic_kind, load_kind = AccessKind.ATOMIC, AccessKind.LOAD
        cas_op, exch_op = AtomicOp.CAS, AtomicOp.EXCH
        granule_next = granules.__next__ if granules is not None else None

        records = iter(events)
        while True:
            # The open launch's state in from the detector.
            front = self._front
            launch = front.launch
            uvm_access = (
                front.uvm.access if use_uvm and front.uvm is not None else None
            )
            contention_access = (
                front.contention.on_metadata_access
                if front.contention is not None
                else None
            )
            co_batch, co_granule = front.co_batch, front.co_granule
            checked, coalesced, syncs = (
                front.checked, front.coalesced, front.syncs
            )
            faults, stalls = front.faults, front.stalls
            stall_cycles, serial_cycles = (
                front.stall_cycles, front.serial_cycles
            )
            boundary = None
            for event in records:
              kind = type(event)
              try:
                if kind is mem_cls:
                    # The precomputed granule is consumed first: a poison
                    # record raising below must not desynchronize the
                    # granule iterator from the remaining memory records.
                    if granule_next is not None:
                        granule = granule_next()
                    else:
                        granule = granule_of(event.address)
                    access = event.kind
                    # Lock inference precedes race checking (Figure 6's
                    # orange boxes).
                    if access is atomic_kind:
                        if event.atomic_op is cas_op or event.atomic_op is exch_op:
                            drain(queue)
                        infer_locks(event)
                    # Opportunistic coalescing (section 6.5): active
                    # threads of one warp loading (or atomically
                    # updating) the same location cannot race with each
                    # other, so one representative checks for the group.
                    # The key is the granule: the real warp match runs on
                    # the *metadata* address.
                    if coalescing and (access is load_kind or access is atomic_kind):
                        batch = event.batch
                        if batch == co_batch and granule == co_granule:
                            coalesced += 1
                            continue
                        co_batch, co_granule = batch, granule
                    else:
                        co_batch = None
                    # Metadata residency (UVM) and entry-lock contention,
                    # both serial.
                    if uvm_access is not None:
                        fault = uvm_access(granule * entry_bytes)
                        if fault:
                            serial_cycles += fault
                            faults += 1
                    stall = contention_access(
                        granule, event.batch, event.where.warp_id
                    )
                    if stall:
                        serial_cycles += stall
                        stall_cycles += stall
                        stalls += 1
                    checked += 1
                    enqueue((event, granule))
                elif kind is sync_cls:
                    drain(queue)
                    apply_sync(event, launch)
                    syncs += 1
                else:
                    boundary = event
                    break
              except Exception as exc:
                _poison(event, exc, "drain")
            drain(queue)
            # ... and back out.
            front.co_batch, front.co_granule = co_batch, co_granule
            front.checked, front.coalesced, front.syncs = (
                checked, coalesced, syncs
            )
            front.faults, front.stalls = faults, stalls
            front.stall_cycles, front.serial_cycles = (
                stall_cycles, serial_cycles
            )
            if boundary is None:
                return
            try:
                replay_boundary(self, boundary)
            except Exception as exc:
                _poison(boundary, exc, "drain")

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
