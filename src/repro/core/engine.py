"""Backend-agnostic detection cores: the check engines behind the tools.

Historically each detector was one monolithic ``Tool``: the iGUARD
instrumentation callbacks and the Table 2 check state machine lived in a
single class, and every baseline re-implemented its own lifecycle and
report plumbing.  This module decouples the two layers:

- a :class:`DetectorCore` is a *pure* check engine.  It consumes typed
  events and owns exactly the detection state — metadata words, lock
  tables, vector clocks, synchronization counters — and produces race
  records.  It charges no overhead cycles, enforces no tool-specific
  limits, and never touches a device; those concerns stay in the ``Tool``
  adapters (:class:`repro.core.detector.IGuard`,
  :class:`repro.baselines.barracuda.Barracuda`, ...), each of which feeds
  exactly one core from the instrumentation callbacks.
- the shared plumbing every backend needs — launch lifecycle, the race
  log, report emission, and the batched ``check_run``/``drain_batch``
  entry points iGUARD's front-end loop (:meth:`IGuard.feed
  <repro.core.detector.IGuard.feed>`) calls —
  lives once in the :class:`DetectorCore` base.

Two core families are provided:

- :class:`IGuardCore` — the paper's Table 2 two-tier state machine
  (metadata entries, lock inference, scoped checks).  Every access that
  coalescing does not skip runs the full check through one path,
  :meth:`IGuardCore.check_memory`, in one pass over plain ints: read the
  entry's two 64-bit words, update the sharing flags with masks, run
  P1-P6 (and R1-R5 only when they all fail) from
  :mod:`repro.core.checks` on the words and the live counters, and write
  both words back with the compiled setters.  ``IGuard`` and ``ScoRD``
  ride it.
- :class:`HBCore` — the FastTrack-style happens-before engine (per-thread
  vector clocks, per-address access histories, release/acquire through
  atomic locations).  ``Barracuda``, ``CURD`` and the pure
  ``FastTrack`` oracle ride it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.baselines.vectorclock import AccessHistory, VectorClock
from repro.core.checks import md_word, preliminary_checks, race_checks
from repro.core.config import IGuardConfig
from repro.core.metadata import (
    ATOMIC,
    BLK_SHARED,
    DECODE_MD,
    DEV_SHARED,
    GET_WARP_ID,
    MODIFIED,
    SCOPE,
    SET_ACCESSOR,
    SET_WRITER,
    VALID,
    MetadataTable,
)
from repro.core.report import RaceLog, RaceRecord, RaceType
from repro.core.syncstate import SyncMetadata
from repro.faults.quarantine import poison as _poison
from repro.gpu.events import AccessKind, MemoryEvent, SyncEvent, SyncKind
from repro.gpu.instructions import AtomicOp, Scope, scope_covers
from repro.instrument.timing import Category
from repro.obs.metrics import HOT


@dataclass(frozen=True)
class DetectorCosts:
    """Cycle constants for the detector's own runtime (calibrated)."""

    #: Host-side costs (binary analysis, metadata setup, kernel loading)
    #: are constant per *application* on real hardware, where kernels run
    #: ~10^3x longer than this simulation's.  To keep their share of
    #: total runtime where Figure 13 puts it, they are charged as a
    #: fraction of each launch's native duration plus a small constant.
    nvbit_fixed: float = 20.0
    nvbit_fraction: float = 0.9
    nvbit_per_instruction: float = 0.1
    setup_fixed: float = 8.0
    setup_fraction: float = 0.25
    misc_fixed: float = 5.0
    misc_fraction: float = 0.1
    #: Trampoline cost of one injected instrumentation call.
    instrument_per_event: float = 4.0
    #: Metadata read + two-tier checks + writeback for one access.
    check_per_access: float = 14.0
    #: Handling one synchronization operation.
    sync_per_event: float = 6.0
    #: Cost of a coalesced (skipped) access: the warp intrinsics used to
    #: agree on a representative thread.
    coalesced_skip: float = 1.0


@dataclass
class LaunchStats:
    """Per-launch detector statistics, for tests and experiments."""

    kernel: str = ""
    accesses_checked: int = 0
    accesses_coalesced: int = 0
    #: Always 0: kept because the benchmark under ``benchmarks/`` reads them.
    accesses_elided: int = 0
    accesses_pruned: int = 0
    preliminary_pass: Dict[str, int] = field(default_factory=dict)
    races_reported: int = 0
    contention_cycles: float = 0.0
    uvm_faults: int = 0
    uvm_prefaulted_pages: int = 0
    metadata_entries: int = 0


#: A report sink: receives a race record and returns whether the record's
#: *site* was new.  ``IGuard`` installs one to count reported races in
#: its per-launch statistics.
ReportSink = Callable[[RaceRecord], bool]


class DetectorCore:
    """Base class of the pure check engines.

    Owns the plumbing every backend shares — the race log, the launch
    lifecycle, report emission, and the batched check entry points.
    Subclasses implement the check logic in :meth:`check_memory` and the
    synchronization side in :meth:`apply_sync`; each core owns its own
    synchronization state and resets it at every launch.
    """

    name = "core"

    def __init__(self, capacity: int, max_records: Optional[int] = None):
        self.races = RaceLog(capacity=capacity, max_records=max_records)
        #: Optional replacement for the default report path.
        self.report_sink: Optional[ReportSink] = None

    # -- lifecycle ---------------------------------------------------------

    def begin_launch(self, launch) -> None:  # pragma: no cover - hook
        """A kernel launch starts: reset per-launch state."""

    def finish_launch(self, launch) -> None:
        """A kernel launch ended (or timed out): flush buffered races."""
        self.races.flush()

    # -- event application -------------------------------------------------

    def apply_sync(self, event: SyncEvent, launch) -> None:
        """Apply a synchronization event to the sync state."""
        raise NotImplementedError

    def check_memory(
        self, event: MemoryEvent, key: int, launch, stats=None
    ) -> None:
        """Run full detection for one memory event."""
        raise NotImplementedError

    def handle(self, event, key, launch, stats=None) -> None:
        """:meth:`check_memory` with poison-event quarantine around it.

        The per-event adapters dispatch through this so one raising
        event is absorbed (:mod:`repro.faults.quarantine`) instead of
        aborting the run; iGUARD's batched front end gets the same
        semantics from :meth:`check_run`'s resume path — same counter,
        same skipped check.
        """
        try:
            self.check_memory(event, key, launch, stats)
        except Exception as exc:
            _poison(event, exc, "core")

    def check_run(self, run, launch, stats=None) -> None:
        """Check a queued run of ``(event, key)`` pairs in order."""
        check = self.check_memory
        event = None
        try:
            for event, key in run:
                check(event, key, launch, stats)
        except Exception as exc:
            self._quarantine_resume(run, event, exc, launch, stats)

    def _quarantine_resume(self, run, culprit, exc, launch, stats) -> None:
        """Absorb a poison event mid-drain, then check the rest of the run.

        ``culprit`` is the loop variable at raise time.  The recursion
        depth is bounded by the quarantine's absorption budget —
        :func:`repro.faults.quarantine.poison` re-raises once it is
        spent (and immediately for exempt policy exceptions).
        """
        _poison(culprit, exc, "core")
        for index, pair in enumerate(run):
            if pair[0] is culprit:
                rest = run[index + 1:]
                if rest:
                    self.check_run(list(rest), launch, stats)
                return

    def drain_batch(self, run, launch, stats=None) -> None:
        """Batched entry point for a queue of checks.

        One call per queued run: the adapter-level dispatch is paid once
        per batch and the backend's tightest ``check_run`` loop does the
        rest.  It guards the empty case and delegates.
        """
        if run:
            self.check_run(run, launch, stats)

    # -- report plumbing ---------------------------------------------------

    def emit(self, record: RaceRecord) -> bool:
        """Report a race record; returns whether its site was new."""
        if self.report_sink is not None:
            return self.report_sink(record)
        return self.races.report(record)


# ---------------------------------------------------------------------------
# The iGUARD Table 2 engine
# ---------------------------------------------------------------------------


class IGuardCore(DetectorCore):
    """The paper's check state machine, decoupled from the Tool adapter.

    Owns the per-granule metadata table, the synchronization metadata
    (counters + lock tables), and the section 6.7 accessor-history
    ablation.  The adapter keeps everything that is *not* detection
    state: overhead charging, UVM residency, contention stalls, and
    coalescing (all of which depend on the serial event order, not on
    per-granule state).
    """

    name = "iGUARD"

    def __init__(
        self,
        config: IGuardConfig,
        costs: Optional[DetectorCosts] = None,
    ):
        super().__init__(capacity=config.race_buffer_capacity)
        self.config = config
        self.costs = costs if costs is not None else DetectorCosts()
        self.table = MetadataTable(
            config.granularity_bytes,
            config.metadata_entry_bytes,
            max_entries=config.metadata_max_entries,
        )
        self.sync = SyncMetadata(config.lock_table_entries)
        #: Optional forensic probe (repro.obs.forensics.ForensicProbe).
        self.probe = None
        #: Section 6.7 ablation state: per-granule history of the last N
        #: accessors (beyond the single packed metadata entry).
        self._history: Dict[int, Deque] = {}
        self.table.on_evict = self._forget_granule

    # -- lifecycle ---------------------------------------------------------

    def begin_launch(self, launch) -> None:
        # Fresh synchronization metadata per kernel: counters describe the
        # *running* kernel's threads.  Memory metadata is also reset — the
        # implicit barrier at kernel completion orders everything, so stale
        # entries could only cause false positives.
        self.sync = SyncMetadata(self.config.lock_table_entries)
        if self.config.reset_metadata_per_kernel:
            self.table.clear()
            self._history.clear()

    # -- synchronization ---------------------------------------------------

    def apply_sync(self, event: SyncEvent, launch) -> None:
        where = event.where
        if event.kind is SyncKind.SYNCTHREADS:
            self.sync.on_syncthreads(where.block_id)
        elif event.kind is SyncKind.SYNCWARP:
            self.sync.on_syncwarp(where.warp_id)
        elif event.kind is SyncKind.FENCE:
            thread = where.thread_key
            self.sync.on_fence(thread, event.scope)
            # A fence completes pending lock acquires (activateLocks).
            table = self.sync.lock_table_for(where.warp_id, thread)
            activated = table.activate(event.scope)
            if activated:
                if HOT.enabled:
                    HOT.lock_activations.inc(activated)
                if self.probe is not None:
                    self.probe.on_lock(
                        "fence-activate", event,
                        f"{activated} lock(s), {event.scope.name.lower()} fence",
                    )
        if self.probe is not None:
            self.probe.on_sync(event)

    # -- lock inference ----------------------------------------------------

    def infer_locks(self, event: MemoryEvent) -> None:
        """Lock inference precedes race checking (Figure 6's orange boxes)."""
        where = event.where
        thread = where.thread_key
        if event.atomic_op is AtomicOp.CAS:
            if not self.config.infer_lock_on_failed_cas and not event.cas_succeeded:
                return
            warp_table = self.sync.warp_lock_table(where.warp_id)
            # More than one thread of the warp CASing together means the
            # kernel uses per-thread locks; the isThread bit is sticky.
            if len(event.active_mask) > 1:
                if not warp_table.is_thread and self.probe is not None:
                    self.probe.on_lock(
                        "infer-per-thread", event,
                        f"{len(event.active_mask)} lanes CAS together",
                    )
                warp_table.is_thread = True
            table = self.sync.lock_table_for(where.warp_id, thread)
            inserted = table.insert(event.address, event.scope)
            if HOT.enabled:
                HOT.lock_inserts.inc()
                if not inserted:
                    HOT.lock_evictions.inc()
            if self.probe is not None:
                self.probe.on_lock(
                    "cas-acquire" if inserted else "cas-overflow", event,
                    f"lock 0x{event.address:x}, {event.scope.name.lower()} scope",
                )
        elif event.atomic_op is AtomicOp.EXCH:
            table = self.sync.lock_table_for(where.warp_id, thread)
            released = table.release(event.address, event.scope)
            if HOT.enabled and released:
                HOT.lock_releases.inc()
            if self.probe is not None:
                self.probe.on_lock(
                    "exch-release" if released else "exch-unmatched", event,
                    f"lock 0x{event.address:x}",
                )

    # -- race detection ----------------------------------------------------

    def check_memory(
        self, event: MemoryEvent, granule: int, launch, stats=None
    ) -> None:
        """The Table 2 two-tier check + metadata writeback for one access.

        One pass over plain ints: both metadata words are read once, the
        sharing flags are updated with masks, P1-P6 (and, only when they
        all fail, R1-R5) run on the words, and both words are written
        back with the compiled setters.  The adapter has already paid the
        access's overhead cycles (UVM residency, contention stalls,
        ``check_per_access``); this method is pure detection state.
        """
        config = self.config
        where = event.where
        thread = where.thread_key
        warp = where.warp_id
        block = where.block_id
        if stats is not None:
            stats.accesses_checked += 1

        entry = self.table.entries.get(granule)
        if entry is None:
            entry = self.table.lookup_granule(granule)
        acc = entry.accessor_word
        wr = entry.writer_word
        probe = self.probe
        if probe is not None:
            probe.on_check(event, granule, acc, wr)

        sync = self.sync
        wpb = launch.warps_per_block
        # sm.Locks: the lock table the current thread consults, and its
        # cached Bloom summary (rebuilt only after a lock-table mutation).
        table = sync.warp_locks.get(warp)
        if table is not None and table.is_thread:
            table = sync.thread_locks.get(thread)
        if table is None:
            table = sync.lock_table_for(warp, thread)
        locks = table.cached_bloom
        if locks is None:
            locks = table.locks_bloom_int()
        kind = event.kind
        is_load = kind is AccessKind.LOAD

        # Update the sharing flags from the last accessor before checking
        # (section 6.2): they encode whether this granule has ever been
        # shared across warps or threadblocks.
        if acc & VALID:
            last_warp = GET_WARP_ID(acc)
            if last_warp // wpb != block:
                acc = entry.accessor_word = acc | DEV_SHARED
            elif last_warp != warp:
                acc = entry.accessor_word = acc | BLK_SHARED

        lane = where.lane
        md = md_word(acc, wr, is_load)
        passed = preliminary_checks(
            acc, md, is_load, kind is AccessKind.ATOMIC, warp, lane, block,
            event.active_mask, sync, wpb, config.its_support,
        )
        race_type = None
        if passed is not None:
            if stats is not None:
                counts = stats.preliminary_pass
                counts[passed] = counts.get(passed, 0) + 1
        else:
            race_type = self._race_tier(
                acc, wr, md, event, granule, launch, locks
            )

        # Section 6.7 ablation: also compare against older accessors when
        # a history depth beyond the packed entry is configured.
        if config.accessor_history > 1:
            self._check_history(acc, wr, event, granule, launch, locks)

        # Write back (section 6.2): the current access becomes the last
        # accessor (and, for stores/atomics, the last writer).  The
        # setter truncates the granule index to its 10-bit Tag.
        dev_fence = sync.dev_fences.get(thread, 0)
        blk_fence = sync.blk_fences.get(thread, 0)
        blk_bar = sync.blk_bars.get(block, 0)
        warp_bar = sync.warp_bars.get(warp, 0)
        acc = SET_ACCESSOR(
            acc, granule, 1, warp, lane, dev_fence, blk_fence, blk_bar, warp_bar
        )
        if not is_load:
            wr = entry.writer_word = SET_WRITER(
                wr, locks, warp, lane, dev_fence, blk_fence, blk_bar, warp_bar
            )
            if kind is AccessKind.ATOMIC:
                acc |= MODIFIED | ATOMIC
                if scope_covers(event.scope, Scope.DEVICE):
                    acc &= ~SCOPE
                else:
                    acc |= SCOPE
            else:
                acc = (acc | MODIFIED) & ~(ATOMIC | SCOPE)
        entry.accessor_word = acc
        if config.accessor_history > 1:
            self._record_history(
                granule,
                SET_WRITER(
                    0, locks, warp, lane, dev_fence, blk_fence, blk_bar,
                    warp_bar,
                ),
                not is_load,
            )

        if probe is not None:
            probe.on_outcome(event, granule, passed, race_type, acc, wr)

    def _race_tier(self, acc, wr, md, event, granule, launch, locks):
        """R1-R5 for an access every preliminary check failed on."""
        config = self.config
        where = event.where
        race_type = race_checks(
            acc, wr, md, where.warp_id, where.block_id, locks, self.sync,
            launch.warps_per_block, config.its_support, config.lockset,
        )
        if race_type is not None:
            self.report_race(race_type, event, md, launch, granule)
        return race_type

    # -- accessor-history ablation (section 6.7) ---------------------------

    def _check_history(self, acc, wr, event, granule, launch, locks) -> None:
        """Check the current access against every remembered accessor.

        Each remembered accessor is a word in the writer layout (identity,
        sync snapshot and lock summary), checked as ``md`` against the
        entry's current flags through the same Table 2 code.
        """
        history = self._history.get(granule)
        if not history:
            return
        config = self.config
        where = event.where
        is_load = event.kind is AccessKind.LOAD
        is_atomic = event.kind is AccessKind.ATOMIC
        wpb = launch.warps_per_block
        for md, was_write in history:
            if is_load and not was_write:
                continue  # two reads cannot race
            launch.timing.charge(
                Category.DETECTION, self.costs.check_per_access / 2
            )
            passed = preliminary_checks(
                acc, md, is_load, is_atomic, where.warp_id, where.lane,
                where.block_id, event.active_mask, self.sync, wpb,
                config.its_support,
            )
            if passed is not None:
                continue
            race_type = race_checks(
                acc, wr, md, where.warp_id, where.block_id, locks, self.sync,
                wpb, config.its_support, config.lockset,
            )
            if race_type is not None:
                self.report_race(race_type, event, md, launch, granule)

    def _record_history(self, granule: int, md: int, is_write: bool) -> None:
        history = self._history.get(granule)
        if history is None:
            history = deque(maxlen=self.config.accessor_history)
            self._history[granule] = history
        history.append((md, is_write))

    def _forget_granule(self, granule: int) -> None:
        """The metadata table evicted ``granule``: drop its side state too,
        so a re-admitted granule starts with no history (eviction forgets)."""
        self._history.pop(granule, None)

    def report_race(
        self, race_type, event: MemoryEvent, md: int, launch, granule: int
    ) -> None:
        """Report a race against ``md``, the previous access's word."""
        where = event.where
        prev_warp_id, prev_lane = DECODE_MD(md)[:2]
        record = RaceRecord(
            race_type=race_type,
            kernel=launch.kernel_name,
            ip=event.ip,
            access=event.kind.value,
            address=event.address,
            location=launch.device.memory.describe(event.address),
            warp_id=where.warp_id,
            lane=where.lane,
            block_id=where.block_id,
            prev_warp_id=prev_warp_id,
            prev_lane=prev_lane,
        )
        if HOT.enabled:
            HOT.detector_races.inc()
        if self.probe is not None:
            self.probe.on_race(record)
        self.emit(record)


# ---------------------------------------------------------------------------
# The happens-before (FastTrack) engine
# ---------------------------------------------------------------------------


@dataclass
class ThreadState:
    """Per-thread vector clock plus pending release snapshots."""

    vc: VectorClock = field(default_factory=VectorClock)
    release_dev: Optional[VectorClock] = None
    release_blk: Optional[VectorClock] = None


@dataclass
class LocationSync:
    """Release clocks carried by an atomic location."""

    dev: VectorClock = field(default_factory=VectorClock)
    blk: Dict[int, VectorClock] = field(default_factory=dict)


class HBSyncState:
    """Cross-address happens-before state: thread VCs + atomic locations.

    The analogue of :class:`~repro.core.syncstate.SyncMetadata` for the
    vector-clock family — everything a memory *check* reads but only
    synchronization events (barriers, fences, atomics) mutate.
    """

    def __init__(self):
        self.threads: Dict[int, ThreadState] = {}
        self.locations: Dict[int, LocationSync] = {}

    def thread(self, tid: int) -> ThreadState:
        state = self.threads.get(tid)
        if state is None:
            state = ThreadState()
            state.vc.bump(tid)
            self.threads[tid] = state
        return state

    def location(self, address: int) -> LocationSync:
        location = self.locations.get(address)
        if location is None:
            location = LocationSync()
            self.locations[address] = location
        return location


class HBCore(DetectorCore):
    """The FastTrack-style happens-before engine behind the HB baselines.

    Configuration knobs map the three backends onto one state machine:

    - ``its`` — model ``syncwarp`` as a warp barrier join (Volta ITS
      awareness).  Barracuda assumes pre-Volta lockstep warps and ignores
      ``syncwarp``; the pure FastTrack oracle honors it.
    - ``same_warp_ordered`` — treat same-warp accesses as lockstep-ordered
      (Barracuda's assumption, which hides ITS races).  The oracle turns
      it off.
    - ``race_type`` — the tag reported for every race (HB detectors do
      not classify by GPU-specific cause).
    """

    name = "happens-before"

    def __init__(
        self,
        its: bool = False,
        same_warp_ordered: bool = True,
        race_type: RaceType = RaceType.INTER_BLOCK,
        capacity: int = 16_384,
    ):
        super().__init__(capacity=capacity)
        self.its = its
        self.same_warp_ordered = same_warp_ordered
        self.race_type = race_type
        self.sync = HBSyncState()
        self._histories: Dict[int, AccessHistory] = {}

    # -- lifecycle ---------------------------------------------------------

    def begin_launch(self, launch) -> None:
        self.sync = HBSyncState()
        self._histories = {}

    # -- synchronization ---------------------------------------------------

    def apply_sync(self, event: SyncEvent, launch) -> None:
        if event.kind is SyncKind.SYNCTHREADS:
            self._barrier_join(event.where.block_id, launch)
        elif event.kind is SyncKind.SYNCWARP:
            if self.its:
                self._warp_join(event.where.warp_id, launch)
            # Without ITS support warp barriers are not modeled (lockstep
            # is assumed for whole warps instead).
        elif event.kind is SyncKind.FENCE:
            # CUDA fence semantics are per-thread: "the effect of a
            # threadfence is limited to writes of the calling thread only"
            # (section 7.1) — a fence does NOT transitively publish writes
            # the thread merely observed through a barrier.  The release
            # snapshot therefore carries only the calling thread's own
            # epoch, which is how Barracuda catches the leader-only-fence
            # grid-barrier bug.
            tid = event.where.global_tid
            state = self.sync.thread(tid)
            snapshot = VectorClock({tid: state.vc.get(tid)})
            if scope_covers(event.scope, Scope.DEVICE):
                state.release_dev = snapshot
                state.release_blk = snapshot
            else:
                state.release_blk = snapshot
            state.vc.bump(tid)

    def _barrier_join(self, block_id: int, launch) -> None:
        """syncthreads: join the clocks of every thread in the block."""
        base = block_id * launch.block_dim
        tids = range(base, base + launch.block_dim)
        joined = VectorClock()
        for tid in tids:
            joined.join(self.sync.thread(tid).vc)
        for tid in tids:
            state = self.sync.thread(tid)
            state.vc = joined.copy()
            state.vc.bump(tid)

    def _warp_join(self, warp_id: int, launch) -> None:
        """syncwarp under ITS: join the clocks of the warp's threads."""
        base = warp_id * launch.warp_size
        tids = range(base, base + launch.warp_size)
        joined = VectorClock()
        for tid in tids:
            joined.join(self.sync.thread(tid).vc)
        for tid in tids:
            state = self.sync.thread(tid)
            state.vc = joined.copy()
            state.vc.bump(tid)

    def atomic_sync(self, event: MemoryEvent) -> None:
        """Atomics are synchronization: release-acquire through the location."""
        where = event.where
        state = self.sync.thread(where.global_tid)
        location = self.sync.location(event.address)
        block_scoped = not scope_covers(event.scope, Scope.DEVICE)
        # Acquire: the atomic reads the location, picking up releases.
        if not block_scoped:
            state.vc.join(location.dev)
        blk = location.blk.get(where.block_id)
        if blk is not None:
            state.vc.join(blk)
        # Release: a fence executed earlier publishes writes through this
        # atomic.  Without a prior fence nothing is released — which is
        # how the HB family catches missing-threadfence races.
        if state.release_dev is not None and not block_scoped:
            location.dev.join(state.release_dev)
        if state.release_blk is not None:
            location.blk.setdefault(where.block_id, VectorClock()).join(
                state.release_blk
            )

    # -- race detection ----------------------------------------------------

    def check_memory(
        self, event: MemoryEvent, address: int, launch, stats=None
    ) -> None:
        where = event.where
        tid = where.global_tid
        state = self.sync.thread(tid)
        if stats is not None:
            stats.accesses_checked += 1

        history = self._histories.get(address)
        if history is None:
            history = AccessHistory()
            self._histories[address] = history

        clock = state.vc.get(tid)
        if event.kind is AccessKind.LOAD:
            self._check_read(event, state, history, launch)
            history.record_read(tid, clock, where.warp_id, state.vc)
        else:
            self._check_write(event, state, history, launch)
            history.record_write(tid, clock, where.warp_id)

    def _check_read(self, event, state, history: AccessHistory, launch) -> None:
        w = history.write_epoch
        if w is None:
            return
        if self.same_warp_ordered and history.write_warp == event.where.warp_id:
            return  # lockstep assumption: same-warp accesses are ordered
        if not state.vc.dominates_epoch(w):
            self.report_race(event, launch)

    def _check_write(self, event, state, history: AccessHistory, launch) -> None:
        warp = event.where.warp_id
        w = history.write_epoch
        if (
            w is not None
            and not (self.same_warp_ordered and history.write_warp == warp)
            and not state.vc.dominates_epoch(w)
        ):
            self.report_race(event, launch)
            return
        for _tid, _clock, read_warp in history.concurrent_readers(state.vc):
            if not (self.same_warp_ordered and read_warp == warp):
                self.report_race(event, launch)
                return

    # check_run: the base implementation (with its quarantine resume
    # path) already checks pairs in order; no HB-specific batching.

    def report_race(self, event: MemoryEvent, launch) -> None:
        where = event.where
        # HB detectors do not classify races by GPU-specific cause;
        # records are tagged with the configured generic race type.
        record = RaceRecord(
            race_type=self.race_type,
            kernel=launch.kernel_name,
            ip=event.ip,
            access=event.kind.value,
            address=event.address,
            location=launch.device.memory.describe(event.address),
            warp_id=where.warp_id,
            lane=where.lane,
            block_id=where.block_id,
            prev_warp_id=-1,
            prev_lane=-1,
        )
        if HOT.enabled:
            HOT.detector_races.inc()
        self.emit(record)
