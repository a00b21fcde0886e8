"""Sharded detection: partition one trace's checks across detector cores.

iGUARD keys essentially all detector state by address granule — metadata
words, lock summaries, and the Table 2 checks are per-granule — so the
check engine partitions cleanly by a hash of each event's *routing key*
(granule index for :class:`~repro.core.engine.IGuardCore`, byte address
for :class:`~repro.core.engine.HBCore`).  Only synchronization cuts
across the partition: barriers, fences, and lock-mutating / release-
acquire atomics touch state every check reads, so those events are
**broadcast** — applied once to the synchronization state all shards
share (in-process) or absorbed by every replica (process pool).

Event routing table (what broadcasts vs routes):

=====================  ==================  ==========================
event                  IGuardCore          HBCore
=====================  ==================  ==========================
load / store           route by granule    route by address
atomic CAS/EXCH        broadcast + route   broadcast (release/acquire)
other atomics          route by granule    broadcast (release/acquire)
syncthreads/syncwarp   broadcast           broadcast
fence                  broadcast           broadcast
launch begin/end       broadcast           broadcast
=====================  ==================  ==========================

Three execution modes, all producing byte-identical race reports:

- **inline** (the default ``--shards N`` path): the Tool adapters route
  each event to its owning core *immediately*, in serial event order.
  Identical to serial detection in every observable — races, stats, and
  cycle breakdowns bit-for-bit — for any shard count.
- **batched** (:class:`BatchShardedIGuard`): routed events queue per
  shard and drain through the cores' tight ``check_run`` loops at every
  sync-mutation boundary; shard-local race records are re-sorted into
  serial order (:func:`repro.core.report.merge_race_records`) at launch
  end.  Used by :func:`replay_trace_sharded`, the fast replay driver.
- **process pool** (``mode="processpool"`` of
  :func:`replay_workload_sharded`): one replica per shard replays the
  whole trace in a worker process, absorbing broadcasts against its own
  replicated sync state and checking only its shard's events; records
  merge deterministically in the parent.  Composes with the suite
  runner's ``--workers`` cell parallelism — inside an already-parallel
  (daemonic) worker the pool falls back to inline execution, same
  results.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.baselines.fasttrack import FastTrack
from repro.common.budget import queue_cap
from repro.core.config import DEFAULT_CONFIG, IGuardConfig
from repro.core.detector import IGuard
from repro.core.report import RaceRecord, merge_race_records
from repro.errors import OutOfMemoryError, TimeoutError_, UnsupportedFeatureError
from repro.faults.quarantine import poison as _poison
from repro.gpu.events import (
    AccessKind,
    AllocEvent,
    KernelEndEvent,
    LaunchEvent,
    MemoryEvent,
    SyncEvent,
)
from repro.gpu.device import KernelRun
from repro.gpu.instructions import AtomicOp
from repro.instrument.nvbit import LaunchInfo
from repro.instrument.timing import Category, TimingBreakdown
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import HOT


def _observe_shard_drain(shard: int, depth: int) -> None:
    """Per-shard sampled series for the telemetry pipeline.

    Named ``shard.<i>.*`` so the OpenMetrics exposition folds them into
    one labelled family (``iguard_shard_drain_depth{shard="i"}``); the
    gauge is last-value — the depth this shard drained at.  (Distinct
    from the unlabelled ``shard.queue_depth`` HOT *histogram*, which
    aggregates across shards.)  Called at sync-barrier drains only —
    never per event — and only behind ``HOT.enabled``.  The per-shard
    routed *counter* lives in the detector's launch-end accounting,
    which both the inline and batched modes share.
    """
    obs_metrics.get_registry().gauge(f"shard.{shard}.drain_depth").set(depth)

#: Process-wide default shard count, consulted by every detector adapter
#: whose ``shards`` argument is None.  The experiment CLIs arm it so one
#: ``--shards`` flag reaches detectors constructed deep inside workers
#: (the same pattern the chaos and cell-timeout knobs use).
ENV_VAR = "IGUARD_SHARDS"

#: Odd 64-bit multiplier (golden-ratio) for the router's hash mix.
_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def default_shards() -> int:
    """The shard count adapters use when none is passed explicitly."""
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        shards = int(raw)
    except ValueError:
        return 1
    return max(1, shards)


def shard_of(key: int, shards: int) -> int:
    """Deterministic granule/address router: ``key -> [0, shards)``.

    A multiplicative mix rather than ``key % shards``: granule indices
    arrive in arithmetic progressions (arrays walked with strides), and a
    bare modulus would send entire strided sweeps to one shard whenever
    the stride shares a factor with the shard count.
    """
    if shards <= 1:
        return 0
    return (((key * _MIX) & _MASK) >> 17) % shards


# ---------------------------------------------------------------------------
# Batched in-process driver
# ---------------------------------------------------------------------------


class BatchShardedIGuard(IGuard):
    """iGUARD with per-shard queues drained at sync-mutation boundaries.

    Between two synchronization mutations every routed check depends only
    on its own granule's state plus the (frozen) sync state, so queueing
    routed events and draining each shard's queue as one tight
    ``check_run`` is order-equivalent to interleaved serial checking.
    Race records surface out of serial order during a drain, so the
    report sink defers them; the launch-end merge re-sorts into exact
    serial order before feeding the shared race log (first-record-wins
    site types depend on it).

    Stats and races are byte-identical to serial; timing breakdowns are
    identical too (front-end charges stay per-event in stream order).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queues: List[list] = [[] for _ in range(self.shards)]
        self._deferred: List[RaceRecord] = []
        #: Deepest single-shard queue ever drained — the benchmark under
        #: ``benchmarks/`` reads this (deep queues at low shard counts
        #: mean drains serialize on one hot shard).
        self.queue_depth_max = 0
        #: Queued events since the last drain; at ``queue_cap()`` the
        #: producer forces an early drain (blocking backpressure), so an
        #: adversarial barrier-free stream cannot grow queues unboundedly.
        #: Output-identical: drains between sync mutations are
        #: order-equivalent, and deferred records re-sort at launch end.
        self._pending = 0

    def _report_sink(self, record, md) -> bool:
        self._deferred.append(record)
        return True

    def _dispatch(self, shard, event, granule, launch) -> None:
        self._queues[shard].append((event, granule))
        self._pending += 1
        if self._pending >= queue_cap():
            self._sync_barrier()
            if HOT.enabled:
                HOT.backpressure_drains.inc()

    def _sync_barrier(self) -> None:
        self._pending = 0
        launch = self._launch
        if launch is None:
            return
        drained = False
        stats = self._current
        for shard, queue in enumerate(self._queues):
            if queue:
                drained = True
                depth = len(queue)
                if depth > self.queue_depth_max:
                    self.queue_depth_max = depth
                if HOT.enabled:
                    HOT.shard_queue_depth.observe(depth)
                    _observe_shard_drain(shard, depth)
                self.cores[shard].drain_batch(queue, launch, stats)
                queue.clear()
        if drained and HOT.enabled:
            HOT.shard_flushes.inc()

    def on_launch_begin(self, launch) -> None:
        super().on_launch_begin(launch)
        self._queues = [[] for _ in range(self.shards)]

    def _finish(self, launch) -> None:
        self._sync_barrier()
        self._merge_deferred()
        super()._finish(launch)

    def _merge_deferred(self) -> None:
        """Feed deferred records to the shared log in serial order."""
        records = self._deferred
        if not records:
            return
        records.sort(key=RaceRecord.serial_sort_key)
        current = self._current
        for record in records:
            if self.races.report(record) and current is not None:
                current.races_reported += 1
        self._deferred = []


class BatchShardedFastTrack(FastTrack):
    """FastTrack with per-shard queues drained at sync boundaries.

    The HB engine's cross-location state (thread/location vector clocks)
    only mutates at barriers, fences, and atomics — exactly the events
    :class:`~repro.core.engine.HBCore` broadcasts — so queueing routed
    loads/stores between two sync mutations and draining each shard's
    queue as one :meth:`~repro.core.engine.DetectorCore.drain_batch` is
    order-equivalent to interleaved serial checking (per-address history
    order is preserved inside a queue; distinct addresses share no
    state).  Race records surface out of serial order, so the sink
    defers and the launch-end merge re-sorts before the shared log.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queues: List[list] = [[] for _ in range(self.shards)]
        self._deferred: List[RaceRecord] = []
        self._launch = None
        self.queue_depth_max = 0
        #: See BatchShardedIGuard._pending — bounded-queue backpressure.
        self._pending = 0

    def _report_sink(self, record, md) -> bool:
        self._deferred.append(record)
        return True

    def on_launch_begin(self, launch) -> None:
        super().on_launch_begin(launch)
        self._launch = launch
        self._queues = [[] for _ in range(self.shards)]

    def _dispatch(self, shard, event, launch) -> None:
        self._queues[shard].append((event, event.address))
        self._pending += 1
        if self._pending >= queue_cap():
            self._sync_barrier()
            if HOT.enabled:
                HOT.backpressure_drains.inc()

    def _sync_barrier(self) -> None:
        self._pending = 0
        launch = self._launch
        if launch is None:
            return
        drained = False
        for shard, queue in enumerate(self._queues):
            if queue:
                drained = True
                depth = len(queue)
                if depth > self.queue_depth_max:
                    self.queue_depth_max = depth
                if HOT.enabled:
                    HOT.shard_queue_depth.observe(depth)
                    _observe_shard_drain(shard, depth)
                self.cores[shard].drain_batch(queue, launch)
                queue.clear()
        if drained and HOT.enabled:
            HOT.shard_flushes.inc()

    def on_launch_end(self, launch) -> None:
        self._sync_barrier()
        self._merge_deferred()
        self._launch = None
        super().on_launch_end(launch)

    def _merge_deferred(self) -> None:
        """Feed deferred records to the shared log in serial order."""
        records = self._deferred
        if not records:
            return
        records.sort(key=RaceRecord.serial_sort_key)
        for record in records:
            self.races.report(record)
        self._deferred = []


# ---------------------------------------------------------------------------
# Fast batched replay: the shard-scaling measurement path
# ---------------------------------------------------------------------------


@dataclass
class ShardedReplayResult:
    """Outcome of one :func:`replay_trace_sharded` pass."""

    tool: BatchShardedIGuard
    events: int  # accesses checked + coalesced (the throughput base)
    seconds: float  # wall-clock spent inside the replay loop


class _ShardedDrain:
    """The batched sharded replay loop, feedable one chunk at a time.

    A purpose-built drain loop, not the event bus: per-event dispatch
    overhead (bus publish, Tool callback, one ``timing.charge`` per cost
    category per event) is hoisted out of the hot path and the fixed
    per-event costs are charged in bulk per launch.  Detection semantics
    are untouched — the same coalescing filter, lock inference, UVM and
    contention models run in serial stream order, and every check runs
    through the same cores — so race reports and stats match the serial
    pipeline exactly; only the *association order* of float cycle charges
    differs (bulk sums vs running sums).

    :meth:`feed` consumes any slice of the stream and leaves all
    per-launch state (hoisted closures, bulk-charge counters, the open
    launch) on the instance, so a launch may span chunk boundaries —
    this is what lets the columnar driver replay chunk by chunk without
    ever materializing the whole trace.  An optional ``routes`` iterator
    supplies precomputed ``(granule, shard)`` pairs for the chunk's
    memory events in row order (the columnar container hashes the whole
    address column vectorized), replacing the per-event granule shift
    and hash mix.
    """

    def __init__(self, tool: "BatchShardedIGuard", device, config: IGuardConfig):
        self.tool = tool
        self.device = device
        self.config = config
        self.launch: Optional[LaunchInfo] = None
        self.checked_events = 0
        self.seconds = 0.0
        # Per-launch hoisted state (bound while self.launch is not None).
        self._stats = None
        self._shard_appends: List = []
        self._coalescing = True
        self._co_batch = self._co_granule = -1
        self._uvm_active = False
        self._uvm_access = None
        self._contention_access = None
        self._n_checked = self._n_coalesced = self._n_sync = 0
        self._uvm_cycles = self._stall_cycles = 0.0
        self._routed: List[int] = []
        #: Events queued since the last drain (backpressure counter).
        self._pending = 0

    def feed(self, events, routes=None) -> None:
        """Replay one slice of the stream (a chunk, or the whole trace)."""
        tool = self.tool
        device = self.device
        config = self.config
        shards = tool.shards
        instrument = tool.costs.instrument_per_event
        check_cost = tool.costs.check_per_access
        sync_cost = tool.costs.sync_per_event
        coal_cost = tool.costs.coalesced_skip

        # Loop-invariant bindings: every global/attribute the per-event
        # hot path touches is a local, so the loop body is pure LOAD_FAST.
        mem_cls, sync_cls = MemoryEvent, SyncEvent
        launch_cls, end_cls, alloc_cls = LaunchEvent, KernelEndEvent, AllocEvent
        atomic_kind, load_kind = AccessKind.ATOMIC, AccessKind.LOAD
        cas_op, exch_op = AtomicOp.CAS, AtomicOp.EXCH
        multi = shards > 1
        route_next = routes.__next__ if routes is not None else None

        # Cross-chunk state in from the instance.
        launch = self.launch
        checked_events = 0
        stats = self._stats
        shard_appends = self._shard_appends
        coalescing = self._coalescing
        co_batch, co_granule = self._co_batch, self._co_granule
        uvm_active = self._uvm_active
        uvm_access = self._uvm_access
        contention_access = self._contention_access
        n_checked, n_coalesced = self._n_checked, self._n_coalesced
        n_sync = self._n_sync
        uvm_cycles, stall_cycles = self._uvm_cycles, self._stall_cycles
        routed = self._routed
        entry_bytes = config.metadata_entry_bytes
        if launch is not None:
            sync_barrier = tool._sync_barrier
            infer_locks = tool.cores[0].infer_locks
            apply_sync = tool.cores[0].apply_sync
            granule_of = tool.cores[0].table.granule_of

        q_cap = queue_cap()
        pending = self._pending
        started = time.perf_counter()
        for event in events:
          kind = type(event)
          # Poison-event quarantine around one record's dispatch: a
          # raising event is absorbed (bounded, repro.faults.quarantine)
          # and the drain continues; policy exceptions re-raise.
          try:
            if kind is mem_cls:
                # Inlined fast front-end of IGuard.on_memory: bulk-charged
                # fixed costs, stateful models in stream order.  Routing
                # is consumed first (pure lookup): a poison event raising
                # below must not desynchronize the precomputed route
                # iterator from the remaining memory events.
                if route_next is not None:
                    granule, shard = route_next()
                else:
                    granule = granule_of(event.address)
                    shard = (
                        ((granule * 0x9E3779B97F4A7C15 & _MASK) >> 17) % shards
                        if multi
                        else 0
                    )
                access = event.kind
                if access is atomic_kind:
                    if event.atomic_op is cas_op or event.atomic_op is exch_op:
                        sync_barrier()
                        pending = 0
                    infer_locks(event)
                if coalescing and (access is load_kind or access is atomic_kind):
                    batch = event.batch
                    if batch == co_batch and granule == co_granule:
                        n_coalesced += 1
                        continue
                    co_batch, co_granule = batch, granule
                else:
                    co_batch = -1
                if uvm_active:
                    fault_cost = uvm_access(granule * entry_bytes)
                    if fault_cost:
                        uvm_cycles += fault_cost
                stall = contention_access(
                    granule, event.batch, event.where.warp_id
                )
                if stall:
                    stall_cycles += stall
                n_checked += 1
                routed[shard] += 1
                shard_appends[shard]((event, granule))
                pending += 1
                if pending >= q_cap:
                    # Backpressure: bounded queues, the producer pays for
                    # the early drain.  Output-identical — runs between
                    # sync mutations are order-equivalent and deferred
                    # records re-sort at launch end.
                    sync_barrier()
                    pending = 0
                    if HOT.enabled:
                        HOT.backpressure_drains.inc()
            elif kind is sync_cls:
                sync_barrier()
                pending = 0
                apply_sync(event, launch)
                n_sync += 1
            elif kind is launch_cls:
                launch = LaunchInfo(
                    kernel_name=event.kernel_name,
                    grid_dim=event.grid_dim,
                    block_dim=event.block_dim,
                    warp_size=event.warp_size,
                    warps_per_block=event.warps_per_block,
                    num_threads=event.num_threads,
                    timing=TimingBreakdown(parallelism=event.parallelism),
                    device=device,
                    seed=event.seed,
                    static_instruction_count=event.static_instruction_count,
                )
                tool.on_launch_begin(launch)
                # Hoisted loop state for this launch.
                stats = tool._current
                shard_appends = [q.append for q in tool._queues]
                sync_barrier = tool._sync_barrier
                infer_locks = tool.cores[0].infer_locks
                apply_sync = tool.cores[0].apply_sync
                granule_of = tool.cores[0].table.granule_of
                coalescing = config.coalescing
                co_batch = co_granule = -1
                uvm_active = (
                    config.use_uvm
                    and tool._uvm is not None
                    # Resident prefaulted pages cost nothing and never
                    # evict: the per-access residency walk is skippable
                    # wholesale.
                    and not (config.prefault and tool._uvm.fits_entirely)
                )
                uvm_access = tool._uvm.access if tool._uvm is not None else None
                contention_access = tool._contention.on_metadata_access
                n_checked = n_coalesced = n_sync = 0
                uvm_cycles = stall_cycles = 0.0
                routed = [0] * shards
            elif kind is end_cls:
                # Bulk charges for the launch's per-event fixed costs, then
                # the ordinary end-of-launch path (final drain, merge,
                # duration-proportional host charges).
                if n_coalesced:
                    stats.accesses_coalesced += n_coalesced
                    if HOT.enabled:
                        HOT.detector_coalesced.inc(n_coalesced)
                timing = launch.timing
                n_events = n_checked + n_coalesced + n_sync
                if n_events:
                    timing.charge(
                        Category.INSTRUMENTATION, instrument * n_events
                    )
                if n_checked:
                    timing.charge(Category.DETECTION, check_cost * n_checked)
                if n_coalesced:
                    timing.charge(Category.DETECTION, coal_cost * n_coalesced)
                if n_sync:
                    timing.charge(Category.DETECTION, sync_cost * n_sync)
                if uvm_cycles:
                    timing.charge(Category.DETECTION, uvm_cycles, serial=True)
                if stall_cycles:
                    timing.charge(
                        Category.DETECTION, stall_cycles, serial=True
                    )
                timing.charge(Category.NATIVE, event.native_parallel)
                timing.charge(Category.NATIVE, event.native_serial, serial=True)
                # Hand the per-launch routing census to the tool so its
                # _finish accumulates shard_routed_total exactly as the
                # bus path does (on_memory is bypassed here).
                tool._shard_routed = routed
                if event.timed_out:
                    tool.on_timeout(launch)
                else:
                    tool.on_launch_end(launch)
                # After the end-of-launch drain, so queued checks count.
                checked_events += (
                    stats.accesses_checked + stats.accesses_coalesced
                )
                device.runs.append(
                    KernelRun(
                        kernel_name=event.kernel_name,
                        grid_dim=launch.grid_dim,
                        block_dim=launch.block_dim,
                        num_threads=launch.num_threads,
                        batches=event.batches,
                        instructions=event.instructions,
                        timed_out=event.timed_out,
                        timing=launch.timing,
                    )
                )
                launch = None
                pending = 0
            elif kind is alloc_cls:
                device.memory.restore(event)
            # GPUConfig headers / RunMarkers carry no detector work.
          except Exception as exc:
            _poison(event, exc, "drain")
        self.seconds += time.perf_counter() - started

        # Cross-chunk state back out.
        self.launch = launch
        self.checked_events += checked_events
        self._stats = stats
        self._shard_appends = shard_appends
        self._coalescing = coalescing
        self._co_batch, self._co_granule = co_batch, co_granule
        self._uvm_active = uvm_active
        self._uvm_access = uvm_access
        self._contention_access = contention_access
        self._n_checked, self._n_coalesced = n_checked, n_coalesced
        self._n_sync = n_sync
        self._uvm_cycles, self._stall_cycles = uvm_cycles, stall_cycles
        self._routed = routed
        self._pending = pending

    def result(self) -> ShardedReplayResult:
        return ShardedReplayResult(
            tool=self.tool, events=self.checked_events, seconds=self.seconds
        )


def _drain_for(config: IGuardConfig, shards: int, costs, gpu_config):
    from repro.engine.replay import ReplayDevice

    device = ReplayDevice(gpu_config)
    tool = BatchShardedIGuard(config, costs=costs, shards=shards)
    tool.attach(device)
    return _ShardedDrain(tool, device, config)


def replay_trace_sharded(
    events,
    config: IGuardConfig = DEFAULT_CONFIG,
    shards: int = 4,
    costs=None,
) -> ShardedReplayResult:
    """Replay a captured event stream through the batched sharded engine.

    ``events`` may be any iterable; lazy streams (a JSONL line reader, a
    columnar chunk generator) are consumed without being materialized —
    the loop peeks just past the header preamble to find the recorded
    :class:`~repro.gpu.arch.GPUConfig`.  See :class:`_ShardedDrain` for
    the exactness contract.

    Returns the tool plus the wall-clock seconds of the replay loop.
    """
    import itertools

    from repro.engine.trace import RunMarker, Trace
    from repro.gpu.arch import GPUConfig, TITAN_RTX

    gpu_config = None
    if isinstance(events, (list, Trace)):
        gpu_config = next(
            (e for e in events if isinstance(e, GPUConfig)), TITAN_RTX
        )
    else:
        iterator = iter(events)
        buffered: List = []
        for event in iterator:
            buffered.append(event)
            if isinstance(event, GPUConfig):
                gpu_config = event
                break
            if not isinstance(event, RunMarker):
                break
        if gpu_config is None:
            gpu_config = TITAN_RTX
        events = itertools.chain(buffered, iterator)

    drain = _drain_for(config, shards, costs, gpu_config)
    drain.feed(events)
    return drain.result()


def replay_columnar_sharded(
    source,
    config: IGuardConfig = DEFAULT_CONFIG,
    shards: int = 4,
    costs=None,
) -> ShardedReplayResult:
    """Replay a columnar trace chunk by chunk through the batched engine.

    ``source`` is a ``.ctr`` / ``.ctr.gz`` path (or an iterable of
    :class:`~repro.engine.coltrace.Chunk`).  Each chunk's granule/shard
    routing is computed vectorized over its address column before any
    event object exists, and events materialize one chunk at a time —
    peak memory is one chunk, not one trace.  Output is identical to
    :func:`replay_trace_sharded` over the same events.
    """
    from repro.engine.coltrace import iter_chunks
    from repro.gpu.arch import GPUConfig, TITAN_RTX

    chunks = (
        iter(source)
        if not isinstance(source, (str, bytes))
        and not hasattr(source, "__fspath__")
        else iter_chunks(source)
    )
    granularity = config.granularity_bytes
    drain: Optional[_ShardedDrain] = None
    for chunk in chunks:
        events = chunk.events()
        if drain is None:
            gpu_config = next(
                (e for e in events if isinstance(e, GPUConfig)), TITAN_RTX
            )
            drain = _drain_for(config, shards, costs, gpu_config)
        granules, shard_ids = chunk.mem_routes(granularity, shards)
        drain.feed(events, routes=zip(granules, shard_ids))
    if drain is None:
        drain = _drain_for(config, shards, costs, TITAN_RTX)
    return drain.result()


# ---------------------------------------------------------------------------
# Process-pool mode: one replica per shard over the whole trace
# ---------------------------------------------------------------------------


class _ShardReplicaIGuard(IGuard):
    """One shard's view of the trace: full sync replica, filtered checks."""

    def __init__(self, shard_index: int, num_shards: int, config, costs=None):
        super().__init__(config, costs=costs, shards=1)
        self._shard_index = shard_index
        self.shards = num_shards  # routing width; still one local core
        self.shard_routed_total = [0] * num_shards  # match routing width
        #: Raw records for the parent's deterministic merge.
        self.collected: List[RaceRecord] = []

    def _report_sink(self, record, md) -> bool:
        self.collected.append(record)
        return True

    def _dispatch(self, shard, event, granule, launch) -> None:
        if shard == self._shard_index:
            self.cores[0].handle(event, granule, launch, self._current)


@dataclass
class _ShardTask:
    """Picklable unit of process-pool work: one shard over one seed's run."""

    events: list
    config: IGuardConfig
    shard_index: int
    num_shards: int


def _run_shard_task(task: _ShardTask):
    """Worker trampoline: replay the stream through one shard replica.

    Returns ``(status, detail, records)`` where ``records`` are the
    shard's raw race records (re-sorted and merged by the parent).
    """
    from repro.engine.replay import replay

    tool = _ShardReplicaIGuard(
        task.shard_index, task.num_shards, task.config
    )
    status, detail = "ok", ""
    try:
        replay(task.events, tools=[tool])
    except UnsupportedFeatureError as exc:
        status, detail = "unsupported", str(exc)
    except OutOfMemoryError as exc:
        status, detail = "oom", str(exc)
    except TimeoutError_ as exc:
        status, detail = "timeout", str(exc)
    return status, detail, tool.collected


def _in_daemon_worker() -> bool:
    """Whether nested pools are unavailable (inside a daemonic worker)."""
    import multiprocessing

    return multiprocessing.current_process().daemon


def pool_shard_records(
    events,
    config: IGuardConfig = DEFAULT_CONFIG,
    shards: int = 4,
    workers: Optional[int] = None,
) -> Tuple[str, str, List[RaceRecord]]:
    """Run all shards of one recorded stream, one replica per process.

    Each replica replays the *whole* stream — broadcast events keep its
    replicated sync state coherent — and checks only the events whose
    routing key hashes to its shard.  Composes with the suite runner's
    cell parallelism: inside a daemonic pool worker (where nested pools
    are impossible) the replicas run inline, bit-identical results.

    Returns the merged ``(status, detail, records)`` in serial order.
    """
    from repro.engine.parallel import parallel_map

    tasks = [
        _ShardTask(
            events=list(events),
            config=config,
            shard_index=index,
            num_shards=shards,
        )
        for index in range(shards)
    ]
    if workers is None:
        workers = shards
    if _in_daemon_worker():
        workers = 1
    results = parallel_map(
        _run_shard_task,
        tasks,
        workers=workers,
        label=lambda task: f"shard-{task.shard_index}/{task.num_shards}",
    )
    status, detail = "ok", ""
    records: List[RaceRecord] = []
    for result in results:
        if result is None:
            continue
        shard_status, shard_detail, shard_records = result
        # A failing tool policy (budget timeout, OOM) trips identically in
        # every replica — the front-end sees the full stream — so any
        # shard's failure is the run's failure.
        if shard_status != "ok" and status == "ok":
            status, detail = shard_status, shard_detail
        records.extend(shard_records)
    records.sort(key=RaceRecord.serial_sort_key)
    return status, detail, records


def replay_workload_sharded(
    trace,
    config: IGuardConfig = DEFAULT_CONFIG,
    shards: int = 4,
    mode: str = "processpool",
    workers: Optional[int] = None,
):
    """Replay a captured workload trace under process-pool sharding.

    Mirrors :func:`repro.engine.replay.replay_workload`'s per-seed
    semantics, but fans each seed's stream across shard replicas and
    merges their records into one :class:`~repro.core.report.RaceLog`
    per seed (so per-site race types match serial first-record-wins).
    Returns ``{"status", "detail", "sites"}`` — the timing-free report
    surface the byte-identity contract covers.
    """
    if mode not in ("processpool", "inline"):
        raise ValueError(f"unknown shard mode {mode!r}")
    sites = {}
    status, detail = "ok", ""
    for _seed, events in trace.runs():
        run_status, run_detail, records = pool_shard_records(
            events,
            config=config,
            shards=shards,
            workers=1 if mode == "inline" else workers,
        )
        merged = merge_race_records(
            [records], capacity=config.race_buffer_capacity
        )
        for ip, race_type in merged.sites():
            sites.setdefault(ip, str(race_type))
        if run_status in ("unsupported", "oom"):
            return {"status": run_status, "detail": run_detail, "sites": {}}
        if run_status == "timeout":
            status, detail = run_status, run_detail
            break
    return {"status": status, "detail": detail, "sites": dict(sorted(sites.items()))}
