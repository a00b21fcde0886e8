"""The batched replay drain: one queue of checks per detector.

Between two synchronization mutations every memory check depends only on
its own granule's metadata plus the (frozen) synchronization state, so
queueing the checks and running them as one tight
:meth:`~repro.core.engine.DetectorCore.drain_batch` at the next mutation
is order-equivalent to checking each access on arrival.  The mutations
that force a drain are barriers, fences and lock-inferring (CAS/EXCH)
atomics, plus kernel end.  The queue keeps stream order, so race records
reach the race log in exactly the order the serial bus produces them.

Two drivers share the queue:

- :class:`BatchedIGuard` — the ``IGuard`` adapter with its checks
  queued; it rides the ordinary event bus (``trace replay --batched``).
- :class:`_BatchedDrain` — a purpose-built loop that replaces the bus
  and the per-event Tool callbacks, fed either a whole event stream
  (:func:`replay_trace_batched`) or a columnar trace chunk by chunk
  (:func:`replay_columnar_sharded`).

Reports and statistics are byte-identical to serial detection.  The
module and :func:`replay_columnar_sharded` keep their names from when
this drain split one trace's checks across several cores; the benchmark
under ``benchmarks/`` resolves both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.common.budget import queue_cap
from repro.core.config import DEFAULT_CONFIG, IGuardConfig
from repro.core.detector import IGuard
from repro.engine.replay import (
    ReplayDevice,
    kernel_run,
    launch_info,
    peek_gpu_config,
)
from repro.faults.quarantine import poison as _poison
from repro.gpu.events import (
    AccessKind,
    AllocEvent,
    KernelEndEvent,
    LaunchEvent,
    MemoryEvent,
    SyncEvent,
)
from repro.gpu.instructions import AtomicOp
from repro.instrument.nvbit import LaunchInfo
from repro.instrument.timing import Category
from repro.obs.metrics import HOT


class BatchedIGuard(IGuard):
    """iGUARD with its checks queued and drained at sync mutations.

    Stats, races and timing breakdowns are byte-identical to serial:
    front-end charges stay per event in stream order, and the queue
    drains in stream order.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queue: list = []
        #: Deepest queue ever drained — the benchmark under
        #: ``benchmarks/`` reads this.
        self.queue_depth_max = 0

    def _dispatch(self, event, granule, launch) -> None:
        queue = self._queue
        queue.append((event, granule))
        if len(queue) >= queue_cap():
            # Backpressure: the queue is bounded and the producer pays
            # for the early drain.  Output-identical, since a drain
            # between two sync mutations is order-equivalent.
            self._sync_barrier()
            if HOT.enabled:
                HOT.backpressure_drains.inc()

    def _sync_barrier(self) -> None:
        queue = self._queue
        if not queue or self._launch is None:
            return
        if len(queue) > self.queue_depth_max:
            self.queue_depth_max = len(queue)
        self.core.drain_batch(queue, self._launch, self._current)
        queue.clear()

    def on_launch_begin(self, launch) -> None:
        # A launch the stream truncated (a deadlocked kernel) never
        # finished: check its queued accesses first, as serial would have.
        self._sync_barrier()
        super().on_launch_begin(launch)

    def _finish(self, launch) -> None:
        self._sync_barrier()
        super()._finish(launch)


@dataclass
class DrainResult:
    """Outcome of one batched replay."""

    tool: BatchedIGuard
    events: int  # accesses checked + coalesced (the throughput base)
    seconds: float  # wall-clock spent inside the replay loop


class _BatchedDrain:
    """The batched replay loop, feedable one chunk at a time.

    A purpose-built drain loop, not the event bus: per-event dispatch
    overhead (bus publish, Tool callback, one ``timing.charge`` per cost
    category per event) is hoisted out of the hot path and the fixed
    per-event costs are charged in bulk per launch.  Detection semantics
    are untouched — the same coalescing filter, lock inference, UVM and
    contention models run in serial stream order, and every check runs
    through the same core — so race reports and stats match the serial
    pipeline exactly; only the *association order* of float cycle charges
    differs (bulk sums vs running sums).

    :meth:`feed` consumes any slice of the stream and leaves all
    per-launch state (hoisted bindings, bulk-charge counters, the open
    launch) on the instance, so a launch may span chunk boundaries —
    this is what lets the columnar driver replay chunk by chunk without
    ever materializing the whole trace.  An optional ``granules``
    iterator supplies the precomputed granule of each of the slice's
    memory events in row order (the columnar container shifts the whole
    address column vectorized).
    """

    def __init__(self, tool: BatchedIGuard, device, config: IGuardConfig):
        self.tool = tool
        self.device = device
        self.config = config
        self.launch: Optional[LaunchInfo] = None
        self.checked_events = 0
        self.seconds = 0.0
        # Per-launch hoisted state (bound while self.launch is not None).
        self._stats = None
        self._coalescing = True
        self._co_batch = self._co_granule = -1
        self._uvm_active = False
        self._uvm_access = None
        self._contention_access = None
        self._n_checked = self._n_coalesced = self._n_sync = 0
        self._uvm_cycles = self._stall_cycles = 0.0

    def feed(self, events, granules=None) -> None:
        """Replay one slice of the stream (a chunk, or the whole trace)."""
        tool = self.tool
        device = self.device
        config = self.config
        core = tool.core
        queue = tool._queue
        enqueue = queue.append
        sync_barrier = tool._sync_barrier
        infer_locks = core.infer_locks
        apply_sync = core.apply_sync
        granule_of = core.table.granule_of
        instrument = tool.costs.instrument_per_event
        check_cost = tool.costs.check_per_access
        sync_cost = tool.costs.sync_per_event
        coal_cost = tool.costs.coalesced_skip
        entry_bytes = config.metadata_entry_bytes

        # Loop-invariant bindings: every global/attribute the per-event
        # hot path touches is a local, so the loop body is pure LOAD_FAST.
        mem_cls, sync_cls = MemoryEvent, SyncEvent
        launch_cls, end_cls, alloc_cls = LaunchEvent, KernelEndEvent, AllocEvent
        atomic_kind, load_kind = AccessKind.ATOMIC, AccessKind.LOAD
        cas_op, exch_op = AtomicOp.CAS, AtomicOp.EXCH
        granule_next = granules.__next__ if granules is not None else None

        # Cross-chunk state in from the instance.
        launch = self.launch
        checked_events = 0
        stats = self._stats
        coalescing = self._coalescing
        co_batch, co_granule = self._co_batch, self._co_granule
        uvm_active = self._uvm_active
        uvm_access = self._uvm_access
        contention_access = self._contention_access
        n_checked, n_coalesced = self._n_checked, self._n_coalesced
        n_sync = self._n_sync
        uvm_cycles, stall_cycles = self._uvm_cycles, self._stall_cycles

        q_cap = queue_cap()
        started = time.perf_counter()
        for event in events:
          kind = type(event)
          # Poison-event quarantine around one record's dispatch: a
          # raising event is absorbed (bounded, repro.faults.quarantine)
          # and the drain continues; policy exceptions re-raise.
          try:
            if kind is mem_cls:
                # Inlined fast front-end of IGuard.on_memory: bulk-charged
                # fixed costs, stateful models in stream order.  The
                # precomputed granule is consumed first (pure lookup): a
                # poison event raising below must not desynchronize the
                # granule iterator from the remaining memory events.
                if granule_next is not None:
                    granule = granule_next()
                else:
                    granule = granule_of(event.address)
                access = event.kind
                if access is atomic_kind:
                    if event.atomic_op is cas_op or event.atomic_op is exch_op:
                        sync_barrier()
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
                enqueue((event, granule))
                if len(queue) >= q_cap:
                    # Backpressure, as in BatchedIGuard._dispatch.
                    sync_barrier()
                    if HOT.enabled:
                        HOT.backpressure_drains.inc()
            elif kind is sync_cls:
                sync_barrier()
                apply_sync(event, launch)
                n_sync += 1
            elif kind is launch_cls:
                launch = launch_info(event, device)
                tool.on_launch_begin(launch)
                # Hoisted loop state for this launch.
                stats = tool._current
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
            elif kind is end_cls:
                # Bulk charges for the launch's per-event fixed costs, then
                # the ordinary end-of-launch path (final drain and
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
                if event.timed_out:
                    tool.on_timeout(launch)
                else:
                    tool.on_launch_end(launch)
                # After the end-of-launch drain, so queued checks count.
                checked_events += (
                    stats.accesses_checked + stats.accesses_coalesced
                )
                device.runs.append(kernel_run(event, launch))
                launch = None
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
        self._coalescing = coalescing
        self._co_batch, self._co_granule = co_batch, co_granule
        self._uvm_active = uvm_active
        self._uvm_access = uvm_access
        self._contention_access = contention_access
        self._n_checked, self._n_coalesced = n_checked, n_coalesced
        self._n_sync = n_sync
        self._uvm_cycles, self._stall_cycles = uvm_cycles, stall_cycles

    def result(self) -> DrainResult:
        return DrainResult(
            tool=self.tool, events=self.checked_events, seconds=self.seconds
        )


def _drain_for(config: IGuardConfig, costs, gpu_config) -> _BatchedDrain:
    device = ReplayDevice(gpu_config)
    tool = BatchedIGuard(config, costs=costs)
    tool.attach(device)
    return _BatchedDrain(tool, device, config)


def replay_trace_batched(
    events, config: IGuardConfig = DEFAULT_CONFIG, costs=None
) -> DrainResult:
    """Replay a captured event stream through the batched drain.

    ``events`` may be any iterable; lazy streams (a JSONL line reader, a
    columnar chunk generator) are consumed without being materialized.
    See :class:`_BatchedDrain` for the exactness contract.

    Returns the tool plus the wall-clock seconds of the replay loop.
    """
    gpu_config, events = peek_gpu_config(events)
    drain = _drain_for(config, costs, gpu_config)
    drain.feed(events)
    return drain.result()


def replay_columnar_sharded(
    source, config: IGuardConfig = DEFAULT_CONFIG, costs=None
) -> DrainResult:
    """Replay a columnar trace chunk by chunk through the batched drain.

    ``source`` is a ``.ctr`` / ``.ctr.gz`` path (or an iterable of
    :class:`~repro.engine.coltrace.Chunk`).  Each chunk's granules are
    computed vectorized over its address column before any event object
    exists, and events materialize one chunk at a time — peak memory is
    one chunk, not one trace.  Output is identical to
    :func:`replay_trace_batched` over the same events.
    """
    from repro.engine.coltrace import iter_chunks
    from repro.gpu.arch import TITAN_RTX

    chunks = (
        iter(source)
        if not isinstance(source, (str, bytes))
        and not hasattr(source, "__fspath__")
        else iter_chunks(source)
    )
    granularity = config.granularity_bytes
    drain: Optional[_BatchedDrain] = None
    for chunk in chunks:
        events = chunk.events()
        if drain is None:
            drain = _drain_for(config, costs, peek_gpu_config(events)[0])
        drain.feed(events, granules=iter(chunk.mem_routes(granularity)))
    if drain is None:
        drain = _drain_for(config, costs, TITAN_RTX)
    return drain.result()
