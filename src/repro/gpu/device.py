"""The simulated GPU device: allocation, kernel launch, instrumentation.

:class:`Device` ties the substrate together.  It owns the global memory,
the event bus carrying the instrumentation stream, and the cost
accounting; ``launch()`` spins up one
:class:`~repro.gpu.kernel.KernelThread` per thread of the grid, hands
them to a scheduler, and executes instructions on their behalf while
publishing every event on the bus.  A device carries at most one tool
(``add_tool``), the bus's one sink; without one, the bus publishes to a
no-op :class:`~repro.instrument.nvbit.Tool`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.engine.bus import NO_TOOL, EventBus
from repro.errors import LaunchError
from repro.gpu.arch import GPUConfig, TITAN_RTX
from repro.gpu.costs import CostParams, DEFAULT_COSTS, effective_parallelism
from repro.gpu.events import AccessKind, MemoryEvent, SyncEvent, SyncKind
from repro.gpu.ids import locate, warps_in_block
from repro.gpu.instructions import (
    Atomic,
    Compute,
    Fence,
    Load,
    Scope,
    Store,
)
from repro.gpu.kernel import KernelThread, ThreadCtx
from repro.gpu.memory import GlobalArray, GlobalMemory
from repro.gpu.scheduler import Scheduler, SchedulerKind
from repro.instrument.nvbit import LaunchInfo, Tool
from repro.instrument.timing import Category, TimingBreakdown
from repro.obs.spans import TRACER, now_us


@dataclass
class KernelRun:
    """The result of one kernel launch."""

    kernel_name: str
    grid_dim: int
    block_dim: int
    num_threads: int
    batches: int
    instructions: int
    timed_out: bool
    timing: TimingBreakdown

    @property
    def native_time(self) -> float:
        return self.timing.native_time

    @property
    def total_time(self) -> float:
        return self.timing.total_time

    @property
    def overhead(self) -> float:
        """Slowdown relative to uninstrumented execution."""
        return self.timing.overhead


class Device:
    """A simulated GPU.

    Args:
        config: hardware description (defaults to the paper's Titan RTX).
        weak_visibility: enable the store-buffer memory mode so that scoped
            races can return stale values (examples only; detection does
            not rely on it).
        costs: the cycle-cost table used for all performance accounting.
    """

    def __init__(
        self,
        config: GPUConfig = TITAN_RTX,
        weak_visibility: bool = False,
        costs: CostParams = DEFAULT_COSTS,
    ):
        self.config = config
        self.costs = costs
        self.memory = GlobalMemory(config.memory_bytes, weak_visibility)
        self.bus = EventBus()
        self.runs: List[KernelRun] = []
        self.memory.alloc_hooks.append(self.bus.publish_alloc)
        #: Optional fault-injection mutator (repro.faults.mutators); when
        #: set, every launched thread offers its instruction stream to it.
        self.mutator = None

    # ------------------------------------------------------------------
    # Tools and allocation
    # ------------------------------------------------------------------

    def add_tool(self, tool: Tool) -> Tool:
        """Attach the device's one tool (a detector or a ``TraceSink``).

        Raises ValueError if the device already has one: every tool runs
        on its own device.
        """
        if self.bus.sink is not NO_TOOL:
            raise ValueError(
                f"device already has tool {self.bus.sink.name!r}; "
                "give each tool its own device"
            )
        self.bus.sink = tool
        tool.attach(self)
        return tool

    def alloc(self, name: str, num_words: int, init=0) -> GlobalArray:
        """``cudaMalloc`` + optional ``cudaMemset``: allocate a global array."""
        return self.memory.alloc(name, num_words, init)

    # ------------------------------------------------------------------
    # Launch
    # ------------------------------------------------------------------

    def launch(
        self,
        kernel_fn,
        grid_dim: int,
        block_dim: int,
        args: Tuple = (),
        seed: int = 0,
        scheduler: Optional[SchedulerKind] = None,
        max_batches: int = 2_000_000,
        split_probability: float = 0.25,
    ) -> KernelRun:
        """Launch ``kernel_fn`` over ``grid_dim`` blocks of ``block_dim`` threads.

        Returns a :class:`KernelRun`; if the step budget expires (a racy
        kernel livelocking, section 5), the run is flagged ``timed_out``
        and attached detectors have flushed their race reports.
        """
        if block_dim < 1 or block_dim > self.config.max_threads_per_block:
            raise LaunchError(
                f"block_dim {block_dim} outside [1, "
                f"{self.config.max_threads_per_block}]"
            )
        if grid_dim < 1:
            raise LaunchError(f"grid_dim must be >= 1, got {grid_dim}")
        if scheduler is None:
            scheduler = (
                SchedulerKind.ITS
                if self.config.supports_its
                else SchedulerKind.LOCKSTEP
            )
        if scheduler is SchedulerKind.ITS and not self.config.supports_its:
            raise LaunchError(f"{self.config.name} does not support ITS")

        warp_size = self.config.warp_size
        num_threads = grid_dim * block_dim
        threads = []
        for global_tid in range(num_threads):
            loc = locate(global_tid, block_dim, warp_size)
            ctx = ThreadCtx(loc, block_dim, grid_dim, warp_size)
            threads.append(
                KernelThread(kernel_fn, ctx, args, mutator=self.mutator)
            )

        timing = TimingBreakdown(
            parallelism=effective_parallelism(
                num_threads, self.config.max_concurrent_lanes
            )
        )
        launch = LaunchInfo(
            kernel_name=getattr(kernel_fn, "__name__", "kernel"),
            grid_dim=grid_dim,
            block_dim=block_dim,
            warp_size=warp_size,
            warps_per_block=warps_in_block(block_dim, warp_size),
            num_threads=num_threads,
            timing=timing,
            device=self,
            seed=seed,
            static_instruction_count=len(kernel_fn.__code__.co_code) // 2,
        )
        self.bus.publish_launch_begin(launch)

        engine = Scheduler(
            threads,
            warp_size=warp_size,
            kind=scheduler,
            seed=seed,
            max_batches=max_batches,
            split_probability=split_probability,
        )
        executor = _Executor(self, launch)
        span_start = now_us() if TRACER.enabled else 0.0
        try:
            engine.run(executor)
        finally:
            # Also when a tool aborts the launch (unsupported feature,
            # OOM): the span shows how far it got.
            if TRACER.enabled:
                TRACER.add_complete(
                    f"launch:{launch.kernel_name}",
                    span_start,
                    now_us() - span_start,
                    cat="launch",
                    tid=TRACER.tid_for("launches"),
                    args={
                        "seed": seed,
                        "grid_dim": grid_dim,
                        "block_dim": block_dim,
                        "batches": engine.batch_counter,
                        "timed_out": engine.timed_out,
                    },
                )
                self._emit_warp_activity(launch, engine)
        self.memory.flush_all()

        if engine.timed_out:
            self.bus.publish_timeout(launch)
        else:
            self.bus.publish_launch_end(launch)

        run = KernelRun(
            kernel_name=launch.kernel_name,
            grid_dim=grid_dim,
            block_dim=block_dim,
            num_threads=num_threads,
            batches=engine.batch_counter,
            instructions=executor.instruction_count,
            timed_out=engine.timed_out,
            timing=timing,
        )
        self.runs.append(run)
        self.bus.publish_kernel_end(run, launch)
        return run

    @staticmethod
    def _emit_warp_activity(launch: LaunchInfo, engine: Scheduler) -> None:
        """Per-warp activity spans on the synthetic "simulated time" track.

        Timestamps are scheduler batch indices, not microseconds — the
        span shows *when in the interleaving* each warp was live, which
        is the shape races hide in.  A synthetic pid keeps these off the
        wall-clock tracks.
        """
        activity = engine.span_activity
        if not activity:
            return
        pid = TRACER.synthetic_pid("simulated time (batches)")
        for warp_id, (first, last) in sorted(activity.items()):
            TRACER.add_complete(
                f"{launch.kernel_name} w{warp_id}",
                float(first),
                float(max(1, last - first)),
                cat="warp",
                pid=pid,
                tid=warp_id,
                args={"seed": launch.seed},
            )


class _Executor:
    """The scheduler's machine interface for one launch."""

    __slots__ = ("device", "launch", "instruction_count")

    def __init__(self, device: Device, launch: LaunchInfo):
        self.device = device
        self.launch = launch
        self.instruction_count = 0

    # -- memory / fence / compute --------------------------------------

    def exec_group(self, group, cls, active_mask, batch: int) -> None:
        """Execute one convergence group of ``cls`` instructions.

        In lane order, each thread runs its operation, publishes its event
        and advances: a mutator and the weak-visibility store buffers see
        threads in that order.  The group's integer native cycles are
        charged once, exactly whatever the grouping; the ``finally``
        charges and counts just the threads that started when one of
        them aborts the launch.
        """
        device, launch = self.device, self.launch
        memory, cost_of = device.memory, device.costs.cost_of
        cycles = count = 0
        try:
            if cls is Load:
                load, publish = memory.device_load, device.bus.publish_memory
                for count, thread in enumerate(group, 1):
                    instr = thread.pending
                    cycles += cost_of(instr)
                    loc = thread.ctx.location
                    value = load(instr.address, loc.block_id)
                    publish(MemoryEvent(
                        AccessKind.LOAD, instr.address, loc, thread.pending_ip,
                        active_mask, value_loaded=value, batch=batch,
                    ), launch)
                    thread.complete(value)
            elif cls is Store:
                store, publish = memory.device_store, device.bus.publish_memory
                for count, thread in enumerate(group, 1):
                    instr = thread.pending
                    cycles += cost_of(instr)
                    loc = thread.ctx.location
                    store(instr.address, instr.value, loc.block_id)
                    publish(MemoryEvent(
                        AccessKind.STORE, instr.address, loc,
                        thread.pending_ip, active_mask,
                        value_stored=instr.value, batch=batch,
                    ), launch)
                    thread.complete(None)
            elif cls is Atomic:
                atomic = memory.device_atomic
                publish = device.bus.publish_memory
                for count, thread in enumerate(group, 1):
                    instr = thread.pending
                    cycles += cost_of(instr)
                    loc = thread.ctx.location
                    old = atomic(
                        instr.op, instr.address, instr.value, loc.block_id,
                        scope=instr.scope, compare=instr.compare,
                    )
                    publish(MemoryEvent(
                        AccessKind.ATOMIC, instr.address, loc,
                        thread.pending_ip, active_mask,
                        scope=instr.scope.effective, atomic_op=instr.op,
                        value_stored=instr.value, value_loaded=old,
                        compare=instr.compare, batch=batch,
                    ), launch)
                    thread.complete(old)
            elif cls is Fence:
                publish = device.bus.publish_sync
                for count, thread in enumerate(group, 1):
                    instr = thread.pending
                    cycles += cost_of(instr)
                    loc = thread.ctx.location
                    scope = instr.scope.effective
                    if memory.weak_visibility and scope is Scope.DEVICE:
                        memory.flush_block(loc.block_id)
                    publish(SyncEvent(
                        SyncKind.FENCE, loc, thread.pending_ip, active_mask,
                        scope=scope, batch=batch,
                    ), launch)
                    thread.complete(None)
            elif cls is Compute:
                for count, thread in enumerate(group, 1):
                    cycles += cost_of(thread.pending)
                    thread.complete(None)
            else:  # pragma: no cover - Instruction subclasses are closed
                raise TypeError(f"unhandled instruction class {cls!r}")
        finally:
            launch.timing.charge(Category.NATIVE, cycles)
            self.instruction_count += count

    # -- barriers --------------------------------------------------------

    def on_block_barrier(self, block_id: int, threads, batch: int) -> None:
        timing = self.launch.timing
        timing.charge(
            Category.NATIVE, self.device.costs.syncthreads * len(threads)
        )
        self.instruction_count += len(threads)
        lead = threads[0]
        event = SyncEvent(
            kind=SyncKind.SYNCTHREADS,
            where=lead.ctx.location,
            ip=lead.pending_ip,
            active_mask=frozenset(t.ctx.lane for t in threads),
            scope=Scope.BLOCK,
            batch=batch,
        )
        self.device.bus.publish_sync(event, self.launch)

    def on_warp_barrier(self, warp_id: int, threads, batch: int) -> None:
        timing = self.launch.timing
        timing.charge(Category.NATIVE, self.device.costs.syncwarp * len(threads))
        self.instruction_count += len(threads)
        lead = threads[0]
        event = SyncEvent(
            kind=SyncKind.SYNCWARP,
            where=lead.ctx.location,
            ip=lead.pending_ip,
            active_mask=frozenset(t.ctx.lane for t in threads),
            scope=Scope.BLOCK,
            batch=batch,
        )
        self.device.bus.publish_sync(event, self.launch)
