"""Kernel plumbing: thread contexts and generator-thread wrappers.

A *kernel* here is a Python generator function with signature
``kernel(ctx, *args)`` that yields :mod:`repro.gpu.instructions` objects.
Each simulated thread runs one generator instance.  The scheduler never
touches generators directly; it works with :class:`KernelThread`, which
tracks the thread's pending instruction, its instruction pointer (source
line, which doubles as the "SASS IP" in race reports), and its barrier
status.
"""

from __future__ import annotations

import enum
import inspect
from typing import Any, Callable, Optional, Tuple

from repro.errors import KernelSourceError
from repro.gpu.ids import ThreadLocation
from repro.gpu.instructions import Instruction

#: Shared ip strings, keyed by (code name, line): one object per site.
_IP_POOL: dict = {}


class ThreadCtx:
    """Per-thread view of the launch: the CUDA built-in variables.

    Attributes:
        tid: ``blockIdx.x * blockDim.x + threadIdx.x`` — global linear id.
        tid_in_block: ``threadIdx.x``.
        block_id: ``blockIdx.x``.
        lane: thread index within the warp.
        warp_id: global warp index.
        warp_in_block: warp index within the block.
        block_dim: ``blockDim.x`` (threads per block).
        grid_dim: ``gridDim.x`` (blocks per grid).
        warp_size: ``warpSize``.
    """

    __slots__ = (
        "location",
        "block_dim",
        "grid_dim",
        "warp_size",
    )

    def __init__(
        self,
        location: ThreadLocation,
        block_dim: int,
        grid_dim: int,
        warp_size: int,
    ):
        self.location = location
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.warp_size = warp_size

    @property
    def tid(self) -> int:
        return self.location.global_tid

    @property
    def tid_in_block(self) -> int:
        return self.location.tid_in_block

    @property
    def block_id(self) -> int:
        return self.location.block_id

    @property
    def lane(self) -> int:
        return self.location.lane

    @property
    def warp_id(self) -> int:
        return self.location.warp_id

    @property
    def warp_in_block(self) -> int:
        return self.location.warp_in_block

    @property
    def num_threads(self) -> int:
        """Total threads in the grid."""
        return self.block_dim * self.grid_dim

    @property
    def is_block_leader(self) -> bool:
        """Whether this is thread 0 of its block."""
        return self.tid_in_block == 0

    @property
    def is_grid_leader(self) -> bool:
        """Whether this is thread 0 of the grid."""
        return self.tid == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ThreadCtx(tid={self.tid}, block={self.block_id}, "
            f"warp={self.warp_id}, lane={self.lane})"
        )


class ThreadStatus(enum.Enum):
    """Scheduler-visible state of a simulated thread."""

    READY = "ready"  # has a pending instruction to execute
    AT_BLOCK_BARRIER = "at_block_barrier"
    AT_WARP_BARRIER = "at_warp_barrier"
    DONE = "done"


class KernelThread:
    """One simulated GPU thread: a generator plus scheduling state."""

    __slots__ = (
        "ctx",
        "kernel_name",
        "_gen",
        "pending",
        "pending_ip",
        "status",
        "barrier_mask",
        "mutator",
        "_inject",
    )

    def __init__(
        self,
        kernel_fn: Callable,
        ctx: ThreadCtx,
        args: Tuple[Any, ...],
        mutator=None,
    ):
        self.ctx = ctx
        self.kernel_name = getattr(kernel_fn, "__name__", "kernel")
        gen = kernel_fn(ctx, *args)
        if not inspect.isgenerator(gen):
            raise KernelSourceError(
                f"kernel {self.kernel_name!r} must be a generator function "
                "(it must contain at least one yield)"
            )
        self._gen = gen
        self.pending: Optional[Instruction] = None
        self.pending_ip: str = f"{self.kernel_name}:start"
        self.status = ThreadStatus.READY
        self.barrier_mask: Optional[int] = None
        #: Fault-injection hook (repro.faults.mutators.StreamMutator).
        #: The hook lives here — not as a generator wrapper — because a
        #: wrapper's frame would terminate the ``gi_yieldfrom`` walk in
        #: :meth:`_capture_ip` and collapse every instruction onto one ip,
        #: destroying convergence grouping and race-site reporting.
        self.mutator = mutator
        #: Instructions a mutator queued to run before the generator is
        #: advanced again (e.g. a store reordered past a barrier).
        self._inject: Optional[list] = None
        self._advance(None, first=True)

    # ------------------------------------------------------------------

    def _capture_ip(self) -> str:
        # Walk the yield-from delegation chain so instructions yielded by
        # subgenerators (CG sync, block primitives, lock helpers) report
        # their own source location, not the outer ``yield from`` line.
        gen = self._gen
        while True:
            inner = getattr(gen, "gi_yieldfrom", None)
            if inner is None or getattr(inner, "gi_frame", None) is None:
                break
            gen = inner
        frame = gen.gi_frame
        if frame is None:  # pragma: no cover - only after StopIteration
            return f"{self.kernel_name}:end"
        name = gen.gi_code.co_name
        lineno = frame.f_lineno
        # Pool the ip string: every thread suspended at one source line
        # shares one object, so the scheduler's convergence-group keys
        # hash and compare by identity instead of re-comparing characters.
        key = (name, lineno)
        ip = _IP_POOL.get(key)
        if ip is None:
            ip = _IP_POOL[key] = f"{name}:{lineno}"
        return ip

    def _advance(self, value=None, first: bool = False) -> None:
        """Run the generator until its next yield (or completion).

        When a mutator is installed, each fetched instruction is offered to
        it: the mutator may keep it, replace it, drop it (the yield then
        evaluates to None, which is what barrier/fence/store yields produce
        anyway), or schedule extra instructions to execute before the
        generator resumes.  Results of injected instructions are discarded;
        the generator only ever sees the result of its own instruction.
        """
        if self._inject:
            self.pending, self.pending_ip = self._inject.pop(0)
            self.status = ThreadStatus.READY
            return
        while True:
            try:
                if first:
                    instr = next(self._gen)
                else:
                    instr = self._gen.send(value)
            except StopIteration:
                self.pending = None
                self.status = ThreadStatus.DONE
                return
            if not isinstance(instr, Instruction):
                raise KernelSourceError(
                    f"kernel {self.kernel_name!r} yielded {instr!r}; kernels "
                    "must yield Instruction objects (use the helpers in "
                    "repro.gpu.instructions)"
                )
            ip = self._capture_ip()
            if self.mutator is not None:
                plan = self.mutator.on_instruction(self, instr, ip)
                if plan is None:  # dropped: complete the yield with None
                    first, value = False, None
                    continue
                if plan is not instr:
                    steps = plan if isinstance(plan, list) else [(plan, ip)]
                    instr, ip = steps[0]
                    if len(steps) > 1:
                        if self._inject is None:
                            self._inject = []
                        self._inject.extend(steps[1:])
            self.pending = instr
            self.pending_ip = ip
            self.status = ThreadStatus.READY
            return

    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.status is ThreadStatus.DONE

    #: Deliver the result of the pending instruction and fetch the next
    #: (the executor's per-thread call, so it binds ``_advance`` directly).
    complete = _advance

    def park_at_barrier(self, status: ThreadStatus, mask: Optional[int] = None) -> None:
        """Mark the thread as waiting at a block or warp barrier."""
        self.status = status
        self.barrier_mask = mask

    def release_from_barrier(self) -> None:
        """Resume past a barrier: the barrier instruction completes."""
        self.barrier_mask = None
        self._advance(None)
