"""Symbolic per-thread unrolling of kernel generators.

A kernel here is a Python generator; the only way to know which
instructions a thread executes is to run it.  The extractor drives one
:class:`~repro.gpu.kernel.KernelThread` per simulated thread — the same
wrapper the dynamic scheduler uses, so instruction pointers (``name:line``
strings) match the dynamic race reports exactly — but *without* a
scheduler, memory, or other threads.  Loads and atomics receive values
from a deterministic :class:`ValuePolicy` instead of from memory.

The policy is what makes spin loops terminate: every atomic site returns
an escalating counter (0, 1, 2, ...) per thread.  A CUDA-guidebook CAS
acquire (``while cas(lock,0,1) != 0``) observes 0 and exits immediately;
a flag wait (``while atomic_load(flag) < target``) observes 0, 1, ...
and exits after ``target`` polls.  A site that is polled more than once
consecutively is recorded as a *spin site* — the checker's
fence-publication chain rule builds on the fact that the first observed
value (0, the true initial value of a fresh flag) did **not** release the
spin, so a real execution can only pass it after another thread changed
the flag.

Value-dependent control flow outside that spin shape could desynchronize
the static trace from real executions, which would be *unsound* (a missed
site never enters the may-race set).  Guard: every kernel is extracted
twice under two value policies that disagree on every load; if any
thread's ``(ip, kind)`` footprint differs, the kernel is rejected as
unanalyzable (:class:`ExtractionError`) and the analysis falls back to
"every site may race".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.gpu.events import AccessKind
from repro.gpu.ids import ThreadLocation, locate
from repro.gpu.instructions import (
    Atomic,
    AtomicOp,
    Compute,
    Fence,
    Load,
    Scope,
    Store,
    Syncthreads,
    Syncwarp,
    scope_covers,
)
from repro.gpu.kernel import KernelThread, ThreadCtx

#: Instructions one thread may execute before extraction gives up.  Real
#: kernels in this repo run a few dozen instructions per thread; anything
#: past this budget is an unbounded loop the value policy failed to exit.
STEP_BUDGET = 4096

#: Metadata granularity the analysis mirrors (config.granularity_bytes
#: default): a "granule" here must mean the same thing as in the dynamic
#: detector's metadata table, or static and dynamic verdicts would misalign.
GRANULARITY_BYTES = 4


class ExtractionError(Exception):
    """The kernel could not be soundly unrolled; treat all sites as racy."""


class ValuePolicy:
    """Deterministic results for loads/atomics during extraction.

    ``load_bias`` only shifts load results; atomics always see the
    escalating per-site counter so spin exits stay identical across the
    two differencing runs.
    """

    def __init__(self, load_bias: int = 0):
        self.load_bias = load_bias
        self._site_counts: Dict[str, int] = {}

    def load_result(self, ip: str) -> int:
        return self.load_bias

    def atomic_result(self, ip: str) -> int:
        count = self._site_counts.get(ip, 0)
        self._site_counts[ip] = count + 1
        return count


@dataclass
class StaticAccess:
    """One executed global-memory access in a thread's unrolled trace."""

    index: int  # program-order position within the thread's trace
    ip: str
    kind: AccessKind
    address: int
    granule: int
    scope: Scope  # effective scope (SYSTEM folded onto DEVICE)
    atomic_op: Optional[AtomicOp]
    value: Optional[int]  # stored/added value, None for loads
    location: ThreadLocation
    blk_interval: int  # syncthreads this thread completed before the access
    warp_interval: int  # syncwarps completed before the access
    dev_fences: int  # device-scope fences this thread executed before it
    blk_fences: int  # block-scope fences executed before it
    spin: bool = False  # part of a detected polling loop

    @property
    def is_write(self) -> bool:
        return self.kind is not AccessKind.LOAD

    @property
    def is_atomic(self) -> bool:
        return self.kind is AccessKind.ATOMIC

    @property
    def value_changing(self) -> bool:
        """Whether the access can change the stored word's value.

        The spin helpers read flags with ``atomicAdd(addr, 0)``; those are
        writes to the detector but can never change what another spin
        observes — the distinction the chain rule's single-writer
        condition needs.
        """
        if self.kind is AccessKind.LOAD:
            return False
        if self.kind is AccessKind.STORE:
            return True
        if self.atomic_op in (AtomicOp.ADD, AtomicOp.SUB) and self.value == 0:
            return False
        return True


@dataclass
class ThreadTrace:
    """Everything one thread did, in program order."""

    location: ThreadLocation
    accesses: List[StaticAccess] = field(default_factory=list)
    total_syncthreads: int = 0
    total_syncwarps: int = 0
    total_dev_fences: int = 0
    total_blk_fences: int = 0
    #: (kind-tag, position) markers for fences, used by the chain rule:
    #: each entry is (position-in-instruction-order, effective Scope).
    fences: List[Tuple[int, Scope]] = field(default_factory=list)
    has_cas: bool = False
    has_exch: bool = False


@dataclass
class KernelSummary:
    """The static unrolling of one kernel launch."""

    kernel_name: str
    grid_dim: int
    block_dim: int
    warp_size: int
    threads: List[ThreadTrace] = field(default_factory=list)
    analyzable: bool = True
    reason: Optional[str] = None

    @property
    def has_lock_ops(self) -> bool:
        """CAS/EXCH anywhere: lock tables fill, R5 (IL) can fire."""
        return any(t.has_cas or t.has_exch for t in self.threads)

    def all_sites(self) -> List[str]:
        """Every instruction site (ip) observed across all threads."""
        seen: Dict[str, None] = {}
        for trace in self.threads:
            for access in trace.accesses:
                seen.setdefault(access.ip, None)
        return list(seen)


def _unroll_thread(
    kernel_fn: Callable,
    ctx: ThreadCtx,
    args: Tuple[Any, ...],
    mutator,
    policy: ValuePolicy,
    step_budget: int,
) -> ThreadTrace:
    """Drive one KernelThread to completion under the value policy."""
    thread = KernelThread(kernel_fn, ctx, args, mutator=mutator)
    trace = ThreadTrace(location=ctx.location)
    blk_i = warp_i = dev_f = blk_f = 0
    steps = 0
    position = 0  # instruction-order position (accesses + fences share it)
    prev_atomic_ip: Optional[str] = None
    spin_ips: Dict[str, None] = {}
    while thread.live:
        steps += 1
        if steps > step_budget:
            raise ExtractionError(
                f"{thread.kernel_name}: thread {ctx.tid} exceeded the "
                f"{step_budget}-instruction extraction budget (unbounded "
                "loop the value policy could not exit)"
            )
        instr = thread.pending
        ip = thread.pending_ip
        result = None
        if isinstance(instr, Load):
            trace.accesses.append(
                StaticAccess(
                    index=position,
                    ip=ip,
                    kind=AccessKind.LOAD,
                    address=instr.address,
                    granule=instr.address // GRANULARITY_BYTES,
                    scope=Scope.DEVICE,
                    atomic_op=None,
                    value=None,
                    location=ctx.location,
                    blk_interval=blk_i,
                    warp_interval=warp_i,
                    dev_fences=dev_f,
                    blk_fences=blk_f,
                )
            )
            result = policy.load_result(ip)
            prev_atomic_ip = None
        elif isinstance(instr, Store):
            trace.accesses.append(
                StaticAccess(
                    index=position,
                    ip=ip,
                    kind=AccessKind.STORE,
                    address=instr.address,
                    granule=instr.address // GRANULARITY_BYTES,
                    scope=Scope.DEVICE,
                    atomic_op=None,
                    value=instr.value if isinstance(instr.value, int) else None,
                    location=ctx.location,
                    blk_interval=blk_i,
                    warp_interval=warp_i,
                    dev_fences=dev_f,
                    blk_fences=blk_f,
                )
            )
            prev_atomic_ip = None
        elif isinstance(instr, Atomic):
            if instr.op is AtomicOp.CAS:
                trace.has_cas = True
            if instr.op is AtomicOp.EXCH:
                trace.has_exch = True
            trace.accesses.append(
                StaticAccess(
                    index=position,
                    ip=ip,
                    kind=AccessKind.ATOMIC,
                    address=instr.address,
                    granule=instr.address // GRANULARITY_BYTES,
                    scope=instr.scope.effective,
                    atomic_op=instr.op,
                    value=instr.value if isinstance(instr.value, int) else None,
                    location=ctx.location,
                    blk_interval=blk_i,
                    warp_interval=warp_i,
                    dev_fences=dev_f,
                    blk_fences=blk_f,
                )
            )
            if prev_atomic_ip is ip or prev_atomic_ip == ip:
                spin_ips[ip] = None
            prev_atomic_ip = ip
            result = policy.atomic_result(ip)
        elif isinstance(instr, Syncthreads):
            blk_i += 1
            trace.total_syncthreads += 1
            prev_atomic_ip = None
        elif isinstance(instr, Syncwarp):
            warp_i += 1
            trace.total_syncwarps += 1
            prev_atomic_ip = None
        elif isinstance(instr, Fence):
            if scope_covers(instr.scope, Scope.DEVICE):
                dev_f += 1
                trace.total_dev_fences += 1
            else:
                blk_f += 1
                trace.total_blk_fences += 1
            trace.fences.append((position, instr.scope.effective))
            prev_atomic_ip = None
        elif isinstance(instr, Compute):
            prev_atomic_ip = None
        position += 1
        thread.complete(result)
    for access in trace.accesses:
        if access.ip in spin_ips:
            access.spin = True
    return trace


def _footprint(trace: ThreadTrace) -> Tuple[Tuple[str, AccessKind], ...]:
    return tuple((a.ip, a.kind) for a in trace.accesses)


def extract_kernel(
    kernel_fn: Callable,
    grid_dim: int,
    block_dim: int,
    warp_size: int,
    args: Tuple[Any, ...] = (),
    mutator_factory: Optional[Callable[[], Any]] = None,
    step_budget: int = STEP_BUDGET,
) -> KernelSummary:
    """Unroll every thread of a launch into a :class:`KernelSummary`.

    ``mutator_factory`` builds one fresh fault-injection mutator per
    extraction pass (never reuse the device's live mutator: extraction
    would pollute its ``applied`` counter and stashed-instruction state).
    Raises :class:`ExtractionError` when the kernel cannot be soundly
    unrolled; callers usually wrap this via :func:`extract_or_unanalyzable`.
    """
    summary = KernelSummary(
        kernel_name=getattr(kernel_fn, "__name__", "kernel"),
        grid_dim=grid_dim,
        block_dim=block_dim,
        warp_size=warp_size,
    )
    num_threads = grid_dim * block_dim
    # Pass 1 (load bias 0) produces the traces; pass 2 (bias 1) only
    # checks that no thread's footprint depends on loaded values.
    for load_bias in (0, 1):
        policy_traces: List[ThreadTrace] = []
        mutator = mutator_factory() if mutator_factory is not None else None
        for tid in range(num_threads):
            loc = locate(tid, block_dim, warp_size)
            ctx = ThreadCtx(loc, block_dim, grid_dim, warp_size)
            policy_traces.append(
                _unroll_thread(
                    kernel_fn,
                    ctx,
                    args,
                    mutator,
                    ValuePolicy(load_bias=load_bias),
                    step_budget,
                )
            )
        if load_bias == 0:
            summary.threads = policy_traces
        else:
            for base, probe in zip(summary.threads, policy_traces):
                if _footprint(base) != _footprint(probe):
                    raise ExtractionError(
                        f"{summary.kernel_name}: thread "
                        f"{base.location.global_tid} has value-dependent "
                        "control flow (footprint differs across load "
                        "value policies)"
                    )
    return summary


def extract_or_unanalyzable(
    kernel_fn: Callable,
    grid_dim: int,
    block_dim: int,
    warp_size: int,
    args: Tuple[Any, ...] = (),
    mutator_factory: Optional[Callable[[], Any]] = None,
) -> KernelSummary:
    """Like :func:`extract_kernel` but degrades to an unanalyzable summary.

    Any failure — extraction budget, value-dependent control flow, or an
    exception raised by the kernel body itself under the synthetic value
    policy — yields ``analyzable=False``, which downstream consumers must
    treat as "every site may race".
    """
    try:
        return extract_kernel(
            kernel_fn, grid_dim, block_dim, warp_size, args, mutator_factory
        )
    except Exception as exc:  # noqa: BLE001 - any failure means "unknown"
        summary = KernelSummary(
            kernel_name=getattr(kernel_fn, "__name__", "kernel"),
            grid_dim=grid_dim,
            block_dim=block_dim,
            warp_size=warp_size,
            analyzable=False,
            reason=f"{type(exc).__name__}: {exc}",
        )
        return summary
