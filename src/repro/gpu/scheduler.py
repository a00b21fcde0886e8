"""Warp schedulers: pre-Volta lockstep and Volta-style ITS.

GPUs schedule threads in warps; how the warp's threads interleave is
exactly what separates the two hardware generations the paper discusses
(section 2.1):

- **Lockstep** (pre-Volta): threads of a warp execute in SIMT lockstep;
  divergent branches are serialized and reconverge.  A warp whose threads
  wait on each other (e.g. a consumer spinning on a lock its sibling holds)
  deadlocks — which our lockstep policy reproduces as a livelock caught by
  the step timeout.

- **ITS** (Volta onward): threads of a warp make *independent progress*.
  Implicit warp-level barriers after every instruction disappear, which is
  the source of the "missing syncwarp" races iGUARD detects.

Both policies operate on *convergence groups*: the threads of a warp whose
next instruction is at the same source location.  A group executes as one
batch — its lanes are the instruction's *active mask*.  Divergence splits
groups (threads branch to different lines); reconvergence merges them
(threads arrive back at the same line).

The scheduler also implements ``syncthreads``/``syncwarp`` barrier
bookkeeping with deadlock detection, and enforces a step budget (the
paper's "parameterized timeout" for livelocked racy kernels, section 5).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.rng import SplitMix64
from repro.errors import DeadlockError
from repro.gpu.instructions import Syncthreads, Syncwarp
from repro.gpu.kernel import KernelThread, ThreadStatus
from repro.obs.metrics import HOT
from repro.obs.spans import TRACER


class SchedulerKind(enum.Enum):
    """Which warp-scheduling policy to simulate."""

    LOCKSTEP = "lockstep"
    ITS = "its"


class _WarpState:
    """Scheduler-side bookkeeping for one warp."""

    __slots__ = ("warp_id", "block_id", "threads", "ready", "diverged")

    def __init__(self, warp_id: int, block_id: int):
        self.warp_id = warp_id
        self.block_id = block_id
        self.threads: List[KernelThread] = []
        #: Whether any thread of the warp is READY (``ready_groups`` is
        #: nonempty exactly when this is true).  Only the scheduler moves
        #: threads between states, so it refreshes this after each batch
        #: on the warp and each barrier release touching it.
        self.ready = False
        #: Observability only: whether this warp's READY threads were last
        #: seen in more than one convergence group (tracks divergence /
        #: reconvergence transitions for the metrics registry).
        self.diverged = False

    def refresh(self) -> None:
        """Recompute :attr:`ready` from the threads' states."""
        ready = ThreadStatus.READY
        for thread in self.threads:
            if thread.status is ready:
                self.ready = True
                return
        self.ready = False

    def ready_groups(self) -> List[List[KernelThread]]:
        """Convergence groups of READY threads, in (line, kind) order.

        The key is the source location plus the instruction class: two
        threads suspended at the same line can still be at *different*
        instructions of that line (e.g. the load and the store of a
        compound assignment), and must not share a group.
        """
        ready = ThreadStatus.READY
        groups: Dict[Tuple[str, str], List[KernelThread]] = {}
        for thread in self.threads:
            if thread.status is ready:
                key = (thread.pending_ip, type(thread.pending).__name__)
                group = groups.get(key)
                if group is None:
                    groups[key] = [thread]
                else:
                    group.append(thread)
        if len(groups) == 1:
            return list(groups.values())
        return [groups[key] for key in sorted(groups)]


def _barrier_waiters(threads, status: ThreadStatus) -> List[KernelThread]:
    """The threads parked at ``status`` if every live one is, else []."""
    done = ThreadStatus.DONE
    waiting = []
    for thread in threads:
        if thread.status is status:
            waiting.append(thread)
        elif thread.status is not done:
            return []
    return waiting


class Scheduler:
    """Drives a grid of :class:`KernelThread` objects to completion.

    The machine-interface object supplied to :meth:`run` must provide::

        exec_group(group, cls, active_mask, batch) -> None
        on_block_barrier(block_id, threads, batch) -> None
        on_warp_barrier(warp_id, threads, batch) -> None

    A convergence group is the unit of dispatch: every thread in it has a
    pending instruction of the same class ``cls``.  ``exec_group`` handles
    Load/Store/Atomic/Fence/Compute groups, executing and advancing each
    thread in lane order; barriers are resolved by the scheduler itself
    and reported via the barrier callbacks when they *complete*.
    """

    def __init__(
        self,
        threads: Sequence[KernelThread],
        warp_size: int,
        kind: SchedulerKind = SchedulerKind.ITS,
        seed: int = 0,
        max_batches: int = 2_000_000,
        split_probability: float = 0.25,
    ):
        self.kind = kind
        self.warp_size = warp_size
        self.rng = SplitMix64(seed)
        self.max_batches = max_batches
        #: ITS only: probability that a convergence group executes as a
        #: random sub-batch instead of whole.  Volta's ITS batches
        #: convergent threads opportunistically but guarantees nothing —
        #: splitting reproduces the interleavings where converged threads
        #: of one warp race with each other (e.g. lost updates under
        #: per-thread locking, Figure 9).
        self.split_probability = split_probability
        self.batch_counter = 0
        self.timed_out = False
        self._warps: List[_WarpState] = []
        self._blocks: Dict[int, List[KernelThread]] = {}
        self._all_threads: List[KernelThread] = list(threads)
        #: Completion scan hint: threads before this index are done.  A
        #: done thread never resumes, so the prefix only grows and the
        #: per-batch completion check amortizes to O(1).
        self._done_prefix = 0
        #: Observability only: per-warp (first batch, last batch) activity
        #: bounds, emitted by the device as simulated-time trace spans.
        #: None (tracing off) keeps the batch loop free of dict traffic.
        self.span_activity: Optional[Dict[int, Tuple[int, int]]] = (
            {} if TRACER.enabled else None
        )
        #: The warps of each block, whose readiness a block barrier's
        #: release changes.
        self._block_warps: Dict[int, List[_WarpState]] = {}
        warp_map: Dict[int, _WarpState] = {}
        for thread in threads:
            loc = thread.ctx.location
            warp = warp_map.get(loc.warp_id)
            if warp is None:
                warp = _WarpState(loc.warp_id, loc.block_id)
                warp_map[loc.warp_id] = warp
                self._warps.append(warp)
                self._block_warps.setdefault(loc.block_id, []).append(warp)
            warp.threads.append(thread)
            self._blocks.setdefault(loc.block_id, []).append(thread)
        for warp in self._warps:
            warp.threads.sort(key=lambda t: t.ctx.lane)
            warp.refresh()

    # ------------------------------------------------------------------
    # Batch selection
    # ------------------------------------------------------------------

    def _pick_batch(self) -> Optional[Tuple[_WarpState, List[KernelThread]]]:
        """Choose the next convergence group to execute, or None.

        Candidate warps are shortlisted by their tracked ``ready`` flag;
        the group structure is built only for the one warp selected.  The
        warp choice draws on the candidate *count*, which is identical
        either way, so the RNG stream — and therefore every simulated
        interleaving — is unchanged by the shortcut.
        """
        candidates = [warp for warp in self._warps if warp.ready]
        if not candidates:
            return None
        if HOT.enabled:
            HOT.sched_occupancy.observe(len(candidates))
        if self.kind is SchedulerKind.LOCKSTEP:
            # Round-robin across warps; within a warp, run the group that is
            # "furthest behind" (lowest source line), approximating the SIMT
            # reconvergence stack.
            warp = candidates[self.batch_counter % len(candidates)]
            groups = warp.ready_groups()
            if HOT.enabled:
                self._note_convergence(warp, len(groups))
            return warp, groups[0]
        # ITS: independent progress — pick a warp and a group at random.
        warp = candidates[self.rng.randint(len(candidates))]
        groups = warp.ready_groups()
        if HOT.enabled:
            self._note_convergence(warp, len(groups))
        group = groups[self.rng.randint(len(groups))]
        if len(group) > 1 and self.rng.random() < self.split_probability:
            # Execute only a random prefix-free subset: the rest of the
            # group falls behind, modelling ITS's lack of lockstep.
            keep = 1 + self.rng.randint(len(group) - 1)
            shuffled = list(group)
            self.rng.shuffle(shuffled)
            group = sorted(shuffled[:keep], key=lambda t: t.ctx.lane)
            if HOT.enabled:
                HOT.sched_splits.inc()
        return warp, group

    @staticmethod
    def _note_convergence(warp: _WarpState, num_groups: int) -> None:
        """Track divergence/reconvergence transitions of the picked warp."""
        if num_groups > 1:
            if not warp.diverged:
                warp.diverged = True
            HOT.sched_divergent.inc()
        elif warp.diverged:
            warp.diverged = False
            HOT.sched_reconverged.inc()

    # ------------------------------------------------------------------
    # Barrier resolution
    # ------------------------------------------------------------------

    def _try_release_block_barrier(self, block_id: int, machine) -> None:
        threads = _barrier_waiters(
            self._blocks[block_id], ThreadStatus.AT_BLOCK_BARRIER
        )
        if threads:
            if HOT.enabled:
                HOT.sched_barrier_releases.inc()
            machine.on_block_barrier(block_id, threads, self.batch_counter)
            for thread in threads:
                thread.release_from_barrier()
            for warp in self._block_warps[block_id]:
                warp.refresh()

    def _try_release_warp_barrier(self, warp: _WarpState, machine) -> None:
        waiting = _barrier_waiters(warp.threads, ThreadStatus.AT_WARP_BARRIER)
        if waiting:
            if HOT.enabled:
                HOT.sched_barrier_releases.inc()
            machine.on_warp_barrier(warp.warp_id, waiting, self.batch_counter)
            for thread in waiting:
                thread.release_from_barrier()
            warp.refresh()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _all_done(self) -> bool:
        threads = self._all_threads
        total = len(threads)
        index = self._done_prefix
        done = ThreadStatus.DONE
        while index < total and threads[index].status is done:
            index += 1
        self._done_prefix = index
        return index == total

    def _check_deadlock(self) -> None:
        """No READY threads, no releasable barrier, work remains: deadlock.

        The classic trigger is a *divergent barrier*: part of a block waits
        at ``syncthreads`` while the rest took a branch without one.
        """
        waiting = [
            t
            for warp in self._warps
            for t in warp.threads
            if t.status
            in (ThreadStatus.AT_BLOCK_BARRIER, ThreadStatus.AT_WARP_BARRIER)
        ]
        if waiting:
            sites = sorted({t.pending_ip for t in waiting})
            raise DeadlockError(
                f"{len(waiting)} thread(s) blocked forever at barrier(s) "
                f"near {', '.join(sites)}"
            )

    def _release_any_barrier(self, machine) -> bool:
        """Sweep all barriers; returns True if any thread was released.

        Needed when the last obstacle to a barrier was a sibling thread
        *finishing* (rather than arriving): completion does not trigger the
        eager per-batch release checks.
        """
        released = False
        for block_id in self._blocks:
            waiting = [
                t
                for t in self._blocks[block_id]
                if t.status is ThreadStatus.AT_BLOCK_BARRIER
            ]
            if waiting:
                self._try_release_block_barrier(block_id, machine)
                released = released or any(
                    t.status is not ThreadStatus.AT_BLOCK_BARRIER for t in waiting
                )
        for warp in self._warps:
            waiting = [
                t
                for t in warp.threads
                if t.status is ThreadStatus.AT_WARP_BARRIER
            ]
            if waiting:
                self._try_release_warp_barrier(warp, machine)
                released = released or any(
                    t.status is not ThreadStatus.AT_WARP_BARRIER for t in waiting
                )
        return released

    def run(self, machine) -> None:
        """Execute all threads to completion (or step-budget timeout)."""
        while not self._all_done():
            picked = self._pick_batch()
            if picked is None:
                # A barrier may have become releasable because its last
                # missing thread finished instead of arriving.
                if self._release_any_barrier(machine):
                    continue
                self._check_deadlock()
                break
            if self.batch_counter >= self.max_batches:
                self.timed_out = True
                break
            self._execute_batch(*picked, machine)

    def _execute_batch(
        self, warp: _WarpState, group: List[KernelThread], machine
    ) -> None:
        self.batch_counter += 1
        batch = self.batch_counter
        if HOT.enabled:
            HOT.sched_batches.inc()
        if self.span_activity is not None:
            bounds = self.span_activity.get(warp.warp_id)
            self.span_activity[warp.warp_id] = (
                (batch, batch) if bounds is None else (bounds[0], batch)
            )
        # Every thread of a group has the same instruction class.
        cls = type(group[0].pending)
        if cls is Syncthreads:
            for thread in group:
                thread.park_at_barrier(ThreadStatus.AT_BLOCK_BARRIER)
            self._try_release_block_barrier(warp.block_id, machine)
        elif cls is Syncwarp:
            for thread in group:
                thread.park_at_barrier(
                    ThreadStatus.AT_WARP_BARRIER, thread.pending.mask
                )
            self._try_release_warp_barrier(warp, machine)
        else:
            active_mask = frozenset([t.ctx.lane for t in group])
            machine.exec_group(group, cls, active_mask, batch)
        warp.refresh()
