"""An executable Table 2 and Figure 4 reference, and its diff against iGUARD.

:class:`Reference` is a :class:`~repro.instrument.nvbit.Tool` that runs
the default :class:`~repro.core.config.IGuardConfig` rules as the paper
states them: P1-P6 and R1-R5 over one last-accessor and one last-writer
record per 4-byte granule, CAS/EXCH lock inference (section 6.3) and
same-warp coalescing (section 6.5).  It reads no iGUARD state and differs
from iGUARD only in representation: exact lock addresses (not 18-bit
hashes, ``lock-hash``) and lock sets (not 16-bit Bloom summaries,
``bloom``), unbounded lock tables (``lock-capacity``) and metadata
(``eviction``), and counters that never wrap (``counter-wrap``).

:func:`diff` compares the two detectors one checked access at a time,
iGUARD's verdicts read through the probe's ``on_outcome`` hook.  A
divergence gets the label of the one approximation that, applied to the
reference's exact inputs, reproduces iGUARD's verdict.  A divergence no
label explains is *unlabelled*; the fuzzer and the recall gate fail on it.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, List, Tuple

from repro.common.bloom import BloomFilter16
from repro.common.hashing import address_hash18
from repro.core.config import DEFAULT_CONFIG
from repro.core.detector import IGuard
from repro.core.metadata import (
    BLK_BAR_BITS, BLK_FENCE_BITS, DEV_FENCE_BITS, WARP_BAR_BITS,
)
from repro.core.report import RaceLog, RaceRecord, RaceType
from repro.errors import DeadlockError, TimeoutError_
from repro.gpu.device import Device
from repro.gpu.events import AccessKind, SyncKind
from repro.gpu.instructions import AtomicOp, Scope, scope_covers
from repro.instrument.nvbit import Tool
from repro.workloads.base import SIM_GPU

LOAD, ATOMIC = AccessKind.LOAD, AccessKind.ATOMIC


class _Granule:
    """One Figure 4 entry: flags, and the last accessor's and writer's
    ``(warp, lane, dev_fence, blk_fence, blk_bar, warp_bar)`` snapshots
    with the ``(address, slotted)`` locks the last writer held."""

    modified = atomic = block_scoped = dev_shared = blk_shared = False
    acc = wr = None
    locks = frozenset()


class _LockTable(dict):
    """One warp's or thread's locks: ``(address, scope) -> [active,
    slotted]``.  ``slotted`` says whether a table of iGUARD's size had a
    free entry for the lock when it was acquired."""

    is_thread = False


def _exact(value):
    return value


def _wrapped(snapshot):
    widths = (DEV_FENCE_BITS, BLK_FENCE_BITS, BLK_BAR_BITS, WARP_BAR_BITS)
    return snapshot[:2] + tuple(
        value & ((1 << bits) - 1) for value, bits in zip(snapshot[2:], widths)
    )


def _addresses(locks):
    return frozenset(address for address, _ in locks)


def _hashes(locks):
    return frozenset(address_hash18(address) for address, _ in locks)


#: iGUARD's approximations as views of the reference's exact inputs:
#: ``(label, counter-snapshot view, lock-set view)``, tried in order.
_VIEWS = (
    ("counter-wrap", _wrapped, _addresses),
    ("lock-hash", _exact, _hashes),
    ("bloom", _exact, lambda locks: int(BloomFilter16.of(_hashes(locks)))),
    ("lock-capacity", _exact, lambda locks: frozenset(
        address for address, slotted in locks if slotted
    )),
)


class Reference(Tool):
    """Table 2 over exact, unbounded state (see the module docstring)."""

    name = "reference"

    def __init__(self):
        self.races = RaceLog(capacity=DEFAULT_CONFIG.race_buffer_capacity)
        #: iGUARD's ``(event, passed, race_type)`` per checked access, in
        #: order, while :func:`diff` compares; None otherwise.
        self.expected = None
        #: ``(label, ip, iGUARD's verdict, the reference's)`` per
        #: divergence; the label is None for an unlabelled one.
        self.divergences: List[Tuple] = []
        self.checks = 0
        self.on_launch_begin(None)

    @property
    def labels(self) -> Counter:
        """Labelled divergences, counted per label."""
        return Counter(d[0] for d in self.divergences if d[0] is not None)

    @property
    def unlabelled(self) -> List[Tuple]:
        return [d for d in self.divergences if d[0] is None]

    # -- the Tool callbacks ---------------------------------------------

    def on_launch_begin(self, launch) -> None:
        # Each kernel starts from empty metadata and fresh counters: the
        # implicit barrier at kernel completion orders everything.
        self.launch = launch
        self.granules = {}
        #: ``("dev"|"blk", thread)`` fence and ``("bar", block)`` /
        #: ``("wbar", warp)`` barrier counters, unbounded.
        self.counters = Counter()
        self.warp_locks, self.thread_locks = {}, {}
        self.coalesced = None
        self.evicted = set()

    def on_sync(self, event, launch) -> None:
        where = event.where
        if event.kind is SyncKind.SYNCTHREADS:
            self.counters["bar", where.block_id] += 1
        elif event.kind is SyncKind.SYNCWARP:
            self.counters["wbar", where.warp_id] += 1
        else:
            device = scope_covers(event.scope, Scope.DEVICE)
            thread = (where.warp_id, where.lane)
            self.counters["dev" if device else "blk", thread] += 1
            # A fence activates the pending acquires it covers.
            for (_, scope), entry in self._locks(where).items():
                if scope_covers(event.scope, scope):
                    entry[0] = True

    def on_memory(self, event, launch) -> None:
        op = event.atomic_op
        if op is AtomicOp.CAS or op is AtomicOp.EXCH:
            where = event.where
            key = (event.address, event.scope.effective)
            if op is AtomicOp.EXCH:
                self._locks(where).pop(key, None)
            else:
                # Several lanes CASing together: per-thread locks, for good.
                if len(event.active_mask) > 1:
                    self._warp_table(where.warp_id).is_thread = True
                table = self._locks(where)
                if key not in table:
                    used = sum(slotted for _, slotted in table.values())
                    slots = DEFAULT_CONFIG.lock_table_entries
                    table[key] = [False, used < slots]
        granule = event.address // DEFAULT_CONFIG.granularity_bytes
        # Coalescing: one lane checks for a warp's same-granule loads or
        # atomics in one batch.
        if event.kind is AccessKind.STORE:
            self.coalesced = None
        elif self.coalesced == (event.batch, granule):
            return
        else:
            self.coalesced = (event.batch, granule)
        self._check(event, granule)

    # -- the check --------------------------------------------------------

    def _check(self, event, granule: int) -> None:
        self.checks += 1
        where = event.where
        warp, lane, block = where.warp_id, where.lane, where.block_id
        entry = self.granules.get(granule)
        if entry is not None:
            # The sharing flags, from the last accessor (section 6.2).
            if entry.acc[0] // self.launch.warps_per_block != block:
                entry.dev_shared = True
            elif entry.acc[0] != warp:
                entry.blk_shared = True
        table = self._locks(where)
        held = frozenset((a, s) for (a, _), (on, s) in table.items() if on)
        verdict = self._verdict(event, entry, held)
        if self.expected is not None:
            self._compare(event, granule, entry, held, verdict)
        if verdict[1] is not None:
            md = entry.wr if event.kind is LOAD else entry.acc
            self.races.report(RaceRecord(
                verdict[1], self.launch.kernel_name, event.ip,
                event.kind.value, event.address,
                self.launch.device.memory.describe(event.address),
                warp, lane, block, md[0], md[1],
            ))
        if entry is None:
            entry = self.granules[granule] = _Granule()
        entry.acc = self._snapshot((warp, lane), block, warp)
        if event.kind is not LOAD:
            entry.wr, entry.locks, entry.modified = entry.acc, held, True
            entry.atomic = event.kind is ATOMIC
            entry.block_scoped = entry.atomic and event.scope is Scope.BLOCK

    def _snapshot(self, thread, block: int, warp: int) -> tuple:
        """``thread``'s fence and ``block``/``warp``'s barrier counters."""
        counters = self.counters
        return thread + (
            counters["dev", thread], counters["blk", thread],
            counters["bar", block], counters["wbar", warp],
        )

    def _verdict(self, event, entry, held, counter=_exact, view=_addresses):
        """Table 2 for one access: ``(passed check, race type)``."""
        if entry is None:
            return "P1", None  # first access
        kind = event.kind
        if kind is LOAD and not entry.modified:
            return "P2", None  # never written
        where = event.where
        warp, block = where.warp_id, where.block_id
        wpb = self.launch.warps_per_block
        # md: the last writer for a load, else the last accessor; either
        # way with the last writer's locks.  ``now`` holds md's thread's
        # fence counters and this block's and warp's barrier counters.
        md = counter(entry.wr if kind is LOAD else entry.acc)
        now = counter(self._snapshot(md[:2], block, warp))
        md_warp, md_lane = md[:2]
        md_block = md_warp // wpb
        if md_warp == warp:
            if md_lane == where.lane:
                return "P3", None  # the same thread, in program order
            if md[5] != now[5] or md_lane in event.active_mask:
                return "P4", None  # a syncwarp in between, or converged
        if not entry.dev_shared and md_block == block and md[4] != now[4]:
            return "P5", None  # a syncthreads in between
        if kind is ATOMIC and entry.atomic and (
            md_block == block or not entry.block_scoped
        ):
            return "P6", None  # atomics of sufficient scope
        no_dev_fence = md[2] == now[2]
        no_fence = no_dev_fence and md[3] == now[3]
        if entry.atomic and entry.block_scoped and entry.wr[0] // wpb != block:
            return None, RaceType.ATOMIC_SCOPE  # R1
        shared = entry.dev_shared or entry.blk_shared
        if md_warp == warp and no_fence and not shared:
            return None, RaceType.ITS  # R2
        if md_block == block and no_fence and not entry.dev_shared:
            return None, RaceType.INTRA_BLOCK  # R3
        if md_block != block and no_dev_fence:
            return None, RaceType.INTER_BLOCK  # R4
        mine, theirs = view(held), view(entry.locks)
        if (mine or theirs) and not mine & theirs:
            return None, RaceType.IMPROPER_LOCKING  # R5
        return None, None

    # -- the diff ---------------------------------------------------------

    def _compare(self, event, granule, entry, held, verdict) -> None:
        theirs = next(self.expected, None)
        if theirs is None or theirs[0] != event:
            # The detectors checked different accesses: stop comparing.
            self.divergences.append((None, event.ip, "unaligned", verdict))
            self.expected = None
            return
        theirs = theirs[1:]
        if theirs == verdict:
            return
        label = None
        if granule in self.evicted or (entry and theirs[0] == "P1"):
            # iGUARD lost an entry the reference holds: its table evicted
            # the granule, which stays behind for the rest of the launch.
            self.evicted.add(granule)
            label = "eviction"
        else:
            for name, counter, view in _VIEWS:
                if self._verdict(event, entry, held, counter, view) == theirs:
                    label = name
                    break
        self.divergences.append((label, event.ip, theirs, verdict))

    def finish(self) -> None:
        """End a comparison: an iGUARD check left over is unaligned."""
        if self.expected is not None and next(self.expected, None):
            self.divergences.append((None, "-", "unaligned", None))
        self.expected = None

    # -- lock tables ------------------------------------------------------

    def _warp_table(self, warp: int) -> _LockTable:
        return self.warp_locks.setdefault(warp, _LockTable())

    def _locks(self, where) -> _LockTable:
        """The table a thread's locks live in (section 6.3)."""
        if self._warp_table(where.warp_id).is_thread:
            return self.thread_locks.setdefault(
                (where.warp_id, where.lane), _LockTable()
            )
        return self.warp_locks[where.warp_id]


class Verdicts:
    """An iGUARD probe that records each checked access's verdict."""

    def __init__(self):
        self.outcomes: List[Tuple] = []

    def on_outcome(self, event, granule, passed, race_type, acc, wr) -> None:
        self.outcomes.append((event, passed, race_type))

    def on_check(self, *args) -> None:
        pass

    on_race = on_lock = on_sync = on_check


def diff(run: Callable[[Tool], object]) -> Tuple[IGuard, Reference]:
    """Run iGUARD, then the reference, over one execution; compare them.

    ``run(tool)`` drives the execution with ``tool`` attached: a replay
    (``lambda tool: replay(events, tool)``) or a live run (:func:`live`).
    A deadlock or a detection timeout ends a run with its races standing.
    The divergences are on the returned reference.
    """
    verdicts, iguard, reference = Verdicts(), IGuard(), Reference()
    iguard.probe = verdicts
    reference.expected = iter(verdicts.outcomes)
    for tool in (iguard, reference):
        try:
            run(tool)
        except (DeadlockError, TimeoutError_):
            pass
        tool.races  # iGUARD checks what a deadlock left pending
    reference.finish()
    return iguard, reference


def live(drive: Callable[[Device], object], config=SIM_GPU):
    """A :func:`diff` ``run``: ``drive(device)`` on a fresh device."""

    def run(tool):
        device = Device(config)
        device.add_tool(tool)
        drive(device)

    return run
