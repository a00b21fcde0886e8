"""The benchmark's four workloads: their inputs, cells, and drive paths.

A *cell* is one input taken to one race report.  Each workload turns the
benchmark seed into a list of cells in its set-up (:meth:`prepare`); the
program only ever sees the inputs built here.  Every cell is driven
through a public function of the program:

- live cells through ``repro.workloads.runner.run_workload`` with a fresh
  ``IGuard`` on a fresh ``Device`` (the paper-reproduction path);
- replay cells through ``repro.core.sharding.replay_columnar_sharded`` at
  its defaults, over a ``.ctr`` file captured in set-up.

Module attributes (``runner.run_workload``, ``sharding.replay_...``,
``replay.capture_workload``) are looked up at call time, so the ledger's
timing wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import sharding
from repro.core.detector import IGuard
from repro.engine import replay
from repro.gpu.events import MemoryEvent
from repro.gpu.instructions import compute, load, store, syncthreads, syncwarp
from repro.workloads import runner
from repro.workloads.base import Workload
from repro.workloads.patterns import lock_acquire, lock_release
from repro.workloads.registry import REGISTRY


@dataclass
class Outcome:
    """What one cell execution reported, harvested outside the timed region."""

    events: int  # memory events delivered to the detector
    sites: Dict[str, str]  # racy ip -> race type
    total_cycles: float
    native_cycles: float
    stats: list  # the detector's LaunchStats, one per launch
    runs: list  # KernelRuns the simulator executed (empty for replays)
    shard_routed: List[int]  # checked events per detector shard
    queue_depth: int  # deepest shard queue drained (batched drain only)


def _harvest(tool: IGuard, sites: Dict[str, str], live: bool) -> Outcome:
    # The detector itself is not kept: a run holds every warm-up outcome,
    # and their metadata tables would count in peak_rss_mb.
    runs = tool.device.runs
    return Outcome(
        events=sum(
            s.accesses_checked + s.accesses_coalesced + s.accesses_pruned
            for s in tool.stats
        ),
        sites=sites,
        total_cycles=sum(r.total_time for r in runs),
        native_cycles=sum(r.native_time for r in runs),
        stats=list(tool.stats),
        runs=list(runs) if live else [],
        shard_routed=list(tool.shard_routed_total),
        queue_depth=getattr(tool, "queue_depth_max", 0),
    )


class _KeepTool:
    """An ``IGuard`` factory that keeps the detector ``run_workload`` builds.

    ``name`` is a class attribute, so the runner resolves the detector
    name without building a throwaway instance inside the timed region.
    """

    name = IGuard.name

    def __init__(self):
        self.tool: Optional[IGuard] = None

    def __call__(self) -> IGuard:
        self.tool = IGuard()
        return self.tool


class LiveCell:
    """Simulate one (workload, scheduler seed) under a fresh detector."""

    kind = "live"

    def __init__(self, key: str, workload: Workload, seed: int):
        self.key = key
        self.workload = workload
        self.seed = seed

    def drive(self):
        factory = _KeepTool()
        result = runner.run_workload(self.workload, factory, seeds=(self.seed,))
        return result, factory.tool

    @staticmethod
    def harvest(raw) -> Outcome:
        result, tool = raw
        return _harvest(tool, dict(result.race_sites), live=True)


class ReplayCell:
    """Replay one captured ``.ctr`` file through the columnar drain."""

    kind = "replay"

    def __init__(self, key: str, path: str):
        self.key = key
        self.path = path

    def drive(self):
        return sharding.replay_columnar_sharded(self.path)

    @staticmethod
    def harvest(raw) -> Outcome:
        tool = raw.tool
        sites = {ip: str(race_type) for ip, race_type in tool.races.sites()}
        return _harvest(tool, sites, live=False)


@dataclass
class Prepared:
    """A workload's set-up product: its cells plus what set-up wrote."""

    cells: List
    digest: str  # hash of the generated inputs, equal across set-ups
    encoded_events: int = 0  # memory events written to .ctr files
    encoded_bytes: int = 0


def _captured(named: Sequence[Tuple[str, Workload, int]], workdir: str) -> Prepared:
    """Capture each (key, workload, seed) natively and encode it to ``.ctr``.

    Each trace and file image is dropped before the next capture: set-up
    memory counts in ``peak_rss_mb``.
    """
    digest = hashlib.sha256()
    cells, events, size = [], 0, 0
    for key, workload, seed in named:
        path = os.path.join(workdir, key.replace("/", "_") + ".ctr")
        trace = replay.capture_workload(workload, seeds=(seed,))
        trace.save(path)
        events += sum(1 for e in trace.events if type(e) is MemoryEvent)
        del trace
        with open(path, "rb") as handle:
            data = handle.read()
        digest.update(data)
        size += len(data)
        del data
        cells.append(ReplayCell(key, path))
    return Prepared(cells, digest.hexdigest(), events, size)


def table_cells() -> List[Tuple[str, Workload, int]]:
    """The 43 registry apps x their pinned scheduler seeds (129 cells)."""
    return [(f"{w.name}/s{s}", w, s) for w in REGISTRY for s in w.seeds]


# ---------------------------------------------------------------------------
# stream-large: a barrier-phased stencil bigger than the program's caches
# ---------------------------------------------------------------------------

#: Words each block owns in each of the two arrays.  8 blocks x 4096 words
#: x 2 arrays = 65,536 granules: 2x the 32k-entry ``address_hash18`` memo
#: and 8x the 8k metadata decode memos.
STREAM_REGION = 4096
STREAM_GRID, STREAM_BLOCK = 8, 64


def _stencil_kernel(ctx, a, b, out, region, offsets):
    """Four barrier-separated phases; every granule is touched 3 times.

    Phase 0 writes ``a``; phase 1 reads a shifted ``a`` into ``b``; phase
    2 reads a shifted ``b`` back into ``a``; phase 3 folds a shifted ``b``.
    Reads and writes of one array never share a phase and shifts stay
    inside the block's own region, so the kernel is race-free.
    """
    base = ctx.block_id * region
    own = range(ctx.tid_in_block, region, ctx.block_dim)
    d1, d2, d3 = offsets
    for k in own:
        yield store(a, base + k, k)
    yield syncthreads()
    for k in own:
        v = yield load(a, base + (k + d1) % region)
        yield store(b, base + k, v + 1)
    yield syncthreads()
    for k in own:
        v = yield load(b, base + (k + d2) % region)
        yield store(a, base + k, 3 * v)
    yield syncthreads()
    acc = 0
    for k in own:
        acc += yield load(b, base + (k + d3) % region)
    yield store(out, ctx.tid, acc)


def stream_workloads(
    seed: int,
    cells: int = 2,
    region: int = STREAM_REGION,
    grid: int = STREAM_GRID,
    block: int = STREAM_BLOCK,
) -> List[Tuple[str, Workload, int]]:
    """``cells`` stencil launches whose shifts and scheduler seed come from ``seed``."""
    rng = random.Random(f"stream-large:{seed}")
    named = []
    for index in range(cells):
        offsets = tuple(rng.randrange(1, region) for _ in range(3))
        sched_seed = rng.randrange(1 << 30)

        def run(device, s, offsets=offsets):
            a = device.alloc("a", grid * region)
            b = device.alloc("b", grid * region)
            out = device.alloc("out", grid * block)
            device.launch(
                _stencil_kernel, grid, block,
                args=(a, b, out, region, offsets), seed=s,
            )

        workload = Workload(
            name=f"stream-large-{index}", suite="bench", run=run,
            seeds=(sched_seed,),
        )
        named.append((f"stream-large/{index}", workload, sched_seed))
    return named


# ---------------------------------------------------------------------------
# lock-live: two-lock transactions, CAS spin loops, lockset checks
# ---------------------------------------------------------------------------

LOCK_GRID, LOCK_BLOCK, LOCK_ROUNDS = 2, 32, 4
LOCK_ENTITIES = (64, 512)
#: Converged acquire/release rounds on per-thread lock words before the
#: transactions.  iGUARD infers per-thread locking only when several lanes
#: CAS together; an ITS split can leave a warp's first CAS single-lane, and
#: a warp-level lock table (3 entries shared by 8 lanes) then overflows
#: and reports lockset races on correctly locked data.  Four converged
#: rounds make that vanishingly rare (0 of 160 probe cells vs 16 of 160).
LOCK_PROLOGUE = 4


def _transaction_kernel(ctx, entities, locks, own_locks, pairs, rounds):
    """Each thread moves one unit between two entities, ``rounds`` times.

    Both entity words are accessed only while holding both word locks,
    taken in index order (no deadlock), so the kernel is race-free.
    """
    tid = ctx.tid
    for _ in range(LOCK_PROLOGUE):
        yield syncwarp()
        yield from lock_acquire(own_locks, tid)
        yield from lock_release(own_locks, tid)
    for r in range(rounds):
        lo, hi = pairs[tid * rounds + r]
        yield from lock_acquire(locks, lo)
        yield from lock_acquire(locks, hi)
        ea = yield load(entities, lo)
        eb = yield load(entities, hi)
        yield compute(6)
        yield store(entities, lo, ea - 1)
        yield store(entities, hi, eb + 1)
        yield from lock_release(locks, hi)
        yield from lock_release(locks, lo)


def lock_workloads(
    seed: int,
    cells: int = 8,
    launches: int = 2,
    rounds: int = LOCK_ROUNDS,
    grid: int = LOCK_GRID,
    block: int = LOCK_BLOCK,
) -> List[Tuple[str, Workload, int]]:
    """``cells`` host drivers of ``launches`` transactional launches each.

    Cell *i* draws its entity count log-uniformly from the *i*-th of
    ``cells`` equal log-strata of 64-512, so every seed gets the same mix
    of contention levels (events grow steeply as entities shrink).  CAS
    spin counts vary a lot between schedules; each cell runs ``launches``
    launches with fresh transaction pairs and scheduler seeds, so a
    cell's time, and the median cell time, vary little between seeds.
    """
    rng = random.Random(f"lock-live:{seed}")
    lo_log, hi_log = (math.log(n) for n in LOCK_ENTITIES)
    width = (hi_log - lo_log) / cells
    threads = grid * block
    named = []
    for index in range(cells):
        n = int(math.exp(lo_log + width * (index + rng.random())))
        pair_sets = []
        for _ in range(launches):
            pairs = []
            for _ in range(threads * rounds):
                x, y = rng.sample(range(n), 2)
                pairs.append((min(x, y), max(x, y)))
            pair_sets.append(tuple(pairs))
        sched_seed = rng.randrange(1 << 30)

        def run(device, s, n=n, pair_sets=tuple(pair_sets)):
            for offset, pairs in enumerate(pair_sets):
                entities = device.alloc("entities", n, init=100)
                locks = device.alloc("locks", n)
                own_locks = device.alloc("own_locks", threads)
                device.launch(
                    _transaction_kernel, grid, block,
                    args=(entities, locks, own_locks, pairs, rounds),
                    seed=s + offset,
                )

        workload = Workload(
            name=f"lock-live-{index}", suite="bench", run=run,
            seeds=(sched_seed,),
        )
        named.append((f"lock-live/{index}", workload, sched_seed))
    return named


def _digest(named) -> str:
    """Fingerprint of generated inputs (bound as the host driver's defaults)."""
    digest = hashlib.sha256()
    for key, workload, seed in named:
        digest.update(repr((key, seed, workload.run.__defaults__)).encode())
    return digest.hexdigest()


def _live(named) -> Prepared:
    return Prepared([LiveCell(*n) for n in named], _digest(named))


# ---------------------------------------------------------------------------
# The workload table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchWorkload:
    """One benchmark workload: how set-up turns a seed into cells."""

    name: str
    prepare: Callable[[int, str], Prepared]  # (seed, workdir) -> cells
    #: Inputs come from the seed, so cells are pinned at the default seed
    #: only; any other seed is held to "no races".
    generated: bool

    @property
    def pin_section(self) -> str:
        """The ``expected.json`` section holding this workload's pins."""
        return self.name if self.generated else "table"


WORKLOADS: Dict[str, BenchWorkload] = {
    w.name: w
    for w in (
        BenchWorkload(
            "table-live", lambda seed, workdir: _live(table_cells()), False
        ),
        BenchWorkload(
            "replay-ctr",
            lambda seed, workdir: _captured(table_cells(), workdir),
            False,
        ),
        BenchWorkload(
            "stream-large",
            lambda seed, workdir: _captured(stream_workloads(seed), workdir),
            True,
        ),
        BenchWorkload(
            "lock-live", lambda seed, workdir: _live(lock_workloads(seed)), True
        ),
    )
}
