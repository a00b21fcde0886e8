"""Golden word-level test of one Table 2 check.

A seeded generator builds about 2,000 single-access cases, each a full
input to :meth:`repro.core.engine.IGuardCore.check_memory`:

- the granule's accessor and writer words, every flag included;
- the access: kind, warp, lane, block, active mask and atomic scope;
- the live synchronization counters, bumped past their 6- and 8-bit
  wraps;
- the current thread's lock table (warp or per-thread), whose Bloom
  summary is ``sm.Locks``;
- ``its_support`` and ``lockset`` on and off, and several warps-per-block
  values.

``tests/golden/table2_words.json`` pins the outcome of each case — the
preliminary check that passed or the race type reported, plus both
metadata words after writeback — as recorded from an earlier
implementation of the check.  The check must reproduce every case
exactly.  The file also pins a digest of the generated inputs, so an edit
to the generator cannot silently re-pair inputs with stale answers.

Regenerate (only when the check's semantics are meant to change)::

    PYTHONPATH=src python -m tests.test_table2_golden --write
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from types import SimpleNamespace

from repro.core.config import IGuardConfig
from repro.core.engine import IGuardCore
from repro.core.metadata import ACCESSOR_WORD, WRITER_WORD
from repro.gpu.events import AccessKind, MemoryEvent
from repro.gpu.ids import ThreadLocation
from repro.gpu.instructions import AtomicOp, Scope

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "table2_words.json")
SEED = 2021
CASES = 2000
WARP_SIZE = 32

#: Bump counts for a live counter: zero, small, and around the 6-bit
#: (64) and 8-bit (256) wraps.
_BUMPS = (0, 1, 2, 3, 62, 63, 64, 65, 127, 128, 255, 256, 257)


class _Outcome:
    """Probe recording what one check decided."""

    def __init__(self):
        self.result = None

    def on_check(self, *args):
        pass

    def on_race(self, *args):
        pass

    def on_lock(self, *args):
        pass

    def on_sync(self, *args):
        pass

    def on_outcome(self, event, granule, passed, race_type, acc, wr):
        verdict = passed or (race_type.name if race_type is not None else "-")
        self.result = [verdict, f"{acc:016x}", f"{wr:016x}"]


def _bumps(rng):
    return rng.choice(_BUMPS) if rng.random() < 0.7 else rng.randrange(300)


def _generate(rng):
    """One case as a plain, JSON-able dict of inputs."""
    wpb = rng.choice((1, 2, 4, 8, 32))
    warp = rng.choice(
        (rng.randrange(64), rng.randrange(1 << 15), rng.randrange(1 << 16))
    )
    lane = rng.randrange(WARP_SIZE)
    block = warp // wpb

    def previous():
        # Correlated with the current access so every condition is hit.
        roll = rng.random()
        if roll < 0.25:
            return warp, lane
        if roll < 0.5:
            return warp, rng.randrange(WARP_SIZE)
        if roll < 0.75:
            return block * wpb + rng.randrange(wpb), rng.randrange(WARP_SIZE)
        return rng.randrange(1 << 15), rng.randrange(WARP_SIZE)

    acc_thread = previous()
    wr_thread = previous()
    threads = {
        "curr": (warp, lane), "acc": acc_thread, "wr": wr_thread,
    }
    counters = {
        "blk_bar": _bumps(rng),
        "warp_bar": _bumps(rng),
        "fences": {
            name: (_bumps(rng), _bumps(rng)) for name in ("curr", "acc", "wr")
        },
    }

    def snapshot(name):
        """Sync snapshot of a previous access: often the live value (no
        intervening sync), otherwise an arbitrary earlier one."""
        dev_bumps, blk_bumps = counters["fences"][name]

        def pick(live, width):
            return live % (1 << width) if rng.random() < 0.6 else rng.randrange(1 << width)

        return dict(
            DevFenceID=pick(dev_bumps, 6),
            BlkFenceID=pick(blk_bumps, 6),
            BlkBarID=pick(counters["blk_bar"], 8),
            WarpBarID=pick(counters["warp_bar"], 6),
        )

    flags = {
        name: int(rng.random() < chance)
        for name, chance in (
            ("Valid", 0.9), ("Modified", 0.6), ("Atomic", 0.3),
            ("Scope", 0.3), ("DevShared", 0.3), ("BlkShared", 0.3),
        )
    }
    accessor = ACCESSOR_WORD.pack(
        Tag=rng.randrange(1 << 10), Unused=rng.randrange(4),
        WarpID=acc_thread[0], ThreadID=acc_thread[1],
        **flags, **snapshot("acc"),
    )
    locks_mode = rng.choice(("none", "random", "current"))
    writer = WRITER_WORD.pack(
        Locks=rng.randrange(1 << 16) if locks_mode == "random" else 0,
        Unused=rng.randrange(4),
        WarpID=wr_thread[0], ThreadID=wr_thread[1],
        **snapshot("wr"),
    )
    lanes = {lane} | {l for l in range(WARP_SIZE) if rng.random() < 0.2}
    if rng.random() < 0.3:
        lanes.add(acc_thread[1])
    return {
        "wpb": wpb,
        "its_support": rng.random() < 0.75,
        "lockset": rng.random() < 0.75,
        "kind": rng.choice(("load", "store", "atomic")),
        "scope": rng.choice(("BLOCK", "DEVICE", "SYSTEM")),
        "warp": warp,
        "lane": lane,
        "active_mask": sorted(lanes),
        "granule": rng.randrange(1 << 20),
        "accessor": accessor,
        "writer": writer,
        "writer_locks": locks_mode,
        "threads": threads,
        "counters": counters,
        "per_thread_locks": rng.random() < 0.3,
        "locks": [
            (rng.randrange(1 << 20) * 4, rng.choice(("BLOCK", "DEVICE")))
            for _ in range(rng.choice((0, 0, 1, 2, 3)))
        ],
        "activate": rng.choice(("BLOCK", "DEVICE", None)),
    }


def generate(count=CASES, seed=SEED):
    rng = random.Random(seed)
    return [_generate(rng) for _ in range(count)]


def digest(cases) -> str:
    return hashlib.sha256(
        json.dumps(cases, sort_keys=True).encode()
    ).hexdigest()


def run_case(case):
    """Drive one real check; return ``[verdict, accessor hex, writer hex]``."""
    core = IGuardCore(
        IGuardConfig(its_support=case["its_support"], lockset=case["lockset"])
    )
    sync = core.sync
    wpb = case["wpb"]
    warp, lane = case["warp"], case["lane"]
    block = warp // wpb
    counters = case["counters"]
    for _ in range(counters["blk_bar"]):
        sync.on_syncthreads(block)
    for _ in range(counters["warp_bar"]):
        sync.on_syncwarp(warp)
    for name, (dev_bumps, blk_bumps) in counters["fences"].items():
        thread = tuple(case["threads"][name])
        for _ in range(dev_bumps):
            sync.on_fence(thread, Scope.DEVICE)
        for _ in range(blk_bumps):
            sync.on_fence(thread, Scope.BLOCK)
    if case["per_thread_locks"]:
        sync.warp_lock_table(warp).is_thread = True
    table = sync.lock_table_for(warp, (warp, lane))
    for address, scope in case["locks"]:
        table.insert(address, Scope[scope])
    if case["activate"] is not None:
        table.activate(Scope[case["activate"]])

    writer = case["writer"]
    if case["writer_locks"] == "current":
        writer = WRITER_WORD.set(writer, "Locks", table.locks_bloom_int())
    entry = core.table.lookup_granule(case["granule"])
    entry.accessor_word = case["accessor"]
    entry.writer_word = writer

    kind = AccessKind(case["kind"])
    event = MemoryEvent(
        kind=kind,
        address=case["granule"] * 4,
        where=ThreadLocation(
            global_tid=warp * WARP_SIZE + lane,
            block_id=block,
            tid_in_block=(warp % wpb) * WARP_SIZE + lane,
            warp_id=warp,
            lane=lane,
            warp_in_block=warp % wpb,
        ),
        ip="golden.cu:1",
        active_mask=frozenset(case["active_mask"]),
        scope=Scope[case["scope"]],
        atomic_op=AtomicOp.ADD if kind is AccessKind.ATOMIC else None,
    )
    launch = SimpleNamespace(
        warps_per_block=wpb,
        kernel_name="golden",
        device=SimpleNamespace(memory=SimpleNamespace(describe=hex)),
    )
    probe = core.probe = _Outcome()
    core.check_memory(event, case["granule"], launch)
    return probe.result


def test_every_case_matches_the_golden_outcome():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    cases = generate(golden["cases"], golden["seed"])
    assert digest(cases) == golden["inputs_sha256"], "generator drifted"
    mismatches = []
    for index, (case, expected) in enumerate(zip(cases, golden["expected"])):
        got = run_case(case)
        if got != expected:
            mismatches.append((index, expected, got))
    assert not mismatches, mismatches[:5]


def test_golden_cases_reach_every_condition():
    with open(GOLDEN) as handle:
        verdicts = {expected[0] for expected in json.load(handle)["expected"]}
    conditions = {f"P{i}" for i in range(1, 7)} | {
        "ATOMIC_SCOPE", "ITS", "INTRA_BLOCK", "INTER_BLOCK",
        "IMPROPER_LOCKING", "-",
    }
    assert conditions <= verdicts, conditions - verdicts


def _write():
    cases = generate()
    head = (
        f'"seed": {SEED}, "cases": {len(cases)}, '
        f'"inputs_sha256": "{digest(cases)}"'
    )
    # One case per line keeps the file diffable.
    rows = ",\n".join(json.dumps(run_case(case)) for case in cases)
    with open(GOLDEN, "w") as handle:
        handle.write(f'{{{head}, "expected": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_table2_golden --write")
    _write()
