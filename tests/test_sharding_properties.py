"""Property-based drain equivalence over generated programs.

The front end's contract, stated adversarially: for *randomly
generated* kernels — mixing race-free phases with deliberately racy
ones — and arbitrary scheduler seeds, iGUARD's report is the same
whichever way its one loop is fed: live off the device, from a bus
replay of the recorded stream, or from the columnar chunks.  Same
records, same order, same sites, same per-type counts.
"""

import os
import tempfile
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core import IGuard
from repro.core.sharding import replay_columnar_sharded
from repro.engine.coltrace import save_columnar
from repro.engine.replay import replay
from repro.engine.trace import TraceSink
from repro.gpu.instructions import (
    atomic_add,
    atomic_load,
    compute,
    load,
    store,
    syncthreads,
    syncwarp,
)

from tests.conftest import fresh_device

#: Phases mix correct-by-construction patterns with racy ones, so the
#: equivalence is exercised on non-empty reports too.
_PHASE = st.sampled_from(
    ["private_rmw", "read_shared", "atomic_counter", "warp_exchange",
     "block_exchange", "shared_store", "neighbor_write", "compute"]
)
_PROGRAM = st.lists(_PHASE, min_size=1, max_size=5)


def _build_kernel(phases):
    def kern(ctx, private, shared, counter, exchange):
        for phase in phases:
            if phase == "private_rmw":
                v = yield load(private, ctx.tid)
                yield store(private, ctx.tid, v + 1)
            elif phase == "read_shared":
                v = yield load(shared, 0)
                yield store(private, ctx.tid, v)
            elif phase == "atomic_counter":
                yield atomic_add(counter, 0, 1)
                v = yield atomic_load(counter, 0)
                yield store(private, ctx.tid, v)
            elif phase == "warp_exchange":
                base = ctx.warp_id * ctx.warp_size
                yield store(exchange, base + ctx.lane, ctx.tid)
                yield syncwarp()
                v = yield load(exchange, base + (ctx.lane + 1) % ctx.warp_size)
                yield store(private, ctx.tid, v)
                yield syncwarp()
            elif phase == "shared_store":
                # Every thread stores the same cell: write-write races.
                yield store(shared, 0, ctx.tid)
            elif phase == "neighbor_write":
                # Unsynchronized neighbour write: read-write races across
                # warps and blocks.
                yield store(exchange, ctx.tid, ctx.tid)
                v = yield load(exchange, (ctx.tid + 1) % 16)
                yield store(private, ctx.tid, v)
            elif phase == "block_exchange":
                yield store(exchange, ctx.tid, ctx.tid)
                yield syncthreads()
                nbr = ctx.block_id * ctx.block_dim + (
                    (ctx.tid_in_block + 1) % ctx.block_dim
                )
                v = yield load(exchange, nbr)
                yield store(private, ctx.tid, v)
                yield syncthreads()
            elif phase == "compute":
                yield compute(3)
        yield syncthreads()

    return kern


def _launch(phases, seed, tool):
    dev = fresh_device()
    dev.add_tool(tool)
    private = dev.alloc("private", 16, init=0)
    shared = dev.alloc("shared", 1, init=5)
    counter = dev.alloc("counter", 1, init=0)
    exchange = dev.alloc("exchange", 16, init=0)
    dev.launch(_build_kernel(phases), 2, 8,
               args=(private, shared, counter, exchange), seed=seed)
    return tool


def _run(phases, seed):
    """Run the program live under iGUARD, and record its stream in a
    second run with the same seed (the interleaving depends on the seed
    alone)."""
    det = _launch(phases, seed, IGuard())
    return det, list(_launch(phases, seed, TraceSink()).trace)


def _report(det):
    records = det.races.records()
    return (
        tuple(records),
        tuple(det.races.sites()),
        Counter(str(r.race_type) for r in records),
    )


class TestDrainsEqualSerial:
    @given(phases=_PROGRAM, seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_iguard_drains_equal_serial_bus(self, phases, seed):
        live, events = _run(phases, seed)
        expected = _report(live)

        replayed = IGuard()
        replay(events, replayed)
        assert _report(replayed) == expected, (phases, seed)

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "program.ctr")
            save_columnar(events, path, chunk_rows=64)
            columnar = replay_columnar_sharded(path).tool
        assert _report(columnar) == expected, (phases, seed)
