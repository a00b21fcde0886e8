"""Property-based tests over generated programs and schedules.

The strongest soundness statement the suite makes: for *randomly
generated, correct-by-construction* kernels — arbitrary interleavings of
private accesses, read-only shared loads, barrier-separated phases, and
device-atomic updates — iGUARD reports nothing, on arbitrary scheduler
seeds.  And a direction-pinned seeded race is reported under every seed.
Both statements hold for the reference detector too, the second oracle.
"""

from hypothesis import given, settings, strategies as st

from repro.core import IGuard
from repro.core.reference import Reference
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

#: iGUARD and the independent reference detector.
ORACLES = (IGuard, Reference)

# One program = a sequence of phases; each phase is race-free by
# construction and phases are separated by block barriers.
_PHASE = st.sampled_from(
    ["private_rmw", "read_shared", "atomic_counter", "warp_exchange",
     "block_exchange", "compute"]
)
_PROGRAM = st.lists(_PHASE, min_size=1, max_size=6)


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
        # A final barrier keeps phase boundaries uniform.
        yield syncthreads()

    return kern


def _run(phases, seed, oracle=IGuard):
    dev = fresh_device()
    det = dev.add_tool(oracle())
    private = dev.alloc("private", 16, init=0)
    shared = dev.alloc("shared", 1, init=5)
    counter = dev.alloc("counter", 1, init=0)
    exchange = dev.alloc("exchange", 16, init=0)
    dev.launch(_build_kernel(phases), 2, 8,
               args=(private, shared, counter, exchange), seed=seed)
    return det


class TestNoFalsePositives:
    @given(phases=_PROGRAM, seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_correct_programs_stay_silent(self, phases, seed):
        for oracle in ORACLES:
            det = _run(phases, seed, oracle)
            assert not det.races.sites(), (oracle.name, phases, seed)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_all_phases_together(self, seed):
        phases = ["private_rmw", "read_shared", "atomic_counter",
                  "warp_exchange", "block_exchange", "compute"]
        for oracle in ORACLES:
            assert not _run(phases, seed, oracle).races.sites()


class TestNoFalseNegatives:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_pinned_race_found_under_every_seed(self, seed):
        def kern(ctx, data, flag, out):
            if ctx.block_id == 0 and ctx.tid_in_block == 0:
                yield store(data, 0, 1)
                yield atomic_add(flag, 0, 1)
            if ctx.block_id == 1 and ctx.tid_in_block == 0:
                while (yield atomic_load(flag, 0)) == 0:
                    pass
                v = yield load(data, 0)
                yield store(out, 0, v)

        for oracle in ORACLES:
            dev = fresh_device()
            det = dev.add_tool(oracle())
            data = dev.alloc("data", 1, init=0)
            flag = dev.alloc("flag", 1, init=0)
            out = dev.alloc("out", 1, init=0)
            dev.launch(kern, 2, 8, args=(data, flag, out), seed=seed)
            assert len(det.races.sites()) == 1, oracle.name


class TestDeterminism:
    @given(phases=_PROGRAM, seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_same_seed_same_outcome(self, phases, seed):
        a = _run(phases, seed)
        b = _run(phases, seed)
        assert a.races.sites() == b.races.sites()
        assert a.stats[0].accesses_checked == b.stats[0].accesses_checked
