"""Race-free pattern workloads whose mutations race deterministically.

Each pattern is a minimal, *correctly synchronized* kernel exercising one
synchronization idiom (fence-published flag, block barrier, warp barrier,
scoped atomics).  Its mutation catalog lists :class:`MutationSpec`\\ s
that each remove or weaken exactly the synchronization the pattern
depends on — and, crucially, every pattern orders the conflicting pair at
*runtime* through an unfenced atomic flag (``signal``/``wait_for``, the
same direction-pinning idiom the Table 4 workloads use).  Removing the
*happens-before* synchronization therefore cannot reorder the accesses:
the mutant still executes producer-then-consumer, the detector just no
longer sees an ordering edge, and the injected race fires on the same
site with the same Table 2 condition on every seed.

That determinism is what makes the recall gate a usable CI signal: a
missed mutant is a detection regression, never scheduler luck.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Tuple

from repro.faults.mutators import MutationSpec
from repro.gpu.instructions import (
    Scope,
    atomic_add,
    load,
    store,
    syncthreads,
    syncwarp,
)
from repro.workloads.base import Workload
from repro.workloads.patterns import (
    signal,
    signal_fenced,
    wait_for,
    wait_for_acquire,
)

# ---------------------------------------------------------------------------
# ff-pipeline: device-scope fence publication across blocks
# ---------------------------------------------------------------------------


def _ff_pipeline_kernel(ctx, data, flags):
    if ctx.block_id == 0 and ctx.is_block_leader:
        yield store(data, 0, 13)
        yield from signal_fenced(flags, 0)
    elif ctx.block_id == 1 and ctx.is_block_leader:
        yield from wait_for_acquire(flags, 0)
        value = yield load(data, 0)
        yield store(data, 1, value)


def _run_ff_pipeline(device, seed: int) -> None:
    data = device.alloc("ff_data", 4)
    flags = device.alloc("ff_flags", 1)
    device.launch(
        _ff_pipeline_kernel, grid_dim=2, block_dim=8,
        args=(data, flags), seed=seed,
    )


# ---------------------------------------------------------------------------
# barrier-handoff: __syncthreads() handoff between warps of one block
# ---------------------------------------------------------------------------


def _barrier_handoff_kernel(ctx, cells, flags):
    if ctx.warp_in_block == 0 and ctx.lane == 0:
        yield store(cells, 0, 41)
        yield from signal(flags, 0)
    yield syncthreads()
    if ctx.warp_in_block == 1 and ctx.lane == 0:
        yield from wait_for(flags, 0)
        value = yield load(cells, 0)
        yield store(cells, 1, value)


def _run_barrier_handoff(device, seed: int) -> None:
    cells = device.alloc("bh_cells", 4)
    flags = device.alloc("bh_flags", 1)
    device.launch(
        _barrier_handoff_kernel, grid_dim=1, block_dim=16,
        args=(cells, flags), seed=seed,
    )


# ---------------------------------------------------------------------------
# warp-exchange: __syncwarp() handoff between lanes of one warp
# ---------------------------------------------------------------------------


def _warp_exchange_kernel(ctx, lanes, flags):
    if ctx.lane == 0:
        yield store(lanes, 0, 7)
        yield from signal(flags, 0)
    yield syncwarp()
    if ctx.lane == 1:
        yield from wait_for(flags, 0)
        value = yield load(lanes, 0)
        yield store(lanes, 1, value)


def _run_warp_exchange(device, seed: int) -> None:
    lanes = device.alloc("we_lanes", 4)
    flags = device.alloc("we_flags", 1)
    device.launch(
        _warp_exchange_kernel, grid_dim=1, block_dim=8,
        args=(lanes, flags), seed=seed,
    )


# ---------------------------------------------------------------------------
# scoped-counter: device-scope atomics shared across blocks
# ---------------------------------------------------------------------------


def _scoped_counter_kernel(ctx, counter, flags):
    if ctx.block_id == 0 and ctx.is_block_leader:
        yield atomic_add(counter, 0, 1, scope=Scope.DEVICE)
        yield from signal(flags, 0)
    elif ctx.block_id == 1 and ctx.is_block_leader:
        yield from wait_for(flags, 0)
        yield atomic_add(counter, 0, 1, scope=Scope.DEVICE)


def _run_scoped_counter(device, seed: int) -> None:
    counter = device.alloc("sc_counter", 1)
    flags = device.alloc("sc_flags", 1)
    device.launch(
        _scoped_counter_kernel, grid_dim=2, block_dim=8,
        args=(counter, flags), seed=seed,
    )


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------


def _is_producer_block(ctx) -> bool:
    return ctx.block_id == 0


def _is_consumer_block(ctx) -> bool:
    return ctx.block_id == 1


def _is_handoff_producer(ctx) -> bool:
    return ctx.warp_in_block == 0 and ctx.lane == 0


class PatternWorkload:
    """A race-free pattern plus the mutations that break it."""

    def __init__(self, workload: Workload, mutations: Tuple[MutationSpec, ...]):
        self.workload = workload
        self.mutations = mutations
        self.name = workload.name

    def mutation(self, name: str) -> MutationSpec:
        for spec in self.mutations:
            if spec.name == name:
                return spec
        raise KeyError(f"pattern {self.name!r} has no mutation {name!r}")


FAULT_PATTERNS: Tuple[PatternWorkload, ...] = (
    PatternWorkload(
        Workload(
            name="ff-pipeline",
            suite="faults",
            run=_run_ff_pipeline,
            seeds=(1, 2),
            description="cross-block handoff through a fenced flag",
        ),
        (
            MutationSpec(
                name="drop-release-fence",
                kind="drop_fence",
                condition="R4",
                expected_type="DR",
                description="delete the producer's __threadfence() before "
                            "the flag bump: the published store races "
                            "inter-block",
                thread=_is_producer_block,
            ),
            MutationSpec(
                name="weaken-release-fence",
                kind="weaken_fence",
                condition="R4",
                expected_type="DR",
                description="demote the producer's device fence to "
                            "__threadfence_block(): too weak to order the "
                            "cross-block consumer",
                thread=_is_producer_block,
            ),
        ),
    ),
    PatternWorkload(
        Workload(
            name="barrier-handoff",
            suite="faults",
            run=_run_barrier_handoff,
            seeds=(1, 2),
            description="cross-warp handoff through __syncthreads()",
        ),
        (
            MutationSpec(
                name="skip-syncthreads",
                kind="skip_syncthreads",
                condition="R3",
                expected_type="BR",
                description="delete the block barrier for every thread: "
                            "the handoff becomes an intra-block race",
            ),
            MutationSpec(
                name="reorder-store-past-barrier",
                kind="reorder_store",
                condition="R3",
                expected_type="BR",
                description="move the producer's store to after the "
                            "barrier: it now races the consumer's load",
                target_array="bh_cells",
                thread=_is_handoff_producer,
            ),
        ),
    ),
    PatternWorkload(
        Workload(
            name="warp-exchange",
            suite="faults",
            run=_run_warp_exchange,
            seeds=(1, 2),
            description="cross-lane handoff through __syncwarp()",
        ),
        (
            MutationSpec(
                name="skip-syncwarp",
                kind="skip_syncwarp",
                condition="R2",
                expected_type="ITS",
                description="delete the warp barrier: under independent "
                            "thread scheduling the lanes race",
            ),
        ),
    ),
    PatternWorkload(
        Workload(
            name="scoped-counter",
            suite="faults",
            run=_run_scoped_counter,
            seeds=(1, 2),
            description="cross-block counter updated by scoped atomics",
        ),
        (
            MutationSpec(
                name="demote-atomic-to-store",
                kind="demote_atomic",
                condition="R4",
                expected_type="DR",
                description="replace the consumer block's atomicAdd with a "
                            "plain store: it races the producer's atomic",
                target_array="sc_counter",
                thread=_is_consumer_block,
            ),
            MutationSpec(
                name="weaken-atomic-scope",
                kind="weaken_scope",
                condition="R1",
                expected_type="AS",
                description="demote both counter atomics to block scope: "
                            "insufficient for cross-block communication",
                target_array="sc_counter",
            ),
        ),
    ),
)

_BY_NAME: Dict[str, PatternWorkload] = {p.name: p for p in FAULT_PATTERNS}


def get_pattern(name: str) -> PatternWorkload:
    """Look a pattern workload up by name."""
    pattern = _BY_NAME.get(name)
    if pattern is None:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown fault pattern {name!r} (known: {known})")
    return pattern


def pattern_names(text: str) -> List[str]:
    """An argparse ``type=`` for ``--workloads A,B``: known pattern names."""
    try:
        return [get_pattern(name).name for name in text.split(",")]
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def total_mutations(patterns=FAULT_PATTERNS) -> int:
    return sum(len(p.mutations) for p in patterns)
