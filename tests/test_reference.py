"""The reference detector: verdicts, soundness and divergence labels.

Four layers of pinning:

1. **Direction-pinned verdicts** — on the four race-free fault patterns
   the reference reports nothing, and on all seven annotated mutants it
   reports the annotated Table 2 race type.  These are the fixtures the
   recall gate runs, so iGUARD and the reference are pinned to one shared
   ground truth.
2. **The registry** — on all 43 workloads under their pinned seeds no
   divergence is unlabelled, and the reference finds Table 4's races.
3. **The soundness property** — over generated fuzz programs and any
   scheduler seed, every site iGUARD reports is a reference site or
   carries a labelled divergence, and no divergence is unlabelled.
4. **One kernel per label** — each of iGUARD's approximations, made to
   matter once, is the label its divergence gets.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.rng import SplitMix64
from repro.core.reference import Reference, diff, live
from repro.faults.fuzz import gen_program, program_workload
from repro.faults.mutators import install
from repro.faults.workloads import FAULT_PATTERNS, get_pattern
from repro.gpu.arch import TEST_GPU
from repro.gpu.instructions import fence_device, load, store
from repro.workloads import get_workload, run_workload
from repro.workloads.registry import REGISTRY
from repro.workloads.patterns import (
    lock_acquire,
    lock_release,
    signal,
    wait_for,
)


def _pattern_diffs(pattern, spec=None):
    """:func:`diff` per pinned seed of a fault pattern, mutated by ``spec``."""

    def drive(device, seed):
        if spec is not None:
            install(spec, device)
        pattern.workload.run(device, seed)

    return [
        diff(live(lambda device, seed=seed: drive(device, seed)))
        for seed in pattern.workload.seeds
    ]


def _sites(tool):
    return {ip: str(race_type) for ip, race_type in tool.races.sites()}


# ---------------------------------------------------------------------------
# Direction-pinned verdicts: baselines clean, mutants racy with the
# annotated type
# ---------------------------------------------------------------------------


class TestPatternVerdicts:
    @pytest.mark.parametrize("pattern", [p.name for p in FAULT_PATTERNS])
    def test_baseline_is_reference_clean(self, pattern):
        for _, reference in _pattern_diffs(get_pattern(pattern)):
            assert not reference.races.sites()
            assert not reference.divergences

    @pytest.mark.parametrize(
        "pattern,mutation,expected",
        [
            (p.name, spec.name, spec.expected_type)
            for p in FAULT_PATTERNS
            for spec in p.mutations
        ],
    )
    def test_mutant_is_reference_racy(self, pattern, mutation, expected):
        workload = get_pattern(pattern)
        types = set()
        for _, reference in _pattern_diffs(
            workload, workload.mutation(mutation)
        ):
            types |= set(_sites(reference).values())
            assert not reference.unlabelled
        assert expected in types, (
            f"{pattern}/{mutation}: annotated {expected}, reference found "
            f"{sorted(types)}"
        )


class TestRegistry:
    @pytest.mark.parametrize("name", [w.name for w in REGISTRY])
    def test_every_divergence_is_labelled(self, name):
        # iGUARD against the reference over the workload's pinned seeds:
        # no unlabelled divergence, and the reference finds the workload's
        # Table 4 race count (0 on Table 5).
        workload = get_workload(name)
        sites = set()
        for seed in workload.seeds:
            _, reference = diff(
                live(lambda device, seed=seed: workload.run(device, seed))
            )
            assert not reference.unlabelled, reference.unlabelled[:3]
            sites.update(reference.races.sites())
        assert len(sites) == workload.expected_races

    def test_runs_as_a_detector(self):
        from repro.core.detector import IGuard

        workload = get_workload("reduction")
        ours = run_workload(workload, Reference)
        assert ours.detector == "reference"
        assert ours.race_sites == run_workload(workload, IGuard).race_sites


# ---------------------------------------------------------------------------
# The soundness property over generated programs
# ---------------------------------------------------------------------------


class TestSoundness:
    @settings(max_examples=25, deadline=None)
    @given(
        program_seed=st.integers(min_value=0, max_value=10_000),
        scheduler_seed=st.integers(min_value=0, max_value=7),
    )
    def test_iguard_sites_are_reference_sites_or_labelled(
        self, program_seed, scheduler_seed
    ):
        statements = gen_program(SplitMix64(program_seed))
        workload = program_workload(statements)
        iguard, reference = diff(
            live(lambda device: workload.run(device, scheduler_seed))
        )
        assert not reference.unlabelled, (
            f"program {program_seed} seed {scheduler_seed}: "
            f"{reference.unlabelled}\nstatements: {statements}"
        )
        labelled = {ip for label, ip, _, _ in reference.divergences}
        for ip in set(_sites(iguard)) - set(_sites(reference)):
            assert ip in labelled, (
                f"program {program_seed} seed {scheduler_seed}: iGUARD "
                f"site {ip} is neither a reference site nor labelled"
            )


# ---------------------------------------------------------------------------
# One kernel per label
# ---------------------------------------------------------------------------


def _diff_kernel(kernel, arrays, grid_dim=2, block_dim=4):
    """:func:`diff` over one launch; ``arrays`` maps name -> num_words."""

    def drive(device):
        args = tuple(
            device.alloc(name, words, init=None)
            for name, words in arrays.items()
        )
        device.launch(kernel, grid_dim, block_dim, args=args, seed=1)

    return diff(live(drive, TEST_GPU))


def _turns(ctx, turn, body):
    """Block leaders run ``body`` one block after the other."""
    if ctx.is_block_leader:
        yield from wait_for(turn, 0, ctx.block_id)
        yield from body
        yield from signal(turn, 0)


class TestLabels:
    def test_counter_wrap(self):
        # 64 device fences wrap the producer's 6-bit fence counter back
        # to its snapshot: iGUARD sees no fence and reports R4.
        def kernel(ctx, data, turn):
            def body():
                if ctx.block_id == 0:
                    yield store(data, 0, 1)
                    for _ in range(64):
                        yield fence_device()
                else:
                    yield load(data, 0)

            yield from _turns(ctx, turn, body())

        iguard, reference = _diff_kernel(kernel, {"data": 1, "turn": 1})
        assert set(_sites(iguard).values()) == {"DR"}
        assert not _sites(reference)
        assert reference.labels == {"counter-wrap": 1}
        assert not reference.unlabelled

    def test_lock_hash(self):
        # Two locks 2**18 granules apart share their 18-bit hash, so
        # iGUARD sees one lock where there are two: no R5 report.
        far = 1 << 18

        def kernel(ctx, data, locks, turn):
            def body():
                lock = far * ctx.block_id
                yield from lock_acquire(locks, lock)
                yield store(data, 0, ctx.block_id)
                yield from lock_release(locks, lock)

            yield from _turns(ctx, turn, body())

        iguard, reference = _diff_kernel(
            kernel, {"data": 1, "locks": far + 1, "turn": 1}
        )
        assert not _sites(iguard)
        assert set(_sites(reference).values()) == {"IL"}
        assert reference.labels == {"lock-hash": 1}
        assert not reference.unlabelled

    def test_lock_capacity(self):
        # Block 0 holds four locks, one past the 3-entry table; block 1
        # holds only the fourth.  iGUARD never recorded it for block 0, so
        # it reports an R5 race on a pair that shares a lock.
        def kernel(ctx, data, locks, turn):
            def body():
                held = range(4) if ctx.block_id == 0 else (3,)
                for lock in held:
                    yield from lock_acquire(locks, lock)
                yield store(data, 0, ctx.block_id)
                for lock in held:
                    yield from lock_release(locks, lock)

            yield from _turns(ctx, turn, body())

        iguard, reference = _diff_kernel(
            kernel, {"data": 1, "locks": 4, "turn": 1}
        )
        assert set(_sites(iguard).values()) == {"IL"}
        assert not _sites(reference)
        assert reference.labels == {"lock-capacity": 1}
        assert not reference.unlabelled

    def test_eviction(self, monkeypatch):
        # A two-entry metadata budget evicts the producer's entry (and the
        # turn flag's) before the consumer's load: iGUARD misses the R4
        # race.
        monkeypatch.setenv("IGUARD_MEM_BUDGET", "32")

        def kernel(ctx, data, other, turn):
            def body():
                if ctx.block_id == 0:
                    yield store(data, 0, 1)
                    yield store(other, 0, 1)
                    yield store(other, 1, 1)
                else:
                    yield load(data, 0)

            yield from _turns(ctx, turn, body())

        iguard, reference = _diff_kernel(
            kernel, {"data": 1, "other": 2, "turn": 1}
        )
        assert not _sites(iguard)
        assert set(_sites(reference).values()) == {"DR"}
        assert reference.labels == {"eviction": 2}
        assert not reference.unlabelled
