"""The static race analyzer: verdicts and soundness.

Two layers of pinning:

1. **Direction-pinned verdicts** — the four race-free fault patterns
   must come back ``clean`` and all seven annotated mutants must come
   back ``racy`` with exactly the annotated Table 2 race type.  These
   are the same fixtures the dynamic recall gate runs, so the static
   and dynamic verdicts are pinned to one shared ground truth.
2. **The soundness property** — over *generated* fuzz programs, any
   site the analyzer proves safe must never be the site of a dynamic
   race report, for any scheduler seed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import analyze_kernel, extract_kernel
from repro.analysis.extract import ExtractionError, extract_or_unanalyzable
from repro.analysis.lint import analyze_workload, to_document
from repro.common.rng import SplitMix64
from repro.core.detector import IGuard
from repro.faults.fuzz import gen_program, program_workload
from repro.faults.workloads import FAULT_PATTERNS, get_pattern
from repro.gpu.device import Device
from repro.gpu.instructions import Scope, load, scope_covers, store
from repro.workloads.base import SIM_GPU


# ---------------------------------------------------------------------------
# Direction-pinned verdicts: baselines clean, mutants racy with the
# annotated type
# ---------------------------------------------------------------------------


class TestPatternVerdicts:
    @pytest.mark.parametrize(
        "pattern", [p.name for p in FAULT_PATTERNS]
    )
    def test_baseline_is_statically_clean(self, pattern):
        lint = analyze_workload(get_pattern(pattern).workload)
        assert lint.status == "ok"
        assert lint.verdict == "clean", (
            f"{pattern} baseline must lint clean, got {lint.verdict}: "
            f"{[f.to_json() for l in lint.launches for f in l.report.findings]}"
        )
        # Clean means *proven*: every launch fully analyzed, no sites
        # left in the may-race set.
        for launch in lint.launches:
            assert launch.report.analyzable
            assert not launch.report.may_race_sites

    @pytest.mark.parametrize(
        "pattern,mutation,expected",
        [
            (p.name, spec.name, spec.expected_type)
            for p in FAULT_PATTERNS
            for spec in p.mutations
        ],
    )
    def test_mutant_is_statically_racy(self, pattern, mutation, expected):
        workload = get_pattern(pattern)
        spec = workload.mutation(mutation)
        lint = analyze_workload(workload.workload, mutation_spec=spec)
        assert lint.status == "ok"
        assert lint.verdict == "racy", (
            f"{pattern}/{mutation} must lint racy, got {lint.verdict}"
        )
        assert expected in lint.race_types, (
            f"{pattern}/{mutation}: annotated {expected}, "
            f"static found {lint.race_types}"
        )


# ---------------------------------------------------------------------------
# Extraction edges
# ---------------------------------------------------------------------------


class TestExtraction:
    def test_value_dependent_control_flow_is_unanalyzable(self):
        def value_dep(ctx, a):
            v = yield load(a, 0)
            if v == 0:
                yield store(a, 1, 1)

        device = Device(SIM_GPU)
        a = device.alloc("a", 4)
        with pytest.raises(ExtractionError):
            extract_kernel(value_dep, 1, 4, SIM_GPU.warp_size, (a,))
        summary = extract_or_unanalyzable(
            value_dep, 1, 4, SIM_GPU.warp_size, (a,)
        )
        assert not summary.analyzable
        assert summary.reason

    def test_unanalyzable_kernel_has_no_safe_sites(self):
        def value_dep(ctx, a):
            v = yield load(a, 0)
            if v == 0:
                yield store(a, 1, 1)

        device = Device(SIM_GPU)
        a = device.alloc("a", 4)
        summary = extract_or_unanalyzable(
            value_dep, 1, 4, SIM_GPU.warp_size, (a,)
        )
        report = analyze_kernel(summary)
        assert not report.analyzable
        assert not report.safe_sites
        # Unanalyzable allows every dynamic site — never blocks one.
        assert report.allows_dynamic_site("anything:1")

    def test_scope_covers_lattice(self):
        assert scope_covers(Scope.DEVICE, Scope.BLOCK)
        assert scope_covers(Scope.SYSTEM, Scope.DEVICE)
        # SYSTEM and DEVICE collapse on a single-GPU machine.
        assert scope_covers(Scope.DEVICE, Scope.SYSTEM)
        assert not scope_covers(Scope.BLOCK, Scope.DEVICE)
        assert scope_covers(Scope.BLOCK, Scope.BLOCK)
        # Scope.covers delegates to the shared helper.
        assert Scope.DEVICE.covers(Scope.BLOCK)
        assert not Scope.BLOCK.covers(Scope.DEVICE)


# ---------------------------------------------------------------------------
# Lint document plumbing
# ---------------------------------------------------------------------------


class TestLintDocument:
    def test_document_is_deterministic(self):
        workloads = [get_pattern(p.name).workload for p in FAULT_PATTERNS]
        first = to_document([analyze_workload(w) for w in workloads])
        second = to_document([analyze_workload(w) for w in workloads])
        assert first == second
        assert first["summary"]["clean"] == len(FAULT_PATTERNS)

    def test_driver_error_degrades_to_error_verdict(self):
        from repro.workloads.base import Workload

        def _boom(device, seed):
            raise RuntimeError("driver exploded")

        lint = analyze_workload(
            Workload(name="boom", suite="t", run=_boom, seeds=(0,),
                     description="")
        )
        assert lint.verdict == "error"
        assert lint.allows_dynamic_site("any:1")


# ---------------------------------------------------------------------------
# The soundness property over generated programs
# ---------------------------------------------------------------------------


def _dynamic_sites(workload, seed):
    device = Device(SIM_GPU)
    tool = device.add_tool(IGuard())
    workload.run(device, seed)
    return {str(ip) for ip, _ in tool.races.sites()}


class TestSoundness:
    @settings(max_examples=25, deadline=None)
    @given(
        program_seed=st.integers(min_value=0, max_value=10_000),
        scheduler_seed=st.integers(min_value=0, max_value=7),
    )
    def test_static_safe_sites_never_race_dynamically(
        self, program_seed, scheduler_seed
    ):
        statements = gen_program(SplitMix64(program_seed))
        workload = program_workload(statements)
        lint = analyze_workload(workload)
        safe = lint.static_safe_sites()
        dynamic = _dynamic_sites(workload, scheduler_seed)
        colliding = dynamic & safe
        assert not colliding, (
            f"program {program_seed} seed {scheduler_seed}: "
            f"dynamic races at statically-safe sites "
            f"{sorted(colliding)}\nstatements: {statements}"
        )
        # The stronger gate the fuzzer enforces: every dynamic site
        # must be inside the static may-race set.
        for ip in dynamic:
            assert lint.allows_dynamic_site(ip), (
                f"dynamic race at {ip} outside the static may-race set"
            )
