"""The section 6.7 accessor-history ablation.

The paper: "We empirically confirmed this by tracking the last 2, 4, and
8 accessors to a memory location in the metadata instead of only the last
accessor (default in iGUARD).  Tracking longer access history did not
find any new races for any of the programs we evaluated."
"""

from types import SimpleNamespace

import pytest

from repro.core import IGuard
from repro.core.config import DEFAULT_CONFIG, IGuardConfig
from repro.core.engine import IGuardCore
from repro.errors import ConfigError
from repro.gpu.events import AccessKind, MemoryEvent
from repro.gpu.ids import locate
from repro.gpu.instructions import atomic_add, atomic_load, load, store, syncthreads
from repro.instrument.timing import TimingBreakdown
from repro.obs import metrics
from repro.workloads import racefree_workloads, racy_workloads, run_workload

from tests.conftest import detect


class TestConfig:
    def test_default_is_one(self):
        assert DEFAULT_CONFIG.accessor_history == 1

    def test_with_history(self):
        assert DEFAULT_CONFIG.with_history(4).accessor_history == 4

    def test_rejects_zero(self):
        with pytest.raises(ConfigError):
            DEFAULT_CONFIG.with_history(0)


class TestNoNewRaces:
    """The paper's finding, reproduced per workload."""

    @pytest.mark.parametrize("depth", [2, 4, 8])
    @pytest.mark.parametrize(
        "name", ["reduction", "graph-color", "hashtable", "grid_sync"]
    )
    def test_racy_counts_unchanged(self, name, depth):
        workload = next(w for w in racy_workloads() if w.name == name)
        base = run_workload(workload, lambda: IGuard(), seeds=(1,))
        deep = run_workload(
            workload, lambda: IGuard(DEFAULT_CONFIG.with_history(depth)),
            seeds=(1,),
        )
        assert deep.races == base.races == workload.expected_races

    @pytest.mark.parametrize(
        "name", ["b_scan", "hotspot", "d_sel_if", "warpAA"]
    )
    def test_racefree_still_silent(self, name):
        workload = next(w for w in racefree_workloads() if w.name == name)
        deep = run_workload(
            workload, lambda: IGuard(DEFAULT_CONFIG.with_history(8)),
            seeds=(1,),
        )
        assert deep.races == 0, deep.race_sites


class TestHistoryCanSeeOlderAccessors:
    """A synthetic case where only deeper history catches the race: a
    writer synchronizes with the *latest* reader but not an earlier one
    (the false-negative window the paper deems unlikely in practice)."""

    @staticmethod
    def _kernel(ctx, data, flags, out):
        # t1 reads data[0]; then t2 reads it and publishes a fence; then
        # t0 writes it.  t0 is fence-ordered against t2 (the latest
        # reader) but races with t1's older read.
        if ctx.tid == 1:
            v = yield load(data, 0)
            yield store(out, 1, v)
            yield atomic_add(flags, 0, 1)
        if ctx.tid == 2:
            while (yield atomic_load(flags, 0)) == 0:
                pass
            v = yield load(data, 0)
            yield store(out, 2, v)
            from repro.gpu.instructions import fence_device
            yield fence_device()
            yield atomic_add(flags, 1, 1)
        if ctx.tid == 0:
            while (yield atomic_load(flags, 1)) == 0:
                pass
            yield store(data, 0, 99)

    def test_depth_one_misses(self):
        det, _ = detect(
            self._kernel, 1, 16, {"data": 1, "flags": 2, "out": 4}, seed=1
        )
        assert det.race_count == 0  # t1's read was overwritten in metadata

    def test_depth_four_catches(self):
        det, _ = detect(
            self._kernel, 1, 16, {"data": 1, "flags": 2, "out": 4}, seed=1,
            config=DEFAULT_CONFIG.with_history(4),
        )
        assert det.race_count == 1


class TestEvictionForgetsHistory:
    """Per-granule side state follows the metadata table's evictions."""

    def test_side_tables_trimmed_with_evicted_entries(self):
        config = IGuardConfig(metadata_max_entries=2, accessor_history=4)
        core = IGuardCore(config)
        launch = SimpleNamespace(
            warps_per_block=1, kernel_name="k", timing=TimingBreakdown(),
            device=SimpleNamespace(memory=SimpleNamespace(describe=hex)),
        )

        def access(granule, tid, kind=AccessKind.STORE):
            event = MemoryEvent(
                kind=kind, address=granule * 4, where=locate(tid, 32, 32),
                ip="k.cu:1", active_mask=frozenset({tid % 32}),
            )
            core.check_memory(event, granule, launch)
            assert len(core._history) <= 2
            assert len(core._writer_lock_truth) <= 2

        metrics.set_enabled(True)
        try:
            for granule in (0, 1, 2, 3, 0, 1, 4):
                access(granule, tid=granule)
                access(granule, tid=32 + granule, kind=AccessKind.LOAD)
        finally:
            metrics.set_enabled(False)
            metrics.get_registry().reset()
        assert core.table.evictions > 0
        # Granule 0 was evicted and re-admitted: its history holds only
        # the accesses since re-admission, not the pre-eviction ones.
        access(5, tid=5)  # evicts granule 0 again
        assert 0 not in core._history
        access(0, tid=7)
        assert [was_write for _, was_write in core._history[0]] == [True]
