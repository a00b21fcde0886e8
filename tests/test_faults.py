"""Fault injection: mutators, the recall gate, trace salvage, and
graceful degradation under metadata pressure."""

import json
import os

import pytest

from repro.core import IGuard
from repro.core.config import IGuardConfig
from repro.core.sharding import replay_columnar_sharded
from repro.engine.coltrace import iter_chunks, save_columnar, stream_events
from repro.engine.trace import Trace, TraceSink
from repro.errors import ConfigError, TraceCorruptionError
from repro.faults.mutators import MutationSpec, install
from repro.faults.recall import (
    render,
    report_passed,
    run_recall,
    select_mutations,
)
from repro.faults.workloads import FAULT_PATTERNS, get_pattern, total_mutations
from repro.gpu.device import Device
from repro.workloads import get_workload, run_workload
from repro.workloads.base import SIM_GPU


def _races_of(pattern, seed, spec=None, config=None):
    """Run one pattern (optionally mutated) and return {ip: type-tag}."""
    device = Device(SIM_GPU)
    tool = device.add_tool(IGuard(config) if config else IGuard())
    if spec is not None:
        install(spec, device)
    pattern.workload.run(device, seed)
    return {ip: str(t) for ip, t in tool.races.sites()}, tool


class TestPatternBaselines:
    """Every pattern is genuinely race-free until a mutation breaks it."""

    @pytest.mark.parametrize(
        "name", [p.name for p in FAULT_PATTERNS]
    )
    def test_baseline_race_free(self, name):
        pattern = get_pattern(name)
        for seed in pattern.workload.seeds:
            sites, _ = _races_of(pattern, seed)
            assert sites == {}, f"{name} baseline raced at seed {seed}"


class TestMutantDetection:
    """Acceptance: every sync-removal mutant is detected with the
    annotated Table 2 race type."""

    @pytest.mark.parametrize(
        "name,mutation",
        [(p.name, m.name) for p in FAULT_PATTERNS for m in p.mutations],
    )
    def test_mutant_detected_with_expected_type(self, name, mutation):
        pattern = get_pattern(name)
        spec = pattern.mutation(mutation)
        types = set()
        applied = 0
        for seed in pattern.workload.seeds:
            device = Device(SIM_GPU)
            tool = device.add_tool(IGuard())
            mutator = install(spec, device)
            pattern.workload.run(device, seed)
            applied += mutator.applied
            types |= {str(t) for _, t in tool.races.sites()}
        assert applied > 0, f"{mutation} never fired on {name}"
        assert spec.expected_type in types, (
            f"{name}/{mutation} ({spec.condition}): expected "
            f"{spec.expected_type}, detected {sorted(types) or 'nothing'}"
        )

    def test_every_condition_annotated(self):
        for pattern in FAULT_PATTERNS:
            for spec in pattern.mutations:
                assert spec.condition.startswith("R")
                assert spec.expected_type in ("AS", "ITS", "BR", "DR", "IL")

    def test_total_mutations_counts_all(self):
        assert total_mutations() == sum(
            len(p.mutations) for p in FAULT_PATTERNS
        )


class TestMutationSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            MutationSpec(
                name="x", kind="explode", condition="R1", expected_type="AS"
            )


class TestRecallGate:
    def test_gate_passes_and_report_is_deterministic(self):
        first = run_recall(seed=1)
        second = run_recall(seed=1)
        assert report_passed(first)
        assert first["summary"]["missed"] == 0
        assert first["summary"]["mutants"] == total_mutations()
        dump = lambda r: json.dumps(r, indent=2, sort_keys=True)
        assert dump(first) == dump(second)

    def test_select_mutations_is_seeded_subset(self):
        pattern = get_pattern("ff-pipeline")
        subset = select_mutations(pattern, 1, seed=7)
        assert len(subset) == 1
        assert subset == select_mutations(pattern, 1, seed=7)
        assert set(subset) <= set(pattern.mutations)
        assert select_mutations(pattern, None, seed=7) == pattern.mutations

    def test_render_mentions_every_mutation(self):
        report = run_recall(workload_names=["warp-exchange"])
        text = render(report)
        assert "skip-syncwarp" in text and "detected" in text


def _record_pattern_trace(tmp_path, suffix=""):
    pattern = get_pattern("ff-pipeline")
    device = Device(SIM_GPU)
    sink = device.add_tool(TraceSink())
    pattern.workload.run(device, 1)
    path = str(tmp_path / f"trace.ctr{suffix}")
    save_columnar(sink.trace.events, path, chunk_rows=CHUNK_ROWS)
    return path, sink.trace.events


#: Rows per chunk of the recorded pattern trace: small, so the trace
#: spans several chunks.
CHUNK_ROWS = 4


def _corrupt_event_type(path, chunk_index):
    """Overwrite the first event-type code of one chunk with a bad code.

    The chunk header and every block size stay valid, so only the row
    decode of :meth:`Chunk.events` can notice.  Returns the chunk's
    block ordinal and start offset.
    """
    chunk = list(iter_chunks(path))[chunk_index]
    raw = bytearray(open(path, "rb").read())
    et_block = raw.index(b"\n", chunk.start_offset) + 1
    header_len = int.from_bytes(raw[et_block + 8 : et_block + 10], "little")
    raw[et_block + 10 + header_len] = 0xEE
    with open(path, "wb") as handle:
        handle.write(raw)
    return chunk.ordinal, chunk.start_offset


def _lazy_corruption(path):
    """The corruption both lazy decode paths raise, as comparable tuples."""
    raised = []
    with pytest.raises(TraceCorruptionError) as info:
        for _ in stream_events(path):
            pass
    raised.append((info.value.block, info.value.last_good_offset))
    with pytest.raises(TraceCorruptionError) as info:
        replay_columnar_sharded(path)
    raised.append((info.value.block, info.value.last_good_offset))
    return raised


class TestTraceSalvage:
    def test_corrupt_line_raises_with_forensics(self, tmp_path):
        path, events = _record_pattern_trace(tmp_path)
        assert len(events) > 3 * CHUNK_ROWS
        block, offset = _corrupt_event_type(path, 2)
        with pytest.raises(TraceCorruptionError) as info:
            Trace.load(path)
        assert info.value.block == block == 4  # file header, then chunks
        assert info.value.events_recovered == 2 * CHUNK_ROWS
        assert info.value.last_good_offset == offset
        assert "unknown event-type code 238" in info.value.reason
        assert "corrupt trace at block 4" in str(info.value)
        # The lazy paths report the same block and offset.
        assert _lazy_corruption(path) == [(block, offset)] * 2

    def test_salvage_returns_intact_prefix(self, tmp_path):
        path, events = _record_pattern_trace(tmp_path)
        _corrupt_event_type(path, 1)
        trace = Trace.load(path, salvage=True)
        assert trace.events == events[:CHUNK_ROWS]
        assert trace.corruption is not None
        assert trace.corruption.events_recovered == CHUNK_ROWS

    def test_truncated_gzip_stream(self, tmp_path):
        path, events = _record_pattern_trace(tmp_path, suffix=".gz")
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: (len(raw) * 3) // 4])
        with pytest.raises(TraceCorruptionError):
            Trace.load(path)
        trace = Trace.load(path, salvage=True)
        assert 0 < len(trace) < len(events)
        assert trace.corruption is not None
        block = trace.corruption.block
        offset = trace.corruption.last_good_offset
        assert _lazy_corruption(path) == [(block, offset)] * 2

    def test_intact_trace_has_no_corruption(self, tmp_path):
        path, events = _record_pattern_trace(tmp_path, suffix=".gz")
        trace = Trace.load(path)
        assert trace.events == events
        assert trace.corruption is None
        assert list(stream_events(path)) == events
        assert replay_columnar_sharded(path).events > 0


class TestMetadataPressure:
    """A finite metadata table degrades recall, never soundness."""

    def test_cap_validation(self):
        with pytest.raises(ConfigError):
            IGuardConfig(metadata_max_entries=0)
        assert IGuardConfig(metadata_max_entries=8).metadata_max_entries == 8

    def test_race_free_pattern_stays_race_free_under_pressure(self):
        pattern = get_pattern("barrier-handoff")
        for cap, evicts in ((1, True), (2, True), (8, False)):
            sites, tool = _races_of(
                pattern, 1, config=IGuardConfig(metadata_max_entries=cap)
            )
            assert sites == {}, f"cap {cap} invented a race"
            assert (tool.table.evictions > 0) is evicts

    def test_pressure_only_loses_races_never_invents(self):
        workload = get_workload("graph-color")
        uncapped = run_workload(workload, IGuard, seeds=(1,))
        capped = run_workload(
            workload,
            lambda: IGuard(IGuardConfig(metadata_max_entries=4)),
            seeds=(1,),
        )
        full = set(uncapped.race_sites)
        assert set(capped.race_sites) <= full
        assert full  # the racy workload actually races

    def test_eviction_counter_matches_table_pressure(self):
        from repro.core.metadata import MetadataTable

        table = MetadataTable(max_entries=2)
        for granule in range(5):
            table.lookup_granule(granule)
        assert len(table) == 2
        assert table.evictions == 3
        # Re-touching a resident granule neither grows nor evicts.
        table.lookup_granule(4)
        assert table.evictions == 3


class TestValidateSchemaErrors:
    def _main(self, *argv):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "validate_schema",
            os.path.join(
                os.path.dirname(__file__), "..", "benchmarks",
                "validate_schema.py",
            ),
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main(list(argv))

    def test_missing_instance_is_structured_error(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text('{"type": "object"}')
        rc = self._main(str(schema), str(tmp_path / "nope.json"))
        err = capsys.readouterr().err
        assert rc == 2
        assert "ERROR: cannot read instance" in err
        assert "Traceback" not in err

    def test_unparseable_schema_is_structured_error(self, tmp_path, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text("{not json")
        instance = tmp_path / "instance.json"
        instance.write_text("{}")
        rc = self._main(str(schema), str(instance))
        err = capsys.readouterr().err
        assert rc == 2
        assert "is not valid JSON" in err
