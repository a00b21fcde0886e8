"""Columnar replay: iGUARD's front end fed one decoded chunk at a time.

:func:`repro.engine.replay.replay` feeds :meth:`IGuard.feed` the stream
in record slices, columnar replay feeds it each chunk with vectorized
granules.  These tests pin
the two feeders against each other on real workloads: race sites and
checked-event counts match, and — because every call drains its one
queue in stream order — the dynamic race records reach the log in
exactly the same order, whatever the chunk size.
"""

import pytest

from repro.core import IGuard
from repro.core.sharding import replay_columnar_sharded
from repro.engine.coltrace import save_columnar
from repro.engine.replay import capture_workload, replay, replay_workload
from repro.workloads.registry import get_workload, racy_workloads


class TestBatchedDrain:
    @pytest.mark.parametrize("name", ["matrix-mult", "reduction"])
    def test_batched_replay_sites_match_serial(self, name, tmp_path):
        workload = get_workload(name)
        trace = capture_workload(workload)
        serial = replay_workload(trace, IGuard, workload.name)
        sites = {}
        for seed, events in trace.runs():
            path = tmp_path / f"{seed}.ctr"
            save_columnar(list(events), path, chunk_rows=256)
            outcome = replay_columnar_sharded(str(path))
            for ip, race_type in outcome.tool.races.sites():
                sites.setdefault(ip, str(race_type))
        assert sites == dict(serial.race_sites)

    def test_batched_stats_match_serial(self, tmp_path):
        workload = get_workload("matrix-mult")
        trace = capture_workload(workload)
        events = list(next(iter(trace.runs()))[1])

        serial_tool = IGuard()
        replay(events, serial_tool)
        path = tmp_path / "t.ctr"
        save_columnar(events, path, chunk_rows=256)
        outcome = replay_columnar_sharded(str(path))
        serial_checked = sum(
            s.accesses_checked + s.accesses_coalesced
            for s in serial_tool.stats
        )
        assert outcome.events == serial_checked

    def test_batched_tool_is_an_iguard(self, tmp_path):
        path = tmp_path / "empty.ctr"
        save_columnar([], path)
        tool = replay_columnar_sharded(str(path)).tool
        assert isinstance(tool, IGuard)
        assert tool.shard_routed_total == [0]


class TestRecordOrder:
    def test_drain_records_equal_serial_on_racy_basket(self, tmp_path):
        # One queue drained in stream order: every dynamic record, in
        # order, exactly as sliced replay reports it — with ordinary chunks
        # and with chunks of 7 rows, which split launches and sync
        # intervals at arbitrary points.
        total = 0
        for workload in racy_workloads():
            trace = capture_workload(workload, seeds=workload.seeds[:1])
            events = list(trace)
            serial = IGuard()
            replay(events, serial)
            expected = serial.races.records()

            for chunk_rows in (256, 7):
                path = tmp_path / f"{workload.name}-{chunk_rows}.ctr"
                save_columnar(events, path, chunk_rows=chunk_rows)
                columnar = replay_columnar_sharded(str(path)).tool
                assert columnar.races.records() == expected, (
                    workload.name, chunk_rows,
                )
            total += len(expected)
        assert total > 0
