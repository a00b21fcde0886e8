"""The batched replay drain: one queue of checks, drained in stream order.

The drain's contract is byte-identical detection output to the serial
event bus.  These tests pin it against real workloads: race sites and
checked-event counts match serial, and — because the one queue keeps
stream order — the dynamic race records reach the log in exactly the
serial order, with no re-sort.
"""

import pytest

from repro.core import IGuard
from repro.core.config import DEFAULT_CONFIG
from repro.core.sharding import (
    BatchedIGuard,
    replay_columnar_sharded,
    replay_trace_batched,
)
from repro.engine.coltrace import save_columnar
from repro.engine.replay import capture_workload, replay, replay_workload
from repro.workloads.registry import get_workload, racy_workloads


class TestBatchedDrain:
    @pytest.mark.parametrize("name", ["matrix-mult", "reduction"])
    def test_batched_replay_sites_match_serial(self, name):
        workload = get_workload(name)
        trace = capture_workload(workload)
        serial = replay_workload(trace, IGuard, workload.name)
        sites = {}
        for _seed, events in trace.runs():
            outcome = replay_trace_batched(list(events))
            for ip, race_type in outcome.tool.races.sites():
                sites.setdefault(ip, str(race_type))
        assert sites == dict(serial.race_sites)

    def test_batched_stats_match_serial(self):
        workload = get_workload("matrix-mult")
        trace = capture_workload(workload)
        events = list(next(iter(trace.runs()))[1])

        serial_tool = IGuard()
        replay(events, tools=[serial_tool])
        outcome = replay_trace_batched(events)
        serial_checked = sum(
            s.accesses_checked + s.accesses_coalesced
            for s in serial_tool.stats
        )
        assert outcome.events == serial_checked

    def test_batched_tool_is_an_iguard(self):
        tool = BatchedIGuard(DEFAULT_CONFIG)
        assert isinstance(tool, IGuard)
        assert tool.shard_routed_total == [0]


class TestRecordOrder:
    def test_drain_records_equal_serial_on_racy_basket(self, tmp_path):
        # One queue drained in stream order: every dynamic record, in
        # order, exactly as the serial bus reports it.
        total = 0
        for workload in racy_workloads():
            trace = capture_workload(workload, seeds=workload.seeds[:1])
            events = list(trace)
            serial = IGuard()
            replay(events, tools=[serial])
            expected = serial.races.records()

            batched = replay_trace_batched(events).tool
            assert batched.races.records() == expected, workload.name

            path = tmp_path / f"{workload.name}.ctr"
            save_columnar(events, path, chunk_rows=256)
            columnar = replay_columnar_sharded(str(path)).tool
            assert columnar.races.records() == expected, workload.name
            total += len(expected)
        assert total > 0
