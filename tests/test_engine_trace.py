"""Trace record/replay: captured streams re-drive detectors exactly."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import CURD, Barracuda
from repro.core import IGuard
from repro.engine import Trace, TraceSink, capture_workload, replay, replay_workload
from repro.engine.coltrace import read_events, write_columnar
from repro.engine.trace import RunMarker
from repro.errors import TraceCorruptionError
from repro.gpu.arch import GPUConfig
from repro.gpu.device import Device
from repro.gpu.events import (
    AccessKind,
    AllocEvent,
    KernelEndEvent,
    LaunchEvent,
    MemoryEvent,
    SyncEvent,
    SyncKind,
)
from repro.gpu.ids import ThreadLocation
from repro.gpu.instructions import AtomicOp, Scope
from repro.workloads import get_workload, run_workload
from repro.workloads.base import SIM_GPU


class TestReplayMatchesLive:
    """The acceptance check: replayed detection == live detection."""

    def test_graph_color_races_match(self):
        workload = get_workload("graph-color")
        live = run_workload(workload, IGuard)
        trace = capture_workload(workload)
        replayed = replay_workload(trace, IGuard, workload_name=workload.name)
        assert replayed.status == live.status
        assert replayed.race_sites == live.race_sites
        assert replayed.race_types == live.race_types
        assert replayed.races == live.races

    def test_graph_color_timing_matches_exactly(self):
        workload = get_workload("graph-color")
        live = run_workload(workload, IGuard)
        trace = capture_workload(workload)
        replayed = replay_workload(trace, IGuard, workload_name=workload.name)
        # Not approx: the replayed native account replays the recorded
        # cycles and the detector recharges the same overheads, so the
        # whole Figure 13 breakdown reproduces bit-for-bit.
        assert replayed.overhead == live.overhead
        assert replayed.breakdown == live.breakdown
        assert replayed.native_time == live.native_time
        assert replayed.total_time == live.total_time

    def test_replay_after_ctr_round_trip(self, tmp_path):
        workload = get_workload("graph-color")
        live = run_workload(workload, IGuard)
        path = tmp_path / "graph-color.ctr.gz"
        capture_workload(workload).save(path)
        trace = Trace.load(path)
        replayed = replay_workload(trace, IGuard, workload_name=workload.name)
        assert replayed.race_sites == live.race_sites
        assert replayed.overhead == live.overhead

    def test_replay_drives_barracuda_failures(self):
        # warpAA uses scoped atomics: Barracuda must report "unsupported"
        # from a trace exactly as it does live.
        workload = get_workload("warpAA")
        live = run_workload(workload, Barracuda, seeds=(1,))
        trace = capture_workload(workload, seeds=(1,))
        replayed = replay_workload(trace, Barracuda, workload_name=workload.name)
        assert live.status == replayed.status
        assert replayed.detail == live.detail

    def test_one_trace_many_detectors(self):
        workload = get_workload("hashtable")
        trace = capture_workload(workload, seeds=(1,))
        ig = replay_workload(trace, IGuard, workload_name=workload.name)
        bar = replay_workload(trace, Barracuda, workload_name=workload.name)
        live_ig = run_workload(workload, IGuard, seeds=(1,))
        live_bar = run_workload(workload, Barracuda, seeds=(1,))
        assert ig.race_sites == live_ig.race_sites
        assert bar.race_sites == live_bar.race_sites

    @pytest.mark.parametrize("factory", [Barracuda, CURD], ids=["Barracuda", "CURD"])
    @pytest.mark.parametrize("name", ["hashtable", "warpAA", "interac"])
    def test_hb_replay_equals_live(self, factory, name):
        # Through Tool.feed: an ok run, an unsupported scoped atomic, and
        # Barracuda's event-budget timeout (CURD's fallback recharge).
        workload = get_workload(name)
        live = run_workload(workload, factory)
        trace = capture_workload(workload)
        assert replay_workload(trace, factory, workload.name) == live

    @staticmethod
    def _replayed_events(name, tool_factory):
        from repro.obs import metrics

        workload = get_workload(name)
        trace = capture_workload(workload)
        metrics.set_enabled(True)
        metrics.get_registry().reset()
        try:
            result = replay_workload(trace, tool_factory, workload.name)
            snapshot = metrics.get_registry().snapshot()
        finally:
            metrics.set_enabled(False)
            metrics.get_registry().reset()
        return result, snapshot["replay.events"]["value"]

    def test_replay_events_counter(self):
        # Records replayed, headers and run markers excluded.
        _, events = self._replayed_events("reduction", IGuard)
        assert events == 927

    def test_replay_events_counter_stops_at_abort(self):
        # Barracuda's event budget aborts interac's replay mid-slice:
        # only the records fed up to the failing one count.
        result, events = self._replayed_events("interac", Barracuda)
        assert result.status == "timeout"
        assert events == 12_008


class TestTraceContainer:
    def test_capture_has_header_and_run_markers(self):
        workload = get_workload("b_scan")
        trace = capture_workload(workload, seeds=(1, 2))
        assert trace.gpu_config == SIM_GPU
        assert [seed for seed, _ in trace.runs()] == [1, 2]
        assert all(events for _, events in trace.runs())

    def test_save_load_plain_and_gzip(self, tmp_path):
        trace = capture_workload(get_workload("b_scan"), seeds=(1,))
        plain = tmp_path / "trace.ctr"
        packed = tmp_path / "trace.ctr.gz"
        trace.save(plain)
        trace.save(packed)
        assert Trace.load(plain).events == trace.events
        assert Trace.load(packed).events == trace.events

    def test_trace_sink_is_zero_overhead(self):
        from repro.gpu.instructions import store

        device = Device(SIM_GPU)
        device.add_tool(TraceSink())
        a = device.alloc("a", 4)

        def kernel(ctx, arr):
            yield store(arr, ctx.tid, 1)

        run = device.launch(kernel, grid_dim=1, block_dim=4, args=(a,))
        assert run.overhead == pytest.approx(1.0)


# -- codec property tests ---------------------------------------------------

_locations = st.builds(
    ThreadLocation,
    global_tid=st.integers(0, 2**16),
    block_id=st.integers(0, 255),
    tid_in_block=st.integers(0, 1023),
    warp_id=st.integers(0, 4095),
    lane=st.integers(0, 31),
    warp_in_block=st.integers(0, 31),
)

_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**40), 2**40),
    st.text(max_size=12),
)

_memory_events = st.builds(
    MemoryEvent,
    kind=st.sampled_from(AccessKind),
    address=st.integers(0, 2**32).map(lambda a: a * 4),
    where=_locations,
    ip=st.text(max_size=24),
    active_mask=st.frozensets(st.integers(0, 31), max_size=8),
    scope=st.sampled_from(Scope),
    atomic_op=st.one_of(st.none(), st.sampled_from(AtomicOp)),
    value_stored=_values,
    value_loaded=_values,
    compare=_values,
    batch=st.integers(0, 2**20),
)

_sync_events = st.builds(
    SyncEvent,
    kind=st.sampled_from(SyncKind),
    where=_locations,
    ip=st.text(max_size=24),
    active_mask=st.frozensets(st.integers(0, 31), max_size=8),
    scope=st.sampled_from(Scope),
    batch=st.integers(0, 2**20),
)

_alloc_events = st.builds(
    AllocEvent,
    name=st.text(min_size=1, max_size=16),
    base=st.integers(0, 2**32).map(lambda a: a * 4),
    num_words=st.integers(1, 2**20),
)

_launch_events = st.builds(
    LaunchEvent,
    kernel_name=st.text(min_size=1, max_size=24),
    grid_dim=st.integers(1, 1024),
    block_dim=st.integers(1, 1024),
    warp_size=st.sampled_from([8, 16, 32]),
    warps_per_block=st.integers(1, 32),
    num_threads=st.integers(1, 2**16),
    seed=st.integers(0, 2**31),
    static_instruction_count=st.integers(0, 2**16),
    parallelism=st.integers(1, 4608),
)

_end_events = st.builds(
    KernelEndEvent,
    kernel_name=st.text(min_size=1, max_size=24),
    timed_out=st.booleans(),
    native_parallel=st.floats(0, 1e9, allow_nan=False),
    native_serial=st.floats(0, 1e9, allow_nan=False),
    batches=st.integers(0, 2**24),
    instructions=st.integers(0, 2**24),
)

_events = st.one_of(
    _memory_events, _sync_events, _alloc_events, _launch_events, _end_events
)


def _columnar_round_trip(events, chunk_rows=1):
    buffer = io.BytesIO()
    write_columnar(buffer, events, chunk_rows=chunk_rows)
    restored, corruption = read_events(io.BytesIO(buffer.getvalue()))
    assert corruption is None
    return restored


class TestCodecRoundTrip:
    """Each record type alone in a one-row ``.ctr`` chunk."""

    @given(event=_events)
    @settings(max_examples=200, deadline=None)
    def test_event_round_trips(self, event):
        assert _columnar_round_trip([event]) == [event]

    def test_gpu_config_round_trips(self):
        (restored, marker) = _columnar_round_trip([SIM_GPU, RunMarker(7)])
        assert isinstance(restored, GPUConfig)
        assert restored == SIM_GPU
        assert marker == RunMarker(7)

    def test_unknown_record_rejected(self):
        with pytest.raises(TypeError):
            write_columnar(io.BytesIO(), [object()])
        buffer = io.BytesIO()
        write_columnar(buffer, [RunMarker(1)])
        data = bytearray(buffer.getvalue())
        # The one row's event-type code is the last byte of the ``et``
        # block, just before the run-seed block (an 8-byte int64 after
        # its 128-byte npy header).
        data[-8 - 128 - 1] = 0xEE
        with pytest.raises(TraceCorruptionError, match="event-type code"):
            read_events(io.BytesIO(bytes(data)))
