"""The columnar trace container (``repro.engine.coltrace``).

Three contracts:

- **round-trip** — any typed event stream, device-config headers and
  run markers included, survives the columnar container bit-exactly,
  including the optional value fields
  (``value_stored``/``value_loaded``/``compare``);
- **salvage** — a truncated or corrupt ``.ctr`` raises
  :class:`TraceCorruptionError` with its block ordinal and byte offset,
  and ``salvage=True`` recovers its longest intact chunk prefix;
- **replay equivalence** — replaying ``.ctr`` and ``.ctr.gz`` produces
  canonical workload reports byte-identical to the live run, for IGuard
  (bus and chunk-fed) and FastTrack.
"""

import gzip
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FastTrack
from repro.core import IGuard
from repro.core.sharding import replay_columnar_sharded
from repro.engine import Trace, capture_workload, replay_workload
from repro.engine.coltrace import iter_chunks, save_columnar
from repro.engine.trace import RunMarker
from repro.errors import ConfigError, TraceCorruptionError
from repro.gpu.arch import PRE_VOLTA, TITAN_RTX
from repro.workloads import get_workload, run_workload
from repro.workloads.base import SIM_GPU

from tests.test_engine_trace import _columnar_round_trip as _round_trip, _events

#: Stream records beyond the typed events: device-config headers and run
#: boundaries.
_records = st.one_of(
    _events,
    st.sampled_from([SIM_GPU, TITAN_RTX, PRE_VOLTA]),
    st.builds(RunMarker, seed=st.integers(0, 2**31)),
)

#: The replay-equivalence matrix, per the PR: 4 racy + 3 race-free.
RACY = ("matrix-mult", "reduction", "graph-color", "reduceMB")
RACE_FREE = ("warpAA", "b_reduce", "b_scan")


class TestColumnarRoundTrip:
    @given(events=st.lists(_records, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_any_stream_round_trips(self, events):
        # chunk_rows smaller than the stream forces multi-chunk traces,
        # exercising the cross-chunk string pool and memo reuse.
        assert _round_trip(events, chunk_rows=7) == events

    def test_exotic_values_round_trip(self):
        from repro.gpu.events import AccessKind, MemoryEvent
        from repro.gpu.ids import ThreadLocation
        from repro.gpu.instructions import Scope

        where = ThreadLocation(global_tid=1, block_id=0, tid_in_block=1,
                               warp_id=0, lane=1, warp_in_block=0)
        events = [
            MemoryEvent(
                kind=AccessKind.STORE, address=64, where=where, ip="k:1",
                active_mask=frozenset([1]), scope=Scope.DEVICE,
                value_stored=value, batch=0,
            )
            for value in (None, True, False, 0, -1, 2**70, -(2**70),
                          3.25, float("inf"), "text", 2**62)
        ]
        restored = _round_trip(events, chunk_rows=4)
        assert restored == events
        # Bit-exact, not just equal: bools stay bools, ints stay ints.
        for original, copy in zip(events, restored):
            assert type(copy.value_stored) is type(original.value_stored)

    def test_file_save_load_dispatch(self, tmp_path):
        trace = capture_workload(get_workload("b_scan"), seeds=(1,))
        plain = tmp_path / "trace.ctr"
        packed = tmp_path / "trace.ctr.gz"
        trace.save(plain)
        trace.save(packed)
        assert plain.read_bytes().startswith(b'{"format":"iguard-ctr"')
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()
        # Only the two columnar extensions name a trace file.
        other = tmp_path / "trace.json.gz"
        with pytest.raises(ConfigError, match=r"\.ctr or \.ctr\.gz"):
            trace.save(other)
        assert not other.exists()
        other.write_bytes(plain.read_bytes())
        with pytest.raises(ConfigError, match="trace.json.gz"):
            Trace.load(other)

    def test_convert_both_directions(self, tmp_path):
        from repro.experiments.tracecli import main as trace_main

        trace = capture_workload(get_workload("reduction"), seeds=(1,))
        ctr = tmp_path / "a.ctr"
        packed = tmp_path / "a.ctr.gz"
        back = tmp_path / "b.ctr"
        trace.save(ctr)
        assert trace_main(["convert", str(ctr), str(packed)]) == 0
        assert trace_main(["convert", str(packed), str(back)]) == 0
        assert back.read_bytes() == ctr.read_bytes()

    def test_vectorized_granules_match_scalar(self, tmp_path):
        trace = capture_workload(get_workload("reduction"), seeds=(1,))
        path = tmp_path / "t.ctr"
        save_columnar(trace.events, path, chunk_rows=128)
        table = IGuard().table
        checked = 0
        for chunk in iter_chunks(str(path)):
            granules = chunk.mem_routes(4)
            mem = [e for e in chunk.events() if hasattr(e, "address")]
            assert len(granules) == len(mem)
            for event, granule in zip(mem, granules):
                assert granule == table.granule_of(event.address)
                checked += 1
        assert checked > 0


def _columnar_pattern_trace(tmp_path, chunk_rows=64, suffix=""):
    trace = capture_workload(get_workload("reduction"), seeds=(1, 2))
    path = str(tmp_path / f"trace.ctr{suffix}")
    save_columnar(trace.events, path, chunk_rows=chunk_rows)
    return path, len(trace.events), chunk_rows


class TestColumnarSalvage:
    """Truncation and garbage: strict forensics, chunk-prefix salvage."""

    def test_truncation_raises_with_forensics(self, tmp_path):
        path, total, chunk_rows = _columnar_pattern_trace(tmp_path)
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) - 9])
        with pytest.raises(TraceCorruptionError) as info:
            Trace.load(path)
        assert 0 <= info.value.events_recovered < total
        assert info.value.events_recovered % chunk_rows == 0
        assert info.value.block >= 2  # block ordinal; file header is 1
        assert info.value.last_good_offset > 0
        assert "corrupt trace at block" in str(info.value)

    def test_salvage_returns_chunk_prefix(self, tmp_path):
        path, total, chunk_rows = _columnar_pattern_trace(tmp_path)
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: (len(raw) * 3) // 4])
        trace = Trace.load(path, salvage=True)
        assert 0 < len(trace.events) < total
        assert len(trace.events) % chunk_rows == 0
        assert trace.corruption is not None
        assert trace.corruption.events_recovered == len(trace.events)

    def test_truncated_gzip_stream(self, tmp_path):
        path, total, chunk_rows = _columnar_pattern_trace(
            tmp_path, suffix=".gz"
        )
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        with pytest.raises(TraceCorruptionError):
            Trace.load(path)
        trace = Trace.load(path, salvage=True)
        assert 0 <= len(trace.events) < total
        assert trace.corruption is not None

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ctr"
        path.write_bytes(b'{"format": "something-else", "version": 1}\n')
        with pytest.raises(TraceCorruptionError):
            Trace.load(path)
        trace = Trace.load(path, salvage=True)
        assert trace.events == []

    def test_intact_trace_has_no_corruption(self, tmp_path):
        path, total, _ = _columnar_pattern_trace(tmp_path)
        trace = Trace.load(path)
        assert len(trace.events) == total
        assert trace.corruption is None

    def test_invalid_pooled_gpu_config_is_corruption(self, tmp_path):
        # A flipped digit in the pooled GPUConfig JSON decodes but fails
        # GPUConfig.__post_init__; that is corruption of the chunk
        # holding the header, not a configuration error.
        path = tmp_path / "t.ctr"
        save_columnar([RunMarker(1), SIM_GPU], path, chunk_rows=1)
        raw = path.read_bytes()
        good = b'\\"warp_size\\": 8}'
        assert raw.count(good) == 1
        path.write_bytes(raw.replace(good, b'\\"warp_size\\": 0}'))
        with pytest.raises(TraceCorruptionError) as info:
            Trace.load(path)
        assert info.value.block == 3  # file header, marker chunk, config
        assert "ConfigError" in info.value.reason
        trace = Trace.load(path, salvage=True)
        assert trace.events == [RunMarker(1)]
        assert trace.corruption.block == 3


def _canonical_report(result):
    """The runner's canonical payload, serialized for byte comparison."""
    payload = {
        "workload": result.workload,
        "detector": result.detector,
        "status": result.status,
        "races": result.races,
        "race_sites": [[ip, t] for ip, t in result.race_sites],
        "overhead": result.overhead,
        "native_time": result.native_time,
        "total_time": result.total_time,
        "breakdown": dict(sorted(result.breakdown.items())),
        "detail": result.detail,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


_FACTORIES = {
    "iguard-serial": IGuard,
    "fasttrack-serial": FastTrack,
}


class TestReplayEquivalence:
    """``.ctr`` and ``.ctr.gz`` replay reports are byte-identical to live."""

    @pytest.mark.parametrize("name", RACY + RACE_FREE)
    def test_formats_agree_across_detectors_and_drivers(
        self, name, tmp_path
    ):
        workload = get_workload(name)
        seeds = workload.seeds[:1]
        trace = capture_workload(workload, seeds=seeds)
        paths = (tmp_path / "t.ctr", tmp_path / "t.ctr.gz")
        for path in paths:
            trace.save(path)
        for label, factory in _FACTORIES.items():
            live = _canonical_report(run_workload(workload, factory, seeds=seeds))
            for path in paths:
                replayed = _canonical_report(
                    replay_workload(Trace.load(path), factory, name)
                )
                assert replayed == live, f"{name}/{label}/{path.name} diverged"

    @pytest.mark.parametrize("name", RACY[:2] + RACE_FREE[:1])
    def test_streaming_drain_matches_serial_sites(self, name, tmp_path):
        # The chunk-streaming replay (vectorized granules, one front-end
        # loop fed per chunk) must find exactly sliced replay's races.
        workload = get_workload(name)
        trace = capture_workload(workload, seeds=workload.seeds[:1])
        path = tmp_path / "t.ctr"
        save_columnar(trace.events, path, chunk_rows=256)
        serial = replay_workload(Trace.load(path), IGuard, name)
        drained = replay_columnar_sharded(str(path))
        streamed = {
            ip: getattr(t, "value", t)
            for ip, t in drained.tool.races.sites()
        }
        expected = {
            ip: getattr(t, "value", t) for ip, t in serial.race_sites
        }
        assert streamed == expected
        assert drained.events > 0
