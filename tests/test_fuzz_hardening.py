"""Adversarial-input hardening: fuzzer, ddmin, quarantine, budgets.

Pins the four planks of the hardening PR:

- resource budgets (``IGUARD_MEM_BUDGET`` / ``IGUARD_QUARANTINE``)
  degrade detection by recall only — never a false positive, never an
  abort;
- poison-event quarantine absorbs a raising record identically in every
  replay mode (byte-identical sites + quarantine block across bus
  replay and a front-end feed with precomputed granules);
- the ddmin minimizer and the differential fuzzer are deterministic and
  the shipped triage corpus replays clean;
- torn gzip and ``.ctr.gz`` containers are corruption, never a crash.
"""

import base64
import gzip
import json
from dataclasses import replace

import pytest

from repro.common.budget import (
    DEFAULT_QUARANTINE_LIMIT,
    MAX_LINE_BYTES,
    mem_budget,
    parse_bytes,
    quarantine_limit,
)
from repro.common.rng import SplitMix64
from repro.core.config import DEFAULT_CONFIG
from repro.core.detector import IGuard
from repro.engine.replay import ReplayDevice, capture_workload, replay
from repro.engine.trace import Trace
from repro.errors import TraceCorruptionError
from repro.faults import quarantine
from repro.faults.ddmin import ddmin
from repro.faults.fuzz import (
    CODECS,
    MAX_STMTS,
    MIN_STMTS,
    base_trace_bytes,
    check_trace_bytes,
    crash_signature,
    default_corpus_dir,
    differential_check,
    gen_program,
    load_corpus,
    mutate_bytes,
    replay_entry,
    run_campaign,
    write_corpus_entry,
)
from repro.gpu.arch import GPUConfig, TITAN_RTX
from repro.gpu.events import AccessKind, MemoryEvent
from repro.gpu.instructions import AtomicOp
from repro.workloads.registry import get_workload


@pytest.fixture(autouse=True)
def _clean_quarantine():
    quarantine.reset()
    yield
    quarantine.reset()


def _capture_events():
    workload = get_workload("1dconv")
    return list(capture_workload(workload, seeds=(1,)))


@pytest.fixture(scope="module")
def captured_events():
    return _capture_events()


def _sites(tool):
    return {str(ip): str(rt) for ip, rt in sorted(
        ((str(ip), rt) for ip, rt in tool.races.sites())
    )}


def _leg(run):
    """One replay leg: (sites, quarantine snapshot) as canonical JSON."""
    quarantine.reset()
    tool = run()
    doc = {"sites": _sites(tool), "quarantine": quarantine.snapshot()}
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# Budget knobs
# ---------------------------------------------------------------------------


class TestBudgetKnobs:
    def test_parse_bytes(self):
        assert parse_bytes("1024") == 1024
        assert parse_bytes("4k") == 4096
        assert parse_bytes("2M") == 2 << 20
        assert parse_bytes(" 1g ") == 1 << 30
        assert parse_bytes("0") == 0
        with pytest.raises(ValueError):
            parse_bytes("-1")

    def test_mem_budget_env(self, monkeypatch):
        monkeypatch.delenv("IGUARD_MEM_BUDGET", raising=False)
        assert mem_budget() is None
        monkeypatch.setenv("IGUARD_MEM_BUDGET", "4k")
        assert mem_budget() == 4096
        # 0 and garbage both mean "unbounded", never an abort.
        monkeypatch.setenv("IGUARD_MEM_BUDGET", "0")
        assert mem_budget() is None
        monkeypatch.setenv("IGUARD_MEM_BUDGET", "banana")
        assert mem_budget() is None

    def test_quarantine_limit_env(self, monkeypatch):
        monkeypatch.delenv("IGUARD_QUARANTINE", raising=False)
        assert quarantine_limit() == DEFAULT_QUARANTINE_LIMIT
        monkeypatch.setenv("IGUARD_QUARANTINE", "0")
        assert quarantine_limit() == 0
        monkeypatch.setenv("IGUARD_QUARANTINE", "3")
        assert quarantine_limit() == 3


# ---------------------------------------------------------------------------
# Quarantine semantics
# ---------------------------------------------------------------------------


class TestQuarantine:
    def test_absorbs_and_reports(self):
        quarantine.poison(object(), ValueError("boom"), "replay")
        assert quarantine.events_absorbed() == 1
        snap = quarantine.snapshot()
        assert snap == {"events": 1, "kinds": {"ValueError": 1}}
        assert quarantine.report_block() == snap
        assert quarantine.examples()[0]["stage"] == "replay"

    def test_snapshot_is_stage_free(self):
        # The same poison event can surface at "replay" (the bus loop)
        # or at "drain" (the front-end loop); the report block must not
        # differ.
        quarantine.poison(object(), TypeError("t"), "replay")
        first = quarantine.snapshot()
        quarantine.reset()
        quarantine.poison(object(), TypeError("t"), "drain")
        assert quarantine.snapshot() == first

    def test_clean_report_block_is_none(self):
        assert quarantine.report_block() is None

    def test_exempt_exceptions_propagate(self):
        torn = TraceCorruptionError("t.ctr", 1, 0, "torn")
        with pytest.raises(TraceCorruptionError):
            quarantine.poison(None, torn, "core")
        with pytest.raises(MemoryError):
            quarantine.poison(None, MemoryError(), "core")
        assert quarantine.events_absorbed() == 0

    def test_disabled_via_env(self, monkeypatch):
        monkeypatch.setenv("IGUARD_QUARANTINE", "0")
        with pytest.raises(ValueError):
            quarantine.poison(None, ValueError("x"), "replay")

    def test_limit_exhaustion_reraises(self, monkeypatch):
        monkeypatch.setenv("IGUARD_QUARANTINE", "2")
        quarantine.poison(None, ValueError("1"), "core")
        quarantine.poison(None, ValueError("2"), "core")
        with pytest.raises(ValueError):
            quarantine.poison(None, ValueError("3"), "core")
        assert quarantine.events_absorbed() == 2


# ---------------------------------------------------------------------------
# Poison-event byte identity across replay modes
# ---------------------------------------------------------------------------


def _poisoned(events):
    """Turn one mid-stream access into a poison event.

    A CAS whose ``active_mask`` is None blows up in ``infer_locks``
    (``len(None)``) — an in-detector crash on one record, exactly the
    shape quarantine exists for.
    """
    poisoned = list(events)
    mem_positions = [
        i for i, e in enumerate(poisoned)
        if isinstance(e, MemoryEvent) and e.active_mask is not None
    ]
    target = mem_positions[len(mem_positions) // 2]
    poisoned[target] = replace(
        poisoned[target],
        kind=AccessKind.ATOMIC,
        atomic_op=AtomicOp.CAS,
        active_mask=None,
        compare=0,
    )
    return poisoned


def _routed(events):
    """Feed the stream to iGUARD the way columnar replay does.

    The granules are precomputed before the front-end loop, exactly as
    ``Chunk.mem_routes`` supplies them.
    """
    gpu = next((e for e in events if isinstance(e, GPUConfig)), TITAN_RTX)
    tool = IGuard()
    tool.attach(ReplayDevice(gpu))
    granule_of = tool.table.granule_of
    granules = [
        granule_of(e.address) for e in events if isinstance(e, MemoryEvent)
    ]
    tool.feed(events, granules=iter(granules))
    return tool


def _sliced(events, rows, routed):
    """Feed the stream in slices of ``rows`` records.

    Every :meth:`IGuard.feed` call ends with its check queue drained, so
    small slices force early drains at arbitrary points of the stream —
    mid-launch and mid-sync-interval.  With ``routed`` each slice gets
    its precomputed granules, as a columnar chunk does.
    """
    gpu = next((e for e in events if isinstance(e, GPUConfig)), TITAN_RTX)
    tool = IGuard()
    tool.attach(ReplayDevice(gpu))
    granule_of = tool.table.granule_of
    for start in range(0, len(events), rows):
        piece = events[start:start + rows]
        granules = None
        if routed:
            granules = iter([
                granule_of(e.address)
                for e in piece
                if isinstance(e, MemoryEvent)
            ])
        tool.feed(piece, granules=granules)
    return tool


class TestPoisonByteIdentity:
    def test_all_modes_agree(self, captured_events):
        events = _poisoned(captured_events)

        def serial():
            tool = IGuard()
            replay(events, tool)
            return tool

        legs = {
            "serial": _leg(serial),
            "routed": _leg(lambda: _routed(events)),
        }
        reference = legs["serial"]
        assert json.loads(reference)["quarantine"]["events"] == 1
        for name, doc in legs.items():
            assert doc == reference, name

    def test_poison_only_loses_recall(self, captured_events):
        # The poisoned run's sites are a subset of the clean run's: a
        # quarantined event can hide a race, never invent one.
        clean = json.loads(_leg(lambda: self._replay(captured_events)))
        poisoned = json.loads(
            _leg(lambda: self._replay(_poisoned(captured_events)))
        )
        assert set(poisoned["sites"].items()) <= set(clean["sites"].items())
        assert clean["quarantine"]["events"] == 0

    @staticmethod
    def _replay(events):
        tool = IGuard()
        replay(events, tool)
        return tool

    def test_disabled_quarantine_aborts_every_mode(
        self, captured_events, monkeypatch
    ):
        monkeypatch.setenv("IGUARD_QUARANTINE", "0")
        events = _poisoned(captured_events)
        with pytest.raises(TypeError):
            replay(events, IGuard())
        with pytest.raises(TypeError):
            _routed(events)


# ---------------------------------------------------------------------------
# Memory budget: metadata tables and the columnar string pool
# ---------------------------------------------------------------------------


class TestMemBudget:
    def test_caps_metadata_tables(self, monkeypatch):
        monkeypatch.setenv("IGUARD_MEM_BUDGET", "1k")
        entry = DEFAULT_CONFIG.metadata_entry_bytes
        tool = IGuard()
        assert tool.table.max_entries == 1024 // entry

    def test_explicit_cap_wins_over_budget(self, monkeypatch):
        monkeypatch.setenv("IGUARD_MEM_BUDGET", "1k")
        config = replace(DEFAULT_CONFIG, metadata_max_entries=5)
        tool = IGuard(config=config)
        assert tool.table.max_entries == 5

    def test_budgeted_run_loses_only_recall(
        self, captured_events, monkeypatch
    ):
        def run():
            tool = IGuard()
            replay(captured_events, tool)
            return _sites(tool)

        monkeypatch.delenv("IGUARD_MEM_BUDGET", raising=False)
        full = run()
        monkeypatch.setenv("IGUARD_MEM_BUDGET", "2k")
        capped = run()
        assert set(capped.items()) <= set(full.items())

    def test_pool_writer_fifo_eviction(self):
        from repro.engine.coltrace import _PoolWriter

        pool = _PoolWriter(byte_budget=64)
        indices = [pool.add(f"kernel-{i}.cu:{i}" * 3) for i in range(32)]
        assert indices == list(range(32))  # monotonic, never reused
        assert pool.evictions > 0
        # A re-encountered evicted string gets a *fresh* index — the
        # container stays decodable, only the dedup ratio degrades.
        assert pool.add("kernel-0.cu:0" * 3) == 32

    def test_budgeted_container_roundtrips_bit_exact(
        self, captured_events, monkeypatch, tmp_path
    ):
        from repro.engine.coltrace import read_events, write_columnar

        plain = tmp_path / "plain.ctr"
        squeezed = tmp_path / "squeezed.ctr"
        monkeypatch.delenv("IGUARD_MEM_BUDGET", raising=False)
        with open(plain, "wb") as handle:
            write_columnar(handle, captured_events)
        monkeypatch.setenv("IGUARD_MEM_BUDGET", "256")
        with open(squeezed, "wb") as handle:
            write_columnar(handle, captured_events)
        monkeypatch.delenv("IGUARD_MEM_BUDGET", raising=False)
        reference, _ = read_events(str(plain))
        evicted, _ = read_events(str(squeezed))
        assert list(map(repr, evicted)) == list(map(repr, reference))


# ---------------------------------------------------------------------------
# Decoder limits
# ---------------------------------------------------------------------------


class TestDecoderLimits:
    def test_default_line_limit_unbudgeted(self, monkeypatch):
        from repro.common.budget import line_limit

        monkeypatch.delenv("IGUARD_MEM_BUDGET", raising=False)
        assert line_limit() == MAX_LINE_BYTES
        monkeypatch.setenv("IGUARD_MEM_BUDGET", "1k")
        assert line_limit() == 1024

    def test_header_line_over_budget_is_corruption(
        self, captured_events, monkeypatch, tmp_path
    ):
        from repro.common import budget

        path = tmp_path / "t.ctr"
        Trace(captured_events).save(str(path))
        # The file header fits; the first chunk header, which carries the
        # string pool, does not.
        monkeypatch.setattr(budget, "MAX_LINE_BYTES", 128)
        with pytest.raises(TraceCorruptionError) as info:
            Trace.load(str(path))
        assert info.value.block == 2
        salvaged = Trace.load(str(path), salvage=True)
        assert salvaged.events == []
        assert salvaged.corruption is not None

    def test_columnar_block_over_budget_is_corruption(
        self, captured_events, monkeypatch, tmp_path
    ):
        from repro.engine.coltrace import write_columnar

        path = tmp_path / "t.ctr"
        with open(path, "wb") as handle:
            write_columnar(handle, captured_events)
        monkeypatch.setenv("IGUARD_MEM_BUDGET", "1k")
        with pytest.raises(TraceCorruptionError):
            Trace.load(str(path))
        salvaged = Trace.load(str(path), salvage=True)
        assert salvaged.corruption is not None


# ---------------------------------------------------------------------------
# Early drains
# ---------------------------------------------------------------------------


class TestQueueBackpressure:
    def test_tiny_cap_is_output_identical(self, captured_events):
        # Front-end feed with precomputed granules: one call versus
        # seven-record slices, each drained at its end.
        reference = _leg(lambda: _routed(captured_events))
        sliced = _leg(lambda: _sliced(captured_events, 7, routed=True))
        assert json.loads(reference)["sites"]
        assert sliced == reference

    def test_batched_driver_cap_identical(self, captured_events):
        # replay() versus five-record slices fed without granules.
        def serial():
            tool = IGuard()
            replay(captured_events, tool)
            return tool

        reference = _leg(serial)
        assert json.loads(reference)["sites"]
        assert _leg(lambda: _sliced(captured_events, 5, routed=False)) == reference


# ---------------------------------------------------------------------------
# ddmin
# ---------------------------------------------------------------------------


class TestDdmin:
    def test_minimizes_to_exact_culprits(self):
        culprits = {3, 7, 11}
        result = ddmin(
            list(range(16)), lambda c: culprits <= set(c)
        )
        assert sorted(result) == sorted(culprits)

    def test_single_culprit(self):
        assert ddmin(list(range(64)), lambda c: 42 in c) == [42]

    def test_preserves_order(self):
        result = ddmin(list("abcdef"), lambda c: "b" in c and "e" in c)
        assert result == ["b", "e"]

    def test_budget_exhaustion_still_reproduces(self):
        tests = {"count": 0}

        def predicate(candidate):
            tests["count"] += 1
            return {5, 25, 45} <= set(candidate)

        result = ddmin(list(range(64)), predicate, max_tests=6)
        assert predicate(result)  # best-so-far, never a non-repro

    def test_trivial_inputs(self):
        assert ddmin([], lambda c: True) == []
        assert ddmin([1], lambda c: 1 in c) == [1]


# ---------------------------------------------------------------------------
# Fuzzer units
# ---------------------------------------------------------------------------


class TestFuzzer:
    def test_gen_program_deterministic_and_jsonable(self):
        first = gen_program(SplitMix64(99))
        second = gen_program(SplitMix64(99))
        assert first == second
        assert MIN_STMTS <= len(first) <= MAX_STMTS
        assert json.loads(json.dumps(first)) == first

    def test_differential_check_clean_program(self):
        assert differential_check(gen_program(SplitMix64(1))) is None

    def test_crash_signature_names_repro_frame(self):
        try:
            parse_bytes("-1")
        except ValueError as exc:
            assert crash_signature(exc) == "ValueError@budget.py:parse_bytes"

    def test_mutate_bytes_deterministic(self):
        data = bytes(range(256)) * 4
        assert mutate_bytes(data, SplitMix64(5)) == mutate_bytes(
            data, SplitMix64(5)
        )

    def test_base_containers_pass_oracle(self):
        containers = base_trace_bytes(SplitMix64(11))
        assert set(containers) == set(CODECS)
        for codec, data in containers.items():
            assert check_trace_bytes(data, codec) is None, codec

    def test_small_campaign_is_clean_and_deterministic(self):
        kwargs = dict(seed=1, max_inputs=24, budget_s=60.0, minimize=False)
        first = run_campaign(**kwargs)
        second = run_campaign(**kwargs)
        assert first["failures"] == []
        assert first["inputs"] == 24
        assert first["programs"] + first["trace_mutations"] == 24
        drop_timing = lambda d: {
            k: v
            for k, v in d.items()
            if k not in ("elapsed_s", "inputs_per_sec")
        }
        assert drop_timing(first) == drop_timing(second)


# ---------------------------------------------------------------------------
# Triage corpus
# ---------------------------------------------------------------------------


class TestCorpus:
    def test_write_load_replay_roundtrip(self, tmp_path):
        data = base_trace_bytes(SplitMix64(2))["ctr"]
        entry = {
            "input": "trace",
            "kind": "crash",
            "signature": "ValueError@fake.py:decode",
            "detail": "unit-test entry",
            "codec": "ctr",
            "data_b64": base64.b64encode(data).decode("ascii"),
            "minimized": True,
            "found_by_seed": 0,
        }
        path = write_corpus_entry(str(tmp_path), entry)
        loaded = load_corpus(str(tmp_path))
        assert len(loaded) == 1
        assert loaded[0][0] == path
        assert replay_entry(loaded[0][1]) is None

    def test_shipped_corpus_replays_clean(self):
        entries = load_corpus(default_corpus_dir())
        assert entries, "shipped triage corpus must not be empty"
        for name, entry in entries:
            assert replay_entry(entry) is None, name


# ---------------------------------------------------------------------------
# Gzip salvage regressions
# ---------------------------------------------------------------------------


class TestGzipSalvage:
    def test_truncated_gzip_member_is_corruption(
        self, captured_events, tmp_path
    ):
        plain = tmp_path / "t.ctr"
        Trace(captured_events).save(str(plain))
        payload = gzip.compress(plain.read_bytes(), mtime=0)
        torn = tmp_path / "torn.ctr.gz"
        torn.write_bytes(payload[: len(payload) - 20])
        with pytest.raises(TraceCorruptionError):
            Trace.load(str(torn))
        salvaged = Trace.load(str(torn), salvage=True)
        assert salvaged.corruption is not None

    def test_flipped_ctr_gz_byte_never_escapes(
        self, captured_events, tmp_path
    ):
        import io

        from repro.engine.coltrace import write_columnar

        buffer = io.BytesIO()
        write_columnar(buffer, captured_events)
        data = bytearray(gzip.compress(buffer.getvalue(), mtime=0))
        data[len(data) // 2] ^= 0x40
        assert check_trace_bytes(bytes(data), "ctr.gz") is None
