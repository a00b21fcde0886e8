"""Tests for the observability subsystem: metrics, spans, logs, forensics.

The load-bearing invariant is the last test class: enabling the flight
recorder must not change one bit of detection output — same races, same
sites, same event counts — because every instrumentation site reads state
without touching the scheduler's RNG stream or the detector's metadata.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

import pytest

from benchmarks.validate_schema import validate
from repro.core import IGuard, RaceType
from repro.errors import DeadlockError, TimeoutError_
from repro.gpu.device import Device
from repro.obs import log as obs_log
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.workloads import get_workload
from repro.workloads.base import SIM_GPU

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def obs_off():
    """Guarantee the global recorder is off and clean around a test."""
    obs_metrics.set_enabled(False)
    obs_metrics.get_registry().reset()
    obs_spans.set_tracing(False)
    obs_spans.TRACER.events.clear()
    yield
    obs_metrics.set_enabled(False)
    obs_metrics.get_registry().reset()
    obs_spans.set_tracing(False)
    obs_spans.TRACER.events.clear()


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestInstruments:
    def test_counter(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.snapshot() == {"type": "counter", "value": 3.5}

    def test_gauge_last_wins(self):
        g = Gauge("g")
        g.set(1.0)
        g.set(7.0)
        assert g.snapshot()["value"] == 7.0

    def test_histogram_stats(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 4.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(7.0)
        assert snap["min"] == 1.0 and snap["max"] == 4.0


class TestRegistry:
    def test_same_name_same_instrument(self):
        r = MetricsRegistry(enabled=True)
        assert r.counter("x") is r.counter("x")

    def test_type_conflict_raises(self):
        r = MetricsRegistry(enabled=True)
        r.counter("x")
        with pytest.raises(TypeError):
            r.gauge("x")

    def test_snapshot_document_matches_schema(self, obs_off):
        obs_metrics.set_enabled(True)
        registry = obs_metrics.get_registry()
        registry.counter("a.b").inc()
        registry.histogram("h").observe(0.5)
        document = registry.snapshot_document()
        with open("benchmarks/schemas/metrics.schema.json") as handle:
            schema = json.load(handle)
        assert validate(document, schema) == []

    def test_hot_preregistered_and_cheap_when_disabled(self, obs_off):
        hot = obs_metrics.HOT
        assert not hot.enabled
        # Disabled instrumentation sites never fire; the counters exist
        # but stay untouched.
        assert hot.detector_checked.snapshot()["value"] == 0


# ---------------------------------------------------------------------------
# Span tracer
# ---------------------------------------------------------------------------


class TestSpans:
    def test_document_matches_schema(self):
        tracer = SpanTracer(enabled=True)
        tracer.name_process(1, "proc")
        tracer.name_thread(1, 2, "thr")
        tracer.add_complete("work", 10.0, 5.0, cat="test", tid=2, pid=1)
        tracer.add_instant("mark", 12.0)
        document = tracer.to_document()
        with open("benchmarks/schemas/trace.schema.json") as handle:
            schema = json.load(handle)
        assert validate(document, schema) == []
        assert json.loads(json.dumps(document)) == document

    def test_tid_for_is_stable(self):
        tracer = SpanTracer(enabled=True)
        assert tracer.tid_for("a") == tracer.tid_for("a")
        assert tracer.tid_for("a") != tracer.tid_for("b")

    def test_disabled_tracer_records_nothing(self):
        tracer = SpanTracer(enabled=False)
        tracer.add_complete("work", 0.0, 1.0)
        assert tracer.to_document()["traceEvents"] == []

    def test_aborted_seed_writes_seed_and_launch_spans(self, obs_off, tmp_path):
        # warpAA's scoped atomic makes Barracuda abort its first seed
        # ("unsupported") mid-launch; both spans still close.
        from repro.workloads.runner import main

        path = tmp_path / "t.json"
        assert main([
            "--workload", "warpAA", "--detector", "barracuda",
            "--trace-out", str(path),
        ]) == 0
        events = json.loads(path.read_text())["traceEvents"]
        cats = [e.get("cat") for e in events]
        assert cats.count("seed") == 1
        assert cats.count("launch") == 1
        seed = next(e for e in events if e.get("cat") == "seed")
        assert seed["args"]["status"] == "unsupported"


# ---------------------------------------------------------------------------
# Logging facade
# ---------------------------------------------------------------------------


class TestLog:
    def test_output_goes_to_stdout(self, capsys):
        obs_log.output("result", "line")
        captured = capsys.readouterr()
        assert captured.out == "result line\n"
        assert captured.err == ""

    def test_logger_namespaced_under_iguard(self):
        logger = obs_log.get_logger("somewhere")
        assert logger.name == "iguard.somewhere"
        # The facade configures the "iguard" root, never the global root.
        assert not logging.getLogger().handlers or all(
            h.get_name() != "iguard" for h in logging.getLogger().handlers
        )

    def test_level_filtering(self, capsys):
        obs_log.configure(level="warning")
        logger = obs_log.get_logger("levels")
        logger.info("hidden")
        logger.warning("shown")
        err = capsys.readouterr().err
        assert "hidden" not in err
        assert "shown" in err
        obs_log.configure(level="info")


# ---------------------------------------------------------------------------
# Race forensics
# ---------------------------------------------------------------------------


class TestForensics:
    @pytest.fixture(scope="class")
    def reports(self):
        from repro.obs.forensics import explain_workload

        return explain_workload("reduction", seeds=(1,))

    def test_finds_races_from_replay(self, reports):
        assert reports, "reduction seed 1 must produce racy forensics"

    def test_report_names_racing_instruction_pair(self, reports):
        from repro.obs.forensics import render_report

        text = render_report(reports[0])
        assert "racing instruction pair" in text
        assert reports[0].current_ip in text
        assert reports[0].previous_ip in text

    def test_report_shows_metadata_words_and_condition(self, reports):
        from repro.obs.forensics import render_report

        first = reports[0]
        text = render_report(first)
        assert f"0x{first.accessor_word_before:016x}" in text
        assert f"0x{first.writer_word_before:016x}" in text
        assert first.cause.condition in ("R1", "R2", "R3", "R4", "R5")
        assert f"fired condition: {first.cause.condition}" in text
        assert f"  fix: {first.cause.fix}" in text

    def test_site_filter(self):
        from repro.obs.forensics import explain_workload

        filtered = explain_workload(
            "reduction", site="_reduction_kernel:346", seeds=(1,)
        )
        assert filtered
        assert all(
            "_reduction_kernel:346" in f.record.ip for f in filtered
        )


class TestCauseTable:
    """One R1-R5 table serves ``explain``: conditions, text and fixes."""

    @pytest.mark.parametrize(
        "race_type,condition,fix_word,mutant",
        [
            (RaceType.ATOMIC_SCOPE, "R1", "scope",
             ("scoped-counter", "weaken-atomic-scope")),
            (RaceType.ITS, "R2", "__syncwarp",
             ("warp-exchange", "skip-syncwarp")),
            (RaceType.INTRA_BLOCK, "R3", "__syncthreads",
             ("barrier-handoff", "skip-syncthreads")),
            (RaceType.INTER_BLOCK, "R4", "__threadfence",
             ("ff-pipeline", "drop-release-fence")),
            (RaceType.IMPROPER_LOCKING, "R5", "lock", None),
        ],
        ids=["AS-R1-scope", "ITS-R2-__syncwarp", "BR-R3-__syncthreads",
             "DR-R4-__threadfence", "IL-R5-lock"],
    )
    def test_every_type_has_condition_and_fix(
        self, race_type, condition, fix_word, mutant
    ):
        from repro.core.detector import IGuard
        from repro.core.report import CAUSE_OF
        from repro.faults.mutators import install
        from repro.faults.workloads import get_pattern
        from repro.gpu.device import Device
        from repro.obs.forensics import ForensicProbe, forensics_to_dict
        from repro.workloads.base import SIM_GPU

        cause = CAUSE_OF[race_type]
        assert cause.condition == condition
        assert cause.text and fix_word in cause.fix
        if mutant is None:
            return  # no fault pattern mutates into this type
        pattern = get_pattern(mutant[0])
        device = Device(SIM_GPU)
        detector = device.add_tool(IGuard())
        detector.probe = probe = ForensicProbe()
        install(pattern.mutation(mutant[1]), device)
        pattern.workload.run(device, pattern.workload.seeds[0])
        detector.races  # checks the pending records
        assert {str(r.record.race_type) for r in probe.reports} == {
            str(race_type)
        }
        assert all(
            forensics_to_dict(r)["fix"] == cause.fix for r in probe.reports
        )


class TestExplainJson:
    def test_explain_json_matches_golden(self, capsys):
        from repro.experiments.cli import main

        rc = main([
            "explain", "--workload", "reduction", "--seeds", "1",
            "--max-reports", "1", "--format", "json",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        golden = json.loads((GOLDEN / "explain_reduction_seed1.json").read_text())
        assert json.loads(out) == golden

    def test_no_match_still_emits_json(self, capsys):
        from repro.obs.forensics import main

        rc = main([
            "no_such_site:999", "--workload", "reduction",
            "--seeds", "1", "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["matched"] == 0 and payload["reports"] == []


# ---------------------------------------------------------------------------
# The invariant: observability changes no detection output.
# ---------------------------------------------------------------------------


def _run_fingerprint(workload_name: str, seed: int) -> dict:
    workload = get_workload(workload_name)
    device = Device(SIM_GPU)
    tool = device.add_tool(IGuard())
    try:
        workload.run(device, seed)
    except (DeadlockError, TimeoutError_):
        pass
    return {
        "sites": tool.races.sites(),
        "num_records": len(tool.races.records()),
        "checked": sum(s.accesses_checked for s in tool.stats),
        "coalesced": sum(s.accesses_coalesced for s in tool.stats),
        "batches": [r.batches for r in device.runs],
        "instructions": [r.instructions for r in device.runs],
    }


class TestObsInvariance:
    @pytest.mark.parametrize("name,seed", [("reduction", 1), ("matrix-mult", 2)])
    def test_enabling_obs_is_bit_identical(self, obs_off, name, seed):
        baseline = _run_fingerprint(name, seed)
        obs_metrics.set_enabled(True)
        obs_spans.set_tracing(True)
        instrumented = _run_fingerprint(name, seed)
        assert instrumented == baseline
        # ... and the recorder actually recorded something.
        hot = obs_metrics.HOT
        assert hot.detector_checked.snapshot()["value"] > 0
        assert obs_spans.TRACER.to_document()["traceEvents"]
