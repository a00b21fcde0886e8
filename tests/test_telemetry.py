"""Tests for the live telemetry pipeline: sampler, exposition, watchdog,
and heartbeats.

The pipeline is a *pure reader* of the metrics registry and the
supervisor's heartbeat channel — nothing here may perturb detection.
The byte-identity test at the bottom (and the CI ``telemetry`` job)
enforces that; the rest pins the formats downstream tooling scrapes:
the delta-encoded ``telemetry.jsonl`` series, the OpenMetrics ``/metrics``
payload (golden fixture + exact parse round-trip), the ``/healthz``
verdict.
"""

from __future__ import annotations

import json
import math
import time
import urllib.request
from pathlib import Path

import pytest

from benchmarks.validate_schema import validate
from repro.obs import metrics as obs_metrics
from repro.obs import openmetrics
from repro.obs import telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import (
    MetricsServer,
    family_of,
    parse_openmetrics,
    render_openmetrics,
    snapshot_to_families,
    validate_openmetrics,
)
from repro.obs.telemetry import (
    Heartbeats,
    TelemetrySampler,
    approx_quantile,
)
from repro.obs.watchdog import Watchdog, WatchdogConfig

GOLDEN = Path(__file__).parent / "golden"

TELEMETRY_SCHEMA = json.loads(
    (Path(__file__).parent.parent
     / "benchmarks" / "schemas" / "telemetry.schema.json").read_text()
)


@pytest.fixture
def obs_off():
    """Guarantee the global recorder is off and clean around a test."""
    obs_metrics.set_enabled(False)
    obs_metrics.get_registry().reset()
    telemetry.HEARTBEATS.enabled = False
    telemetry.HEARTBEATS.reset()
    yield
    obs_metrics.set_enabled(False)
    obs_metrics.get_registry().reset()
    telemetry.HEARTBEATS.enabled = False
    telemetry.HEARTBEATS.reset()


def _sampler(reg, **kwargs):
    """A sampler with a manual baseline, as if start() had just run."""
    s = TelemetrySampler(registry=reg, **kwargs)
    s._previous = reg.snapshot()
    s._last_tick = time.monotonic()
    return s


# ---------------------------------------------------------------------------
# Heartbeats
# ---------------------------------------------------------------------------


class TestHeartbeats:
    def test_disabled_by_default(self):
        assert telemetry.HEARTBEATS.enabled is False

    def test_update_and_snapshot(self):
        hb = Heartbeats()
        hb.update(101, state="running", cell="w:s1", started=123.0)
        hb.update(202, state="idle")
        snap = hb.snapshot()
        assert [w["pid"] for w in snap] == [101, 202]
        assert snap[0]["state"] == "running"
        assert snap[0]["cell"] == "w:s1"
        assert all("updated" in w for w in snap)

    def test_finish_cell_clears_cell_and_counts(self):
        hb = Heartbeats()
        hb.update(7, state="running", cell="w:s1", started=1.0)
        hb.finish_cell(7, ok=True)
        (worker,) = hb.snapshot()
        assert worker["state"] == "idle"
        assert worker["cells_done"] == 1
        assert "cell" not in worker and "started" not in worker

    def test_snapshot_is_a_copy(self):
        hb = Heartbeats()
        hb.update(7, state="running")
        hb.snapshot()[0]["state"] = "mutated"
        assert hb.snapshot()[0]["state"] == "running"

    def test_remove(self):
        hb = Heartbeats()
        hb.update(7, state="running")
        hb.remove(7)
        assert hb.snapshot() == []


# ---------------------------------------------------------------------------
# Delta sampling and the ring buffer
# ---------------------------------------------------------------------------


class TestSampler:
    def test_counter_delta_not_absolute(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(10)
        s = _sampler(reg)
        reg.counter("c").inc(3)
        sample = s.tick()
        assert sample.counters == {"c": 3}

    def test_sparse_idle_tick(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.histogram("h").observe(1.0)
        s = _sampler(reg)
        sample = s.tick()  # nothing moved since the baseline
        assert sample.counters == {}
        assert sample.histograms == {}

    def test_gauge_reports_last_value(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(4.0)
        s = _sampler(reg)
        reg.gauge("g").set(9.0)
        assert s.tick().gauges["g"] == 9.0

    def test_histogram_bucket_deltas(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(1.0)
        s = _sampler(reg)
        reg.histogram("h").observe(1.0)
        reg.histogram("h").observe(4.0)
        hist = s.tick().histograms["h"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(5.0)
        assert sum(hist["buckets"].values()) == 2

    def test_counter_shrink_reports_absolute(self):
        # A registry reset mid-run must not produce negative deltas.
        reg = MetricsRegistry()
        reg.counter("c").inc(100)
        s = _sampler(reg)
        reg.reset()
        reg.counter("c").inc(4)
        assert s.tick().counters == {"c": 4}

    def test_ring_is_bounded_and_counts_drops(self):
        reg = MetricsRegistry()
        s = _sampler(reg, capacity=3)
        for i in range(5):
            reg.counter("c").inc()
            s.tick()
        assert len(s.samples()) == 3
        assert s.dropped == 2
        assert [x.seq for x in s.samples()] == [3, 4, 5]

    def test_seq_monotonic_and_interval_covered(self):
        reg = MetricsRegistry()
        s = _sampler(reg)
        a = s.tick(now=None)
        b = s.tick(now=None)
        assert b.seq == a.seq + 1
        assert b.interval >= 0.0

    def test_write_jsonl_schema_valid(self, tmp_path):
        reg = MetricsRegistry()
        s = _sampler(reg, interval=0.25)
        reg.counter("detector.races").inc(2)
        s.tick()
        out = tmp_path / "telemetry.jsonl"
        wd = Watchdog()
        s.write_jsonl(out, health=wd.health_block())
        lines = out.read_text().splitlines()
        kinds = [json.loads(line)["kind"] for line in lines]
        assert kinds[0] == "header" and kinds[-1] == "health"
        assert "sample" in kinds
        for line in lines:
            assert validate(json.loads(line), TELEMETRY_SCHEMA) == []

    def test_start_stop_background_thread(self, obs_off):
        reg = MetricsRegistry()
        s = TelemetrySampler(registry=reg, interval=0.02)
        s.start()
        try:
            assert telemetry.HEARTBEATS.enabled is True
            reg.counter("c").inc(3)
            time.sleep(0.08)
        finally:
            s.stop()
        assert telemetry.HEARTBEATS.enabled is False
        assert s.totals().get("c", {}).get("value") == 3
        assert any(x.counters.get("c") for x in s.samples())

    def test_module_level_lifecycle(self, obs_off):
        s = telemetry.start_sampler(interval=5.0)
        assert telemetry.active_sampler() is s
        assert telemetry.start_sampler(interval=5.0) is s  # idempotent
        assert telemetry.stop_sampler() is s
        assert telemetry.active_sampler() is None


class TestApproxQuantile:
    def test_empty_histogram_is_none(self):
        assert approx_quantile({"count": 0, "buckets": {}}, 0.5) is None

    def test_picks_bucket_upper_bound(self):
        h = MetricsRegistry().histogram("h")
        for v in (1.0, 1.5, 100.0):
            h.observe(v)
        p50 = approx_quantile(h.snapshot(), 0.5)
        assert p50 == math.ldexp(1.0, math.frexp(1.5)[1])


# ---------------------------------------------------------------------------
# OpenMetrics exposition
# ---------------------------------------------------------------------------


def _fixture_registry():
    reg = MetricsRegistry()
    reg.counter("detector.races").inc(3)
    reg.counter("parallel.worker.101.cells").inc(4)
    reg.counter("parallel.worker.202.cells").inc(2)
    h = reg.histogram("detector.check_seconds")
    for v in (0.25, 0.5, 1.0, 4.0):
        h.observe(v)
    reg.histogram("detector.empty_hist")
    return reg


_FIXTURE_WORKERS = [
    {"pid": 101, "state": "running", "cells_done": 4, "cell_seconds": 2.5},
    {"pid": 202, "state": "idle", "cells_done": 2, "cell_seconds": 1.25},
]


class TestExposition:
    def test_label_folding(self):
        assert family_of("parallel.worker.4242.cells") == (
            "iguard_parallel_worker_cells", {"pid": "4242"}
        )
        assert family_of("detector.contention.stalled_accesses") == (
            "iguard_detector_contention_stalled_accesses", {}
        )
        assert family_of("detector.races") == ("iguard_detector_races", {})

    def test_golden_fixture(self):
        text = render_openmetrics(
            _fixture_registry().snapshot(), heartbeats=_FIXTURE_WORKERS
        )
        assert text == (GOLDEN / "openmetrics_fixture.txt").read_text()

    def test_golden_fixture_is_valid_openmetrics(self):
        text = (GOLDEN / "openmetrics_fixture.txt").read_text()
        assert validate_openmetrics(text) == []

    def test_parse_is_exact_inverse_of_render(self):
        reg = _fixture_registry()
        reg.histogram("detector.extremes").observe(1e-9)
        reg.histogram("detector.extremes").observe(7e11)
        snap = reg.snapshot()
        assert parse_openmetrics(render_openmetrics(snap)) == (
            snapshot_to_families(snap)
        )

    def test_empty_histogram_has_no_min_max_and_no_nan(self):
        reg = MetricsRegistry()
        reg.histogram("h")
        text = render_openmetrics(reg.snapshot())
        assert "iguard_h_min" not in text and "iguard_h_max" not in text
        assert "nan" not in text.lower() and "inf " not in text
        point = parse_openmetrics(text)["iguard_h"]["points"][()]
        assert point["count"] == 0
        assert point.get("min") is None and point.get("max") is None

    def test_counter_total_suffix_and_eof(self):
        reg = MetricsRegistry()
        reg.counter("detector.races").inc()
        text = render_openmetrics(reg.snapshot())
        assert "iguard_detector_races_total 1" in text
        assert text.rstrip().endswith("# EOF")

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        for v in (0.4, 0.6, 3.0):
            reg.histogram("h").observe(v)
        lines = render_openmetrics(reg.snapshot()).splitlines()
        bucket_counts = [
            int(line.rsplit(" ", 1)[1])
            for line in lines if "iguard_h_bucket" in line
        ]
        assert bucket_counts == sorted(bucket_counts)
        assert bucket_counts[-1] == 3  # the +Inf bucket sees everything

    def test_type_collision_is_an_error(self):
        # A per-worker gauge must not fold into an existing unlabeled
        # family of a different type.
        snap = {
            "parallel.worker.cells": {"type": "histogram", "count": 0,
                                      "sum": 0.0, "min": None, "max": None,
                                      "buckets": {}},
            "parallel.worker.7.cells": {"type": "gauge", "value": 1.0},
        }
        with pytest.raises(ValueError, match="family"):
            snapshot_to_families(snap)

    def test_validate_rejects_missing_eof_and_garbage(self):
        assert validate_openmetrics("# TYPE iguard_x counter\niguard_x_total 1\n")
        assert validate_openmetrics(
            "# TYPE iguard_x counter\nnot a sample\n# EOF\n"
        )
        assert parse_openmetrics(
            "# TYPE iguard_x counter\niguard_x_total 1\n# EOF\n"
        )


# ---------------------------------------------------------------------------
# The embedded scrape server
# ---------------------------------------------------------------------------


class TestMetricsServer:
    @pytest.fixture
    def server(self):
        reg = MetricsRegistry()
        reg.counter("detector.races").inc(2)
        wd = Watchdog()
        srv = MetricsServer(
            port=0,
            host="127.0.0.1",
            registry=reg,
            health_provider=wd.health_block,
            heartbeats_provider=lambda: [
                {"pid": 5, "state": "running", "cells_done": 0}
            ],
        ).start()
        yield srv
        srv.stop()

    def _get(self, server, path):
        url = f"http://127.0.0.1:{server.port}{path}"
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read().decode()

    def test_port_zero_binds_a_real_port(self, server):
        assert server.port > 0

    def test_metrics_endpoint_parses(self, server):
        status, text = self._get(server, "/metrics")
        assert status == 200
        assert validate_openmetrics(text) == []
        families = parse_openmetrics(text)
        assert families["iguard_detector_races"]["points"][()] == 2
        assert (("pid", "5"),) in families["iguard_worker_up"]["points"]

    def test_healthz_endpoint(self, server):
        status, text = self._get(server, "/healthz")
        payload = json.loads(text)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["findings"] == []
        assert payload["workers"][0]["pid"] == 5

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            self._get(server, "/nope")
        assert err.value.code == 404


# ---------------------------------------------------------------------------
# Run-health watchdog
# ---------------------------------------------------------------------------


def _sample(interval=1.0, counters=None):
    return telemetry.TelemetrySample(
        seq=1, t=time.time(), interval=interval,
        counters=counters or {}, gauges={}, histograms={},
    )


class TestWatchdog:
    def test_worker_stall_fires_and_dedups(self):
        wd = Watchdog(WatchdogConfig(stall_s=1.0))
        now = time.time()
        hb = [{"pid": 9, "state": "running", "cell": "w:s1",
               "started": now - 5.0}]
        assert wd.observe(_sample(), hb, {}, now=now)  # first tick fires
        assert wd.observe(_sample(), hb, {}, now=now + 1)  # dedup: no new
        (finding,) = wd.findings
        assert finding.rule == "worker_stall"
        assert finding.subject == "worker:9"
        assert finding.count == 2
        assert finding.worst >= 5.0
        assert wd.status == "warn"

    def test_idle_worker_never_stalls(self):
        wd = Watchdog(WatchdogConfig(stall_s=1.0))
        hb = [{"pid": 9, "state": "idle"}]
        assert wd.observe(_sample(), hb, {}) == []
        assert wd.status == "ok"

    def test_retry_burn_scales_to_per_minute(self):
        wd = Watchdog(WatchdogConfig(retries_per_min=6.0))
        # 1 retry in a 1s window = 60/min: burning.
        (finding,) = wd.observe(
            _sample(interval=1.0, counters={"parallel.retries": 1}), [], {}
        )
        assert finding.rule == "retry_burn"
        # 1 retry in a 60s window = 1/min: fine.
        wd2 = Watchdog(WatchdogConfig(retries_per_min=6.0))
        assert wd2.observe(
            _sample(interval=60.0, counters={"parallel.retries": 1}), [], {}
        ) == []

    def test_config_from_env_spec(self):
        cfg = WatchdogConfig.from_env("stall_s=2.5,retries_per_min=0.9")
        assert cfg.stall_s == 2.5
        assert cfg.retries_per_min == 0.9
        assert cfg.quarantine_events == WatchdogConfig().quarantine_events

    def test_health_block_shape(self):
        wd = Watchdog(WatchdogConfig(stall_s=1.0))
        wd.observe(_sample(), [{"pid": 9, "state": "running",
                                "started": time.time() - 9.0}], {})
        block = wd.health_block()
        assert block["status"] == "warn"
        assert block["ticks"] == 1
        assert block["rules"]["stall_s"] == 1.0
        assert block["findings"][0]["rule"] == "worker_stall"
        assert json.dumps(block)  # machine-readable: JSON-serializable


# ---------------------------------------------------------------------------
# Forensics JSON: the explain golden file
# ---------------------------------------------------------------------------


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
# The invariant: telemetry changes no detection output.
# ---------------------------------------------------------------------------


class TestTelemetryByteIdentity:
    def test_report_identical_with_sampler_running(self, tmp_path, obs_off):
        from repro.workloads.runner import main

        on, off = tmp_path / "on.json", tmp_path / "off.json"
        rc_on = main([
            "--workload", "reduction", "--seeds", "1,2",
            "--report-json", str(on),
            "--telemetry-out", str(tmp_path / "t.jsonl"),
            "--telemetry-interval", "0.05",
        ])
        obs_metrics.set_enabled(False)
        obs_metrics.get_registry().reset()
        rc_off = main([
            "--workload", "reduction", "--seeds", "1,2",
            "--report-json", str(off),
        ])
        assert rc_on == rc_off
        assert on.read_bytes() == off.read_bytes()
        # ... and the side artifact validates line by line.
        for line in (tmp_path / "t.jsonl").read_text().splitlines():
            assert validate(json.loads(line), TELEMETRY_SCHEMA) == []
