"""Live telemetry: time-series sampling of the metrics registry.

The flight recorder (:mod:`repro.obs.metrics`) materializes one snapshot
at process exit, which is useless for asking *where is this run right
now* — a stalled worker in a long ``--workers N`` suite
is invisible until the end.  This module adds the live layer:

- :class:`TelemetrySampler` — a daemon thread that snapshots the default
  registry on a fixed interval and appends a **delta sample** to a
  bounded ring buffer: counters contribute their increase since the last
  tick, gauges their last value, histograms their count/sum/bucket
  deltas.  The ring is what the scrape server and the run-health
  watchdog (:mod:`repro.obs.watchdog`) read; ``--telemetry-out`` also
  persists it as a schema-validated ``telemetry.jsonl``
  (``benchmarks/schemas/telemetry.schema.json``).
- :class:`Heartbeats` — the supervisor's heartbeat channel.  The
  parallel executor (:mod:`repro.engine.parallel`) publishes per-worker
  liveness here (which cell, which attempt, running since when), giving
  the watchdog its worker-stall signal and the OpenMetrics exposition
  its per-worker label dimension.

Both are **pure readers** of detection state: no instrumentation site in
the detector, scheduler or bus knows the sampler exists, so detection
output is byte-identical with telemetry on or off, and the cost with
telemetry off is structurally zero (nothing starts, nothing is
published — ``HEARTBEATS.enabled`` guards the one executor call site
exactly like ``HOT.enabled`` guards the metrics sites).
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger

#: telemetry.jsonl line-schema version (benchmarks/schemas/telemetry.schema.json).
TELEMETRY_SCHEMA = 1

#: Default sampling interval in seconds (``--telemetry-interval``).
DEFAULT_INTERVAL = 1.0

#: Default ring-buffer capacity in samples (old samples are dropped, the
#: drop count is reported in the header record).
DEFAULT_CAPACITY = 512


# ---------------------------------------------------------------------------
# The heartbeat channel: per-worker liveness from the parallel executor.
# ---------------------------------------------------------------------------


class Heartbeats:
    """Thread-safe per-worker liveness shared by executor and telemetry.

    The supervisor (:mod:`repro.engine.parallel`) calls :meth:`update` on
    assignment, completion, crash and shutdown; the sampler, watchdog and
    scrape server read :meth:`snapshot`.  The ``enabled`` flag mirrors
    the ``HOT.enabled`` pattern: the executor tests one attribute and
    skips the call entirely when no telemetry consumer armed the channel,
    so a plain run never takes the lock.
    """

    #: Bound on tracked workers: crash-looping executors recycle pids, and
    #: an unbounded map would grow for the life of the run.  FIFO eviction
    #: of the oldest record — liveness data, not accounting.
    MAX_WORKERS = 1024

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._workers: Dict[int, dict] = {}

    def update(self, pid: int, **fields) -> None:
        """Merge ``fields`` into worker ``pid``'s record (upsert)."""
        now = time.time()
        with self._lock:
            record = self._workers.setdefault(
                pid, {"pid": pid, "state": "idle", "cells_done": 0}
            )
            record.update(fields)
            record["updated"] = now
            while len(self._workers) > self.MAX_WORKERS:
                self._workers.pop(next(iter(self._workers)))

    def finish_cell(self, pid: int, ok: bool = True) -> None:
        """Mark ``pid`` idle after a cell result (done or error)."""
        with self._lock:
            record = self._workers.get(pid)
            if record is None:
                return
            record["state"] = "idle"
            record.pop("cell", None)
            record.pop("started", None)
            if ok:
                record["cells_done"] = record.get("cells_done", 0) + 1
            record["updated"] = time.time()

    def remove(self, pid: int) -> None:
        with self._lock:
            self._workers.pop(pid, None)

    def snapshot(self) -> List[dict]:
        """Copies of every worker record, ordered by pid."""
        with self._lock:
            return [dict(r) for _, r in sorted(self._workers.items())]

    def reset(self) -> None:
        with self._lock:
            self._workers.clear()


#: The process-wide heartbeat channel (armed by the telemetry sampler).
HEARTBEATS = Heartbeats()


# ---------------------------------------------------------------------------
# Histogram percentile estimation (shared by watchdog and reports).
# ---------------------------------------------------------------------------


def approx_quantile(hist_snapshot: dict, q: float) -> Optional[float]:
    """Estimate the ``q``-quantile of a histogram snapshot's buckets.

    The registry's histograms bucket by binary exponent
    (:class:`repro.obs.metrics.Histogram`), so the estimate returns the
    upper bound ``2**k`` of the bucket containing the quantile — a
    factor-of-two answer, which is what the magnitude buckets promise.
    Returns **None** for an empty histogram: percentiles of nothing are
    absent, never NaN or infinity.
    """
    count = hist_snapshot.get("count", 0)
    if not count:
        return None
    target = q * count
    seen = 0
    for key in sorted(hist_snapshot.get("buckets", {}), key=int):
        seen += hist_snapshot["buckets"][key]
        if seen >= target:
            return math.ldexp(1.0, min(int(key), 1023))
    return hist_snapshot.get("max")


# ---------------------------------------------------------------------------
# Delta samples and the ring-buffer sampler.
# ---------------------------------------------------------------------------


@dataclass
class TelemetrySample:
    """One tick of the time series: deltas since the previous tick."""

    seq: int
    t: float  # wall-clock seconds (time.time)
    interval: float  # seconds actually covered by this sample
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, dict] = field(default_factory=dict)

    def as_record(self) -> dict:
        """The telemetry.jsonl line for this sample."""
        return {
            "kind": "sample",
            "seq": self.seq,
            "t": round(self.t, 6),
            "interval": round(self.interval, 6),
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": self.histograms,
        }


def _delta_sample(
    seq: int,
    now: float,
    interval: float,
    previous: Dict[str, dict],
    current: Dict[str, dict],
) -> TelemetrySample:
    """Diff two registry snapshots into one delta sample.

    Counters record their increase (only when nonzero — idle series stay
    sparse), gauges their last value, histograms their count/sum/bucket
    deltas.  A counter that *shrank* (registry reset between ticks)
    records its absolute value, treating the reset as a restart.
    """
    sample = TelemetrySample(seq=seq, t=now, interval=interval)
    for name, snap in current.items():
        kind = snap.get("type")
        prev = previous.get(name)
        if kind == "counter":
            value = snap.get("value", 0)
            base = prev.get("value", 0) if prev else 0
            delta = value - base if value >= base else value
            if delta:
                sample.counters[name] = delta
        elif kind == "gauge":
            sample.gauges[name] = snap.get("value", 0.0)
        elif kind == "histogram":
            base_count = prev.get("count", 0) if prev else 0
            count = snap.get("count", 0)
            if count < base_count:  # registry reset between ticks
                prev = None
                base_count = 0
            count_delta = count - base_count
            if not count_delta:
                continue
            base_buckets = prev.get("buckets", {}) if prev else {}
            buckets = {
                key: value - base_buckets.get(key, 0)
                for key, value in snap.get("buckets", {}).items()
                if value - base_buckets.get(key, 0)
            }
            sample.histograms[name] = {
                "count": count_delta,
                "sum": snap.get("sum", 0.0)
                - (prev.get("sum", 0.0) if prev else 0.0),
                "buckets": buckets,
            }
    return sample


class TelemetrySampler:
    """Snapshot the registry on an interval into a bounded ring buffer.

    ``tick()`` is also callable directly (no thread), which is how the
    tests drive deterministic series and how :meth:`stop` guarantees a
    final sample covering the tail of the run.  An attached watchdog
    (:class:`repro.obs.watchdog.Watchdog`) is evaluated once per tick,
    on the sampler thread — never on the detection path.
    """

    def __init__(
        self,
        registry: Optional[obs_metrics.MetricsRegistry] = None,
        interval: float = DEFAULT_INTERVAL,
        capacity: int = DEFAULT_CAPACITY,
        watchdog=None,
        heartbeats: Heartbeats = HEARTBEATS,
    ) -> None:
        self.registry = registry or obs_metrics.get_registry()
        self.interval = max(0.01, float(interval))
        self.capacity = max(1, int(capacity))
        self.watchdog = watchdog
        self.heartbeats = heartbeats
        self.started_at: Optional[float] = None
        self.dropped = 0
        self._ring: deque = deque(maxlen=self.capacity)
        self._previous: Dict[str, dict] = {}
        self._last_tick = 0.0
        self._seq = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "TelemetrySampler":
        """Arm the heartbeat channel and start the sampling thread."""
        if self._thread is not None:
            return self
        self.started_at = time.time()
        self._last_tick = time.monotonic()
        self._previous = self.registry.snapshot()
        self.heartbeats.enabled = True
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="iguard-telemetry", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.tick()

    def stop(self) -> None:
        """Stop the thread and take one final sample of the tail."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.tick()
        self.heartbeats.enabled = False

    # -- sampling -------------------------------------------------------

    def tick(self, now: Optional[float] = None) -> TelemetrySample:
        """Take one delta sample (thread-safe; callable without start)."""
        with self._lock:
            monotonic = time.monotonic()
            covered = (
                monotonic - self._last_tick if self._last_tick else self.interval
            )
            self._last_tick = monotonic
            current = self.registry.snapshot()
            self._seq += 1
            sample = _delta_sample(
                self._seq,
                now if now is not None else time.time(),
                covered,
                self._previous,
                current,
            )
            self._previous = current
            if len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(sample)
        if self.watchdog is not None:
            try:
                self.watchdog.observe(
                    sample, self.heartbeats.snapshot(), current
                )
            except Exception:  # pragma: no cover - watchdog must not kill runs
                get_logger("telemetry").exception("watchdog evaluation failed")
        return sample

    def samples(self) -> List[TelemetrySample]:
        with self._lock:
            return list(self._ring)

    def totals(self) -> Dict[str, dict]:
        """The last cumulative registry snapshot the sampler has seen."""
        with self._lock:
            return dict(self._previous)

    # -- persistence ----------------------------------------------------

    def header_record(self) -> dict:
        return {
            "kind": "header",
            "schema": TELEMETRY_SCHEMA,
            "generated_by": "repro.obs.telemetry",
            "interval": self.interval,
            "capacity": self.capacity,
            "started": round(self.started_at or 0.0, 6),
            "dropped": self.dropped,
        }

    def write_jsonl(self, path, health: Optional[dict] = None) -> int:
        """Persist header + samples (+ optional health tail) as JSONL.

        Returns the number of records written.  Every line is one JSON
        object validating against ``telemetry.schema.json``.
        """
        records = [self.header_record()]
        records.extend(sample.as_record() for sample in self.samples())
        if health is not None:
            records.append({"kind": "health", **health})
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                json.dump(record, handle, sort_keys=True)
                handle.write("\n")
        return len(records)


# ---------------------------------------------------------------------------
# The process-wide sampler (armed by --telemetry-out / --serve-metrics).
# ---------------------------------------------------------------------------

_SAMPLER: Optional[TelemetrySampler] = None


def active_sampler() -> Optional[TelemetrySampler]:
    return _SAMPLER


def start_sampler(
    interval: float = DEFAULT_INTERVAL,
    capacity: int = DEFAULT_CAPACITY,
    watchdog=None,
) -> TelemetrySampler:
    """Start (or return) the process-wide sampler."""
    global _SAMPLER
    if _SAMPLER is None:
        _SAMPLER = TelemetrySampler(
            interval=interval, capacity=capacity, watchdog=watchdog
        )
        _SAMPLER.start()
    return _SAMPLER


def stop_sampler() -> Optional[TelemetrySampler]:
    """Stop and detach the process-wide sampler; returns it for export."""
    global _SAMPLER
    sampler, _SAMPLER = _SAMPLER, None
    if sampler is not None:
        sampler.stop()
    return sampler
