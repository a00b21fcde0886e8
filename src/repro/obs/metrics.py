"""The metrics registry: counters, gauges and histograms.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  The instrumented code paths are
   the hottest in the system (one detector check per dynamic memory
   instruction), so a disabled registry must cost almost nothing.  Every
   hot call site is written as::

       if HOT.enabled:
           HOT.lock_inserts.inc()

   — one attribute load and one boolean test per guarded block, no
   function call, no dict lookup.  ``HOT`` carries the pre-registered
   hot-path instruments as plain attributes.

   Counts the detector already keeps per launch (accesses checked,
   preliminary passes, race-tier checks) are not incremented per check
   at all: the detector folds them into ``HOT`` once per launch.

2. **Plain data out.**  ``snapshot()`` returns JSON-able dicts (the
   ``--metrics-out`` artifact is validated against a checked-in schema in
   CI).

3. **No dependencies.**  Stdlib only; the registry works everywhere the
   reproduction does.

Enable with ``set_enabled(True)``, the ``--metrics-out`` CLI flags, or
``IGUARD_METRICS=1`` in the environment (read at import).
"""

from __future__ import annotations

import math
import os
from typing import Dict, Optional


class Counter:
    """A monotonically increasing count (float increments allowed)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0.0

    def snapshot(self) -> dict:
        value = self.value
        return {
            "type": "counter",
            "value": int(value) if float(value).is_integer() else value,
        }


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0.0

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Count/sum/min/max plus power-of-two magnitude buckets.

    Bucketing uses ``math.frexp`` — the bucket key is the binary exponent
    of the observed value — which is cheap and needs no preconfigured
    bounds.  Good enough to tell a 2 µs operation from a 2 ms one, which
    is what the registry is for.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        exponent = math.frexp(value)[1] if value > 0 else 0
        self.buckets[exponent] = self.buckets.get(exponent, 0) + 1

    def reset(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self.buckets = {}

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "mean": self.sum / self.count if self.count else 0.0,
            "min": self.min,
            "max": self.max,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """A named collection of instruments with a JSON snapshot."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = cls(name)
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def reset(self) -> None:
        """Zero every instrument (keeps registrations)."""
        for instrument in self._instruments.values():
            instrument.reset()

    def snapshot(self) -> Dict[str, dict]:
        """Every instrument's current state as plain JSON-able dicts."""
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(self._instruments.items())
        }

    def snapshot_document(self) -> dict:
        """The ``--metrics-out`` artifact (see benchmarks/schemas/)."""
        return {
            "schema": 1,
            "generated_by": "repro.obs.metrics",
            "enabled": self.enabled,
            "metrics": self.snapshot(),
        }


class _HotMetrics:
    """Pre-registered hot-path instruments behind one ``enabled`` flag.

    Call sites test ``HOT.enabled`` before touching any instrument; the
    flag mirrors the default registry's ``enabled`` and is flipped only
    through :func:`set_enabled`.
    """

    def __init__(self, registry: MetricsRegistry):
        self.enabled = registry.enabled
        # Detector hot path.
        self.detector_checked = registry.counter("detector.accesses_checked")
        self.detector_coalesced = registry.counter("detector.accesses_coalesced")
        self.detector_prelim_pass = registry.counter("detector.preliminary_pass")
        self.detector_race_tier = registry.counter("detector.race_checks_run")
        self.detector_races = registry.counter("detector.races_reported")
        self.detector_uvm_faults = registry.counter("detector.uvm.faults")
        self.contention_stalls = registry.counter("detector.contention.stalled_accesses")
        self.contention_cycles = registry.counter("detector.contention.serialized_cycles")
        # Lock tables (section 6.3).
        self.lock_inserts = registry.counter("detector.locktable.inserts")
        self.lock_evictions = registry.counter("detector.locktable.evictions")
        self.lock_activations = registry.counter("detector.locktable.activations")
        self.lock_releases = registry.counter("detector.locktable.releases")
        # Race reporting.
        self.races_dropped = registry.counter("racelog.records_dropped")
        self.race_flushes = registry.counter("racelog.buffer_flushes")
        # Scheduler.
        self.sched_batches = registry.counter("scheduler.batches")
        self.sched_divergent = registry.counter("scheduler.divergent_picks")
        self.sched_splits = registry.counter("scheduler.its_splits")
        self.sched_reconverged = registry.counter("scheduler.reconvergences")
        self.sched_barrier_releases = registry.counter("scheduler.barrier_releases")
        self.sched_occupancy = registry.histogram("scheduler.ready_warps")
        # Replay engine.
        self.replay_events = registry.counter("replay.events")
        # Suite runner.
        self.runner_cells = registry.counter("runner.cells")
        # Metadata-table pressure (graceful degradation knob).
        self.metadata_evictions = registry.counter("detector.metadata.evictions")
        # Poison-event quarantine and resource budgets (repro.faults.fuzz).
        self.quarantined_events = registry.counter("quarantine.events")
        self.pool_memo_evictions = registry.counter("trace.pool_memo_evictions")
        # Columnar trace container (repro.engine.coltrace).
        self.trace_chunks = registry.counter("trace.chunks_decoded")
        self.trace_rows = registry.counter("trace.rows_decoded")


_REGISTRY = MetricsRegistry(
    enabled=os.environ.get("IGUARD_METRICS", "") not in ("", "0", "false")
)
HOT = _HotMetrics(_REGISTRY)


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def metrics_enabled() -> bool:
    return _REGISTRY.enabled


def set_enabled(enabled: bool) -> None:
    """Turn the default registry (and the HOT fast-path flag) on or off."""
    _REGISTRY.enabled = enabled
    HOT.enabled = enabled
