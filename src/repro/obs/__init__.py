"""``repro.obs`` — the observability subsystem.

Independent facilities, each near-zero cost when disabled (the default),
wired through every layer of the reproduction:

- :mod:`repro.obs.metrics` — a counters/gauges/histograms registry
  instrumenting the detector hot path, the scheduler, the event bus, and
  the parallel suite executor.  Hot-path call sites guard on a single
  ``HOT.enabled`` boolean, so a disabled registry costs one attribute
  load per guarded block.
- :mod:`repro.obs.spans` — span-based tracing with Chrome/Perfetto
  ``trace_event`` JSON export (``--trace-out``): launches, per-warp
  activity, per-sink dispatch, suite cells and worker processes render
  as one timeline.
- :mod:`repro.obs.log` — the leveled logging facade (stdlib ``logging``
  backed) separating diagnostics (stderr, ``IGUARD_LOG`` /
  ``--log-level``) from experiment output (stdout, :func:`~repro.obs.log.output`).
- :mod:`repro.obs.telemetry` — the live layer: a time-series sampler
  over the registry (``--telemetry-out`` → ``telemetry.jsonl``) plus the
  supervisor's heartbeat channel, feeding
  :mod:`repro.obs.openmetrics` (the ``--serve-metrics`` scrape server:
  ``/metrics`` + ``/healthz``) and :mod:`repro.obs.watchdog` (SLO rules
  over the series, surfaced as a ``health`` block in final reports).

:mod:`repro.obs.forensics` (imported lazily — it depends on the core and
engine layers) reconstructs, from a recorded trace, why a race was
reported: the racing instruction pair, the metadata word history, and the
lock-inference timeline (``iguard-experiments explain``).

The CLI helpers below give every entry point (``iguard-experiments``, the
suite drivers, ``python -m repro.workloads.runner``,
``python -m repro.faults.recall``) the same flags with one call each.
The telemetry stack is a **pure reader** of the registry: arming it
cannot change detection output (byte-identical reports with telemetry on
or off), and with the flags absent nothing starts.
"""

from __future__ import annotations

import json

from repro.obs import log, metrics, spans

__all__ = [
    "log",
    "metrics",
    "spans",
    "add_observability_args",
    "begin_observability",
    "finalize_observability",
    "active_watchdog",
]

#: The watchdog attached to the active sampler (None unless telemetry is
#: armed).  Reports read it through :func:`active_watchdog` at the end of
#: a run to embed the ``health`` block.
_WATCHDOG = None
_SERVER = None


def active_watchdog():
    """The run-health watchdog for this process, if telemetry is armed."""
    return _WATCHDOG


def add_observability_args(parser) -> None:
    """Register the shared observability flags on an argparse parser.

    ``--log-level``, ``--metrics-out``, ``--trace-out`` (the flight
    recorder), plus the live-telemetry trio: ``--telemetry-out``,
    ``--telemetry-interval`` and ``--serve-metrics``.
    """
    parser.add_argument(
        "--log-level",
        default=None,
        choices=["debug", "info", "warn", "warning", "error"],
        help="diagnostic verbosity (default: $IGUARD_LOG or info); "
             "diagnostics go to stderr, results stay on stdout",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable the metrics registry and write its JSON snapshot "
             "here at exit",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="enable span tracing and write a Chrome/Perfetto "
             "trace_event JSON here at exit",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="sample the metrics registry on an interval and write the "
             "time series here as telemetry.jsonl at exit (implies "
             "metrics on)",
    )
    parser.add_argument(
        "--telemetry-interval",
        default=None,
        type=float,
        metavar="SECONDS",
        help="sampling interval for --telemetry-out / --serve-metrics "
             "(default 1.0)",
    )
    parser.add_argument(
        "--serve-metrics",
        default=None,
        type=int,
        metavar="PORT",
        help="serve live OpenMetrics on http://0.0.0.0:PORT/metrics and "
             "run health on /healthz while the run is in flight "
             "(implies metrics on; 0 picks a free port)",
    )


def _telemetry_requested(args) -> bool:
    return (
        getattr(args, "telemetry_out", None) is not None
        or getattr(args, "serve_metrics", None) is not None
    )


def begin_observability(args) -> None:
    """Apply parsed observability flags before any work runs."""
    global _WATCHDOG, _SERVER
    log.configure(getattr(args, "log_level", None))
    if getattr(args, "metrics_out", None) or _telemetry_requested(args):
        metrics.set_enabled(True)
    if getattr(args, "trace_out", None):
        spans.set_tracing(True)
    if _telemetry_requested(args):
        # Lazy imports: the telemetry stack only loads when armed.
        from repro.obs import telemetry
        from repro.obs.watchdog import Watchdog

        _WATCHDOG = Watchdog()
        interval = getattr(args, "telemetry_interval", None)
        sampler = telemetry.start_sampler(
            interval=interval if interval else telemetry.DEFAULT_INTERVAL,
            watchdog=_WATCHDOG,
        )
        port = getattr(args, "serve_metrics", None)
        if port is not None:
            from repro.obs.openmetrics import MetricsServer

            _SERVER = MetricsServer(
                port=port,
                health_provider=_WATCHDOG.health_block,
                heartbeats_provider=sampler.heartbeats.snapshot,
            ).start()


def finalize_observability(args) -> None:
    """Write the requested snapshot/trace artifacts after the work ran."""
    global _WATCHDOG, _SERVER
    logger = log.get_logger("obs")
    health = None
    sampler = None
    if _telemetry_requested(args):
        from repro.obs import telemetry

        sampler = telemetry.stop_sampler()
        if _WATCHDOG is not None:
            health = _WATCHDOG.health_block()
            for finding in health["findings"]:
                logger.warning(
                    "health finding [%s] %s", finding["rule"],
                    finding["message"],
                )
    if _SERVER is not None:
        _SERVER.stop()
        _SERVER = None
    telemetry_out = getattr(args, "telemetry_out", None)
    if telemetry_out and sampler is not None:
        records = sampler.write_jsonl(telemetry_out, health=health)
        logger.info(
            "wrote telemetry series (%d records, %d dropped) to %s",
            records, sampler.dropped, telemetry_out,
        )
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        document = metrics.get_registry().snapshot_document()
        if health is not None:
            document["health"] = health
        with open(metrics_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        logger.info(
            "wrote metrics snapshot (%d metrics) to %s",
            len(document["metrics"]), metrics_out,
        )
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        spans.TRACER.save(trace_out)
        logger.info(
            "wrote Perfetto trace (%d events) to %s",
            len(spans.TRACER.events), trace_out,
        )
    _WATCHDOG = None
