"""``repro.obs`` — the observability subsystem.

Independent facilities, each near-zero cost when disabled (the default),
wired through every layer of the reproduction:

- :mod:`repro.obs.metrics` — a counters/gauges/histograms registry
  instrumenting the detector, the scheduler, the replay engine and the
  suite runner (``--metrics-out``).  Hot-path call sites guard on a
  single ``HOT.enabled`` boolean, so a disabled registry costs one
  attribute load per guarded block; the per-check detector counters are
  folded once per launch from the detector's own statistics.
- :mod:`repro.obs.spans` — span-based tracing with Chrome/Perfetto
  ``trace_event`` JSON export (``--trace-out``): launches, per-warp
  activity and suite cells render as one timeline.
- :mod:`repro.obs.log` — the leveled logging facade (stdlib ``logging``
  backed) separating diagnostics (stderr, ``IGUARD_LOG`` /
  ``--log-level``) from experiment output (stdout, :func:`~repro.obs.log.output`).

:mod:`repro.obs.forensics` (imported lazily — it depends on the core and
engine layers) reconstructs, from a recorded trace, why a race was
reported: the racing instruction pair, the metadata word history, and the
lock-inference timeline (``iguard-experiments explain``).

The CLI helpers below give every entry point (``iguard-experiments``,
``python -m repro.workloads.runner``, ``python -m repro.faults.recall``)
the same flags with one call each.
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
]


def add_observability_args(parser) -> None:
    """Register ``--log-level``, ``--metrics-out`` and ``--trace-out``."""
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


def begin_observability(args) -> None:
    """Apply parsed observability flags before any work runs."""
    log.configure_or_exit(getattr(args, "log_level", None))
    if getattr(args, "metrics_out", None):
        metrics.set_enabled(True)
    if getattr(args, "trace_out", None):
        spans.set_tracing(True)


def finalize_observability(args) -> None:
    """Write the requested snapshot/trace artifacts after the work ran."""
    logger = log.get_logger("obs")
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        document = metrics.get_registry().snapshot_document()
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
