"""OpenMetrics exposition and the embedded ``--serve-metrics`` server.

Renders a :mod:`repro.obs.metrics` registry snapshot as OpenMetrics text
(the Prometheus exposition format) and serves it over an embedded HTTP
endpoint, so a long ``--workers N`` run is scrapeable while in flight:

- ``GET /metrics`` — the registry snapshot, live.  Dotted metric names
  become underscore families with an ``iguard_`` prefix; the per-worker
  counters the parallel executor accumulates
  (``parallel.worker.<pid>.cells``) fold into **labelled families**
  (``iguard_parallel_worker_cells_total{pid="1234"}``), and the
  supervisor's heartbeat channel contributes per-worker liveness gauges.
  Histograms render as cumulative ``le`` buckets derived from the
  registry's power-of-two magnitude buckets.
- ``GET /healthz`` — the run-health watchdog's verdict as JSON: status,
  uptime, active workers, and every SLO finding so far.

:func:`parse_openmetrics` is the inverse of :func:`render_openmetrics`
down to exact float equality (values are rendered with ``repr``), which
is what the scrape-parse round-trip test and the CI ``telemetry`` job
lean on.  Everything is stdlib; the server is a daemon
:class:`~http.server.ThreadingHTTPServer` that dies with the run.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger

#: Family-name prefix of every exposed metric.
PREFIX = "iguard"

#: Content type of the /metrics payload (Prometheus also accepts it).
CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

#: Registry name patterns that fold into labelled families.
_LABEL_RULES: Tuple[Tuple[re.Pattern, str, str], ...] = (
    (re.compile(r"^parallel\.worker\.(\d+)\.(.+)$"), "parallel.worker.{rest}", "pid"),
)

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def family_of(name: str) -> Tuple[str, Dict[str, str]]:
    """Map a registry metric name to ``(family, labels)``.

    ``detector.accesses_checked`` → ``iguard_detector_accesses_checked``;
    ``parallel.worker.417.cells`` →
    ``iguard_parallel_worker_cells`` with ``{"pid": "417"}``.
    """
    labels: Dict[str, str] = {}
    for pattern, template, label in _LABEL_RULES:
        match = pattern.match(name)
        if match:
            labels[label] = match.group(1)
            name = template.format(rest=match.group(2))
            break
    return f"{PREFIX}_{_INVALID_CHARS.sub('_', name)}", labels


def _format_value(value) -> str:
    """Exact round-trip rendering: ints bare, floats via repr."""
    if isinstance(value, bool):  # defensive; registries never store bools
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{value}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _bucket_bound(exponent: int) -> float:
    """The ``le`` upper bound of a power-of-two magnitude bucket.

    :class:`~repro.obs.metrics.Histogram` buckets a value by its binary
    exponent ``k`` (``math.frexp``), i.e. the bucket covers
    ``(2**(k-1), 2**k]`` — so its inclusive upper bound is ``2**k``,
    exactly representable and exactly invertible (:func:`_bound_exponent`).
    """
    return math.ldexp(1.0, max(-1022, min(exponent, 1023)))


def _bound_exponent(bound: float) -> int:
    """Inverse of :func:`_bucket_bound` for exact powers of two.

    ``math.frexp(2**k)`` normalizes to ``(0.5, k + 1)``, hence the -1.
    """
    return math.frexp(bound)[1] - 1


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def snapshot_to_families(snapshot: Dict[str, dict]) -> Dict[str, dict]:
    """Normalize a registry snapshot into exposition families.

    The canonical structure both the renderer and the parser produce::

        {family: {"type": kind, "points": {label_items: point}}}

    where ``label_items`` is a sorted tuple of ``(label, value)`` pairs,
    a counter/gauge point is the number itself and a histogram point is
    ``{"count", "sum", "min", "max", "buckets"}`` with the registry's
    exponent-keyed buckets.  ``parse_openmetrics(render_openmetrics(s))
    == snapshot_to_families(s)`` is the round-trip contract.
    """
    families: Dict[str, dict] = {}
    for name, snap in sorted(snapshot.items()):
        family, labels = family_of(name)
        kind = snap.get("type")
        entry = families.setdefault(family, {"type": kind, "points": {}})
        if entry["type"] != kind:
            raise ValueError(
                f"metric {name!r} folds into family {family!r} as a "
                f"{kind} but the family is a {entry['type']} — pick a "
                f"non-colliding metric name"
            )
        key = tuple(sorted(labels.items()))
        if kind == "histogram":
            entry["points"][key] = {
                "count": snap.get("count", 0),
                "sum": snap.get("sum", 0.0),
                "min": snap.get("min"),
                "max": snap.get("max"),
                "buckets": {
                    str(k): v for k, v in snap.get("buckets", {}).items()
                },
            }
        else:
            entry["points"][key] = snap.get("value", 0)
    return families


def heartbeat_families(workers: List[dict], now: Optional[float] = None) -> Dict[str, dict]:
    """Per-worker liveness gauges derived from the heartbeat channel."""
    now = time.time() if now is None else now
    families: Dict[str, dict] = {}

    def _point(family: str, pid, value) -> None:
        entry = families.setdefault(
            f"{PREFIX}_{family}", {"type": "gauge", "points": {}}
        )
        entry["points"][(("pid", str(pid)),)] = value

    for worker in workers:
        pid = worker.get("pid")
        _point("worker_up", pid, 0 if worker.get("state") == "dead" else 1)
        _point("worker_busy", pid, 1 if worker.get("state") == "running" else 0)
        _point("worker_cells_done", pid, worker.get("cells_done", 0))
        started = worker.get("started")
        if worker.get("state") == "running" and started:
            _point(
                "worker_cell_seconds", pid, round(max(0.0, now - started), 3)
            )
    return families


def render_families(families: Dict[str, dict]) -> str:
    """Render canonical families as OpenMetrics text (with ``# EOF``)."""
    lines: List[str] = []
    for family in sorted(families):
        entry = families[family]
        kind = entry["type"]
        lines.append(f"# TYPE {family} {kind}")
        for key in sorted(entry["points"]):
            labels = dict(key)
            point = entry["points"][key]
            if kind == "counter":
                lines.append(
                    f"{family}_total{_format_labels(labels)} "
                    f"{_format_value(point)}"
                )
            elif kind == "gauge":
                lines.append(
                    f"{family}{_format_labels(labels)} {_format_value(point)}"
                )
            else:  # histogram
                cumulative = 0
                for exp_key in sorted(point["buckets"], key=int):
                    cumulative += point["buckets"][exp_key]
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_value(
                        _bucket_bound(int(exp_key))
                    )
                    lines.append(
                        f"{family}_bucket{_format_labels(bucket_labels)} "
                        f"{cumulative}"
                    )
                inf_labels = dict(labels)
                inf_labels["le"] = "+Inf"
                lines.append(
                    f"{family}_bucket{_format_labels(inf_labels)} "
                    f"{point['count']}"
                )
                lines.append(
                    f"{family}_count{_format_labels(labels)} {point['count']}"
                )
                lines.append(
                    f"{family}_sum{_format_labels(labels)} "
                    f"{_format_value(point['sum'])}"
                )
                # Empty histograms expose no min/max (absent, never NaN).
                if point.get("min") is not None:
                    lines.append(
                        f"{family}_min{_format_labels(labels)} "
                        f"{_format_value(point['min'])}"
                    )
                if point.get("max") is not None:
                    lines.append(
                        f"{family}_max{_format_labels(labels)} "
                        f"{_format_value(point['max'])}"
                    )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def render_openmetrics(
    snapshot: Dict[str, dict],
    heartbeats: Optional[List[dict]] = None,
) -> str:
    """Registry snapshot (+ optional heartbeat channel) → OpenMetrics text."""
    families = snapshot_to_families(snapshot)
    if heartbeats:
        families.update(heartbeat_families(heartbeats))
    return render_families(families)


# ---------------------------------------------------------------------------
# Parsing (the scrape side of the round trip)
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+"
    r"(?P<value>[^\s]+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')


def _parse_number(text: str) -> float:
    value = float(text)
    if value.is_integer() and "." not in text and "e" not in text.lower():
        return int(value)
    return value


def parse_openmetrics(text: str) -> Dict[str, dict]:
    """Parse OpenMetrics text back into exposition families.

    Inverse of :func:`render_families` for the families this module
    emits; raises ``ValueError`` on malformed lines, a missing ``# EOF``
    terminator, or samples without a preceding ``# TYPE``.
    """
    families: Dict[str, dict] = {}
    types: Dict[str, str] = {}
    saw_eof = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if saw_eof:
            raise ValueError(f"line {lineno}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            try:
                _, _, family, kind = line.split(None, 3)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed TYPE: {raw!r}")
            if kind not in ("counter", "gauge", "histogram"):
                raise ValueError(f"line {lineno}: unknown type {kind!r}")
            types[family] = kind
            families.setdefault(family, {"type": kind, "points": {}})
            continue
        if line.startswith("#"):
            continue  # HELP/UNIT comments are legal noise
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample: {raw!r}")
        name = match.group("name")
        labels = dict(_LABEL_RE.findall(match.group("labels") or ""))
        value_text = match.group("value")

        family, suffix = _family_suffix(name, types)
        if family is None:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no preceding # TYPE"
            )
        kind = types[family]
        entry = families[family]
        if kind == "histogram":
            le = labels.pop("le", None)
            key = tuple(sorted(labels.items()))
            point = entry["points"].setdefault(
                key,
                {"count": 0, "sum": 0.0, "min": None, "max": None,
                 "buckets": {}, "_cumulative": []},
            )
            if suffix == "bucket":
                if le is None:
                    raise ValueError(f"line {lineno}: bucket without le")
                if le != "+Inf":
                    point["_cumulative"].append(
                        (_bound_exponent(float(le)), int(value_text))
                    )
            elif suffix == "count":
                point["count"] = int(value_text)
            elif suffix == "sum":
                point["sum"] = _parse_number(value_text)
            elif suffix == "min":
                point["min"] = _parse_number(value_text)
            elif suffix == "max":
                point["max"] = _parse_number(value_text)
            else:
                raise ValueError(
                    f"line {lineno}: unknown histogram sample {name!r}"
                )
        else:
            if kind == "counter" and suffix != "total":
                raise ValueError(
                    f"line {lineno}: counter sample {name!r} missing _total"
                )
            key = tuple(sorted(labels.items()))
            entry["points"][key] = _parse_number(value_text)
    if not saw_eof:
        raise ValueError("missing # EOF terminator")
    for entry in families.values():
        if entry["type"] != "histogram":
            continue
        for point in entry["points"].values():
            cumulative = sorted(point.pop("_cumulative", []))
            previous = 0
            buckets: Dict[str, int] = {}
            for exponent, running in cumulative:
                delta = running - previous
                previous = running
                if delta:
                    buckets[str(exponent)] = delta
            point["buckets"] = buckets
    return families


def _family_suffix(
    name: str, types: Dict[str, str]
) -> Tuple[Optional[str], Optional[str]]:
    """Resolve a sample name to its declared family and sample suffix."""
    for suffix in ("total", "bucket", "count", "sum", "min", "max"):
        tail = f"_{suffix}"
        if name.endswith(tail) and name[: -len(tail)] in types:
            return name[: -len(tail)], suffix
    if name in types:
        return name, None
    return None, None


def validate_openmetrics(text: str) -> List[str]:
    """Parse-validate exposition text; returns error strings (empty = ok)."""
    try:
        families = parse_openmetrics(text)
    except ValueError as exc:
        return [str(exc)]
    errors: List[str] = []
    for family, entry in families.items():
        if entry["type"] == "histogram":
            for labels, point in entry["points"].items():
                in_buckets = sum(point["buckets"].values())
                if in_buckets > point["count"]:
                    errors.append(
                        f"{family}{dict(labels)}: bucket total {in_buckets} "
                        f"exceeds count {point['count']}"
                    )
    return errors


# ---------------------------------------------------------------------------
# The embedded scrape server
# ---------------------------------------------------------------------------


class MetricsServer:
    """Daemon HTTP server exposing ``/metrics`` and ``/healthz``.

    ``health_provider`` returns the ``/healthz`` JSON payload (the
    watchdog supplies it); ``heartbeats_provider`` returns the worker
    list merged into ``/metrics`` as per-worker gauges.  Binding port 0
    picks a free port (the bound ``port`` attribute is updated), which
    keeps the tests parallel-safe.
    """

    def __init__(
        self,
        port: int,
        host: str = "0.0.0.0",
        registry: Optional[obs_metrics.MetricsRegistry] = None,
        health_provider: Optional[Callable[[], dict]] = None,
        heartbeats_provider: Optional[Callable[[], List[dict]]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.registry = registry or obs_metrics.get_registry()
        self.health_provider = health_provider
        self.heartbeats_provider = heartbeats_provider
        self.started_at: Optional[float] = None
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- request handling ----------------------------------------------

    def _metrics_text(self) -> str:
        heartbeats = (
            self.heartbeats_provider() if self.heartbeats_provider else None
        )
        return render_openmetrics(self.registry.snapshot(), heartbeats)

    def _health_payload(self) -> dict:
        payload = {
            "status": "ok",
            "uptime_seconds": round(
                time.time() - self.started_at, 3
            ) if self.started_at else 0.0,
        }
        if self.heartbeats_provider is not None:
            payload["workers"] = self.heartbeats_provider()
        if self.health_provider is not None:
            payload.update(self.health_provider())
        return payload

    def _make_handler(self):
        server = self
        logger = get_logger("serve")

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                if self.path.split("?")[0] == "/metrics":
                    body = server._metrics_text().encode("utf-8")
                    self._reply(200, CONTENT_TYPE, body)
                elif self.path.split("?")[0] == "/healthz":
                    body = (
                        json.dumps(
                            server._health_payload(), sort_keys=True
                        ).encode("utf-8")
                        + b"\n"
                    )
                    self._reply(200, "application/json; charset=utf-8", body)
                else:
                    self._reply(
                        404, "text/plain; charset=utf-8", b"not found\n"
                    )

            def _reply(self, code: int, ctype: str, body: bytes) -> None:
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt, *args):  # diagnostics, not stdout
                logger.debug("scrape %s", fmt % args)

        return Handler

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            return self
        self._httpd = ThreadingHTTPServer(
            (self.host, self.port), self._make_handler()
        )
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self.started_at = time.time()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="iguard-metrics-server",
            daemon=True,
        )
        self._thread.start()
        get_logger("serve").info(
            "serving /metrics and /healthz on http://%s:%d",
            self.host, self.port,
        )
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
