"""Run-health watchdog: SLO rules over the sampled telemetry series.

Evaluated once per sampler tick (:meth:`Watchdog.observe` is called by
:class:`repro.obs.telemetry.TelemetrySampler` on the sampler thread,
never on the detection path), the watchdog turns the live series into a
small set of operational verdicts:

``worker_stall``
    A worker's heartbeat shows the same cell running longer than the
    stall threshold — the live version of the supervisor's soft-timeout
    warning, visible over ``/healthz`` while the cell is still stuck.
``retry_burn``
    Cell retries are burning budget faster than the per-minute
    threshold; at this rate the run ends in ``RetryExhaustedError``.
``event_quarantine``
    Poison events have been quarantined (``quarantine.events`` total) —
    detection kept going but skipped raising records, so recall is
    degraded the same bounded way ``metadata_max_entries`` degrades it.

Each rule fires at most one leveled warning per subject (worker pid,
rule name) but keeps updating the finding's ``last_seen``/``worst``
fields; :meth:`health_block` renders the machine-readable ``health``
section embedded in the final report, the ``--metrics-out`` document and
the ``telemetry.jsonl`` tail.  Findings are advisory: a degraded run
still exits 0 — the watchdog reports, the retry/timeout machinery in
:mod:`repro.engine.parallel` enforces.

Thresholds come from :class:`WatchdogConfig`, overridable with the
``IGUARD_WATCHDOG`` env spec (``key=value`` pairs, comma-separated, same
grammar as ``IGUARD_CHAOS``): ``stall_s``, ``retries_per_min``,
``quarantine_events``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.log import get_logger

ENV_VAR = "IGUARD_WATCHDOG"

logger = get_logger("watchdog")


@dataclass
class WatchdogConfig:
    """Thresholds for the SLO rules (see module docstring)."""

    #: A running cell older than this many seconds is a stall finding.
    stall_s: float = 30.0
    #: Retry deltas scaled to a per-minute rate above this fire retry_burn.
    retries_per_min: float = 6.0
    #: Cumulative quarantined (poison) events at or above this fire
    #: event_quarantine — detection is degrading by absorbing raising
    #: records (see repro.faults.quarantine).
    quarantine_events: int = 1

    @classmethod
    def from_env(cls, spec: Optional[str] = None) -> "WatchdogConfig":
        """Parse an ``IGUARD_WATCHDOG`` style ``k=v,k=v`` spec."""
        spec = os.environ.get(ENV_VAR, "") if spec is None else spec
        config = cls()
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, value = part.partition("=")
            key = key.strip()
            if not hasattr(config, key):
                logger.warning("unknown watchdog threshold %r ignored", key)
                continue
            current = getattr(config, key)
            setattr(config, key, type(current)(float(value)))
        return config

    def as_dict(self) -> dict:
        return {
            "stall_s": self.stall_s,
            "retries_per_min": self.retries_per_min,
            "quarantine_events": self.quarantine_events,
        }


@dataclass
class Finding:
    """One fired SLO rule, deduplicated by (rule, subject)."""

    rule: str
    subject: str
    level: str
    message: str
    first_seen: float
    last_seen: float
    worst: float = 0.0
    count: int = 1
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "subject": self.subject,
            "level": self.level,
            "message": self.message,
            "first_seen": round(self.first_seen, 3),
            "last_seen": round(self.last_seen, 3),
            "worst": round(self.worst, 3),
            "count": self.count,
            "detail": self.detail,
        }


class Watchdog:
    """Evaluate the SLO rules against each telemetry sample."""

    def __init__(self, config: Optional[WatchdogConfig] = None) -> None:
        self.config = config or WatchdogConfig.from_env()
        self._findings: Dict[Tuple[str, str], Finding] = {}
        self.ticks = 0

    # -- rule evaluation -----------------------------------------------

    def observe(
        self,
        sample,
        heartbeats: List[dict],
        totals: Dict[str, dict],
        now: Optional[float] = None,
    ) -> List[Finding]:
        """Evaluate every rule; returns findings fired *this* tick."""
        now = time.time() if now is None else now
        self.ticks += 1
        fired: List[Finding] = []
        fired.extend(self._check_worker_stall(heartbeats, now))
        fired.extend(self._check_retry_burn(sample, now))
        fired.extend(self._check_quarantine(totals, now))
        return fired

    def _check_worker_stall(
        self, heartbeats: List[dict], now: float
    ) -> List[Finding]:
        fired = []
        for worker in heartbeats:
            if worker.get("state") != "running":
                continue
            started = worker.get("started")
            if not started:
                continue
            age = now - started
            if age <= self.config.stall_s:
                continue
            fired.append(
                self._record(
                    rule="worker_stall",
                    subject=f"worker:{worker.get('pid')}",
                    level="warning",
                    message=(
                        f"worker {worker.get('pid')} has been running cell "
                        f"{worker.get('cell')!r} for {age:.1f}s "
                        f"(threshold {self.config.stall_s:.0f}s)"
                    ),
                    value=age,
                    now=now,
                    detail={
                        "pid": worker.get("pid"),
                        "cell": worker.get("cell"),
                        "attempt": worker.get("attempt"),
                        "running_s": round(age, 3),
                    },
                )
            )
        return fired

    def _check_retry_burn(self, sample, now: float) -> List[Finding]:
        delta = sample.counters.get("parallel.retries", 0)
        interval = max(sample.interval, 1e-6)
        per_min = 60.0 * delta / interval
        if delta == 0 or per_min <= self.config.retries_per_min:
            return []
        return [
            self._record(
                rule="retry_burn",
                subject="retries",
                level="warning",
                message=(
                    f"cell retries burning at {per_min:.1f}/min "
                    f"(threshold {self.config.retries_per_min:.1f}/min) — "
                    f"retry budget exhaustion likely"
                ),
                value=per_min,
                now=now,
                detail={"retries_delta": delta,
                        "per_min": round(per_min, 2),
                        "interval_s": round(interval, 3)},
            )
        ]

    def _check_quarantine(
        self, totals: Dict[str, dict], now: float
    ) -> List[Finding]:
        absorbed = totals.get("quarantine.events", {}).get("value", 0)
        if absorbed < self.config.quarantine_events:
            return []
        return [
            self._record(
                rule="event_quarantine",
                subject="quarantine",
                level="warning",
                message=(
                    f"{absorbed} poison event(s) quarantined — detection "
                    f"continued but skipped raising records; see the "
                    f"report's quarantine block"
                ),
                value=float(absorbed),
                now=now,
                detail={"events": absorbed},
            )
        ]

    # -- finding bookkeeping -------------------------------------------

    def _record(
        self,
        rule: str,
        subject: str,
        level: str,
        message: str,
        value: float,
        now: float,
        detail: dict,
    ) -> Finding:
        key = (rule, subject)
        finding = self._findings.get(key)
        if finding is None:
            finding = Finding(
                rule=rule,
                subject=subject,
                level=level,
                message=message,
                first_seen=now,
                last_seen=now,
                worst=value,
                detail=detail,
            )
            self._findings[key] = finding
            getattr(logger, level, logger.warning)(
                "health: %s", message
            )
        else:
            finding.last_seen = now
            finding.count += 1
            finding.message = message
            finding.detail = detail
            if value > finding.worst:
                finding.worst = value
        return finding

    # -- reporting ------------------------------------------------------

    @property
    def findings(self) -> List[Finding]:
        return [
            self._findings[key] for key in sorted(self._findings)
        ]

    @property
    def status(self) -> str:
        return "warn" if self._findings else "ok"

    def health_block(self) -> dict:
        """The machine-readable ``health`` section for reports."""
        return {
            "status": self.status,
            "ticks": self.ticks,
            "rules": self.config.as_dict(),
            "findings": [finding.as_dict() for finding in self.findings],
        }
