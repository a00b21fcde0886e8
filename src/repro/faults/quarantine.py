"""Poison-event quarantine: absorb per-event detector crashes, bounded.

One malformed event in a million-event trace used to abort the whole
replay — the exact failure mode the salvage contract already forbids for
*decoder* corruption.  Quarantine extends that contract to the
*detection* plane: when handling a single event raises an unexpected
exception, the event is recorded and skipped, detection continues on
everything else, and the degradation is surfaced exactly like
``metadata_max_entries`` eviction (HOT counter and a
structured ``quarantine`` block in reports).  A quarantined event can
hide a race on its own granule — bounded recall loss — but can never
invent one.

Wrap points (all per-event):

- :meth:`repro.instrument.nvbit.Tool.feed` — the replay entry of every
  tool that does not override it (stage ``"replay"``);
- :meth:`repro.core.detector.IGuard.feed` — iGUARD's front-end loop,
  which live runs, sliced replays and columnar replays all feed
  (stage ``"drain"``);
- :meth:`repro.core.engine.DetectorCore.handle` and the ``check_run``
  drain loop — the check itself, shared by every backend, so a poison
  event that survives the front end quarantines *identically* in sliced
  and columnar replays (byte-identical reports on all non-quarantined
  records).

Deliberate non-absorptions: every :class:`~repro.errors.ReproError`
(Unsupported/OOM/Timeout/Deadlock are policy signals, corruption and
config errors are contracts) and ``MemoryError`` keep propagating, and
once more than ``IGUARD_QUARANTINE`` events (default 64) have been
absorbed the stream is considered systematically hostile and the
original exception is re-raised — quarantine is a shock absorber, not a
blindfold.

State is process-global (like the HOT recorder): one replay's absorbed
events are visible to the report built right after it.  Callers running
differential legs reset between legs with :func:`reset`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.budget import quarantine_limit
from repro.errors import ReproError
from repro.obs.log import get_logger
from repro.obs.metrics import HOT

#: Exceptions quarantine must never absorb: intentional policy and
#: contract signals (ReproError covers Unsupported/OOM/Timeout/Deadlock/
#: TraceCorruption/Config) plus allocator
#: exhaustion.  BaseExceptions (KeyboardInterrupt, SystemExit) never
#: reach :func:`poison` — wrap points catch ``Exception`` only.
EXEMPT = (ReproError, MemoryError)

#: Structured examples kept for forensics (the counter keeps counting).
MAX_EXAMPLES = 8

logger = get_logger("quarantine")


class _QuarantineState:
    __slots__ = ("events", "kinds", "examples", "_logged")

    def __init__(self):
        self.events = 0
        self.kinds: Dict[str, int] = {}
        self.examples: List[dict] = []
        self._logged: set = set()


_STATE = _QuarantineState()


def poison(event, exc: Exception, stage: str) -> None:
    """Absorb one poison event, or re-raise when it must propagate.

    Called from an ``except Exception as exc:`` handler around one
    event's dispatch.  Returns normally when the event is quarantined
    (caller skips it and continues); re-raises ``exc`` when quarantine
    is disabled, the exception is exempt, or the absorption budget is
    spent.
    """
    limit = quarantine_limit()
    if limit <= 0 or isinstance(exc, EXEMPT):
        raise exc
    state = _STATE
    if state.events >= limit:
        logger.error(
            "quarantine limit %d exhausted at %s; re-raising %s",
            limit, stage, type(exc).__name__,
        )
        raise exc
    state.events += 1
    kind = type(exc).__name__
    state.kinds[kind] = state.kinds.get(kind, 0) + 1
    if len(state.examples) < MAX_EXAMPLES:
        state.examples.append(
            {
                "stage": stage,
                "error": f"{kind}: {exc}"[:300],
                "event": repr(event)[:200],
            }
        )
    if HOT.enabled:
        HOT.quarantined_events.inc()
    if kind not in state._logged:
        state._logged.add(kind)
        logger.warning(
            "quarantined poison event at %s (%s: %s) — detection "
            "continues, recall on this granule may be reduced",
            stage, kind, exc,
        )


def events_absorbed() -> int:
    """Poison events absorbed by this process so far."""
    return _STATE.events


def snapshot() -> dict:
    """Deterministic, mode-agnostic summary for report blocks.

    Deliberately excludes the wrap-point stage: the same poison event
    can surface at a replay entry or at the check core, and the report
    block must stay byte-identical across replay modes.  Stages live in
    the bounded :func:`examples` forensics and the logs.
    """
    return {
        "events": _STATE.events,
        "kinds": {k: _STATE.kinds[k] for k in sorted(_STATE.kinds)},
    }


def examples() -> List[dict]:
    """The first few absorbed events, with stages, for forensics."""
    return [dict(example) for example in _STATE.examples]


def report_block() -> Optional[dict]:
    """The ``quarantine`` report block, or None for a clean run.

    None (not an empty block) keeps clean-run reports byte-identical
    with pre-quarantine ones.
    """
    return snapshot() if _STATE.events else None


def reset() -> None:
    """Forget all absorbed events (test isolation, differential legs)."""
    global _STATE
    _STATE = _QuarantineState()
