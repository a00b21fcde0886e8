"""Resource budgets for adversarial inputs (``IGUARD_MEM_BUDGET`` et al).

A fuzzed or hostile input must never be able to OOM the process: every
unbounded structure the event stream can grow — metadata tables and the
columnar string pool — is capped by an operator-set budget, degrading
exactly like ``IGuardConfig.metadata_max_entries`` does (bounded recall
loss, never a false positive, never an abort).  iGUARD's check queue
needs no budget: it never outlives one pending batch or replay slice
(:data:`repro.engine.replay.PENDING_RECORDS` records) or one decoded
columnar chunk, which the block limits below bound.

Environment knobs (all read per call so tests can monkeypatch):

``IGUARD_MEM_BUDGET``
    Total byte budget for detector metadata growth and the columnar
    writer's string-pool memo.  Accepts a plain byte count or a
    ``k``/``m``/``g`` suffix (``64m``).  Unset or ``0`` = unbounded
    (the historical behavior).
``IGUARD_QUARANTINE``
    Maximum poison events absorbed per process before quarantine gives
    up and lets the exception abort the run (see
    :mod:`repro.faults.quarantine`).  ``0`` disables quarantine.
"""

from __future__ import annotations

import os
from typing import Optional

MEM_BUDGET_VAR = "IGUARD_MEM_BUDGET"
QUARANTINE_VAR = "IGUARD_QUARANTINE"

#: Poison events absorbed before quarantine re-raises (fail loud once a
#: stream is *systematically* poisoned rather than carrying one bad
#: record).
DEFAULT_QUARANTINE_LIMIT = 64

#: Decoder hard ceilings, independent of any budget: one columnar header
#: line (the file header or a chunk header with its string-pool entries)
#: and one columnar numpy block.  Fuzzed headers declaring terabyte blocks
#: must die in the decoder, not in the allocator.
MAX_LINE_BYTES = 8 << 20
MAX_BLOCK_BYTES = 256 << 20
#: String-pool ceilings for the columnar reader (count and total bytes).
MAX_POOL_STRINGS = 1 << 22
MAX_POOL_BYTES = 256 << 20

_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_bytes(spec: str) -> int:
    """Parse ``"1048576"`` / ``"64m"`` / ``"2g"`` into a byte count."""
    text = spec.strip().lower()
    scale = 1
    if text and text[-1] in _SUFFIXES:
        scale = _SUFFIXES[text[-1]]
        text = text[:-1]
    value = int(float(text)) * scale
    if value < 0:
        raise ValueError(f"byte budget cannot be negative: {spec!r}")
    return value


def mem_budget() -> Optional[int]:
    """The ``IGUARD_MEM_BUDGET`` byte budget, or None when unbounded."""
    spec = os.environ.get(MEM_BUDGET_VAR, "").strip()
    if not spec:
        return None
    try:
        value = parse_bytes(spec)
    except ValueError:
        return None
    return value or None


def quarantine_limit() -> int:
    """Poison events absorbed before quarantine re-raises (0 = off)."""
    spec = os.environ.get(QUARANTINE_VAR, "").strip()
    if not spec:
        return DEFAULT_QUARANTINE_LIMIT
    try:
        return max(0, int(spec))
    except ValueError:
        return DEFAULT_QUARANTINE_LIMIT


def line_limit() -> int:
    """Largest columnar header line the decoder will attempt to parse."""
    budget = mem_budget()
    return min(MAX_LINE_BYTES, budget) if budget else MAX_LINE_BYTES


def block_limit() -> int:
    """Largest columnar numpy block the decoder will allocate."""
    budget = mem_budget()
    return min(MAX_BLOCK_BYTES, budget) if budget else MAX_BLOCK_BYTES


def pool_byte_limit() -> int:
    """Largest total string-pool payload the columnar reader accepts."""
    budget = mem_budget()
    return min(MAX_POOL_BYTES, budget) if budget else MAX_POOL_BYTES
