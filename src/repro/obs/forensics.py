"""Race forensics: why did (or didn't) the detector report that race?

A :class:`RaceRecord` names the racing instruction and classifies the race
— but the *provenance* of the verdict lives in state the detector threw
away: the metadata words the Table 2 checks compared, the interleaving
that put them there, and the lock-inference decisions that shaped the
lockset.  This module reconstructs all of it **from a recorded trace**
(:mod:`repro.engine.replay` — replay, not re-simulation): a
:class:`ForensicProbe` rides a replayed iGUARD via the detector's probe
hooks and, for every race matching the requested site, captures

- the **racing instruction pair**: the reporting instruction plus the
  previous conflicting access to the same granule (with thread/warp/block
  identities for both);
- the **metadata word history** of the granule — the packed
  accessor/writer words before the check, fully decoded field by field,
  plus the recent transitions that produced them;
- the **Table 2 condition** that fired (R1-R5, derived from the race
  classification) with the paper's description;
- the **lock-inference timeline** (CAS inserts, fence activations, EXCH
  releases, per-thread-locking inference) up to the racing access;
- a sliding **instruction window** of the accesses and synchronization
  operations leading up to the race.

``iguard-experiments explain <race-site>`` is the CLI front-end
(:func:`main`); :func:`explain_trace` / :func:`explain_workload` are the
library entry points.
"""

from __future__ import annotations

import argparse
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.metadata import ACCESSOR_WORD, WRITER_WORD
from repro.core.report import RaceRecord, RaceType
from repro.obs.log import get_logger, output

#: Which Table 2 race condition produces each classification, with the
#: paper's description (section 6.4 / Table 2).
CONDITION_OF: Dict[RaceType, Tuple[str, str]] = {
    RaceType.ATOMIC_SCOPE: (
        "R1", "insufficiently scoped atomic: the granule is used with "
        "block-scope atomics but the conflicting accesses come from "
        "different threadblocks"),
    RaceType.ITS: (
        "R2", "intra-warp race under independent thread scheduling: same "
        "warp, not converged, no syncwarp and no intervening fence by the "
        "previous thread"),
    RaceType.INTRA_BLOCK: (
        "R3", "intra-threadblock race: same block, no intervening "
        "syncthreads and no intervening fence"),
    RaceType.INTER_BLOCK: (
        "R4", "inter-threadblock (device) race: different blocks and the "
        "previous thread executed no device-scope fence since its access"),
    RaceType.IMPROPER_LOCKING: (
        "R5", "improper locking (lockset): locks are in use for this "
        "granule but the previous and current lock sets do not intersect"),
}


def _decode_word(struct, word: int) -> Dict[str, int]:
    """Field-by-field decode of one packed metadata word."""
    return {
        f.name: f.extract(word) for f in struct.fields if f.name != "Unused"
    }


@dataclass(frozen=True)
class WindowEntry:
    """One instruction in the sliding pre-race window."""

    seq: int
    ip: str
    op: str  # "load" / "store" / "atomic:add" / "sync:fence" / ...
    address: Optional[int]
    warp_id: int
    lane: int
    batch: int


@dataclass(frozen=True)
class LockTimelineEntry:
    """One lock-inference step (CAS insert / fence activate / EXCH release)."""

    seq: int
    action: str
    ip: str
    warp_id: int
    lane: int
    detail: str


@dataclass(frozen=True)
class MetadataTransition:
    """One metadata update of the racing granule: words before → after."""

    seq: int
    ip: str
    op: str
    accessor_before: int
    writer_before: int
    accessor_after: int
    writer_after: int
    outcome: str  # "P1".."P6", "R1".."R5", or "updated"


@dataclass
class RaceForensics:
    """Everything reconstructed about one reported race."""

    seed: int
    record: RaceRecord
    condition: str
    condition_text: str
    current_ip: str
    previous_ip: Optional[str]
    accessor_word_before: int
    writer_word_before: int
    accessor_fields: Dict[str, int] = field(default_factory=dict)
    writer_fields: Dict[str, int] = field(default_factory=dict)
    window: List[WindowEntry] = field(default_factory=list)
    lock_timeline: List[LockTimelineEntry] = field(default_factory=list)
    metadata_history: List[MetadataTransition] = field(default_factory=list)


class ForensicProbe:
    """Detector probe collecting per-access provenance during replay.

    Attach with ``detector.probe = probe``; the detector invokes the
    ``on_*`` hooks inline (they only run when a probe is set, so normal
    runs pay a single ``is not None`` test per event).
    """

    def __init__(self, site: str = "", window: int = 16, history: int = 8):
        #: Substring of the racing ip to match ("" matches every race).
        self.site = site
        self.seed = 0
        self.reports: List[RaceForensics] = []
        self._seq = 0
        self._window: Deque[WindowEntry] = deque(maxlen=window)
        self._locks: List[LockTimelineEntry] = []
        self._history: Dict[int, Deque[MetadataTransition]] = {}
        self._history_depth = history
        #: Last access per granule, for naming the racing pair's other half.
        self._last_access: Dict[int, WindowEntry] = {}
        #: Race(s) reported by the check currently in flight.
        self._pending: List[RaceRecord] = []
        self._pre_words: Dict[int, Tuple[int, int]] = {}

    # -- detector hooks -------------------------------------------------

    def on_check(self, event, granule: int, accessor_word: int, writer_word: int) -> None:
        """Called before the Table 2 checks with the pre-check words."""
        self._seq += 1
        self._pre_words[granule] = (accessor_word, writer_word)
        op = event.kind.value
        if event.atomic_op is not None:
            op = f"atomic:{event.atomic_op.value}"
        self._window.append(WindowEntry(
            seq=self._seq,
            ip=event.ip,
            op=op,
            address=event.address,
            warp_id=event.where.warp_id,
            lane=event.where.lane,
            batch=event.batch,
        ))

    def on_race(self, record: RaceRecord) -> None:
        """Called by the detector's ``report_race`` for every dynamic race."""
        self._pending.append(record)

    def on_outcome(
        self,
        event,
        granule: int,
        passed: Optional[str],
        race_type: Optional[RaceType],
        accessor_word: int,
        writer_word: int,
    ) -> None:
        """Called after write-back; finalizes history and pending races."""
        pre_acc, pre_wr = self._pre_words.pop(granule, (0, 0))
        outcome = passed or (str(race_type and CONDITION_OF[race_type][0]) if race_type else "updated")
        history = self._history.get(granule)
        if history is None:
            history = deque(maxlen=self._history_depth)
            self._history[granule] = history
        entry = self._window[-1] if self._window else None
        history.append(MetadataTransition(
            seq=self._seq,
            ip=event.ip,
            op=entry.op if entry is not None else event.kind.value,
            accessor_before=pre_acc,
            writer_before=pre_wr,
            accessor_after=accessor_word,
            writer_after=writer_word,
            outcome=outcome,
        ))
        for record in self._pending:
            if self.site and self.site not in record.ip:
                continue
            previous = self._last_access.get(granule)
            condition, text = CONDITION_OF[record.race_type]
            self.reports.append(RaceForensics(
                seed=self.seed,
                record=record,
                condition=condition,
                condition_text=text,
                current_ip=record.ip,
                previous_ip=previous.ip if previous is not None else None,
                accessor_word_before=pre_acc,
                writer_word_before=pre_wr,
                accessor_fields=_decode_word(ACCESSOR_WORD, pre_acc),
                writer_fields=_decode_word(WRITER_WORD, pre_wr),
                window=list(self._window),
                lock_timeline=list(self._locks),
                metadata_history=list(history),
            ))
        self._pending.clear()
        if self._window:
            self._last_access[granule] = self._window[-1]

    def on_lock(self, action: str, event, detail: str = "") -> None:
        """Called on lock-inference steps (CAS/EXCH/fence activation)."""
        self._seq += 1
        self._locks.append(LockTimelineEntry(
            seq=self._seq,
            action=action,
            ip=event.ip,
            warp_id=event.where.warp_id,
            lane=event.where.lane,
            detail=detail,
        ))

    def on_sync(self, event) -> None:
        """Called on synchronization operations, for the window timeline."""
        self._seq += 1
        self._window.append(WindowEntry(
            seq=self._seq,
            ip=event.ip,
            op=f"sync:{event.kind.value}",
            address=None,
            warp_id=event.where.warp_id,
            lane=event.where.lane,
            batch=event.batch,
        ))


# ---------------------------------------------------------------------------
# Replay-driven explanation
# ---------------------------------------------------------------------------


def explain_trace(
    trace,
    site: str = "",
    window: int = 16,
    config=None,
) -> List[RaceForensics]:
    """Replay a recorded trace and reconstruct every race matching ``site``.

    Pure replay: the trace fully determines the event stream, so the
    forensic detector observes exactly the execution that was recorded.
    """
    from repro.core.config import DEFAULT_CONFIG
    from repro.core.detector import IGuard
    from repro.engine.replay import ReplayDevice, replay
    from repro.errors import TimeoutError_
    from repro.workloads.base import SIM_GPU

    gpu = trace.gpu_config or SIM_GPU
    reports: List[RaceForensics] = []
    for seed, events in trace.runs():
        device = ReplayDevice(gpu)
        probe = ForensicProbe(site=site, window=window)
        probe.seed = seed
        tool = IGuard(config=config or DEFAULT_CONFIG)
        tool.probe = probe
        device.add_tool(tool)
        try:
            replay(events, device=device)
        except TimeoutError_:
            pass  # races up to the timeout stand, like the live runner's
        reports.extend(probe.reports)
    return reports


def explain_workload(
    name: str,
    site: str = "",
    seeds=None,
    window: int = 16,
) -> List[RaceForensics]:
    """Capture ``name``'s trace once, then :func:`explain_trace` it."""
    from repro.engine.replay import capture_workload
    from repro.workloads import get_workload

    workload = get_workload(name)
    trace = capture_workload(workload, seeds=seeds)
    return explain_trace(trace, site=site, window=window)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _fields_line(fields: Dict[str, int]) -> str:
    return " ".join(f"{k}={v}" for k, v in fields.items())


def forensics_to_dict(forensics: RaceForensics) -> dict:
    """The machine-readable form of one reconstructed race.

    Deterministic for a pinned (workload, seed): replay fully determines
    the event stream, so this is golden-file testable.  Metadata words
    render as fixed-width hex strings (JSON numbers would lose the
    visual field alignment and risk 2**63 precision traps downstream).
    """
    record = forensics.record
    return {
        "seed": forensics.seed,
        "race": {
            "type": str(record.race_type),
            "kernel": record.kernel,
            "ip": record.ip,
            "access": record.access,
            "address": f"0x{record.address:x}",
            "location": record.location,
            "warp_id": record.warp_id,
            "lane": record.lane,
            "block_id": record.block_id,
            "prev_warp_id": record.prev_warp_id,
            "prev_lane": record.prev_lane,
        },
        "condition": forensics.condition,
        "condition_text": forensics.condition_text,
        "racing_pair": {
            "current_ip": forensics.current_ip,
            "previous_ip": forensics.previous_ip,
        },
        "metadata_words": {
            "accessor": f"0x{forensics.accessor_word_before:016x}",
            "writer": f"0x{forensics.writer_word_before:016x}",
            "accessor_fields": dict(forensics.accessor_fields),
            "writer_fields": dict(forensics.writer_fields),
        },
        "metadata_history": [
            {
                "seq": tr.seq,
                "ip": tr.ip,
                "op": tr.op,
                "accessor_before": f"0x{tr.accessor_before:016x}",
                "writer_before": f"0x{tr.writer_before:016x}",
                "accessor_after": f"0x{tr.accessor_after:016x}",
                "writer_after": f"0x{tr.writer_after:016x}",
                "outcome": tr.outcome,
            }
            for tr in forensics.metadata_history
        ],
        "lock_timeline": [
            {
                "seq": entry.seq,
                "action": entry.action,
                "ip": entry.ip,
                "warp_id": entry.warp_id,
                "lane": entry.lane,
                "detail": entry.detail,
            }
            for entry in forensics.lock_timeline
        ],
        "window": [
            {
                "seq": entry.seq,
                "ip": entry.ip,
                "op": entry.op,
                "address": (
                    f"0x{entry.address:x}"
                    if entry.address is not None
                    else None
                ),
                "warp_id": entry.warp_id,
                "lane": entry.lane,
                "batch": entry.batch,
            }
            for entry in forensics.window
        ],
    }


def render_json(reports: List[RaceForensics], shown: int) -> str:
    """The ``--format json`` document: schema header + report list."""
    import json

    document = {
        "schema": 1,
        "generated_by": "repro.obs.forensics",
        "matched": len(reports),
        "reports": [
            forensics_to_dict(forensics) for forensics in reports[:shown]
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def render_report(forensics: RaceForensics) -> str:
    """The human-readable explain report for one reconstructed race."""
    record = forensics.record
    lines = [
        f"RACE [{record.race_type}] at {record.ip} (seed {forensics.seed})",
        f"  kernel: {record.kernel}    location: {record.location} "
        f"(0x{record.address:x})",
        "",
        "  racing instruction pair:",
        f"    current : {forensics.current_ip} ({record.access}) by "
        f"w{record.warp_id}.t{record.lane} (block {record.block_id})",
        f"    previous: {forensics.previous_ip or '<unknown>'} by "
        f"w{record.prev_warp_id}.t{record.prev_lane}",
        "",
        "  metadata words before the check:",
        f"    accessor = 0x{forensics.accessor_word_before:016x}  "
        f"[{_fields_line(forensics.accessor_fields)}]",
        f"    writer   = 0x{forensics.writer_word_before:016x}  "
        f"[{_fields_line(forensics.writer_fields)}]",
        "",
        f"  fired condition: {forensics.condition} — {forensics.condition_text}",
    ]
    if forensics.metadata_history:
        lines += ["", "  metadata transitions of the racing granule:"]
        for tr in forensics.metadata_history:
            lines.append(
                f"    #{tr.seq:<6} {tr.op:<12} {tr.ip:<28} "
                f"acc 0x{tr.accessor_before:016x}->0x{tr.accessor_after:016x} "
                f"[{tr.outcome}]"
            )
    if forensics.lock_timeline:
        lines += ["", "  lock-inference timeline:"]
        for entry in forensics.lock_timeline:
            detail = f" ({entry.detail})" if entry.detail else ""
            lines.append(
                f"    #{entry.seq:<6} {entry.action:<14} "
                f"w{entry.warp_id}.t{entry.lane} at {entry.ip}{detail}"
            )
    else:
        lines += ["", "  lock-inference timeline: (no lock activity observed)"]
    if forensics.window:
        lines += ["", "  instruction window before the race:"]
        for entry in forensics.window:
            addr = f"0x{entry.address:x}" if entry.address is not None else "-"
            lines.append(
                f"    #{entry.seq:<6} b{entry.batch:<7} "
                f"w{entry.warp_id}.t{entry.lane}  {entry.op:<12} {addr:<12} "
                f"{entry.ip}"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI: iguard-experiments explain <race-site>
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    from repro.obs import (
        add_observability_args,
        begin_observability,
        finalize_observability,
    )

    parser = argparse.ArgumentParser(
        prog="iguard-experiments explain",
        description="Reconstruct a race's provenance from a recorded trace.",
    )
    parser.add_argument(
        "site",
        nargs="?",
        default="",
        metavar="RACE-SITE",
        help="racing instruction to explain (substring of the reported "
             "ip; default: every race in the trace)",
    )
    parser.add_argument(
        "--workload", default=None, metavar="NAME",
        help="Table 4 workload to capture a trace from",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="previously recorded trace (.jsonl / .jsonl.gz) to replay",
    )
    parser.add_argument(
        "--seeds", default=None, metavar="S1,S2",
        help="scheduler seeds when capturing (default: the workload's)",
    )
    parser.add_argument(
        "--window", type=int, default=16,
        help="instruction-window length in the report (default 16)",
    )
    parser.add_argument(
        "--max-reports", type=int, default=4,
        help="print at most this many reconstructed races (default 4)",
    )
    parser.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="output format: human-readable text (default) or a "
             "machine-readable JSON document on stdout",
    )
    add_observability_args(parser)
    args = parser.parse_args(argv)
    begin_observability(args)
    logger = get_logger("forensics")

    if bool(args.workload) == bool(args.trace):
        parser.error("exactly one of --workload or --trace is required")

    if args.trace:
        from repro.engine.trace import Trace

        logger.info("replaying recorded trace %s", args.trace)
        trace = Trace.load(args.trace)
        reports = explain_trace(trace, site=args.site, window=args.window)
    else:
        seeds = (
            tuple(int(s) for s in args.seeds.split(",")) if args.seeds else None
        )
        logger.info("capturing %s, then explaining via replay", args.workload)
        reports = explain_workload(
            args.workload, site=args.site, seeds=seeds, window=args.window
        )

    finalize_observability(args)
    if not reports:
        if args.format == "json":
            output(render_json([], 0))
        target = args.site or "<any>"
        logger.warning("no race matching %r was reported during replay", target)
        return 1
    if args.format == "json":
        output(render_json(reports, max(1, args.max_reports)))
        return 0
    shown = reports[: max(1, args.max_reports)]
    for index, forensics in enumerate(shown):
        if index:
            output("")
        output(render_report(forensics))
    if len(reports) > len(shown):
        output(
            f"\n({len(reports) - len(shown)} further dynamic race(s) "
            f"matched; raise --max-reports to see them)"
        )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
