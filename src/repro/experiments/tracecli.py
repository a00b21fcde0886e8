"""Trace tooling: ``iguard-experiments trace <capture|convert|info|replay>``.

The subcommands over the columnar trace container of
:mod:`repro.engine.coltrace` (``.ctr``, or ``.ctr.gz`` gzipped — chosen
by the file extension):

- ``capture`` — run a workload natively and record its event stream;
- ``convert`` — rewrite a trace between ``.ctr`` and ``.ctr.gz``, or
  recover a corrupt one's intact prefix with ``--salvage``;
- ``info`` — summarize a trace file (events by type, runs, device);
- ``replay`` — run a detector over a trace file and print (or write as
  canonical JSON) the merged workload report.  The report is
  byte-identical to the live runner's ``--report-json`` for the same
  workload and seeds, which CI's capture-replay-compare step enforces.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs import (
    add_observability_args,
    begin_observability,
    finalize_observability,
)
from repro.obs.log import get_logger, output


def _cmd_capture(args) -> int:
    from repro.engine.replay import capture_workload
    from repro.workloads.registry import get_workload

    workload = get_workload(args.workload)
    seeds = (
        tuple(int(s) for s in args.seeds.split(",")) if args.seeds else None
    )
    trace = capture_workload(workload, seeds=seeds)
    trace.save(args.out)
    output(f"captured {len(trace.events)} events to {args.out}")
    return 0


def _cmd_convert(args) -> int:
    from repro.engine.trace import Trace

    trace = Trace.load(args.src, salvage=args.salvage)
    trace.save(args.dst)
    suffix = ""
    if getattr(trace, "corruption", None) is not None:
        suffix = (
            f" (salvaged prefix; source corrupt: {trace.corruption.reason})"
        )
    output(f"converted {len(trace.events)} events to {args.dst}{suffix}")
    return 0


def _cmd_info(args) -> int:
    from repro.engine.trace import RunMarker, Trace
    from repro.gpu.arch import GPUConfig

    trace = Trace.load(args.path, salvage=args.salvage)
    by_type: dict = {}
    runs = 0
    for event in trace.events:
        by_type[type(event).__name__] = by_type.get(type(event).__name__, 0) + 1
        if isinstance(event, RunMarker):
            runs += 1
    output(f"{args.path}: {len(trace.events)} events, {runs} run(s)")
    for name in sorted(by_type):
        output(f"  {name}: {by_type[name]}")
    config = next(
        (e for e in trace.events if isinstance(e, GPUConfig)), None
    )
    if config is not None:
        output(f"  device: {config.name}")
    if getattr(trace, "corruption", None) is not None:
        output(f"  corruption: {trace.corruption.reason}")
    return 0


def _replay_factory(detector: str):
    if detector == "fasttrack":
        from repro.baselines import FastTrack

        return FastTrack
    from repro.core.detector import IGuard

    return IGuard


def _cmd_replay(args) -> int:
    from repro.engine.replay import replay_workload
    from repro.engine.trace import Trace

    trace = Trace.load(args.path)
    factory = _replay_factory(args.detector)
    result = replay_workload(trace, factory, args.workload_name)
    output(
        f"{result.workload} under {result.detector}: "
        f"status={result.status} races={result.races} "
        f"overhead={result.overhead:.2f}x"
    )
    for ip, race_type in result.race_sites:
        output(f"  [{race_type}] {ip}")
    if args.report_json:
        # The runner's canonical report payload, verbatim: a replay
        # writes the file a live run of the same workload writes.
        payload = {
            "workload": result.workload,
            "detector": result.detector,
            "status": result.status,
            "races": result.races,
            "race_sites": [[ip, t] for ip, t in result.race_sites],
            "overhead": result.overhead,
            "native_time": result.native_time,
            "total_time": result.total_time,
            "breakdown": dict(sorted(result.breakdown.items())),
            "detail": result.detail,
        }
        with open(args.report_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="iguard-experiments trace",
        description="Capture, convert, inspect and replay trace files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    capture = sub.add_parser(
        "capture", help="record a workload's event stream to a trace file"
    )
    capture.add_argument(
        "--workload", required=True, metavar="NAME",
        help="a Table 4/5 workload name (see repro.workloads.REGISTRY)",
    )
    capture.add_argument(
        "--out", required=True, metavar="PATH",
        help="output trace (.ctr, or .ctr.gz gzipped)",
    )
    capture.add_argument(
        "--seeds", default=None, metavar="S1,S2",
        help="scheduler seeds (default: the workload's pinned seeds)",
    )

    convert = sub.add_parser(
        "convert", help="rewrite a trace between .ctr and .ctr.gz"
    )
    convert.add_argument("src", help="source trace file")
    convert.add_argument(
        "dst", help="destination trace file (.ctr or .ctr.gz)"
    )
    convert.add_argument(
        "--salvage", action="store_true",
        help="recover the longest valid prefix of a corrupt source",
    )

    info = sub.add_parser("info", help="summarize a trace file")
    info.add_argument("path", help="trace file to inspect")
    info.add_argument(
        "--salvage", action="store_true",
        help="summarize the recoverable prefix of a corrupt trace",
    )

    replay = sub.add_parser(
        "replay", help="run a detector over a trace file"
    )
    replay.add_argument("path", help="trace file to replay")
    replay.add_argument(
        "--detector", default="iguard", choices=["iguard", "fasttrack"],
    )
    replay.add_argument(
        "--workload-name", default="replay", metavar="NAME",
        help="workload name to stamp into the report",
    )
    replay.add_argument(
        "--report-json", default=None, metavar="PATH",
        help="write the merged result as canonical JSON to PATH",
    )

    for command in (capture, convert, info, replay):
        add_observability_args(command)

    args = parser.parse_args(argv)
    begin_observability(args)
    get_logger("trace")  # configure the facade before any subcommand logs
    handler = {
        "capture": _cmd_capture,
        "convert": _cmd_convert,
        "info": _cmd_info,
        "replay": _cmd_replay,
    }[args.command]
    code = handler(args)
    finalize_observability(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
