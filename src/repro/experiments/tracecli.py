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

    trace = capture_workload(get_workload(args.workload), seeds=args.seeds)
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


def _cmd_replay(args) -> int:
    from repro.engine.replay import replay_workload
    from repro.engine.trace import Trace
    from repro.workloads.runner import detector_factory, write_report

    trace = Trace.load(args.path)
    result = replay_workload(
        trace, detector_factory(args.detector), args.workload_name
    )
    # The runner's report writer: a replay writes the file a live run
    # of the same workload writes.
    write_report(result, args.report_json, get_logger("trace"))
    return 0


def main(argv=None) -> int:
    from repro.workloads.registry import seed_list, workload_name

    parser = argparse.ArgumentParser(
        prog="iguard-experiments trace",
        description="Capture, convert, inspect and replay trace files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    capture = sub.add_parser(
        "capture", help="record a workload's event stream to a trace file"
    )
    capture.add_argument(
        "--workload", required=True, metavar="NAME", type=workload_name,
        help="a Table 4/5 workload name (see repro.workloads.REGISTRY)",
    )
    capture.add_argument(
        "--out", required=True, metavar="PATH",
        help="output trace (.ctr, or .ctr.gz gzipped)",
    )
    capture.add_argument(
        "--seeds", default=None, metavar="S1,S2", type=seed_list,
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
