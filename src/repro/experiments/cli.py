"""Command-line entry point: ``iguard-experiments [name ...]``.

Runs the requested experiments (default: all of them) and prints the
paper-style tables.  Available names: table1, table4, table5, figure11,
figure12, figure13, figure14, motivation.

Non-experiment subcommands ride the same entry point:

- ``iguard-experiments explain <race-site>`` — race forensics: replay a
  recorded trace and reconstruct why a race was reported
  (:mod:`repro.obs.forensics`);
- ``iguard-experiments trace <capture|convert|info|replay>`` — tooling
  for the columnar ``.ctr`` / ``.ctr.gz`` trace container
  (:mod:`repro.experiments.tracecli`);
- ``iguard-experiments fuzz`` / ``iguard-experiments minimize`` — the
  differential fuzz campaign, triage-corpus replay, and ddmin
  re-minimization (:mod:`repro.faults.fuzz`), whose fourth leg compares
  iGUARD with the reference detector (:mod:`repro.core.reference`) one
  checked access at a time;
- the observability flags (``--log-level``, ``--metrics-out``,
  ``--trace-out``) apply to any experiment run.

A torn or missing trace file, or a path without a ``.ctr`` / ``.ctr.gz``
extension, ends ``explain`` and ``trace`` with exit code 2 and a
one-line message on stderr rather than a traceback.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import ConfigError, TraceCorruptionError
from repro.experiments import ALL_EXPERIMENTS
from repro.obs import (
    add_observability_args,
    begin_observability,
    finalize_observability,
)
from repro.obs.log import get_logger, output

#: Functions ``--profile`` prints per experiment, by cumulative time.
PROFILE_TOP = 25


def _read_trace_or_exit(entry, argv, salvage: bool) -> int:
    """Run a trace-reading subcommand; a bad trace file exits 2 in one line.

    ``salvage`` says whether the subcommand takes ``--salvage``, which
    the message then suggests for a corrupt trace.
    """
    try:
        return entry(argv)
    except TraceCorruptionError as exc:
        message = str(exc)
        if salvage and "--salvage" not in argv:
            message += "; rerun with --salvage to recover the intact prefix"
    except (ConfigError, OSError) as exc:
        message = str(exc)
    print(f"error: {' '.join(message.split())}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "explain":
        # Forensics has its own argument surface; dispatch before the
        # experiment parser can reject its options.
        from repro.obs.forensics import main as explain_main

        return _read_trace_or_exit(explain_main, argv[1:], salvage=False)
    if argv and argv[0] == "trace":
        # Trace capture/convert/info/replay, same early dispatch.
        from repro.experiments.tracecli import main as trace_main

        return _read_trace_or_exit(
            trace_main, argv[1:], salvage=argv[1:2] in (["convert"], ["info"])
        )
    if argv and argv[0] == "fuzz":
        # Differential fuzz campaign / corpus replay, same early dispatch.
        from repro.faults.fuzz import main as fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "minimize":
        # ddmin re-minimization of a triage-corpus entry.
        from repro.faults.fuzz import minimize_main

        return minimize_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="iguard-experiments",
        description="Regenerate the iGUARD paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="NAME",
        help=f"experiments to run (default: all); one of "
             f"{', '.join(ALL_EXPERIMENTS)}, or the 'explain'/'trace'/"
             f"'fuzz'/'minimize' subcommands (see e.g. "
             f"'iguard-experiments fuzz --help')",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=f"run under cProfile and print the top {PROFILE_TOP} "
             f"functions by cumulative time after each experiment",
    )
    add_observability_args(parser)
    args = parser.parse_args(argv)
    begin_observability(args)
    logger = get_logger("cli")
    names = args.experiments or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    for name in names:
        module = ALL_EXPERIMENTS[name]
        logger.debug("starting experiment %s", name)
        started = time.time()
        if args.profile:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            module.main()
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.strip_dirs().sort_stats("cumulative")
            output(f"\n--- cProfile: {name} (top {PROFILE_TOP}) ---")
            stats.print_stats(PROFILE_TOP)
        else:
            module.main()
        # The completion line is part of the CLI's stdout contract
        # (tests and drivers grep for it), so it stays on the result
        # channel rather than the stderr log.
        output(f"\n[{name} completed in {time.time() - started:.1f}s]\n")
    finalize_observability(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
