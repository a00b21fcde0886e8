"""Command-line entry point: ``iguard-experiments [name ...]``.

Runs the requested experiments (default: all of them) and prints the
paper-style tables.  Available names: table1, table4, table5, figure11,
figure12, figure13, figure14, motivation.

Two non-experiment subcommands ride the same entry point:

- ``iguard-experiments explain <race-site>`` — race forensics: replay a
  recorded trace and reconstruct why a race was reported
  (:mod:`repro.obs.forensics`);
- ``iguard-experiments trace <capture|convert|info|replay>`` — trace
  container tooling for both on-disk formats, JSONL and columnar
  (:mod:`repro.experiments.tracecli`);
- ``iguard-experiments fuzz`` / ``iguard-experiments minimize`` — the
  differential fuzz campaign, triage-corpus replay, and ddmin
  re-minimization (:mod:`repro.faults.fuzz`);
- ``iguard-experiments lint <workload|--all>`` — static race analysis
  over workload kernels, with fix hints and a JSON report
  (:mod:`repro.analysis.lint`);
- the observability flags (``--log-level``, ``--metrics-out``,
  ``--trace-out``) apply to any experiment run.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from repro.experiments import ALL_EXPERIMENTS
from repro.obs import (
    add_observability_args,
    begin_observability,
    finalize_observability,
)
from repro.obs.log import get_logger, output


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "explain":
        # Forensics has its own argument surface; dispatch before the
        # experiment parser can reject its options.
        from repro.obs.forensics import main as explain_main

        return explain_main(argv[1:])
    if argv and argv[0] == "trace":
        # Trace capture/convert/info/replay, same early dispatch.
        from repro.experiments.tracecli import main as trace_main

        return trace_main(argv[1:])
    if argv and argv[0] == "fuzz":
        # Differential fuzz campaign / corpus replay, same early dispatch.
        from repro.faults.fuzz import main as fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "minimize":
        # ddmin re-minimization of a triage-corpus entry.
        from repro.faults.fuzz import minimize_main

        return minimize_main(argv[1:])
    if argv and argv[0] == "lint":
        # Static race analysis over workload kernels.
        from repro.analysis.lint import main as lint_main

        return lint_main(argv[1:])

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
             f"'fuzz'/'lint' subcommands (see e.g. "
             f"'iguard-experiments lint --help')",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for experiments whose suite executor "
             "supports parallel fan-out (default: 1)",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="inject worker faults via an IGUARD_CHAOS spec, e.g. "
             "'crash=0.25,hang=0.1,seed=11' (see repro.faults.chaos)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SEC",
        help="hard per-cell timeout for the suite executor: kill and "
             "retry cells running longer than SEC seconds",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="journal completed suite cells to PATH (crash-safe resume)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="serve cells already journaled in --checkpoint instead of "
             "re-running them (byte-identical merged results)",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const=25,
        default=None,
        type=int,
        metavar="N",
        help="run under cProfile and print the top N functions by "
             "cumulative time after each experiment (default N: 25)",
    )
    add_observability_args(parser)
    args = parser.parse_args(argv)
    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint")
    # Chaos/timeout/checkpoint arm process-wide state the suite executor
    # consults, so no experiment driver needs new parameters.
    if args.chaos is not None:
        import os

        from repro.faults import chaos as chaos_module

        os.environ[chaos_module.ENV_VAR] = args.chaos
    if args.cell_timeout is not None:
        import os

        from repro.engine.parallel import CELL_TIMEOUT_ENV

        os.environ[CELL_TIMEOUT_ENV] = str(args.cell_timeout)
    if args.checkpoint:
        from repro.engine import checkpoint as ckpt

        ckpt.set_active(ckpt.CellJournal(args.checkpoint, resume=args.resume))
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

        def run_experiment(module=module):
            # Experiment mains grew an argv parameter as they gained
            # flags; the rest keep their zero-argument signature.
            if "argv" in inspect.signature(module.main).parameters:
                module.main(["--workers", str(args.workers)])
            else:
                module.main()

        if args.profile:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            run_experiment()
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.strip_dirs().sort_stats("cumulative")
            output(f"\n--- cProfile: {name} (top {args.profile}) ---")
            stats.print_stats(args.profile)
        else:
            run_experiment()
        # The completion line is part of the CLI's stdout contract
        # (tests and drivers grep for it), so it stays on the result
        # channel rather than the stderr log.
        output(f"\n[{name} completed in {time.time() - started:.1f}s]\n")
    finalize_observability(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
