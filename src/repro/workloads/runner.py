"""Run workloads under detectors, with the paper's failure modes intact.

``run_workload`` executes a workload's host driver on a fresh simulated
device, optionally with a detector attached, and returns a
:class:`~repro.workloads.base.WorkloadResult`:

- races are collected as unique sites, unioned over the workload's pinned
  scheduler seeds (schedule exploration, like rerunning the real tool);
- Barracuda's limitations surface as result statuses: ``unsupported``
  (scoped atomics, or a multi-file library whose PTX cannot be embedded),
  ``timeout`` (CPU-side processing exceeding its budget — the paper's
  "did not terminate"), and ``oom`` (the 50% buffer reservation);
- overheads come from the run's timing breakdown (averaged over seeds).

Execution and merging are separate stages: each (workload, detector,
seed) cell runs independently (:func:`_run_one_seed` → a picklable
:class:`SeedOutcome`) and :func:`_merge_outcomes` folds the outcomes into
one result with the exact semantics the old serial loop had.  That split
is what lets ``workers > 1`` fan cells out over processes
(:func:`repro.engine.parallel.parallel_map`) and still merge
deterministically — same seeds, same sites, same timing, any worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.engine import checkpoint as ckpt
from repro.engine.parallel import parallel_map
from repro.errors import (
    DeadlockError,
    OutOfMemoryError,
    RetryExhaustedError,
    TimeoutError_,
    UnsupportedFeatureError,
    WorkerCrashError,
)
from repro.gpu.arch import GPUConfig
from repro.gpu.device import Device
from repro.instrument.nvbit import Tool
from repro.obs.metrics import HOT
from repro.obs.spans import TRACER, now_us
from repro.workloads.base import SIM_GPU, Workload, WorkloadResult

ToolFactory = Optional[Callable[[], Tool]]


def detector_name(tool_factory: ToolFactory) -> str:
    """The detector name a factory will produce, without instantiating it.

    Detector factories are normally the Tool subclasses themselves
    (``IGuard``, ``Barracuda``), whose ``name`` is a class attribute;
    building a throwaway instance just to read it would allocate detector
    state for nothing.  Opaque callables fall back to one instantiation.
    """
    if tool_factory is None:
        return "native"
    name = getattr(tool_factory, "name", None)
    if isinstance(name, str):
        return name
    return tool_factory().name


@dataclass
class SeedOutcome:
    """What one (workload, detector, seed) cell produced.

    A plain picklable record, so cells can execute in worker processes
    and be merged by the parent.  ``overhead`` is None when the device
    completed no kernel runs (the seed failed before any launch
    finished).
    """

    status: str = "ok"
    detail: str = ""
    sites: Dict[str, str] = field(default_factory=dict)
    overhead: Optional[float] = None
    native_time: float = 0.0
    total_time: float = 0.0
    breakdown: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _SeedTask:
    """One executable cell of a suite: picklable worker-process input."""

    workload: Workload
    tool_factory: ToolFactory
    config: GPUConfig
    seed: int

    def __str__(self) -> str:
        """Readable cell label for stall warnings and trace span names."""
        return (
            f"{self.workload.name}:{detector_name(self.tool_factory)}"
            f":s{self.seed}"
        )


def _run_seed_task(task: _SeedTask) -> SeedOutcome:
    """Module-level trampoline so Pool.map can pickle the callable."""
    return _run_one_seed(task.workload, task.tool_factory, task.config, task.seed)


def _run_one_seed(
    workload: Workload,
    tool_factory: ToolFactory,
    config: GPUConfig,
    seed: int,
) -> SeedOutcome:
    """Execute one seed on a fresh device and collect its outcome."""
    if HOT.enabled:
        HOT.runner_cells.inc()
    span_start = now_us() if TRACER.enabled else 0.0
    device = Device(config)
    tool = None
    if tool_factory is not None:
        tool = device.add_tool(tool_factory())
    status, detail = "ok", ""
    try:
        workload.run(device, seed)
    except UnsupportedFeatureError as exc:
        return SeedOutcome(status="unsupported", detail=str(exc))
    except OutOfMemoryError as exc:
        return SeedOutcome(status="oom", detail=str(exc))
    except TimeoutError_ as exc:
        status, detail = "timeout", str(exc)
    except DeadlockError as exc:
        # A racy kernel deadlocking is a legitimate observation; the
        # detector's races up to that point stand.
        detail = f"deadlock: {exc}"
    if TRACER.enabled:
        TRACER.add_complete(
            f"seed:{workload.name}:{detector_name(tool_factory)}:s{seed}",
            span_start,
            now_us() - span_start,
            cat="seed",
            tid=TRACER.tid_for("seeds"),
            args={"status": status},
        )
    return _collect_outcome(device, tool, status, detail)


def _collect_outcome(device, tool, status: str, detail: str) -> SeedOutcome:
    """Harvest races and timing from a finished (or timed-out) seed."""
    outcome = SeedOutcome(status=status, detail=detail)
    races = getattr(tool, "races", None)
    if races is not None:
        for ip, race_type in races.sites():
            outcome.sites[ip] = str(race_type)
    if device.runs:
        native = sum(r.native_time for r in device.runs)
        total = sum(r.total_time for r in device.runs)
        outcome.overhead = total / native if native > 0 else 1.0
        outcome.native_time = native
        outcome.total_time = total
        outcome.breakdown = _sum_breakdowns(device)
    return outcome


def _merge_outcomes(
    workload_name: str,
    detector: str,
    outcomes: Iterable[SeedOutcome],
) -> WorkloadResult:
    """Fold per-seed outcomes into one result, in seed order.

    Semantics match the historical serial loop exactly: ``unsupported``
    and ``oom`` abort immediately and discard earlier seeds; ``timeout``
    keeps that seed's races/timing and stops consuming further seeds
    (with a lazy iterable, later seeds are never even executed); a
    deadlock only annotates ``detail``.  ``failed`` outcomes (cells lost
    to worker crashes / exhausted retries) are collected into
    ``failed_cells`` and the merged status degrades to ``partial``.
    """
    sites: Dict[str, str] = {}
    overheads: List[float] = []
    native_times: List[float] = []
    total_times: List[float] = []
    breakdown: dict = {}
    failed: List[str] = []
    status, detail = "ok", ""

    for outcome in outcomes:
        if outcome.status in ("unsupported", "oom"):
            return WorkloadResult(
                workload=workload_name,
                detector=detector,
                status=outcome.status,
                detail=outcome.detail,
            )
        if outcome.status == "failed":
            # A crashed/retry-exhausted cell: keep merging the seeds that
            # did complete and surface the loss as a partial result.
            failed.append(outcome.detail)
            continue
        if outcome.detail:
            detail = outcome.detail
        if outcome.status == "timeout":
            status = "timeout"
        sites.update(outcome.sites)
        if outcome.overhead is not None:
            overheads.append(outcome.overhead)
            native_times.append(outcome.native_time)
            total_times.append(outcome.total_time)
            breakdown = outcome.breakdown
        if status == "timeout":
            break

    if failed and status == "ok":
        status = "partial"
    return WorkloadResult(
        workload=workload_name,
        detector=detector,
        status=status,
        races=len(sites),
        race_types=frozenset(sites.values()),
        race_sites=tuple(sorted(sites.items())),
        overhead=sum(overheads) / len(overheads) if overheads else 1.0,
        native_time=sum(native_times) / len(native_times) if native_times else 0.0,
        total_time=sum(total_times) / len(total_times) if total_times else 0.0,
        breakdown=breakdown,
        detail=detail,
        failed_cells=tuple(failed),
    )


def _unsupported_binary(workload: Workload, detector: str) -> WorkloadResult:
    return WorkloadResult(
        workload=workload.name,
        detector=detector,
        status="unsupported",
        detail="cannot embed a single PTX file for a multi-file library",
    )


def _run_tasks(
    tasks: List[_SeedTask],
    workers: int,
    journal: Optional[ckpt.CellJournal],
    cell_timeout: Optional[float],
) -> List[SeedOutcome]:
    """Execute seed cells in parallel, serving/recording the journal.

    Journaled cells never reach a worker; missing cells are fanned out
    and recorded durably as each completes, so an interrupted run resumes
    from exactly the cells it finished.
    """
    keys = [
        ckpt.cell_key(
            t.workload.name, detector_name(t.tool_factory), t.seed, t.config
        )
        for t in tasks
    ]
    outcomes: List[Optional[SeedOutcome]] = [None] * len(tasks)
    submit: List[int] = []
    for index, key in enumerate(keys):
        if journal is not None and key in journal:
            outcomes[index] = ckpt.decode_outcome(journal.get(key))
        else:
            submit.append(index)

    def _journal_result(position: int, outcome: SeedOutcome) -> None:
        if journal is not None:
            journal.record(keys[submit[position]], ckpt.encode_outcome(outcome))

    try:
        fresh = parallel_map(
            _run_seed_task,
            [tasks[i] for i in submit],
            workers,
            hard_timeout=cell_timeout,
            on_result=_journal_result,
        )
    except (RetryExhaustedError, WorkerCrashError) as exc:
        # Degrade, don't die: cells that completed before the failure
        # stand (already journaled), the missing ones become "failed"
        # outcomes the merge surfaces as a partial result with a
        # failed_cells block.
        partial = getattr(exc, "partial_results", {})
        fresh = [partial.get(position) for position in range(len(submit))]
        for position, outcome in enumerate(fresh):
            if outcome is None:
                fresh[position] = SeedOutcome(
                    status="failed",
                    detail=f"{tasks[submit[position]]}: {exc}",
                )
    for position, outcome in zip(submit, fresh):
        outcomes[position] = outcome
    return outcomes


def _lazy_outcomes(
    workload: Workload,
    tool_factory: ToolFactory,
    config: GPUConfig,
    seeds,
    journal: Optional[ckpt.CellJournal],
) -> Iterable[SeedOutcome]:
    """Serial seed outcomes, lazily, served from/recorded to the journal.

    Lazy matters: a timeout at seed k stops later seeds from ever
    running, exactly as the historical loop's ``break`` did — a resumed
    run therefore re-derives the identical early stop.
    """
    detector = detector_name(tool_factory)
    for seed in seeds:
        key = ckpt.cell_key(workload.name, detector, seed, config)
        if journal is not None and key in journal:
            yield ckpt.decode_outcome(journal.get(key))
            continue
        outcome = _run_one_seed(workload, tool_factory, config, seed)
        if journal is not None:
            journal.record(key, ckpt.encode_outcome(outcome))
        yield outcome


def run_workload(
    workload: Workload,
    tool_factory: ToolFactory = None,
    config: GPUConfig = SIM_GPU,
    seeds=None,
    workers: int = 1,
    cell_timeout: Optional[float] = None,
    journal: Optional[ckpt.CellJournal] = None,
) -> WorkloadResult:
    """Execute ``workload`` under a detector built by ``tool_factory``.

    ``tool_factory`` of None runs natively (no detection).  Each seed gets
    a fresh device and a fresh tool; race sites are unioned across seeds
    and timing is averaged.  With ``workers > 1`` the seeds run in
    parallel processes; the merged result is identical to the serial one.
    ``cell_timeout`` kills and retries stuck seed cells (parallel path);
    ``journal`` (default: the ambient :func:`repro.engine.checkpoint`
    journal) records completed cells for crash-safe ``--resume``.
    """
    seeds = tuple(seeds) if seeds is not None else workload.seeds
    name = detector_name(tool_factory)
    if journal is None:
        journal = ckpt.active_journal()

    # Barracuda executes PTX embedded in the binary; real-world multi-file
    # libraries defeat that, so it cannot run them at all (section 7.1).
    if workload.complex_binary and name in ("Barracuda", "CURD"):
        return _unsupported_binary(workload, name)

    if workers > 1 and len(seeds) > 1:
        tasks = [
            _SeedTask(workload, tool_factory, config, seed) for seed in seeds
        ]
        outcomes: Iterable[SeedOutcome] = _run_tasks(
            tasks, workers, journal, cell_timeout
        )
    else:
        outcomes = _lazy_outcomes(
            workload, tool_factory, config, seeds, journal
        )
    return _merge_outcomes(workload.name, name, outcomes)


def run_suite(
    requests,
    workers: int = 1,
    config: GPUConfig = SIM_GPU,
    cell_timeout: Optional[float] = None,
    journal: Optional[ckpt.CellJournal] = None,
) -> List[WorkloadResult]:
    """Run many (workload, tool_factory, seeds) cells, optionally parallel.

    ``requests`` is a sequence of ``(workload, tool_factory, seeds)``
    tuples (``seeds`` of None means the workload's pinned seeds).  Results
    come back in request order.  With ``workers > 1``, *all* requests'
    seed cells are flattened into one task list and fanned out together,
    so parallelism crosses request boundaries — the useful shape for the
    experiment drivers, whose cells are many small independent runs.

    ``journal`` (default: the ambient :mod:`repro.engine.checkpoint`
    journal armed by ``--checkpoint``) serves completed cells from disk
    and records fresh ones, making interrupted suite runs resumable with
    byte-identical merged results.
    """
    expanded = [
        (
            workload,
            tool_factory,
            tuple(seeds) if seeds is not None else workload.seeds,
        )
        for workload, tool_factory, seeds in requests
    ]
    if journal is None:
        journal = ckpt.active_journal()
    if workers <= 1:
        return [
            run_workload(
                workload, tool_factory, config=config, seeds=seeds,
                cell_timeout=cell_timeout, journal=journal,
            )
            for workload, tool_factory, seeds in expanded
        ]

    tasks: List[_SeedTask] = []
    plan: List[Tuple] = []
    for workload, tool_factory, seeds in expanded:
        name = detector_name(tool_factory)
        if workload.complex_binary and name in ("Barracuda", "CURD"):
            plan.append(("done", _unsupported_binary(workload, name)))
            continue
        start = len(tasks)
        tasks.extend(
            _SeedTask(workload, tool_factory, config, seed) for seed in seeds
        )
        plan.append(("merge", workload.name, name, start, len(seeds)))

    outcomes = _run_tasks(tasks, workers, journal, cell_timeout)

    results: List[WorkloadResult] = []
    for entry in plan:
        if entry[0] == "done":
            results.append(entry[1])
        else:
            _, workload_name, name, start, count = entry
            results.append(
                _merge_outcomes(
                    workload_name, name, outcomes[start : start + count]
                )
            )
    return results


def _sum_breakdowns(device: Device) -> dict:
    """Aggregate per-category times over all kernel launches of a run."""
    totals: dict = {}
    for run in device.runs:
        for category, time in run.timing.snapshot().items():
            totals[category] = totals.get(category, 0.0) + time
    return totals


def measured_overhead(
    workload: Workload,
    tool_factory: ToolFactory,
    config: GPUConfig = SIM_GPU,
    seeds=None,
) -> float:
    """Convenience: the detector's slowdown factor for one workload."""
    result = run_workload(workload, tool_factory, config=config, seeds=seeds)
    return result.overhead


# ---------------------------------------------------------------------------
# CLI: run one suite cell with full observability
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    """``python -m repro.workloads.runner``: one (workload, detector) cell.

    The smallest entry point that exercises the whole pipeline — device,
    scheduler, bus, detector, parallel fan-out — which makes it the CI
    anchor for ``--metrics-out``/``--trace-out`` artifact validation.
    """
    import argparse

    from repro.obs import (
        add_observability_args,
        begin_observability,
        finalize_observability,
    )
    from repro.obs.log import get_logger, output

    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.runner",
        description="Run one workload under one detector.",
    )
    parser.add_argument(
        "--workload", required=True, metavar="NAME",
        help="a Table 4/5 workload name (see repro.workloads.REGISTRY)",
    )
    parser.add_argument(
        "--detector", default="iguard",
        choices=["iguard", "barracuda", "scord", "curd", "fasttrack", "native"],
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="fan seed cells out over N worker processes",
    )
    parser.add_argument(
        "--report-json", default=None, metavar="PATH",
        help="write the merged result (status, sites, timing) as "
             "canonical JSON to PATH",
    )
    parser.add_argument(
        "--seeds", default=None, metavar="S1,S2",
        help="scheduler seeds (default: the workload's pinned seeds)",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SEC",
        help="hard per-cell timeout: kill and retry a seed cell running "
             "longer than SEC seconds (default: IGUARD_CELL_TIMEOUT or none)",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="journal completed cells to PATH for crash-safe --resume",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="serve cells already journaled in --checkpoint instead of "
             "re-running them (byte-identical merged results)",
    )
    add_observability_args(parser)
    args = parser.parse_args(argv)
    if args.resume and not args.checkpoint:
        parser.error("--resume requires --checkpoint")
    begin_observability(args)
    logger = get_logger("runner")

    from repro.baselines import Barracuda, CURD, FastTrack, ScoRD
    from repro.core.detector import IGuard
    from repro.obs.log import log_run_config
    from repro.workloads.registry import get_workload

    factory: ToolFactory = {
        "iguard": IGuard,
        "barracuda": Barracuda,
        "scord": ScoRD,
        "curd": CURD,
        "fasttrack": FastTrack,
        "native": None,
    }[args.detector]
    workload = get_workload(args.workload)
    seeds = (
        tuple(int(s) for s in args.seeds.split(",")) if args.seeds else None
    )
    journal = (
        ckpt.CellJournal(args.checkpoint, resume=args.resume)
        if args.checkpoint
        else None
    )
    log_run_config(
        backend=args.detector, workers=args.workers, logger=logger
    )
    result = run_workload(
        workload, factory, seeds=seeds, workers=args.workers,
        cell_timeout=args.cell_timeout, journal=journal,
    )
    output(
        f"{result.workload} under {result.detector}: "
        f"status={result.status} races={result.races} "
        f"overhead={result.overhead:.2f}x"
    )
    for ip, race_type in result.race_sites:
        output(f"  [{race_type}] {ip}")
    if result.detail:
        logger.info("detail: %s", result.detail)
    for cell in result.failed_cells:
        logger.error("failed cell: %s", cell)
    from repro.faults import quarantine

    quarantine_block = quarantine.report_block()
    if quarantine_block is not None:
        logger.warning(
            "quarantine: %d poison event(s) absorbed",
            quarantine_block["events"],
        )
    if args.report_json:
        import json

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
        if result.failed_cells:
            payload["failed_cells"] = list(result.failed_cells)
        if quarantine_block is not None:
            payload["quarantine"] = quarantine_block
        with open(args.report_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    finalize_observability(args)
    # Exit 3 is the "partial report emitted" code: some cells were lost
    # to crashes/retry exhaustion but the merged report above is valid
    # for everything that completed.
    return 3 if result.failed_cells else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
