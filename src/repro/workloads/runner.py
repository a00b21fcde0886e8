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

Seeds run serially, in order: each (workload, detector, seed) cell runs
on a fresh device (:func:`_run_one_seed` → a :class:`SeedOutcome`) and
:func:`_merge_outcomes` folds the outcomes into one result.  The
per-seed status ladder, :func:`_run_seed`, is shared with
:func:`repro.engine.replay.replay_workload`, whose seeds are replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import (
    DeadlockError,
    OutOfMemoryError,
    TimeoutError_,
    UnsupportedFeatureError,
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

    ``overhead`` is None when the device completed no kernel runs (the
    seed failed before any launch finished).
    """

    status: str = "ok"
    detail: str = ""
    sites: Dict[str, str] = field(default_factory=dict)
    overhead: Optional[float] = None
    native_time: float = 0.0
    total_time: float = 0.0
    breakdown: dict = field(default_factory=dict)


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
    tool = device.add_tool(tool_factory()) if tool_factory else None
    outcome = _run_seed(device, tool, lambda: workload.run(device, seed))
    if TRACER.enabled:
        TRACER.add_complete(
            f"seed:{workload.name}:{detector_name(tool_factory)}:s{seed}",
            span_start,
            now_us() - span_start,
            cat="seed",
            tid=TRACER.tid_for("seeds"),
            args={"status": outcome.status},
        )
    return outcome


def _run_seed(device, tool, drive: Callable[[], object]) -> SeedOutcome:
    """Run one seed's ``drive`` — an execution or a replay — to an outcome.

    The status ladder: an unsupported feature or an OOM discards the
    seed, a timeout keeps the races and timing up to it, and a deadlock
    (a racy kernel's legitimate outcome) keeps them with a ``detail``.
    Races come from ``tool`` and timing from ``device.runs``.
    """
    status, detail = "ok", ""
    try:
        drive()
    except UnsupportedFeatureError as exc:
        return SeedOutcome(status="unsupported", detail=str(exc))
    except OutOfMemoryError as exc:
        return SeedOutcome(status="oom", detail=str(exc))
    except TimeoutError_ as exc:
        status, detail = "timeout", str(exc)
    except DeadlockError as exc:
        detail = f"deadlock: {exc}"
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
        for run in device.runs:
            for category, time in run.timing.snapshot().items():
                outcome.breakdown[category] = (
                    outcome.breakdown.get(category, 0.0) + time
                )
    return outcome


def _merge_outcomes(
    workload_name: str,
    detector: str,
    outcomes: Iterable[SeedOutcome],
) -> WorkloadResult:
    """Fold per-seed outcomes into one result, in seed order.

    ``unsupported`` and ``oom`` abort immediately and discard earlier
    seeds; ``timeout`` keeps that seed's races/timing and stops consuming
    further seeds (with a lazy iterable, later seeds never run); a
    deadlock only annotates ``detail``.
    """
    sites: Dict[str, str] = {}
    overheads: List[float] = []
    native_times: List[float] = []
    total_times: List[float] = []
    breakdown: dict = {}
    status, detail = "ok", ""

    for outcome in outcomes:
        if outcome.status in ("unsupported", "oom"):
            return WorkloadResult(
                workload=workload_name,
                detector=detector,
                status=outcome.status,
                detail=outcome.detail,
            )
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
    )


def binary_refusal(
    workload: Workload, detector: str
) -> Optional[WorkloadResult]:
    """The ``unsupported`` result if ``detector`` cannot run ``workload``.

    Barracuda executes PTX embedded in the binary; real-world multi-file
    libraries defeat that, so it cannot run them at all (section 7.1).
    Live runs and replays (:func:`repro.engine.replay.replay_workload`)
    both apply this check before any seed runs.
    """
    if workload.complex_binary and detector in ("Barracuda", "CURD"):
        return WorkloadResult(
            workload=workload.name,
            detector=detector,
            status="unsupported",
            detail="cannot embed a single PTX file for a multi-file library",
        )
    return None


def run_workload(
    workload: Workload,
    tool_factory: ToolFactory = None,
    config: GPUConfig = SIM_GPU,
    seeds=None,
) -> WorkloadResult:
    """Execute ``workload`` under a detector built by ``tool_factory``.

    ``tool_factory`` of None runs natively (no detection).  Each seed gets
    a fresh device and a fresh tool; race sites are unioned across seeds
    and timing is averaged.
    """
    seeds = tuple(seeds) if seeds is not None else workload.seeds
    name = detector_name(tool_factory)
    refusal = binary_refusal(workload, name)
    if refusal is not None:
        return refusal
    # Lazy: a timeout at seed k stops the merge, so later seeds never run.
    outcomes = (
        _run_one_seed(workload, tool_factory, config, seed) for seed in seeds
    )
    return _merge_outcomes(workload.name, name, outcomes)


def run_suite(requests, config: GPUConfig = SIM_GPU) -> List[WorkloadResult]:
    """Run many (workload, tool_factory, seeds) cells, in request order.

    ``requests`` is a sequence of ``(workload, tool_factory, seeds)``
    tuples (``seeds`` of None means the workload's pinned seeds).
    """
    return [
        run_workload(workload, tool_factory, config=config, seeds=seeds)
        for workload, tool_factory, seeds in requests
    ]


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
    scheduler, bus, detector — which makes it the CI anchor for
    ``--metrics-out``/``--trace-out`` artifact validation.
    """
    import argparse

    from repro.obs import (
        add_observability_args,
        begin_observability,
        finalize_observability,
    )
    from repro.obs.log import get_logger
    from repro.workloads.registry import seed_list, workload_name

    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.runner",
        description="Run one workload under one detector.",
    )
    parser.add_argument(
        "--workload", required=True, metavar="NAME", type=workload_name,
        help="a Table 4/5 workload name (see repro.workloads.REGISTRY)",
    )
    parser.add_argument(
        "--detector", default="iguard",
        choices=["iguard", "barracuda", "scord", "curd", "fasttrack", "native"],
    )
    parser.add_argument(
        "--report-json", default=None, metavar="PATH",
        help="write the merged result (status, sites, timing) as "
             "canonical JSON to PATH",
    )
    parser.add_argument(
        "--seeds", default=None, metavar="S1,S2", type=seed_list,
        help="scheduler seeds (default: the workload's pinned seeds)",
    )
    add_observability_args(parser)
    args = parser.parse_args(argv)
    begin_observability(args)
    logger = get_logger("runner")

    from repro.obs.log import log_run_config
    from repro.workloads.registry import get_workload

    workload = get_workload(args.workload)
    log_run_config(backend=args.detector, logger=logger)
    result = run_workload(
        workload, detector_factory(args.detector), seeds=args.seeds
    )
    write_report(result, args.report_json, logger)
    finalize_observability(args)
    return 0


def detector_factory(detector: str) -> ToolFactory:
    """The factory behind a ``--detector`` name of the runner's CLIs."""
    from repro.baselines import Barracuda, CURD, FastTrack, ScoRD
    from repro.core.detector import IGuard

    return {
        "iguard": IGuard,
        "barracuda": Barracuda,
        "scord": ScoRD,
        "curd": CURD,
        "fasttrack": FastTrack,
        "native": None,
    }[detector]


def write_report(result: WorkloadResult, path: Optional[str], logger) -> None:
    """Print a merged result and, with ``path``, write it as canonical
    JSON: the report writer of the runner and ``trace replay``."""
    import json

    from repro.faults import quarantine
    from repro.obs.log import output

    output(
        f"{result.workload} under {result.detector}: "
        f"status={result.status} races={result.races} "
        f"overhead={result.overhead:.2f}x"
    )
    for ip, race_type in result.race_sites:
        output(f"  [{race_type}] {ip}")
    if result.detail:
        logger.info("detail: %s", result.detail)
    quarantine_block = quarantine.report_block()
    if quarantine_block is not None:
        logger.warning(
            "quarantine: %d poison event(s) absorbed",
            quarantine_block["events"],
        )
    if not path:
        return
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
    if quarantine_block is not None:
        payload["quarantine"] = quarantine_block
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    import sys

    sys.exit(main())
