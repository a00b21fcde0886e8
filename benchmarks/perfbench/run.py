"""Benchmark of the iGUARD reproduction: one workload per run.

Run from the repository root::

    python3 benchmarks/perfbench/run.py --workload table-live --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs a separate traced pass through the per-layer ledger and
reports per-layer metrics.  The program is driven only through its public
functions, in this one process and thread.  Every cell's report is
checked against ``expected.json``; the run prints each metric with its
unit, writes the full result to ``out/``, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Exit status: 0 when
every check passed, 1 when a check failed, 2 when the run was refused
(environment or missing sources), 3 when the result failed its schema.
"""

from __future__ import annotations

import time

#: Set-up time starts here, before any program module is imported.
_STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from typing import Dict, List

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: Seed whose generated inputs ``expected.json`` pins.
DEFAULT_SEED = 1
#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: Root spans of a cell: everything else in a cell runs beneath one.
ROOT_ENTRIES = ("runner:runner.run_workload", "sharding:sharding.replay_columnar_sharded")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Run:
    """State of one benchmark run: cells, checks, and their outcomes."""

    def __init__(self, workload, seed: int, expected: dict):
        self.workload = workload
        self.seed = seed
        section = expected[workload.pin_section]
        self.pins = section if (not workload.generated or seed == DEFAULT_SEED) else {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.first: Dict[str, object] = {}  # key -> warm-up outcome

    def check(self, cell, outcome) -> None:
        """Gate one execution: its pin, or else its own warm-up outcome."""
        self.attempted += 1
        pin = self.pins.get(cell.key)
        if pin is None and cell.key in self.first:
            pin = vars(self.first[cell.key])
        problems = harness.check_outcome(outcome, pin, self.workload.generated)
        if problems:
            self.failed += 1
            self.problems.extend(f"{cell.key}: {p}" for p in problems)

    def execute(self, cell):
        """One untimed execution, checked; returns its outcome."""
        try:
            outcome = cell.harvest(cell.drive())
        except Exception as exc:  # a cell must not take the run down
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{cell.key}: raised {exc!r}")
            return None
        self.check(cell, outcome)
        return outcome

    def timed(self, cells, seconds: float, min_rounds: int, on_outcome=None):
        """best_of_rounds over ``cells`` with every execution checked."""

        def on_result(index, raw, elapsed):
            outcome = cells[index].harvest(raw)
            self.check(cells[index], outcome)
            if on_outcome is not None:
                on_outcome(index, outcome, elapsed)

        return harness.best_of_rounds(cells, seconds, on_result, min_rounds)


def _setup(workload, seed: int, workdir: str, run: Run):
    """SETUP_REPS set-ups; returns (prepared, seconds per rep)."""
    prepared, seconds = None, []
    for _ in range(SETUP_REPS):
        begin = time.perf_counter()
        again = workload.prepare(seed, workdir)
        seconds.append(time.perf_counter() - begin)
        if prepared is not None and again.digest != prepared.digest:
            run.problems.append("set-up: inputs differ between set-ups of one seed")
            run.failed += 1
        prepared = again
    return prepared, seconds


def _warm_up(cells, run: Run) -> float:
    begin = time.perf_counter()
    for cell in cells:
        outcome = run.execute(cell)
        if outcome is not None:
            run.first[cell.key] = outcome
    return time.perf_counter() - begin


def _end_to_end(run: Run, cells, seconds: float):
    best, rounds = run.timed(cells, seconds, min_rounds=2)
    outcomes = [run.first[c.key] for c in cells]
    events = sum(o.events for o in outcomes)
    ms = [b * 1e3 for b in best]
    metrics = {
        "events_per_s": _metric(events / sum(best), "events/s"),
        "report_ms_p50": _metric(harness.percentile(ms, 0.5), "ms"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
        ),
        "sim_overhead_x": _metric(
            harness.geomean([o.total_cycles / o.native_cycles for o in outcomes]),
            "x",
        ),
    }
    details = {"samples": {"report_ms_p50": len(ms)}}
    if len(ms) >= 100:
        # p90 leaves >= 10 samples beyond it only from 100 cells up.
        metrics["report_ms_p90"] = _metric(harness.percentile(ms, 0.9), "ms")
        details["samples"]["report_ms_p90"] = len(ms)
    return metrics, details, rounds


class _Variant:
    """One cell under one mode of a traced run.

    Modes interleave cell by cell, so host speed drifts hit them alike;
    the mode switch (installing the ledger, enabling the metrics
    registry) happens in ``enter``/``leave``, outside the timed region.
    """

    def __init__(self, cell, mode: str, ledger):
        self.cell = cell
        self.mode = mode
        self.key = cell.key
        self.harvest = cell.harvest
        self._ledger = ledger

    def enter(self) -> None:
        from repro.obs import metrics as obs_metrics

        if self.mode == "traced":
            self._ledger.install()
        elif self.mode == "registry":
            obs_metrics.set_enabled(True)

    def leave(self) -> None:
        from repro.obs import metrics as obs_metrics

        if self.mode == "traced":
            self._ledger.uninstall()
        elif self.mode == "registry":
            obs_metrics.set_enabled(False)

    def drive(self):
        return self.cell.drive()


def _per_layer(run: Run, cells, seconds: float, prepared, setup_accounts, out_dir):
    import ledger as ledger_mod

    # The registry-on mode reproduces the registry's cost on the registry
    # cells only; generated workloads measure untraced vs traced.
    modes = ("untraced", "traced") + (() if run.workload.generated else ("registry",))
    ledger = ledger_mod.Ledger()
    variants = []
    for cell in cells:
        traced = (
            type(cell)(cell.key, ledger.wrap_workload(cell.workload), cell.seed)
            if cell.kind == "live" else cell
        )
        variants.extend(
            _Variant(traced if mode == "traced" else cell, mode, ledger)
            for mode in modes
        )
    per_cell: Dict[str, dict] = {}
    outcomes = []

    def record(index, outcome, elapsed):
        if variants[index].mode != "traced":
            return
        cell = per_cell.setdefault(
            variants[index].key, {"executions": 0, "wall_ns": 0, "entries": {}}
        )
        cell["executions"] += 1
        cell["wall_ns"] += int(elapsed * 1e9)
        ledger_mod.merge(cell["entries"], ledger.take())
        outcomes.append(outcome)

    best, rounds = run.timed(variants, seconds, min_rounds=1, on_outcome=record)
    seconds_by_mode = {
        mode: sum(best[i::len(modes)]) for i, mode in enumerate(modes)
    }
    accounts: Dict[str, list] = {}
    for cell in per_cell.values():
        ledger_mod.merge(accounts, cell["entries"])
    wall_ns = sum(c["wall_ns"] for c in per_cell.values())
    traced_events = sum(o.events for o in outcomes)

    metrics = _layer_metrics(
        accounts, wall_ns, traced_events, outcomes, rounds, prepared,
        setup_accounts,
    )
    untraced = seconds_by_mode["untraced"]
    metrics["trace.overhead_pct"] = _metric(
        (seconds_by_mode["traced"] / untraced - 1) * 100, "%"
    )
    if "registry" in seconds_by_mode:
        metrics["obs.registry_overhead_pct"] = _metric(
            (seconds_by_mode["registry"] / untraced - 1) * 100, "%"
        )
    spans_path = os.path.join(
        out_dir, f"{run.workload.name}-s{run.seed}-spans.json"
    )
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"workload": run.workload.name, "seed": run.seed,
             "account": ["calls", "self_ns", "total_ns"],
             "setup": setup_accounts, "cells": per_cell},
            handle, indent=1, sort_keys=True,
        )
    return metrics, rounds, spans_path


def _layer_metrics(accounts, wall_ns, events, outcomes, rounds, prepared, setup):
    import ledger as ledger_mod

    def self_ns(*entries):
        return sum(accounts.get(e, (0, 0, 0))[1] for e in entries)

    def calls(*entries):
        return sum(accounts.get(e, (0, 0, 0))[0] for e in entries)

    m = {}
    layers = ledger_mod.by_layer(accounts)
    for name, (_, layer_self, _) in layers.items():
        m[f"{name}.self_ns_per_event"] = _metric(layer_self / events, "ns/event")
        m[f"{name}.share"] = _metric(layer_self / wall_ns, "fraction")
    root_ns = sum(accounts.get(e, (0, 0, 0))[2] for e in ROOT_ENTRIES)
    m["ledger.unattributed_share"] = _metric((wall_ns - root_ns) / wall_ns, "fraction")

    stats = [s for o in outcomes for s in o.stats]
    runs = [r for o in outcomes for r in o.runs]
    checks = sum(s.accesses_checked for s in stats)

    def per_pass(total):
        return _metric(total / rounds, "count")

    m["gpu.instructions"] = per_pass(sum(r.instructions for r in runs))
    m["gpu.batches"] = per_pass(sum(r.batches for r in runs))
    m["gpu.launches"] = per_pass(len(runs))
    m["bus.publishes"] = per_pass(layers["bus"][0])
    launch_entries = [
        f"detector:IGuard.{n}" for n in ("on_launch_begin", "on_launch_end", "on_timeout")
    ]
    m["detector.launch_us"] = _metric(self_ns(*launch_entries) / len(stats) / 1e3, "us")
    m["detector.coalesced_frac"] = _metric(
        sum(s.accesses_coalesced for s in stats) / events, "fraction"
    )
    m["detector.contention_cycles"] = _metric(
        sum(s.contention_cycles for s in stats) / rounds, "cycles"
    )
    m["detector.uvm_faults"] = per_pass(sum(s.uvm_faults for s in stats))
    check_entries = [f"engine:IGuardCore.{n}" for n in ("handle", "check_run", "drain_batch")]
    sync_entries = [f"engine:IGuardCore.{n}" for n in ("apply_sync", "infer_locks")]
    m["engine.ns_per_check"] = _metric(self_ns(*check_entries) / checks, "ns")
    m["engine.sync_ns_per_event"] = _metric(
        self_ns(*sync_entries) / max(1, calls(*sync_entries)), "ns"
    )
    m["engine.checks"] = per_pass(checks)
    m["engine.elided_frac"] = _metric(
        sum(s.accesses_elided for s in stats) / checks, "fraction"
    )
    m["engine.metadata_entries"] = _metric(
        max(s.metadata_entries for s in stats), "count"
    )
    routed = [sum(col) for col in zip(*(o.shard_routed for o in outcomes))]
    # A single-shard detector routes nothing: trivially balanced.
    imbalance = max(routed) * len(routed) / sum(routed) if sum(routed) else 1.0
    m["sharding.imbalance"] = _metric(imbalance, "ratio")
    m["sharding.max_queue_depth"] = _metric(
        max(o.queue_depth for o in outcomes), "count"
    )
    decode = [e for e in accounts if ledger_mod.layer_of(e) == "coltrace"]
    m["coltrace.decode_ns_per_event"] = _metric(self_ns(*decode) / events, "ns/event")
    encoded = max(1, prepared.encoded_events * SETUP_REPS)
    m["coltrace.encode_ns_per_event"] = _metric(
        setup.get("coltrace:Trace.save", (0, 0, 0))[1] / encoded, "ns/event"
    )
    m["coltrace.bytes_per_event"] = _metric(
        prepared.encoded_bytes / max(1, prepared.encoded_events), "bytes/event"
    )
    m["replay.capture_s"] = _metric(
        setup.get("replay:replay.capture_workload", (0, 0, 0))[2] / SETUP_REPS / 1e9, "s"
    )
    m["report.records"] = per_pass(calls("report:RaceLog.report"))
    return m


def _contract_metrics(metrics: dict, mode: str) -> dict:
    """The metrics BENCHMARK.json names for this mode, units cross-checked."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)["end_to_end" if mode == "untraced" else "per_layer"]
    selected = {}
    for entry in spec:
        metric = metrics[entry["name"]]
        if metric["unit"] != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {metric['unit']} != {entry['unit']}")
        selected[entry["name"]] = metric
    return selected


def _render(doc: dict) -> List[str]:
    head = (
        f"{doc['workload']} seed={doc['seed']} mode={doc['mode']} "
        f"cells={doc['cells']} rounds={doc['rounds']} "
        f"events/pass={doc['events']}"
    )
    lines = [head]
    samples = doc["details"].get("samples", {})
    for name, metric in doc["metrics"].items():
        note = f"  (n={samples[name]} cells)" if name in samples else ""
        lines.append(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}{note}")
    lines.append(f"  checks failed on {doc['failed']} of {doc['attempted']} executions")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refused = harness.environment_problems(os.environ)
    if refused:
        print(f"refusing to run: {', '.join(refused)} set", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"refusing to run: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import cells as cells_mod
    from benchmarks.validate_schema import validate
    from repro.obs import metrics as obs_metrics
    from repro.obs.spans import TRACER

    import_s = time.perf_counter() - _STARTED

    workload = cells_mod.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"--workload must be one of {', '.join(cells_mod.WORKLOADS)}")
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        run = Run(workload, args.seed, json.load(handle))
    mode = "traced" if args.trace else "untraced"
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(workdir)
    try:
        setup_accounts: Dict[str, list] = {}
        if args.trace:
            import ledger as ledger_mod

            with ledger_mod.Ledger() as setup_ledger:
                prepared, setup_reps = _setup(workload, args.seed, workdir, run)
            setup_accounts = setup_ledger.take()
        else:
            prepared, setup_reps = _setup(workload, args.seed, workdir, run)
        order = list(range(len(prepared.cells)))
        random.Random(args.seed).shuffle(order)
        cells = [prepared.cells[i] for i in order]
        warmup_s = _warm_up(cells, run)
        if obs_metrics.metrics_enabled() or TRACER.enabled:
            # Set-up must leave the program uninstrumented: the registry
            # alone costs the live path about a sixth of its speed.
            print("refusing to run: metrics registry or span tracer is on "
                  "after set-up (IGUARD_METRICS / IGUARD_TRACE)", file=sys.stderr)
            return 2
        if len(run.first) != len(cells):  # a cell raised: nothing to time
            for problem in run.problems[:20]:
                print(f"CHECK FAILED {problem}")
            print(json.dumps({"correct": False, "attempted": run.attempted,
                              "failed": run.failed, "metrics": {}}))
            return 1
        events = sum(run.first[c.key].events for c in cells)
        union = {}
        if not workload.generated:
            from repro.workloads.registry import REGISTRY

            union["table4_races"], problems = harness.union_races(run.first, REGISTRY)
            run.problems.extend(problems)
        if args.trace:
            metrics, rounds, spans_path = _per_layer(
                run, cells, args.seconds, prepared, setup_accounts, out_dir
            )
            details = {"spans": os.path.relpath(spans_path, ROOT)}
        else:
            metrics, details, rounds = _end_to_end(run, cells, args.seconds)
            metrics["setup_s"] = _metric(import_s + statistics.median(setup_reps), "s")
            metrics["fail_rate"] = _metric(run.failed / run.attempted, "fraction")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details.update(
        union,
        import_s=import_s, setup_reps_s=setup_reps, warmup_s=warmup_s,
        problems=run.problems[:50],
    )
    doc = {
        "workload": args.workload, "mode": mode, "seed": args.seed,
        "seconds": args.seconds, "rounds": rounds, "cells": len(cells),
        "events": events,
        "env": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": harness.git_sha(ROOT),
            "platform": platform.platform(),
        },
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted, "failed": run.failed,
        "metrics": metrics, "details": details,
    }
    with open(os.path.join(HERE, "result.schema.json"), encoding="utf-8") as handle:
        errors = validate(doc, json.load(handle))
    if errors:
        print("\n".join(f"result schema: {e}" for e in errors), file=sys.stderr)
        return 3
    result_path = os.path.join(out_dir, f"{args.workload}-s{args.seed}-{mode}.json")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
    for line in _render(doc):
        print(line)
    for problem in run.problems[:20]:
        print(f"  CHECK FAILED {problem}")
    line = {k: doc[k] for k in ("correct", "attempted", "failed")}
    line["metrics"] = _contract_metrics(metrics, mode)
    print(json.dumps(line))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
