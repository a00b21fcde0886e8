"""The detection-power regression gate: does iGUARD catch injected races?

For each pattern workload the gate runs one *baseline* cell (unmutated —
must report **zero** races, proving the pattern is genuinely race-free)
and one cell per selected mutation (must report at least one race whose
type matches the mutation's annotated Table 2 expectation).  A mutant
whose race goes unreported is a *missed* detection: the gate exits
non-zero and CI fails, which is what makes it a recall regression gate
rather than a demo.

Every cell also runs under the reference detector
(:mod:`repro.core.reference`), which must agree with the mutation's
annotation and label every per-access divergence of iGUARD from it; an
unlabelled divergence fails the gate too.

The report is deliberately timing-free and key-sorted, so two runs of
the same tree produce byte-identical JSON (CI runs the gate twice and
compares the reports).

CLI::

    python -m repro.faults.recall [--workloads a,b] [--mutants N]
        [--seed S] [--json OUT]
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.rng import SplitMix64
from repro.core.reference import diff, live
from repro.errors import DeadlockError, TimeoutError_
from repro.faults.mutators import install
from repro.faults.workloads import FAULT_PATTERNS, PatternWorkload, get_pattern

#: Report schema version (bump on incompatible changes).
#: v3: the reference detector (:mod:`repro.core.reference`) replaces the
#: static analyzer: per-record ``reference_verdict``, ``reference_types``,
#: ``reference_divergences`` and ``reference_ok``, and
#: ``summary.reference_mismatches``.
REPORT_SCHEMA = 3


def _run_recall_cell(pattern: PatternWorkload, spec) -> dict:
    """Run one gate cell over the pattern's pinned seeds; union the races.

    ``spec`` is the cell's mutation, or None for the race-free baseline.
    Every seed runs under iGUARD and under the reference detector, whose
    per-access diff labels every divergence.  Every field of the returned
    record is deterministic in (tree, cell): sites are source positions,
    never timings.
    """
    sites: Dict[str, str] = {}
    reference_sites: Dict[str, str] = {}
    divergences: Dict[str, int] = {}
    # Per seed; both detectors' runs of a seed write the same values.
    applied: Dict[int, int] = {}
    statuses: Dict[int, str] = {}

    def drive(device, seed):
        mutator = install(spec, device) if spec is not None else None
        try:
            pattern.workload.run(device, seed)
        except (DeadlockError, TimeoutError_) as exc:
            # A mutant wedging the kernel is a legitimate outcome; the
            # detector's races up to that point stand.
            statuses[seed] = type(exc).__name__
        if mutator is not None:
            applied[seed] = mutator.applied

    for seed in pattern.workload.seeds:
        iguard, reference = diff(
            live(lambda device, seed=seed: drive(device, seed))
        )
        for ip, race_type in iguard.races.sites():
            sites[ip] = str(race_type)
        for ip, race_type in reference.races.sites():
            reference_sites[ip] = str(race_type)
        for label, _, _, _ in reference.divergences:
            label = label or "unlabelled"
            divergences[label] = divergences.get(label, 0) + 1
    record = {
        "workload": pattern.name,
        "mutation": spec.name if spec is not None else None,
        "status": list(statuses.values())[-1] if statuses else "ok",
        "applied": sum(applied.values()),
        "sites": sorted(sites.items()),
        "types": sorted(set(sites.values())),
    }
    if spec is not None:
        record["condition"] = spec.condition
        record["expected_type"] = spec.expected_type
        record["detected"] = spec.expected_type in record["types"]

    # The reference cross-check: the MutationSpec's race-type annotation
    # is the shared ground truth, so the reference must agree with it, and
    # every divergence of iGUARD from the reference must carry a label.
    types = sorted(set(reference_sites.values()))
    record["reference_verdict"] = "racy" if types else "clean"
    record["reference_types"] = types
    record["reference_divergences"] = dict(sorted(divergences.items()))
    agrees = spec.expected_type in types if spec is not None else not types
    record["reference_ok"] = agrees and "unlabelled" not in divergences
    return record


def select_mutations(
    pattern: PatternWorkload, mutants: Optional[int], seed: int
) -> Tuple:
    """The mutation subset to run: all, or ``mutants`` seeded picks."""
    specs = list(pattern.mutations)
    if mutants is None or mutants >= len(specs):
        return tuple(specs)
    rng = SplitMix64((seed << 16) ^ len(pattern.name))
    picked = []
    pool = list(specs)
    for _ in range(max(mutants, 0)):
        picked.append(pool.pop(rng.randint(len(pool))))
    return tuple(sorted(picked, key=lambda s: s.name))


def run_recall(
    workload_names: Optional[Sequence[str]] = None,
    mutants: Optional[int] = None,
    seed: int = 1,
) -> dict:
    """Run the gate and return the (deterministic, JSON-ready) report."""
    patterns = (
        [get_pattern(name) for name in workload_names]
        if workload_names
        else list(FAULT_PATTERNS)
    )
    records: List[dict] = []
    for pattern in patterns:
        records.append(_run_recall_cell(pattern, None))
        for spec in select_mutations(pattern, mutants, seed):
            records.append(_run_recall_cell(pattern, spec))

    workloads: Dict[str, dict] = {}
    detected = missed = baseline_false_positives = 0
    reference_mismatches = 0
    for record in records:
        entry = workloads.setdefault(
            record["workload"], {"baseline": None, "mutants": []}
        )
        if not record["reference_ok"]:
            reference_mismatches += 1
        if record["mutation"] is None:
            entry["baseline"] = record
            baseline_false_positives += len(record["sites"])
        else:
            entry["mutants"].append(record)
            if record["detected"]:
                detected += 1
            else:
                missed += 1
    for entry in workloads.values():
        entry["mutants"].sort(key=lambda r: r["mutation"])

    return {
        "schema": REPORT_SCHEMA,
        "seed": seed,
        "mutants_per_workload": mutants,
        "workloads": workloads,
        "summary": {
            "mutants": detected + missed,
            "detected": detected,
            "missed": missed,
            "baseline_false_positives": baseline_false_positives,
            "reference_mismatches": reference_mismatches,
        },
    }


def report_passed(report: dict) -> bool:
    """Gate verdict: every mutant detected, every baseline race-free,
    the reference agreeing with every annotation and every divergence
    from it labelled."""
    summary = report["summary"]
    return (
        summary["missed"] == 0
        and summary["baseline_false_positives"] == 0
        and summary["reference_mismatches"] == 0
    )


def render(report: dict) -> str:
    """Human-readable gate summary (the JSON artifact is the contract)."""
    lines = ["Recall gate: injected-race detection power", ""]
    for name, entry in sorted(report["workloads"].items()):
        baseline = entry["baseline"]
        clean = "race-free" if not baseline["sites"] else (
            f"FALSE POSITIVES: {baseline['sites']}"
        )
        reference = _reference_note(baseline)
        lines.append(f"{name}: baseline {clean} (reference: {reference})")
        if not baseline["reference_ok"]:
            lines.append(
                "  REFERENCE MISMATCH: the baseline is annotated race-free"
            )
        for record in entry["mutants"]:
            verdict = "detected" if record["detected"] else "MISSED"
            types = ", ".join(record["types"]) or "-"
            lines.append(
                f"  {record['mutation']}: {verdict} "
                f"[{record['condition']} -> expect {record['expected_type']}, "
                f"got {types}; reference: {_reference_note(record)}]"
            )
            if not record["reference_ok"]:
                lines.append(
                    f"    REFERENCE MISMATCH: annotation expects "
                    f"{record['expected_type']}"
                )
    summary = report["summary"]
    lines.append("")
    lines.append(
        f"{summary['detected']}/{summary['mutants']} mutants detected, "
        f"{summary['missed']} missed, "
        f"{summary['baseline_false_positives']} baseline false positive(s), "
        f"{summary['reference_mismatches']} reference mismatch(es)."
    )
    return "\n".join(lines)


def _reference_note(record: dict) -> str:
    """The reference's types and divergence labels for one record."""
    note = ", ".join(record["reference_types"]) or "clean"
    for label, count in record["reference_divergences"].items():
        note += f"; {count} {label}"
    return note


def main(argv=None) -> int:
    import argparse

    from repro.obs import (
        add_observability_args,
        begin_observability,
        finalize_observability,
    )
    from repro.faults.workloads import pattern_names
    from repro.obs.log import output

    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.recall",
        description="Detection-power gate: run iGUARD over injected races.",
    )
    parser.add_argument(
        "--workloads", default=None, metavar="A,B", type=pattern_names,
        help="pattern workloads to gate (default: all)",
    )
    parser.add_argument(
        "--mutants", type=int, default=None, metavar="N",
        help="seeded pick of N mutations per workload (default: all)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the deterministic JSON report to PATH",
    )
    add_observability_args(parser)
    args = parser.parse_args(argv)
    begin_observability(args)

    from repro.obs.log import log_run_config

    log_run_config(backend="iguard")

    report = run_recall(
        workload_names=args.workloads,
        mutants=args.mutants,
        seed=args.seed,
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    output(render(report))
    finalize_observability(args)
    return 0 if report_passed(report) else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
