"""``iguard-experiments lint``: static race lint over registered workloads.

A workload is its host driver: the only way to know which kernels it
launches (and with which grids and arrays) is to run the driver.
:class:`AnalysisDevice` does exactly that — a normal simulated device
whose ``launch`` first statically analyzes the kernel (extraction +
pairwise checking against the *pre-launch* memory state, which is what
the fence-publication chain rule needs), then executes it natively so the
driver's later launches and host-side reads behave normally.

``analyze_workload`` is also the backbone of the fuzzer's soundness gate
and the recall suite's annotation cross-check; for those callers a
``mutation_spec`` mutates the *statically analyzed* instruction stream
while native execution stays unmutated (a mutated native run could
deadlock — the static verdict must not depend on surviving one).

Output is deterministic (no timings, stable ordering) and, with
``--format json``, validated in CI against
``benchmarks/schemas/lint.schema.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.checker import KernelReport, analyze_kernel
from repro.analysis.extract import KernelSummary, extract_or_unanalyzable
from repro.gpu.device import Device
from repro.obs.log import configure_or_exit
from repro.workloads.base import SIM_GPU, Workload

#: Version of the lint JSON document (benchmarks/schemas/lint.schema.json).
LINT_SCHEMA = 1

#: Global extraction cache: unrolling is memory-independent, so summaries
#: can be shared across launches, seeds, and detector instances.  Keyed by
#: kernel code identity, launch geometry, and the argument signature.
_EXTRACTION_CACHE: Dict[Tuple, KernelSummary] = {}


def args_signature(args: Tuple) -> Optional[Tuple]:
    """A hashable identity for launch args, or None if not cacheable."""
    signature: List[Tuple] = []
    for arg in args:
        allocation = getattr(arg, "allocation", None)
        if allocation is not None:
            signature.append(("array", allocation.base, allocation.num_words))
        elif isinstance(arg, (int, float, str, bool, type(None))):
            signature.append(("scalar", arg))
        else:
            return None
    return tuple(signature)


def _freeze(value):
    """Recursively hashable *value* view of a closure cell, or raise.

    Only value-stable leaves are accepted — identity-hashed objects
    could alias a later object reusing the same id after collection.
    """
    allocation = getattr(value, "allocation", None)
    if allocation is not None:
        return ("array", allocation.base, allocation.num_words)
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, (int, float, str, bytes, bool, type(None))):
        return value
    raise TypeError(f"unfreezable closure value {type(value).__name__}")


def closure_signature(kernel_fn) -> Optional[Tuple]:
    """A hashable identity for a kernel's closure, or None if opaque.

    Kernel *factories* (``build_kernel`` in the fuzzer, parameterized
    workload builders) return distinct closures over one shared
    ``__code__`` object — cache keys built from the code object alone
    would alias every program the factory ever produced.  The closure
    cells carry the distinguishing state, so they join the key; a cell
    holding something unhashable (and not a plain list/tuple tree)
    makes the kernel uncacheable.
    """
    cells = getattr(kernel_fn, "__closure__", None)
    if not cells:
        return ()
    signature = []
    for cell in cells:
        try:
            signature.append(_freeze(cell.cell_contents))
        except (TypeError, ValueError):
            return None
    return tuple(signature)


def extract_cached(
    kernel_fn,
    grid_dim: int,
    block_dim: int,
    warp_size: int,
    args: Tuple = (),
    mutator_factory=None,
    mutation_key: Optional[str] = None,
) -> KernelSummary:
    """Extraction with the global cache (bypassed for uncacheable args)."""
    arg_sig = args_signature(args)
    closure_sig = closure_signature(kernel_fn)
    key = None
    if arg_sig is not None and closure_sig is not None:
        key = (
            getattr(kernel_fn, "__code__", kernel_fn),
            closure_sig,
            grid_dim,
            block_dim,
            warp_size,
            arg_sig,
            mutation_key,
        )
        cached = _EXTRACTION_CACHE.get(key)
        if cached is not None:
            return cached
    summary = extract_or_unanalyzable(
        kernel_fn,
        grid_dim,
        block_dim,
        warp_size,
        args,
        mutator_factory=mutator_factory,
    )
    if key is not None:
        _EXTRACTION_CACHE[key] = summary
    return summary


@dataclass
class LaunchLint:
    """Static verdict for one analyzed launch."""

    summary: KernelSummary
    report: KernelReport

    def to_json(self) -> Dict:
        report, summary = self.report, self.summary
        return {
            "kernel": report.kernel_name,
            "grid_dim": summary.grid_dim,
            "block_dim": summary.block_dim,
            "warp_size": summary.warp_size,
            "analyzable": report.analyzable,
            "reason": report.reason,
            "has_lock_ops": report.has_lock_ops,
            "truncated": report.truncated,
            "sites": len(report.sites),
            "safe_sites": len(report.safe_sites),
            "may_race_sites": len(report.may_race_sites),
            "race_types": sorted(report.race_types),
            "findings": [f.to_json() for f in report.findings],
        }


class AnalysisDevice(Device):
    """A device that statically analyzes every launch before running it."""

    def __init__(self, config=SIM_GPU, mutation_spec=None):
        super().__init__(config)
        self.lints: List[LaunchLint] = []
        self._mutation_spec = mutation_spec

    def _memory_value(self, address: int) -> Optional[int]:
        try:
            value = self.memory.host_read(address)
        except Exception:  # noqa: BLE001 - unreadable word disables chains
            return None
        return value if isinstance(value, int) else None

    def _mutator_factory(self):
        if self._mutation_spec is None:
            return None
        from repro.faults.mutators import StreamMutator

        spec = self._mutation_spec
        # One FRESH mutator per extraction pass: never the device's live
        # mutator, whose applied-counter and reorder stash belong to the
        # dynamic run.
        return lambda: StreamMutator(spec, self)

    def analyze_launch(
        self, kernel_fn, grid_dim: int, block_dim: int, args: Tuple = ()
    ) -> LaunchLint:
        spec = self._mutation_spec
        summary = extract_cached(
            kernel_fn,
            grid_dim,
            block_dim,
            self.config.warp_size,
            args,
            mutator_factory=self._mutator_factory(),
            mutation_key=None if spec is None else spec.name,
        )
        report = analyze_kernel(summary, memory_value=self._memory_value)
        return LaunchLint(summary=summary, report=report)

    def launch(self, kernel_fn, grid_dim, block_dim, args=(), **kwargs):
        self.lints.append(
            self.analyze_launch(kernel_fn, grid_dim, block_dim, args)
        )
        return super().launch(kernel_fn, grid_dim, block_dim, args, **kwargs)


@dataclass
class WorkloadLint:
    """Aggregated lint verdict for one workload's host driver."""

    workload: str
    launches: List[LaunchLint] = field(default_factory=list)
    status: str = "ok"
    detail: str = ""

    @property
    def verdict(self) -> str:
        if self.status != "ok":
            return "error"
        if any(not l.report.analyzable for l in self.launches):
            return "unanalyzable"
        if any(l.report.findings for l in self.launches):
            return "racy"
        return "clean"

    @property
    def race_types(self) -> List[str]:
        types = set()
        for launch in self.launches:
            types |= launch.report.race_types
        return sorted(types)

    def allows_dynamic_site(self, ip: str) -> bool:
        """May the dynamic detector report a race at ``ip``?

        True if *any* analyzed launch allows it (the dynamic report does
        not say which launch it came from), or if nothing was analyzed.
        """
        if self.status != "ok" or not self.launches:
            return True
        return any(l.report.allows_dynamic_site(ip) for l in self.launches)

    def static_safe_sites(self) -> set:
        """Sites proven safe by every launch that contains them."""
        safe: set = set()
        seen: set = set()
        for launch in self.launches:
            report = launch.report
            if not report.analyzable:
                return set()
            for ip in report.sites:
                if ip in report.safe_sites:
                    if ip not in seen:
                        safe.add(ip)
                else:
                    safe.discard(ip)
                seen.add(ip)
        return safe

    def to_json(self) -> Dict:
        # Identical repeated launches collapse to one entry with a count,
        # keeping the document deterministic and small for multi-seed
        # drivers.
        collapsed: List[Tuple[Dict, int]] = []
        for launch in self.launches:
            doc = launch.to_json()
            if collapsed and collapsed[-1][0] == doc:
                collapsed[-1] = (doc, collapsed[-1][1] + 1)
            else:
                collapsed.append((doc, 1))
        return {
            "workload": self.workload,
            "verdict": self.verdict,
            "status": self.status,
            "detail": self.detail,
            "race_types": self.race_types,
            "launches": [
                dict(doc, count=count) for doc, count in collapsed
            ],
        }


def analyze_workload(
    workload: Workload,
    config=SIM_GPU,
    seed: Optional[int] = None,
    mutation_spec=None,
) -> WorkloadLint:
    """Run a workload's host driver under static analysis."""
    device = AnalysisDevice(config, mutation_spec=mutation_spec)
    lint = WorkloadLint(workload=workload.name)
    if seed is None:
        seed = workload.seeds[0] if workload.seeds else 0
    try:
        workload.run(device, seed)
    except Exception as exc:  # noqa: BLE001 - verdict, not crash
        lint.status = "error"
        lint.detail = f"{type(exc).__name__}: {exc}"
    lint.launches = device.lints
    return lint


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _resolve(name: str) -> Workload:
    from repro.faults.workloads import get_pattern
    from repro.workloads.registry import get_workload

    try:
        return get_workload(name)
    except KeyError:
        return get_pattern(name).workload


def render_text(lints: List[WorkloadLint]) -> str:
    lines = ["=== static race lint ==="]
    for lint in lints:
        lines.append(f"\n{lint.workload}: {lint.verdict.upper()}"
                     + (f" [{', '.join(lint.race_types)}]"
                        if lint.race_types else ""))
        if lint.status != "ok":
            lines.append(f"  driver error: {lint.detail}")
        for launch in lint.launches:
            report = launch.report
            summary = launch.summary
            head = (
                f"  {report.kernel_name} <<<{summary.grid_dim}, "
                f"{summary.block_dim}>>>"
            )
            if not report.analyzable:
                lines.append(f"{head}: unanalyzable ({report.reason})")
                continue
            lines.append(
                f"{head}: {len(report.sites)} sites, "
                f"{len(report.safe_sites)} proven safe, "
                f"{len(report.may_race_sites)} may race"
                + (" (pair budget hit)" if report.truncated else "")
            )
            for finding in report.findings:
                lines.append(
                    f"    {finding.race_type} at {finding.ip} "
                    f"({finding.access} vs {finding.other_access} "
                    f"at {finding.other_ip})"
                )
                lines.append(f"      fix: {finding.fix_hint}")
    counts: Dict[str, int] = {}
    for lint in lints:
        counts[lint.verdict] = counts.get(lint.verdict, 0) + 1
    lines.append(
        "\nsummary: "
        + ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    )
    return "\n".join(lines)


def to_document(lints: List[WorkloadLint]) -> Dict:
    counts: Dict[str, int] = {}
    for lint in lints:
        counts[lint.verdict] = counts.get(lint.verdict, 0) + 1
    return {
        "schema": LINT_SCHEMA,
        "workloads": [lint.to_json() for lint in lints],
        "summary": {
            "workloads": len(lints),
            "clean": counts.get("clean", 0),
            "racy": counts.get("racy", 0),
            "unanalyzable": counts.get("unanalyzable", 0),
            "error": counts.get("error", 0),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="iguard-experiments lint",
        description="Statically analyze workload kernels for races.",
    )
    parser.add_argument(
        "workloads",
        nargs="*",
        metavar="NAME",
        help="workload names (registry) or fault-pattern names",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="lint every registered workload plus the fault patterns",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    parser.add_argument("--out", default=None, metavar="PATH")
    parser.add_argument(
        "--seed", type=int, default=None,
        help="host-driver seed (default: the workload's first seed)",
    )
    args = parser.parse_args(argv)
    configure_or_exit()
    if args.all:
        from repro.faults.workloads import FAULT_PATTERNS
        from repro.workloads.registry import REGISTRY

        workloads = list(REGISTRY) + [p.workload for p in FAULT_PATTERNS]
    elif args.workloads:
        try:
            workloads = [_resolve(name) for name in args.workloads]
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    else:
        parser.error("name at least one workload, or pass --all")
    lints = [
        analyze_workload(workload, seed=args.seed) for workload in workloads
    ]
    if args.fmt == "json":
        text = json.dumps(to_document(lints), indent=2, sort_keys=True)
    else:
        text = render_text(lints)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
