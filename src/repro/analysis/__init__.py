"""Static race analysis over the kernel DSL.

The dynamic detector (Table 2) pays a metadata check on every monitored
access.  This package is a standalone static complement, as the
static-analysis literature suggests (Liew et al., *Provable GPU
Data-Races in Static Race Detection*; Joshi & Muduganti, *GPURepair*).
It is a correctness tool only: the dynamic detector consumes none of its
verdicts.

- :mod:`repro.analysis.extract` symbolically unrolls a kernel generator
  per thread into straight-line access traces annotated with barrier
  intervals and fence counters;
- :mod:`repro.analysis.phases` partitions those traces into
  barrier-interval phases and derives granule-level sharing facts;
- :mod:`repro.analysis.checker` runs the pairwise may-happen-in-parallel
  race check, classifies findings with the paper's race taxonomy and
  emits GPURepair-style fix hints;
- :mod:`repro.analysis.lint` is the ``iguard-experiments lint`` front end.

The load-bearing invariant, enforced by the fuzzer's soundness gate
(:mod:`repro.faults.fuzz`): a site the analyzer calls *safe* can never be
the current access of a dynamically reported race, under any schedule.
When in doubt the analyzer must answer *may race* — conservatism is
always gate-safe.
"""

from repro.analysis.checker import KernelReport, analyze_kernel
from repro.analysis.extract import ExtractionError, KernelSummary, extract_kernel
from repro.analysis.lint import analyze_workload

__all__ = [
    "ExtractionError",
    "KernelSummary",
    "KernelReport",
    "analyze_kernel",
    "analyze_workload",
    "extract_kernel",
]
