"""Fault injection and adversarial-input hardening for the iGUARD
reproduction.

- :mod:`repro.faults.mutators` — seeded transformations over the kernel
  DSL instruction stream (drop/weaken fences, skip barriers, demote
  atomics, reorder stores past barriers), each annotated with the Table 2
  condition the injected race should fire;
- :mod:`repro.faults.workloads` — small race-free *pattern* workloads
  built so that every catalogued mutation produces a deterministic,
  direction-pinned race;
- :mod:`repro.faults.recall` — the detection-power regression gate: run
  iGUARD over every (workload, mutant) cell and report detected/missed;
- :mod:`repro.faults.fuzz` and :mod:`repro.faults.ddmin` — the
  differential fuzz campaign over the DSL and the trace codecs, with
  ddmin minimization into a triage corpus;
- :mod:`repro.faults.quarantine` — poison-event quarantine: a record
  whose check raises is recorded and skipped, bounded.

Submodules are imported on use, not by this package.
"""

__all__ = ["ddmin", "fuzz", "mutators", "quarantine", "recall", "workloads"]
