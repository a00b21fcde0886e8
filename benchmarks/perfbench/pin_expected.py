"""Regenerate ``expected.json``, the correctness gate of every benchmark run.

Run from the repository root, only when the program's reports change on
purpose::

    python3 benchmarks/perfbench/pin_expected.py

Pins, per cell, the race sites with their types, the memory events
delivered to the detector, and the simulated total and native cycles:
the 129 registry cells (shared by ``table-live`` and ``replay-ctr``) from
the live path, then confirmed on the replay path; the generated
workloads at the default seed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _pin(outcome) -> dict:
    return {
        "sites": dict(sorted(outcome.sites.items())),
        "events": outcome.events,
        "total_cycles": outcome.total_cycles,
        "native_cycles": outcome.native_cycles,
    }


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src")]
    import cells
    import harness
    from run import DEFAULT_SEED

    workdir = os.path.join(HERE, "work", f"pin-{os.getpid()}")
    os.makedirs(workdir)
    expected = {}
    try:
        for name, workload in cells.WORKLOADS.items():
            prepared = workload.prepare(DEFAULT_SEED, workdir)
            pins = {c.key: _pin(c.harvest(c.drive())) for c in prepared.cells}
            section = workload.pin_section
            if section in expected:  # the replay path must match the live pins
                for key, pin in pins.items():
                    problems = harness.check_outcome(
                        SimpleNamespace(**pin), expected[section][key],
                        workload.generated,
                    )
                    if problems:
                        print(f"{name} {key}: {problems}", file=sys.stderr)
                        return 1
            else:
                expected[section] = pins
            print(f"{name}: {len(pins)} cells pinned", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
