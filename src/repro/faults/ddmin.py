"""Delta debugging: shrink a failing input to a minimal reproducer.

Zeller & Hildebrandt's ``ddmin`` over an arbitrary sequence: given a
list of items (DSL statements, byte blocks of a trace file) and a
predicate that re-runs the failure check, find a *1-minimal* sublist —
removing any single remaining item makes the failure disappear.  The
fuzzer (:mod:`repro.faults.fuzz`) runs every crash and divergence it
finds through this before filing it in the triage corpus, so corpus
entries are small enough to read.

The predicate is called on candidate sublists and must return True when
the candidate still reproduces the *original* failure (same crash
signature, same divergence) — returning True for a different failure
would minimize toward the wrong bug, so callers bind the signature into
the predicate.  A ``max_tests`` budget bounds the quadratic tail; on
exhaustion the best-so-far (still failing) sublist is returned.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")


def ddmin(
    items: Sequence[T],
    test: Callable[[List[T]], bool],
    max_tests: int = 2048,
) -> List[T]:
    """Minimize ``items`` while ``test`` keeps returning True.

    ``test(candidate)`` must be deterministic and True for the full
    input (callers should verify that before invoking; a non-failing
    input is returned unchanged).  Returns a 1-minimal failing sublist,
    or the smallest failing sublist found within ``max_tests`` calls.
    """
    current = list(items)
    if len(current) <= 1:
        return current
    tests_run = 0
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        subsets = [
            current[start : start + chunk]
            for start in range(0, len(current), chunk)
        ]
        reduced = False
        # Try each subset alone (reduce to subset) ...
        for subset in subsets:
            if len(subset) == len(current):
                continue
            tests_run += 1
            if tests_run > max_tests:
                return current
            if test(list(subset)):
                current = list(subset)
                granularity = 2
                reduced = True
                break
        if reduced:
            continue
        # ... then each complement (remove subset).
        if granularity > 2:
            for index in range(len(subsets)):
                complement = [
                    item
                    for position, subset in enumerate(subsets)
                    if position != index
                    for item in subset
                ]
                if len(complement) == len(current):
                    continue
                tests_run += 1
                if tests_run > max_tests:
                    return current
                if test(complement):
                    current = complement
                    granularity = max(2, granularity - 1)
                    reduced = True
                    break
        if reduced:
            continue
        if granularity >= len(current):
            break
        granularity = min(len(current), granularity * 2)
    return current
