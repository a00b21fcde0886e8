"""Overhead accounting in the Figure 13 categories.

The paper breaks application runtime under detection into: *Native* (the
uninstrumented kernel), *NVBit* (binary analysis and injection), *Setup*
(metadata allocation/initialization), *Instrumentation* (the delay of the
injected calls minus detection work), *Detection* (the race checks and
metadata updates), and *Misc* (everything else, e.g. kernel loading).

Each category accumulates both *parallel* cycles (executed across all GPU
lanes, divided by the effective parallelism when converted to time) and
*serial* cycles (executed with no parallelism: metadata-lock convoys in
iGUARD, or the CPU-side detection pass in Barracuda).  This split is the
load-bearing part of the model — it is why Barracuda's overheads explode
with parallelism while iGUARD's stay bounded.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict


class Category(enum.Enum):
    """Runtime components of Figure 13."""

    NATIVE = "native"
    NVBIT = "nvbit"
    SETUP = "setup"
    INSTRUMENTATION = "instrumentation"
    DETECTION = "detection"
    MISC = "misc"


@dataclass
class _Account:
    parallel: float = 0.0
    serial: float = 0.0


@dataclass
class TimingBreakdown:
    """Per-category cycle accounts plus the parallelism used to value them."""

    parallelism: int = 1
    accounts: Dict[Category, _Account] = field(
        default_factory=lambda: {c: _Account() for c in Category}
    )

    def charge(self, category: Category, cycles: float, serial: bool = False) -> None:
        """Add ``cycles`` of work to ``category``."""
        account = self.accounts[category]
        if serial:
            account.serial += cycles
        else:
            account.parallel += cycles

    def time_of(self, category: Category) -> float:
        """Wall time contributed by one category."""
        account = self.accounts[category]
        return account.parallel / max(self.parallelism, 1) + account.serial

    @property
    def native_time(self) -> float:
        """Wall time of the uninstrumented application."""
        return self.time_of(Category.NATIVE)

    @property
    def total_time(self) -> float:
        """Wall time with all overhead categories included."""
        return sum(self.time_of(c) for c in Category)

    @property
    def overhead(self) -> float:
        """Slowdown factor: instrumented time over native time."""
        native = self.native_time
        if native <= 0:
            return 1.0
        return self.total_time / native

    def fractions(self) -> Dict[Category, float]:
        """Each category's share of total wall time (the Figure 13 bars)."""
        total = self.total_time
        if total <= 0:
            return {c: 0.0 for c in Category}
        return {c: self.time_of(c) / total for c in Category}

    def snapshot(self) -> Dict[str, float]:
        """Times per category keyed by name, for reports and tests."""
        return {c.value: self.time_of(c) for c in Category}

