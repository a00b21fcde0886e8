"""The binary-instrumentation analogue (NVBit stand-in).

iGUARD is built on NVIDIA's NVBit dynamic binary instrumentation framework:
NVBit rewrites SASS so that injected device functions run before memory and
synchronization instructions.  In this reproduction, the simulated device
calls registered :class:`~repro.instrument.nvbit.Tool` objects at the same
points with the same information, and every tool charges its overhead into
a :class:`~repro.instrument.timing.TimingBreakdown` whose categories match
Figure 13 (Native / NVBit / Setup / Instrumentation / Detection / Misc).
"""

from repro.instrument.nvbit import Tool, LaunchInfo
from repro.instrument.timing import Category, TimingBreakdown

__all__ = ["Tool", "LaunchInfo", "Category", "TimingBreakdown"]
