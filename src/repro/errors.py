"""Exception hierarchy for the iGUARD reproduction.

Every error raised by the package derives from :class:`ReproError` so that
callers can catch the whole family with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class LaunchError(ReproError):
    """A kernel launch was malformed (bad grid/block dimensions, etc.)."""


class MemoryError_(ReproError):
    """A simulated memory operation failed (OOM, bad address, ...).

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class OutOfMemoryError(MemoryError_):
    """The simulated device ran out of memory."""


class InvalidAddressError(MemoryError_):
    """An access touched an address outside any allocation."""


class DeadlockError(ReproError):
    """All runnable threads are blocked (e.g. divergent ``syncthreads``)."""


class TimeoutError_(ReproError):
    """A kernel exceeded its step budget (the paper's parameterized timeout)."""


class UnsupportedFeatureError(ReproError):
    """A detector was asked to handle a feature it does not support.

    Barracuda raises this for scoped atomics and for binaries it cannot
    ingest, mirroring the failures reported in the paper's evaluation.
    """


class KernelSourceError(ReproError):
    """A kernel function was not a generator or misused the DSL."""


class TraceCorruptionError(ReproError):
    """A recorded trace file was truncated or corrupt.

    Carries enough structure for a caller to salvage the readable prefix:
    ``block`` is the 1-based ordinal of the first bad block of the
    columnar container (the file header is block 1, each chunk one more)
    and ``last_good_offset`` the byte offset (of the uncompressed stream,
    so it is meaningful for gzipped traces too) just past the last chunk
    that decoded cleanly.
    """

    def __init__(self, path, block: int, last_good_offset: int, reason: str,
                 events_recovered: int = 0):
        super().__init__(
            f"{path}: corrupt trace at block {block} "
            f"(byte offset {last_good_offset}): {reason}"
        )
        self.path = str(path)
        self.block = block
        self.last_good_offset = last_good_offset
        self.reason = reason
        self.events_recovered = events_recovered
