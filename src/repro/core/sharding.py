"""Columnar replay: feed a ``.ctr`` trace to iGUARD chunk by chunk.

:func:`replay_columnar_sharded` decodes one chunk at a time, shifts the
chunk's whole address column to granules with numpy, and hands both to
:meth:`repro.core.detector.IGuard.feed` — the same front-end loop live
runs and :func:`repro.engine.replay.replay` use, so reports, statistics
and Figure 13 timing breakdowns are identical to them.  Peak memory is one chunk, not one
trace: the decoder's block limits bound a chunk, and every ``feed`` call
ends with its check queue drained.

The module and the function keep their names from when this replay split
one trace's checks across several cores; the benchmark under
``benchmarks/`` resolves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.detector import IGuard
from repro.engine.replay import ReplayDevice, peek_gpu_config


@dataclass
class DrainResult:
    """Outcome of one columnar replay."""

    tool: IGuard
    events: int  # accesses checked + coalesced


def replay_columnar_sharded(
    source, detector: Callable[[], IGuard] = IGuard
) -> DrainResult:
    """Replay a columnar trace through iGUARD, one chunk at a time.

    ``source`` is a ``.ctr`` / ``.ctr.gz`` path (or an iterable of
    :class:`~repro.engine.coltrace.Chunk`); ``detector`` builds the
    detector (``IGuard`` or a subclass such as ``ScoRD``).  Each chunk's
    granules are computed vectorized over its address column before any
    event object exists, and events materialize one chunk at a time.  A
    launch the stream truncates (no ``KernelEndEvent``) still has every
    check run and counted.
    """
    from repro.engine.coltrace import iter_chunks
    from repro.gpu.arch import TITAN_RTX

    chunks = (
        iter(source)
        if not isinstance(source, (str, bytes))
        and not hasattr(source, "__fspath__")
        else iter_chunks(source)
    )
    tool = detector()
    granularity = tool.config.granularity_bytes
    for chunk in chunks:
        events = chunk.events()
        if tool.device is None:
            tool.attach(ReplayDevice(peek_gpu_config(events)[0]))
        tool.feed(events, granules=iter(chunk.mem_routes(granularity)))
    if tool.device is None:
        tool.attach(ReplayDevice(TITAN_RTX))
    stats = tool.stats
    return DrainResult(
        tool=tool,
        events=sum(s.accesses_checked + s.accesses_coalesced for s in stats),
    )

