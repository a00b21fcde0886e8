"""Explaining a race end to end: record once, then ``explain`` it.

Workflow a developer would actually use:

1. run the kernel once with a :class:`~repro.engine.TraceSink` attached,
   recording the event stream;
2. replay the recording under iGUARD with
   :func:`~repro.obs.forensics.explain_trace`: each reported race comes
   back with the Table 2 condition that fired, its canonical fix, the
   racing instruction pair, and the metadata transitions of the racy
   granule — the accesses that interleaved around it.

Run with::

    python examples/diagnose_and_trace.py
"""

from repro import Device
from repro.engine import TraceSink
from repro.gpu import atomic_add, atomic_load, load, store
from repro.obs.forensics import explain_trace, render_report


def pipeline(ctx, results, ready, out):
    """Block 0 produces a result and raises a ready flag — without the
    device fence that would order the two.  Block 1 consumes."""
    if ctx.block_id == 0 and ctx.tid_in_block == 0:
        yield store(results, 0, 1234)
        yield atomic_add(ready, 0, 1)  # BUG: no __threadfence() before this
    if ctx.block_id == 1 and ctx.tid_in_block == 0:
        while (yield atomic_load(ready, 0)) == 0:
            pass
        value = yield load(results, 0)
        yield store(out, 0, value)


def main():
    # Step 1: record.
    seed = 5
    sink = TraceSink()
    sink.mark_run(seed)
    device = Device()
    device.add_tool(sink)
    results = device.alloc("results", 4, init=0)
    ready = device.alloc("ready", 1, init=0)
    out = device.alloc("out", 1, init=0)
    device.launch(pipeline, grid_dim=2, block_dim=32,
                  args=(results, ready, out), seed=seed)

    # Step 2: explain every reported race from the recording.
    reports = explain_trace(sink.trace)
    print(f"{len(reports)} race report(s):")
    for forensics in reports:
        print()
        print(render_report(forensics))


if __name__ == "__main__":
    main()
