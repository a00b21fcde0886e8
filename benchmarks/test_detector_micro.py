"""Microbenchmarks of the detector itself (real wall-clock this time).

Unlike the table/figure benchmarks — which *model* GPU time — these
measure the reproduction's own Python throughput: events per second
through the detector pipeline, and the cost of individual subsystems.
Useful for keeping the simulator usable as it grows.
"""

from repro.core import IGuard
from repro.core.config import IGuardConfig
from repro.core.metadata import DECODE_MD, SET_ACCESSOR, SET_WRITER, MetadataTable
from repro.gpu.arch import TEST_GPU
from repro.gpu.device import Device
from repro.gpu.instructions import atomic_add, load, store, syncthreads


def _detection_workload(config=None):
    device = Device(TEST_GPU)
    detector = device.add_tool(IGuard(config) if config else IGuard())
    data = device.alloc("data", 64, init=0)
    counter = device.alloc("counter", 1, init=0)

    def kern(ctx, data, counter):
        for r in range(8):
            v = yield load(data, ctx.tid)
            yield store(data, ctx.tid, v + r)
            yield syncthreads()
            yield atomic_add(counter, 0, 1)

    device.launch(kern, 2, 16, args=(data, counter), seed=1)
    return detector


def test_detector_event_pipeline(benchmark):
    detector = benchmark(_detection_workload)
    assert detector.race_count == 0


def test_detector_without_coalescing(benchmark):
    config = IGuardConfig(coalescing=False, dynamic_backoff=False)
    detector = benchmark(_detection_workload, config)
    assert detector.race_count == 0


def test_metadata_pack_unpack(benchmark):
    def pack_many():
        acc = wr = 0
        for i in range(500):
            acc = SET_ACCESSOR(acc, i, 1, i, i % 32, i, i, i, i)
            wr = SET_WRITER(wr, i, i, i % 32, i, i, i, i)
            fields = DECODE_MD(acc)
        return fields

    warp, lane = benchmark(pack_many)[:2]
    assert (warp, lane) == (499, 499 % 32)


def test_metadata_table_lookup(benchmark):
    table = MetadataTable()

    def lookups():
        for address in range(0x1000, 0x1000 + 4 * 500, 4):
            table.lookup(address)
        return len(table)

    count = benchmark(lookups)
    assert count == 500


def test_simulator_native_throughput(benchmark):
    """Raw simulator speed without any detector attached."""

    def run_native():
        device = Device(TEST_GPU)
        data = device.alloc("data", 64, init=0)

        def kern(ctx, data):
            for r in range(16):
                v = yield load(data, ctx.tid)
                yield store(data, ctx.tid, v + r)

        run = device.launch(kern, 2, 16, args=(data,), seed=1)
        return run.instructions

    instructions = benchmark(run_native)
    assert instructions == 2 * 16 * 32
