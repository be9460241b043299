"""The micro-batcher: flush policy, self-clocking, error propagation."""

import asyncio

import numpy as np
import pytest

from repro.server.batcher import FLUSH_REASONS, BatcherStats, Flush, MicroBatcher


class RecordingFlush:
    """A flush_fn that records every batch it receives."""

    def __init__(self, gate: "asyncio.Event | None" = None):
        self.batches = []
        self.gate = gate

    async def __call__(self, points: np.ndarray):
        self.batches.append(np.array(points))
        if self.gate is not None:
            await self.gate.wait()
        # Echo each row's first coordinate as its "label"; a 1 ms kernel
        # in worker process 4242.
        return [float(row[0]) for row in points], 0.001, 4242


class Link:
    """What the batcher writes into a submission's request trace."""

    flush = None
    queue_wait_us = None


def test_rejects_bad_parameters():
    flush = RecordingFlush()
    with pytest.raises(ValueError):
        MicroBatcher(flush, max_batch=0)
    with pytest.raises(ValueError):
        MicroBatcher(flush, max_wait_us=-1.0)


def test_single_submit_flushes_on_quiesce_without_timer():
    flush = RecordingFlush()
    # A wait long enough that hitting the deadline would hang the test:
    # the quiesce check must fire long before it.
    batcher = MicroBatcher(flush, max_batch=64, max_wait_us=30_000_000.0)

    async def drive():
        return await asyncio.wait_for(
            batcher.submit(np.array([7.0, 0.0])), timeout=5.0
        )

    assert asyncio.run(drive()) == 7.0
    assert batcher.stats.flush_reasons["quiesce"] == 1
    assert [batch.shape for batch in flush.batches] == [(1, 2)]


def test_concurrent_submits_coalesce_into_one_flush():
    flush = RecordingFlush()
    batcher = MicroBatcher(flush, max_batch=64, max_wait_us=50_000.0)

    async def drive():
        return await asyncio.gather(
            *(batcher.submit(np.array([float(i), 0.0])) for i in range(10))
        )

    results = asyncio.run(drive())
    assert results == [float(i) for i in range(10)]
    assert len(flush.batches) == 1
    assert flush.batches[0].shape == (10, 2)
    assert batcher.n_submitted == 10
    assert batcher.snapshot()["n_submitted"] == 10
    assert batcher.stats.n_flushes == 1


def test_full_batch_flushes_immediately():
    flush = RecordingFlush()
    batcher = MicroBatcher(flush, max_batch=4, max_wait_us=30_000_000.0)

    async def drive():
        return await asyncio.gather(
            *(batcher.submit(np.array([float(i)])) for i in range(8))
        )

    results = asyncio.run(drive())
    assert results == [float(i) for i in range(8)]
    assert batcher.stats.flush_reasons["full"] >= 1
    assert all(batch.shape[0] <= 4 for batch in flush.batches)


def test_busy_gate_chains_stragglers_into_one_batch():
    flush = RecordingFlush()
    batcher = MicroBatcher(flush, max_batch=64, max_wait_us=50_000.0)

    async def drive():
        release = asyncio.Event()
        flush.gate = release
        first = asyncio.ensure_future(batcher.submit(np.array([0.0])))
        # Let the first submission flush (its flush_fn now blocks on the
        # gate), then pile stragglers up behind the busy kernel.
        while not flush.batches:
            await asyncio.sleep(0.001)
        stragglers = [
            asyncio.ensure_future(batcher.submit(np.array([float(i)])))
            for i in range(1, 6)
        ]
        await asyncio.sleep(0.01)  # past max_wait: the gate must hold them
        assert batcher.depth == 5, "busy gate should hold pending submissions"
        release.set()
        return await asyncio.gather(first, *stragglers)

    results = asyncio.run(drive())
    assert results == [float(i) for i in range(6)]
    # One singleton flush, then every straggler in a single chained batch.
    assert [batch.shape[0] for batch in flush.batches] == [1, 5]
    assert batcher.stats.flush_reasons["chained"] == 1


def test_non_adaptive_waits_for_the_deadline():
    # A queue that grows on every loop pass defeats the adaptive quiesce
    # flush: the deadline is what flushes it.
    flush = RecordingFlush()
    batcher = MicroBatcher(flush, max_batch=1_000_000, max_wait_us=20_000.0)

    first = Link()

    async def drive():
        loop = asyncio.get_running_loop()
        started = loop.time()
        # Two submissions land in the first pass, so each quiesce check
        # runs after one more submission than the check before it saw.
        tasks = [
            asyncio.ensure_future(batcher.submit(np.array([float(i)]), first if i == 0 else None))
            for i in range(2)
        ]
        while not flush.batches:
            tasks.append(asyncio.ensure_future(batcher.submit(np.array([float(len(tasks))]))))
            await asyncio.sleep(0)
        first_flush_s = loop.time() - started
        results = await asyncio.wait_for(asyncio.gather(*tasks), timeout=5.0)
        return first_flush_s, results

    first_flush_s, results = asyncio.run(drive())
    assert results == [float(i) for i in range(len(results))]
    assert first.flush.reason == "timeout"
    assert first.flush.size == flush.batches[0].shape[0] > 2
    assert first_flush_s >= 0.02
    assert batcher.stats.flush_reasons["timeout"] == 1


def test_flush_error_propagates_to_every_waiter():
    async def failing(points):
        raise RuntimeError("kernel exploded")

    batcher = MicroBatcher(failing, max_batch=64, max_wait_us=10_000.0)

    async def drive():
        results = await asyncio.gather(
            *(batcher.submit(np.array([float(i)])) for i in range(3)),
            return_exceptions=True,
        )
        return results

    results = asyncio.run(drive())
    assert len(results) == 3
    assert all(isinstance(r, RuntimeError) for r in results)


def test_result_count_mismatch_is_an_error():
    async def short(points):
        return [0.0], 0.0, None  # always one result, regardless of batch size

    batcher = MicroBatcher(short, max_batch=64, max_wait_us=10_000.0)

    async def drive():
        return await asyncio.gather(
            batcher.submit(np.array([1.0])),
            batcher.submit(np.array([2.0])),
            return_exceptions=True,
        )

    results = asyncio.run(drive())
    assert all(isinstance(r, RuntimeError) for r in results)


def test_drain_flushes_pending_and_closes():
    flush = RecordingFlush()
    batcher = MicroBatcher(flush, max_batch=64, max_wait_us=30_000_000.0)

    async def drive():
        task = asyncio.ensure_future(batcher.submit(np.array([5.0])))
        await asyncio.sleep(0)  # let submit enqueue
        await batcher.drain()
        result = await task
        with pytest.raises(RuntimeError):
            await batcher.submit(np.array([6.0]))
        return result

    assert asyncio.run(drive()) == 5.0
    assert batcher.stats.flush_reasons["drain"] == 1


def test_stats_snapshot_shape():
    stats = BatcherStats()
    stats.record_flush(Flush(1, "quiesce", 4, 0.0), [100.0, 200.0, 300.0, 400.0])
    stats.record_flush(Flush(2, "full", 8, 0.0), [50.0] * 8)
    snapshot = stats.snapshot()
    assert snapshot["n_flushes"] == 2
    assert set(snapshot["flush_reasons"]) >= set(FLUSH_REASONS)
    assert snapshot["mean_batch_size"] == pytest.approx(6.0)
    assert snapshot["max_batch_size"] == 8
    assert snapshot["p99_queue_wait_us"] >= snapshot["p50_queue_wait_us"]


def test_stats_memory_is_bounded():
    # The histograms hold a fixed bucket array no matter how many
    # flushes are recorded (the old implementation kept sample rings).
    stats = BatcherStats()
    for batch_id in range(5000):
        stats.record_flush(Flush(batch_id, "quiesce", 1, 0.0), [10.0])
    assert len(stats.batch_size.bucket_counts) == len(stats.batch_size.bounds) + 1
    assert stats.batch_size.count == 5000
    assert stats.queue_wait_us.count == 5000
    assert stats.n_flushes == 5000
    snapshot = stats.snapshot()
    assert snapshot["n_batched"] == 5000
    assert snapshot["mean_batch_size"] == pytest.approx(1.0)


def _scalars(flush):
    return {name: getattr(flush, name) for name in Flush.__slots__}


def test_each_flush_is_one_record_every_submission_points_at():
    flush = RecordingFlush()
    batcher = MicroBatcher(flush, max_batch=64, max_wait_us=50_000.0)
    links = [Link() for _ in range(3)]

    async def drive():
        return await asyncio.gather(
            *(batcher.submit(np.array([float(i)]), link) for i, link in enumerate(links))
        )

    assert asyncio.run(drive()) == [0.0, 1.0, 2.0]
    record = links[0].flush
    assert all(link.flush is record for link in links), "one record, shared, never copied"
    assert record.batch_id == 1 and record.reason == "quiesce" and record.size == 3
    assert (record.kernel_s, record.pid) == (0.001, 4242)
    assert record.duration_s > 0.0
    # each submission keeps its own wait: the first one queued longest
    waits = [link.queue_wait_us for link in links]
    assert waits == sorted(waits, reverse=True) and waits[-1] >= 0.0
    assert all(
        value is None or type(value) in (int, float, str) for value in _scalars(record).values()
    ), _scalars(record)
    assert batcher.stats.queue_wait_us.count == 3


def test_a_failed_flush_is_recorded_and_linked_before_the_error_resolves():
    async def failing(points):
        await asyncio.sleep(0.001)
        raise RuntimeError("kernel exploded")

    batcher = MicroBatcher(failing, max_batch=64, max_wait_us=10_000.0)
    links = [Link(), Link()]

    async def drive():
        return await asyncio.gather(
            *(batcher.submit(np.array([float(i)]), link) for i, link in enumerate(links)),
            return_exceptions=True,
        )

    results = asyncio.run(drive())
    assert all(isinstance(result, RuntimeError) for result in results)
    record = links[0].flush
    assert links[1].flush is record and record.size == 2
    assert record.kernel_s is None and record.pid is None
    assert record.duration_s >= 0.001
    assert all(link.queue_wait_us >= 0.0 for link in links)
    assert batcher.stats.n_flushes == 1 and batcher.n_submitted == 2
