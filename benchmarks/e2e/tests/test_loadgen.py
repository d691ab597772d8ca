"""The open-loop generator against a stub server with a known service time."""

import queue
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from loadgen import Schedule, poisson_schedule, run_closed_loop, run_open_loop

SERVICE_S = 0.02
QUERIES = np.zeros((64, 4), dtype=np.float32)


class StubServer:
    """One worker, FIFO, fixed service time; same surface as CagraServer."""

    def __init__(self, service_s=SERVICE_S, stall_first_submit_s=0.0):
        self._service_s = service_s
        self._stall_s = stall_first_submit_s
        self._queue = queue.Queue()
        self._worker = threading.Thread(target=self._run, daemon=True)
        self._worker.start()

    def _run(self):
        while True:
            item = self._queue.get()
            if item is None:
                return
            enqueued, done = item
            time.sleep(self._service_s)
            done.latency_ms = (time.monotonic() - enqueued) * 1e3
            done.event.set()

    def submit(self, query, k=None):
        if self._stall_s:
            time.sleep(self._stall_s)  # a generator-side stall, once
            self._stall_s = 0.0
        done = SimpleNamespace(event=threading.Event(), latency_ms=None)
        self._queue.put((time.monotonic(), done))

        def result():
            assert done.event.wait(timeout=10)
            return SimpleNamespace(latency_ms=done.latency_ms, indices=np.arange(3))

        return SimpleNamespace(result=result)

    def close(self):
        self._queue.put(None)
        self._worker.join(timeout=10)
        assert not self._worker.is_alive()


@pytest.fixture
def server():
    stub = StubServer()
    yield stub
    stub.close()


def _schedule(due):
    return Schedule(np.asarray(due, dtype=float), np.zeros(len(due), dtype=np.int64))


def test_unloaded_latency_is_the_service_time(server):
    outcome = run_open_loop(server, _schedule([0.0, 0.1, 0.2, 0.3, 0.4]), QUERIES, k=3)
    assert outcome.failed == 0
    assert np.all(outcome.latency_s >= SERVICE_S)
    # The median: one request may catch a hiccup of the host.
    assert np.median(outcome.latency_s) < SERVICE_S + 0.015
    assert np.all(outcome.late_s >= 0) and np.all(outcome.late_s < 0.01)


def test_requests_due_together_queue_and_the_wait_is_counted(server):
    outcome = run_open_loop(server, _schedule([0.0, 0.0, 0.0]), QUERIES, k=3)
    # FIFO behind one worker: 1x, 2x, 3x the service time from the due time.
    for position, latency in enumerate(outcome.latency_s, start=1):
        assert latency == pytest.approx(position * SERVICE_S, abs=0.012)


def test_a_generator_stall_is_charged_from_the_due_time():
    stub = StubServer(stall_first_submit_s=0.08)
    try:
        outcome = run_open_loop(stub, _schedule([0.0, 0.01]), QUERIES, k=3)
    finally:
        stub.close()
    # The second request was due at 10 ms but could only be sent after the
    # 80 ms stall: its lateness is recorded and its latency includes it.
    assert outcome.late_s[1] >= 0.06
    assert outcome.latency_s[1] >= outcome.late_s[1] + SERVICE_S - 0.002


def test_refused_requests_count_as_failed():
    class Refusing:
        def submit(self, query, k=None):
            raise RuntimeError("queue full")

    outcome = run_open_loop(Refusing(), _schedule([0.0, 0.0]), QUERIES, k=3)
    assert outcome.failed == 2
    assert outcome.results == [None, None]
    assert np.all(np.isnan(outcome.latency_s))


def test_waiting_for_the_next_due_time_does_not_spin(server):
    cpu = time.process_time()
    run_open_loop(server, _schedule([0.0, 0.3]), QUERIES, k=3)
    assert time.process_time() - cpu < 0.1  # a spin-wait would burn ~0.3 s


def test_schedule_is_a_function_of_the_seed():
    a = poisson_schedule(200, 2.0, 64, seed=[7, 1])
    b = poisson_schedule(200, 2.0, 64, seed=[7, 1])
    c = poisson_schedule(200, 2.0, 64, seed=[7, 2])
    assert np.array_equal(a.due_s, b.due_s) and np.array_equal(a.rows, b.rows)
    assert not np.array_equal(a.due_s[:20], c.due_s[:20])
    assert np.all(np.diff(a.due_s) > 0) and a.due_s[-1] < 2.0
    assert len(a) == pytest.approx(400, rel=0.2)
    # Uniform rows are all distinct until the pool wraps; Zipf rows repeat.
    assert len(set(a.rows[:64].tolist())) == 64
    skewed = poisson_schedule(200, 2.0, 64, seed=[7, 1], zipf_s=1.1)
    assert np.bincount(skewed.rows, minlength=64)[0] > len(skewed) / 10
    # A phase sized in samples runs the same schedule on past its seconds.
    longer = poisson_schedule(200, 2.0, 64, seed=[7, 1], min_count=len(a) + 50)
    assert len(longer) == len(a) + 50 and longer.due_s[-1] > 2.0
    assert np.array_equal(longer.due_s[: len(a)], a.due_s)


def test_closed_loop_clients_run_back_to_back():
    def call(row):
        time.sleep(0.01)
        return row

    outcome = run_closed_loop(call, [range(0, 100), range(100, 200)], seconds=0.25)
    assert outcome.failed == 0
    assert 30 <= len(outcome.rows) <= 52  # 2 clients x ~25 calls
    assert all(lat >= 0.01 for lat in outcome.latency_s)
    assert outcome.qps == pytest.approx(len(outcome.rows) / outcome.seconds)
    sized = run_closed_loop(call, [range(0, 100), range(100, 200)], 0.01, min_count=20)
    assert 20 <= len(sized.rows) <= 22 and sized.seconds > 0.09
