"""Load generators: a seeded open loop and a closed loop.

Open loop: the whole arrival schedule (when, which query row) is drawn
from the seed before the clock starts, and requests are sent on that
schedule whatever the server does.  A request's latency runs from the
moment it was *due*, so a stall in the server — or in this generator — is
charged to every request it delayed; how late the generator itself ran is
recorded per request.  Waiting for the next due time is a plain
``time.sleep``: a spin-wait holds the GIL against the very server thread
being measured (it raised served p50 at 50 qps from ~9.7 to ~11.3 ms).

Closed loop: each client sends its next request when the previous one
returned, so offered load follows the system's speed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Schedule:
    """Arrival offsets (seconds from start) and the query row of each."""

    due_s: np.ndarray
    rows: np.ndarray

    def __len__(self) -> int:
        return int(self.due_s.shape[0])


def poisson_schedule(
    rate_qps: float, seconds: float, num_rows: int, seed, zipf_s: float = 0.0,
    min_count: int = 0,
) -> Schedule:
    """Poisson arrivals at ``rate_qps`` for ``seconds``, and on until
    ``min_count`` requests have arrived (for phases sized in samples).

    Query rows cycle through a seeded permutation (every request distinct
    until the pool wraps) or, with ``zipf_s > 0``, are drawn with
    probability ``rank ** -zipf_s`` so a few rows repeat often.
    """
    rng = np.random.default_rng(seed)
    expected = rate_qps * seconds
    draws = max(min_count, int(expected + 6 * expected**0.5) + 8)
    due = np.cumsum(rng.exponential(1.0 / rate_qps, size=draws))
    due = due[: max(min_count, int(np.searchsorted(due, seconds)))]
    if zipf_s > 0.0:
        weights = np.arange(1, num_rows + 1, dtype=np.float64) ** -zipf_s
        rows = rng.choice(num_rows, size=due.shape[0], p=weights / weights.sum())
    else:
        rows = np.resize(rng.permutation(num_rows), due.shape[0])
    return Schedule(due_s=due, rows=rows.astype(np.int64))


@dataclass
class OpenLoopResult:
    """Outcome of one open-loop run (one entry per scheduled request)."""

    seconds: float
    rows: np.ndarray
    latency_s: np.ndarray  # due time -> completion; nan where failed
    late_s: np.ndarray  # due time -> actual send
    results: list = field(default_factory=list)  # None where failed
    failed: int = 0


def run_open_loop(server, schedule: Schedule, queries: np.ndarray, k: int) -> OpenLoopResult:
    """Send ``schedule`` through ``server.submit`` from the calling thread.

    ``server.submit(query, k=k)`` must return a handle whose ``result()``
    gives an object with ``latency_ms`` (submit to completion, measured by
    the server) and ``indices``; completion is then ``send + latency_ms``
    and latency from due is ``late + latency_ms``.
    """
    handles = []
    late = np.empty(len(schedule))
    start = time.perf_counter()
    for i in range(len(schedule)):
        wait = start + schedule.due_s[i] - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent = time.perf_counter()
        late[i] = sent - (start + schedule.due_s[i])
        try:
            handles.append(server.submit(queries[schedule.rows[i]], k=k))
        except Exception:  # refused (overload/closed) counts as failed
            handles.append(None)
    latency = np.full(len(schedule), np.nan)
    results: list = []
    failed = 0
    for i, handle in enumerate(handles):
        answer = None
        if handle is not None:
            try:
                answer = handle.result()
            except Exception:  # timeout or server-side error
                pass
        if answer is None:
            failed += 1
        else:
            latency[i] = late[i] + answer.latency_ms / 1e3
        results.append(answer)
    seconds = time.perf_counter() - start
    return OpenLoopResult(seconds, schedule.rows, latency, late, results, failed)


@dataclass
class ClosedLoopResult:
    seconds: float
    rows: list  # query row per completed or failed request
    latency_s: list
    results: list  # None where failed
    failed: int = 0

    @property
    def qps(self) -> float:
        return (len(self.rows) - self.failed) / self.seconds


def run_closed_loop(
    call, client_rows: list, seconds: float, min_count: int = 0
) -> ClosedLoopResult:
    """One thread per entry of ``client_rows``; each calls ``call(row)``
    back-to-back for ``seconds`` and on until the clients together have
    made ``min_count`` calls (or until its rows run out)."""
    per_client: list[list] = [[] for _ in client_rows]
    start = time.perf_counter()
    deadline = start + seconds

    def client(slot: int, rows) -> None:
        out = per_client[slot]
        for row in rows:
            began = time.perf_counter()
            if began >= deadline and sum(map(len, per_client)) >= min_count:
                return
            try:
                answer = call(int(row))
            except Exception:  # a failed request still ends its turn
                answer = None
            out.append((int(row), time.perf_counter() - began, answer))

    threads = [
        threading.Thread(target=client, args=(slot, rows), name=f"bench-client-{slot}")
        for slot, rows in enumerate(client_rows)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    flat = [item for out in per_client for item in out]
    return ClosedLoopResult(
        seconds=elapsed,
        rows=[row for row, _, _ in flat],
        latency_s=[lat for _, lat, _ in flat],
        results=[answer for _, _, answer in flat],
        failed=sum(1 for _, _, answer in flat if answer is None),
    )
