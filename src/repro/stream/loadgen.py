"""Closed-loop mixed read/write load at a server over a mutable index: the
serving layer's closed-loop shape with writes, on the one load driver."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.serve.loadgen import ScheduleReport, ZipfTenantSchedule, drive_schedule
from repro.serve.server import CagraServer

__all__ = ["run_mixed_closed_loop"]


class _Writer:
    """One client's writes: its op draws, its insert-pool slice and its own
    live inserts.  Only the driver thread running that client touches it."""

    def __init__(self, server, pool, rng, fractions, ops):
        self.server, self.pool, self.rng, self.fractions = server, pool, rng, fractions
        self.ops = ops
        self.live: list[int] = []

    def write(self, pos: int):
        """Draw op ``pos`` into the op log; run it if it is a write and
        return the ids written, else None (a search)."""
        write_fraction, delete_fraction = self.fractions
        if float(self.rng.random()) >= write_fraction:
            return None
        if self.live and float(self.rng.random()) < delete_fraction:
            self.ops[pos] = "delete"
            victim = self.live.pop(int(self.rng.integers(0, len(self.live))))
            self.server.delete([victim])
            return [victim]
        if not len(self.pool):
            return None
        self.ops[pos] = "insert"
        assigned = self.server.insert(self.pool[0])
        self.pool = self.pool[1:]
        self.live.append(int(assigned[0]))
        return assigned


def run_mixed_closed_loop(
    server: CagraServer,
    queries: np.ndarray,
    insert_pool: np.ndarray,
    *,
    num_clients: int = 2,
    ops_per_client: int = 100,
    write_fraction: float = 0.2,
    delete_fraction: float = 0.3,
    k: int | None = None,
    timeout_ms: float | None = None,
    seed: int = 0,
) -> ScheduleReport:
    """Drive mixed traffic at a started server over a mutable index.

    Per op: with probability ``write_fraction`` a write, else a search.
    A write is a delete of one of the client's own live inserts with
    probability ``delete_fraction`` (an insert otherwise, pulling the
    next vector from the client's ``insert_pool`` slice; an exhausted
    pool degrades writes to searches).  Each client's op stream is a
    deterministic function of ``(seed, client)``, and delete targets
    never race between clients.  The report's ``op`` says what each
    position was; ``answers("insert")`` holds the ids inserted.
    """
    if num_clients < 1 or ops_per_client < 1:
        raise ValueError("num_clients and ops_per_client must be >= 1")
    if not 0.0 <= write_fraction <= 1.0 or not 0.0 <= delete_fraction <= 1.0:
        raise ValueError("write_fraction and delete_fraction must be in [0, 1]")
    queries = np.atleast_2d(queries)
    insert_pool = np.atleast_2d(insert_pool)
    n = num_clients * ops_per_client
    schedule = ZipfTenantSchedule.round_robin(n, queries.shape[0])
    ops = np.full(n, "search", dtype=object)
    writers = [
        _Writer(server, insert_pool[c::num_clients], np.random.default_rng([seed, c]),
                (write_fraction, delete_fraction), ops)
        for c in range(num_clients)
    ]

    def send(pos: int):
        written = writers[pos // ops_per_client].write(pos)
        if written is not None:
            return written
        return server.search(queries[schedule.query_rows[pos]], k=k, timeout_ms=timeout_ms)

    clients = [range(c * ops_per_client, (c + 1) * ops_per_client) for c in range(num_clients)]
    report = drive_schedule(send, schedule, clients, shape="mixed")
    return dataclasses.replace(report, op=ops)
