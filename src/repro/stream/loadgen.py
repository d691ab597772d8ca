"""Closed-loop mixed read/write load generator for a mutable server.

Extends the serving layer's closed-loop shape
(:func:`repro.serve.loadgen.run_closed_loop`) with writes: each of
``num_clients`` synchronous workers draws its next op from a seeded
per-client ``Generator`` — search, insert (from the client's slice of a
vector pool), or delete (of one of the *client's own* acknowledged
inserts, so delete targets never race between clients and every run with
the same seed issues the same op sequence per client).

The report keeps enough evidence to score the freshness contract:
``results`` for recall-vs-oracle, ``inserted_ids`` / ``deleted_ids`` for
"no deleted id ever served" / "every insert immediately findable"
assertions.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve.loadgen import run_client_threads
from repro.serve.server import CagraServer, ServeError
from repro.serve.stats import latency_summary

__all__ = ["MixedLoadReport", "run_mixed_closed_loop"]


@dataclass
class MixedLoadReport:
    """Client-side outcome of one mixed read/write run."""

    num_clients: int = 0
    searches: int = 0
    inserts: int = 0
    deletes: int = 0
    failures: int = 0
    duration_seconds: float = 0.0
    search_latencies_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    write_latencies_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    results: list = field(default_factory=list)  # (query_row, indices)
    inserted_ids: list = field(default_factory=list)
    deleted_ids: list = field(default_factory=list)

    @property
    def ops(self) -> int:
        return self.searches + self.inserts + self.deletes

    def latency_percentile_ms(self, q: float) -> float:
        return latency_summary(self.search_latencies_ms, (q,))[f"p{q:g}"]

    def summary(self) -> str:
        search = latency_summary(self.search_latencies_ms)
        write = latency_summary(self.write_latencies_ms)
        return (
            f"mixed closed-loop: {self.ops} ops over {self.num_clients} clients "
            f"(searches={self.searches} inserts={self.inserts} "
            f"deletes={self.deletes} failures={self.failures}) "
            f"in {self.duration_seconds:.2f}s; "
            f"search p50={search['p50']:.2f}ms p95={search['p95']:.2f}ms "
            f"write p95={write['p95']:.2f}ms"
        )


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
) -> MixedLoadReport:
    """Drive mixed traffic at a started server over a mutable index.

    Per op: with probability ``write_fraction`` a write, else a search.
    A write is a delete of one of the client's own live inserts with
    probability ``delete_fraction`` (an insert otherwise, pulling the
    next vector from the client's ``insert_pool`` slice; an exhausted
    pool degrades writes to searches).  Each client's op stream is a
    deterministic function of ``(seed, client)``.
    """
    if num_clients < 1 or ops_per_client < 1:
        raise ValueError("num_clients and ops_per_client must be >= 1")
    if not 0.0 <= write_fraction <= 1.0 or not 0.0 <= delete_fraction <= 1.0:
        raise ValueError("write_fraction and delete_fraction must be in [0, 1]")
    queries = np.atleast_2d(queries)
    insert_pool = np.atleast_2d(insert_pool)
    report = MixedLoadReport(num_clients=num_clients)
    lock = threading.Lock()
    search_latencies: list = []
    write_latencies: list = []

    def worker(client: int) -> None:
        rng = np.random.default_rng([seed, client])
        pool = insert_pool[client::num_clients]
        next_row = 0
        own_live: list = []
        for j in range(ops_per_client):
            u = float(rng.random())
            kind = "search"
            if u < write_fraction:
                if own_live and float(rng.random()) < delete_fraction:
                    kind = "delete"
                elif next_row < pool.shape[0]:
                    kind = "insert"
            try:
                if kind == "insert":
                    started = time.perf_counter()
                    # CagraServer.insert is a thread-safe RPC-shaped method,
                    # not a container mutation.
                    # repro-lint: disable=RL102 — server locks internally
                    assigned = server.insert(pool[next_row])
                    elapsed = time.perf_counter() - started
                    next_row += 1
                    own_live.append(int(assigned[0]))
                    with lock:
                        report.inserts += 1
                        report.inserted_ids.append(int(assigned[0]))
                        write_latencies.append(elapsed * 1e3)
                elif kind == "delete":
                    victim = own_live.pop(int(rng.integers(0, len(own_live))))
                    started = time.perf_counter()
                    server.delete([victim])
                    elapsed = time.perf_counter() - started
                    with lock:
                        report.deletes += 1
                        report.deleted_ids.append(victim)
                        write_latencies.append(elapsed * 1e3)
                else:
                    query_row = (client * ops_per_client + j) % queries.shape[0]
                    result = server.search(
                        queries[query_row], k=k, timeout_ms=timeout_ms
                    )
                    with lock:
                        report.searches += 1
                        search_latencies.append(result.latency_ms)
                        report.results.append((query_row, result.indices))
            except ServeError:
                with lock:
                    report.failures += 1

    report.duration_seconds = run_client_threads(
        worker, range(num_clients), "mixed-loadgen"
    )
    report.search_latencies_ms = np.asarray(search_latencies, dtype=np.float64)
    report.write_latencies_ms = np.asarray(write_latencies, dtype=np.float64)
    return report
