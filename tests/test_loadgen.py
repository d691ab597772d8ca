"""Tests for the one load core: schedule → driver → report.

Every load shape (open, closed, fleet, mixed) runs on
:func:`repro.serve.drive_schedule`, so a request that raises — a planned
``serve.execute`` / ``router.dispatch`` fault, a malformed ``k`` — must
end as exactly one typed outcome at its schedule position instead of
taking its client thread (and every request queued behind it) down.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import SearchConfig
from repro.datasets.synthetic import make_queries
from repro.router import (
    RouterConfig,
    ShardRouter,
    TenantOverQuota,
    run_fleet_closed_loop,
)
from repro.serve import (
    OUTCOMES,
    CagraServer,
    RequestTimeout,
    ServeConfig,
    ServerOverloaded,
    ZipfTenantSchedule,
    drive_schedule,
    make_zipf_schedule,
    run_closed_loop,
    run_open_loop,
)
from repro.stream import MutableIndex, run_mixed_closed_loop

SEARCH = SearchConfig(itopk=32, seed=5)


def _raise_plan(point: str, times: int) -> str:
    return json.dumps(
        {"specs": [{"point": point, "kind": "raise", "after": 3, "times": times}]}
    )


EXECUTE_FAULTS = _raise_plan("serve.execute", times=2)


@pytest.fixture(scope="module")
def queries(small_data):
    return make_queries(small_data, 20, seed=33)


def make_server(index, fault_plan="") -> CagraServer:
    # Batches of one: a batch the plan fails cannot be bisected into
    # survivors, so ``times`` is the number of requests it fails.
    config = ServeConfig(
        max_batch=1, max_wait_ms=1.0, cache_capacity=0, fault_plan=fault_plan
    )
    return CagraServer(index, config, search_config=SEARCH)


def assert_every_position_accounted(report, scheduled: int) -> None:
    """Exactly one outcome per scheduled position; the counts sum up."""
    assert len(report) == len(report.schedule) == scheduled
    assert all(outcome in OUTCOMES for outcome in report.outcome)
    assert sum(report.count(outcome) for outcome in OUTCOMES) == scheduled


class TestNoLostRequests:
    """The parent generators lost these runs' failed requests: a
    ``FaultInjected`` escaped the open loop and killed closed-loop,
    mixed and fleet client threads, reporting ``failed=0``."""

    def test_open_loop(self, small_index, queries):
        with make_server(small_index, EXECUTE_FAULTS) as server:
            report = run_open_loop(server, queries, rate_qps=400.0,
                                   num_requests=40, seed=3)
        assert_every_position_accounted(report, 40)
        assert report.count("failed") == server.stats().failed == 2

    def test_closed_loop(self, small_index, queries):
        with make_server(small_index, EXECUTE_FAULTS) as server:
            report = run_closed_loop(server, queries, num_clients=2,
                                     requests_per_client=20)
        assert_every_position_accounted(report, 40)
        assert report.count("failed") == server.stats().failed == 2

    def test_mixed_closed_loop(self, small_index, small_data, queries):
        index = MutableIndex(small_index)
        with make_server(index, EXECUTE_FAULTS) as server:
            report = run_mixed_closed_loop(
                server, queries, small_data[:64], num_clients=2,
                ops_per_client=20, write_fraction=0.4, seed=9,
            )
        assert_every_position_accounted(report, 40)
        assert report.count("failed") == server.stats().failed == 2
        assert set(report.op) <= {"search", "insert", "delete"}

    @pytest.mark.parametrize("plan_at", ["serve.execute", "router.dispatch"])
    def test_fleet_closed_loop(self, small_index, queries, plan_at):
        plan = _raise_plan(plan_at, times=10)
        on_replicas = plan if plan_at == "serve.execute" else ""
        servers = [make_server(small_index, on_replicas) for _ in range(3)]
        router_plan = plan if plan_at == "router.dispatch" else ""
        schedule = make_zipf_schedule(40, 3, len(queries), seed=2)
        with ShardRouter(servers, RouterConfig(fault_plan=router_plan)) as router:
            report = run_fleet_closed_loop(router, queries, schedule,
                                           num_clients=2, k=10)
        assert_every_position_accounted(report, 40)
        assert report.count("failed") == router.stats().routed_failed > 0
        assert (report.replica[report.outcome != "ok"] == -1).all()

    def test_fleet_bad_k_is_failed_not_lost(self, small_index, queries):
        """``k=0`` used to mean "the default" when sizing the answers while
        every request raised ``ValueError`` in its client thread."""
        schedule = make_zipf_schedule(12, 2, len(queries), seed=5)
        servers = [make_server(small_index) for _ in range(2)]
        with ShardRouter(servers) as router:
            report = run_fleet_closed_loop(router, queries, schedule, k=0)
        assert_every_position_accounted(report, 12)
        assert report.count("failed") == 12


class TestDriver:
    def test_typed_refusals_map_to_their_outcomes(self):
        raised = [None, ServerOverloaded("full"), TenantOverQuota("t", 0.1),
                  RequestTimeout("late"), RuntimeError("boom")]

        def send(pos):
            if raised[pos] is not None:
                raise raised[pos]
            return np.array([7, 8])

        schedule = ZipfTenantSchedule.round_robin(5, 5)
        report = drive_schedule(send, schedule, [[0, 1], [2, 3, 4]], shape="unit")
        assert list(report.outcome) == list(OUTCOMES)
        assert report.error[0] is None and "boom" in report.error[4]
        assert "first failure: RuntimeError('boom')" in report.summary()
        assert report.indices.tolist() == [[7, 8]] + [[-1, -1]] * 4
        assert report.answers()[0].tolist() == [0]

    def test_paced_latency_runs_from_the_due_time(self):
        """One client, three positions all due at 0, 30 ms each: the third
        is sent ~60 ms late, and its latency charges that wait."""
        schedule = ZipfTenantSchedule.round_robin(3, 3)

        def send(pos):
            time.sleep(0.03)
            return np.array([pos])

        paced = drive_schedule(send, schedule, [[0, 1, 2]], shape="unit", pace=True)
        assert paced.lateness_ms[2] >= 55.0
        assert paced.latency_ms[2] >= paced.lateness_ms[2] + 25.0
        unpaced = drive_schedule(send, schedule, [[0, 1, 2]], shape="unit")
        assert (unpaced.lateness_ms == 0.0).all()
        assert unpaced.latency_ms.max() < paced.latency_ms[2]
        assert "from due" in paced.summary() and "from send" in unpaced.summary()

    def test_many_clients_lose_no_position(self):
        """More client threads than cores, with a tiny switch interval: a
        lost update to the shared per-position arrays would leave a hole."""
        n, num_clients = 1200, 60

        def send(pos):
            if pos % 7 == 0:
                raise ValueError(pos)
            return np.array([pos])

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = drive_schedule(
                send, ZipfTenantSchedule.round_robin(n, n),
                [range(c, n, num_clients) for c in range(num_clients)], shape="unit",
            )
        finally:
            sys.setswitchinterval(switch)
        failed = np.arange(n) % 7 == 0
        assert (report.outcome[failed] == "failed").all()
        assert (report.outcome[~failed] == "ok").all()
        assert (report.indices[~failed, 0] == np.flatnonzero(~failed)).all()

    @pytest.mark.parametrize("clients", [[[0, 1]], [[0, 1], [1, 2]]])
    def test_clients_must_cover_the_schedule_once(self, clients):
        with pytest.raises(ValueError, match="exactly once"):
            drive_schedule(np.asarray, ZipfTenantSchedule.round_robin(3, 3),
                           clients, shape="unit")


def test_serve_imports_neither_router_nor_stream():
    code = (
        "import sys, repro.serve; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('repro.router', 'repro.stream'))))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env, timeout=120).stdout
    assert out.strip() == "[]"
