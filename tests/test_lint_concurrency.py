"""Tests for the concurrency/contract lint rules (RL101–RL104,
RL201–RL202) and the thread-sanitizer-lite runtime mode (RL301/RL302).

Each static rule gets positive, negative, and waived cases; the
sanitizer is exercised against a seeded two-lock deadlock and the
pre-fix ``ExecutorStats`` unlocked-increment race.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.lint import lint_source
from repro.lint.sanitizer import ThreadSanitizer

CONCURRENCY_FIXTURES = Path(__file__).parent / "fixtures" / "lint" / "concurrency"
API_FIXTURES = Path(__file__).parent / "fixtures" / "lint" / "api"


def rules_of(source: str, path: str = "repro/serve/mod.py") -> set[str]:
    return {v.rule for v in lint_source(source, path)}


# ----------------------------------------------------------------------
# RL101 — lock-guarded attribute accessed without its lock
# ----------------------------------------------------------------------
LOCKED_CLASS = (
    "import threading\n"
    "class C:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self.total = 0\n"
    "    def add(self, n):\n"
    "        with self._lock:\n"
    "            self.total = self.total + n\n"
)


class TestRL101:
    def test_unguarded_write_is_flagged(self):
        src = LOCKED_CLASS + "    def reset(self):\n        self.total = 0\n"
        assert "RL101" in rules_of(src)

    def test_unguarded_read_is_flagged(self):
        src = LOCKED_CLASS + "    def peek(self):\n        return self.total\n"
        assert "RL101" in rules_of(src)

    def test_all_guarded_passes(self):
        src = LOCKED_CLASS + (
            "    def peek(self):\n"
            "        with self._lock:\n"
            "            return self.total\n"
        )
        assert "RL101" not in rules_of(src)

    def test_init_writes_are_exempt(self):
        assert "RL101" not in rules_of(LOCKED_CLASS)

    def test_class_without_lock_is_ignored(self):
        src = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self.total = 0\n"
            "    def add(self, n):\n"
            "        self.total += n\n"
        )
        assert "RL101" not in rules_of(src)

    def test_unguarded_attribute_stays_free(self):
        # An attribute never written under the lock has no discipline.
        src = LOCKED_CLASS + (
            "    def tick(self):\n"
            "        self.beats = 1\n"
            "    def tock(self):\n"
            "        return self.beats\n"
        )
        assert "RL101" not in rules_of(src)

    def test_waiver_suppresses(self):
        src = LOCKED_CLASS + (
            "    def reset(self):\n"
            "        self.total = 0"
            "  # repro-lint: disable=RL101 — single-threaded teardown\n"
        )
        assert "RL101" not in rules_of(src)

    def test_locked_suffix_method_assumes_lock_held(self):
        # `*_locked` methods declare "caller holds the lock".
        src = LOCKED_CLASS + (
            "    def reset_locked(self):\n"
            "        self.total = 0\n"
        )
        assert "RL101" not in rules_of(src)


# ----------------------------------------------------------------------
# RL006 — tombstone/mask visibility state guarded by declaration
# ----------------------------------------------------------------------
STREAM_CLASS = (
    "import threading\n"
    "class S:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._tombstones = []\n"
    "        self.counter = 0\n"
)


class TestRL006:
    def test_unlocked_rebind_is_flagged(self):
        src = STREAM_CLASS + (
            "    def swap(self, fresh):\n"
            "        self._tombstones = fresh\n"
        )
        assert "RL006" in rules_of(src)

    def test_unlocked_element_store_is_flagged(self):
        src = STREAM_CLASS + (
            "    def delete(self, row):\n"
            "        self._tombstones[row] = True\n"
        )
        assert "RL006" in rules_of(src)

    def test_unlocked_inplace_mutator_is_flagged(self):
        src = STREAM_CLASS + (
            "    def delete(self, row):\n"
            "        self._tombstones.append(row)\n"
        )
        assert "RL006" in rules_of(src)

    def test_locked_write_passes(self):
        src = STREAM_CLASS + (
            "    def delete(self, row):\n"
            "        with self._lock:\n"
            "            self._tombstones[row] = True\n"
        )
        assert "RL006" not in rules_of(src)

    def test_flagged_even_when_class_never_locks_it(self):
        # RL101 only learns from writes it has seen under a lock; RL006
        # guards the name family by declaration, so a class that forgot
        # to lock these writes entirely is still caught.
        src = STREAM_CLASS + (
            "    def delete(self, row):\n"
            "        self._tombstones[row] = True\n"
        )
        assert "RL101" not in rules_of(src)
        assert "RL006" in rules_of(src)

    def test_locked_suffix_method_is_exempt(self):
        src = STREAM_CLASS + (
            "    def _delete_locked(self, row):\n"
            "        self._tombstones[row] = True\n"
        )
        assert "RL006" not in rules_of(src)

    def test_unrelated_attribute_is_ignored(self):
        src = STREAM_CLASS + (
            "    def bump(self):\n"
            "        self.counter = self.counter + 1\n"
        )
        assert "RL006" not in rules_of(src)

    def test_class_without_lock_is_ignored(self):
        src = (
            "class S:\n"
            "    def __init__(self):\n"
            "        self._tombstones = []\n"
            "    def delete(self, row):\n"
            "        self._tombstones.append(row)\n"
        )
        assert "RL006" not in rules_of(src)

    def test_waiver_suppresses(self):
        src = STREAM_CLASS + (
            "    def delete(self, row):\n"
            "        self._tombstones[row] = True"
            "  # repro-lint: disable=RL006 — single-threaded tool\n"
        )
        assert "RL006" not in rules_of(src)


# ----------------------------------------------------------------------
# RL102 — shared-state mutation in thread targets
# ----------------------------------------------------------------------
class TestRL102:
    def test_unlocked_closure_mutation_is_flagged(self):
        src = (
            "import threading\n"
            "def run():\n"
            "    out = []\n"
            "    def worker():\n"
            "        out.append(1)\n"
            "    threading.Thread(target=worker).start()\n"
        )
        assert "RL102" in rules_of(src)

    def test_locked_mutation_passes(self):
        src = (
            "import threading\n"
            "def run():\n"
            "    out = []\n"
            "    lock = threading.Lock()\n"
            "    def worker():\n"
            "        with lock:\n"
            "            out.append(1)\n"
            "    threading.Thread(target=worker).start()\n"
        )
        assert "RL102" not in rules_of(src)

    def test_local_mutation_passes(self):
        src = (
            "import threading\n"
            "def worker():\n"
            "    mine = []\n"
            "    mine.append(1)\n"
            "def run():\n"
            "    threading.Thread(target=worker).start()\n"
        )
        assert "RL102" not in rules_of(src)

    def test_load_driver_callback_is_covered(self):
        # drive_schedule runs ``send`` on one thread per client.
        fixture = CONCURRENCY_FIXTURES / "rl102_load_driver.py"
        violations = lint_source(fixture.read_text(), "repro/serve/mod.py")
        assert [v.rule for v in violations] == ["RL102"]
        assert "'_send'" in violations[0].message

    def test_executor_submit_callback_is_covered(self):
        src = (
            "shared = {}\n"
            "def task(n):\n"
            "    shared[n] = n\n"
            "def run(pool):\n"
            "    pool.submit(task, 3)\n"
        )
        assert "RL102" in rules_of(src)

    def test_waiver_suppresses(self):
        src = (
            "import threading\n"
            "def run():\n"
            "    out = []\n"
            "    def worker():\n"
            "        # repro-lint: disable=RL102 — joined before reads\n"
            "        out.append(1)\n"
            "    threading.Thread(target=worker).start()\n"
        )
        assert "RL102" not in rules_of(src)


# ----------------------------------------------------------------------
# RL103 — fork-unsafety in pool task bodies
# ----------------------------------------------------------------------
class TestRL103:
    def test_os_exit_in_task_is_flagged(self):
        src = (
            "import os\n"
            "def task(p):\n"
            "    os._exit(1)\n"
            "def run(pool, items):\n"
            "    return [pool.submit(task, p) for p in items]\n"
        )
        assert "RL103" in rules_of(src)

    def test_lock_acquisition_in_task_is_flagged(self):
        src = (
            "import threading\n"
            "_lock = threading.Lock()\n"
            "def task(p):\n"
            "    with _lock:\n"
            "        return p\n"
            "def run(executor, items):\n"
            "    return executor.map(task, items)\n"
        )
        assert "RL103" in rules_of(src)

    def test_module_rng_in_task_is_flagged(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "def task(p):\n"
            "    return rng.random()\n"
            "def run(pool, items):\n"
            "    return [pool.submit(task, p) for p in items]\n"
        )
        assert "RL103" in rules_of(src)

    def test_clean_task_passes(self):
        src = (
            "def task(p):\n"
            "    return p * p\n"
            "def run(pool, items):\n"
            "    return [pool.submit(task, p) for p in items]\n"
        )
        assert "RL103" not in rules_of(src)

    def test_resilience_fault_points_are_sanctioned(self):
        src = (
            "import os\n"
            "def task(p):\n"
            "    os._exit(1)\n"
            "def run(pool, items):\n"
            "    return [pool.submit(task, p) for p in items]\n"
        )
        assert "RL103" not in rules_of(src, path="repro/resilience/faults.py")

    def test_waiver_suppresses(self):
        src = (
            "import os\n"
            "def task(p):\n"
            "    os._exit(1)  # repro-lint: disable=RL103 — crash fixture\n"
            "def run(pool, items):\n"
            "    return [pool.submit(task, p) for p in items]\n"
        )
        assert "RL103" not in rules_of(src)


# ----------------------------------------------------------------------
# RL104 — blocking calls while holding a lock
# ----------------------------------------------------------------------
class TestRL104:
    def test_queue_get_without_timeout_is_flagged(self):
        src = (
            "def drain(self):\n"
            "    with self._lock:\n"
            "        return self._queue.get()\n"
        )
        assert "RL104" in rules_of(src)

    def test_queue_get_with_timeout_passes(self):
        src = (
            "def drain(self):\n"
            "    with self._lock:\n"
            "        return self._queue.get(timeout=0.5)\n"
        )
        assert "RL104" not in rules_of(src)

    def test_future_result_under_lock_is_flagged(self):
        src = (
            "def wait(self, future):\n"
            "    with self._lock:\n"
            "        return future.result()\n"
        )
        assert "RL104" in rules_of(src)

    def test_nested_locks_are_flagged(self):
        src = (
            "def both(self):\n"
            "    with self._swap_lock:\n"
            "        with self._stats_lock:\n"
            "            return 1\n"
        )
        assert "RL104" in rules_of(src)

    def test_blocking_outside_lock_passes(self):
        src = (
            "def drain(self):\n"
            "    item = self._queue.get()\n"
            "    with self._lock:\n"
            "        return item\n"
        )
        assert "RL104" not in rules_of(src)

    def test_waiver_suppresses(self):
        src = (
            "def wait(self, future):\n"
            "    with self._lock:\n"
            "        # repro-lint: disable=RL104 — future already done\n"
            "        return future.result()\n"
        )
        assert "RL104" not in rules_of(src)


# ----------------------------------------------------------------------
# RL201 / RL202 — AnnIndex search contract
# ----------------------------------------------------------------------
ADAPTER_PATH = "repro/api/adapters.py"


class TestRL201:
    def test_raw_tuple_return_is_flagged(self):
        src = (
            "class FlatAnnIndex:\n"
            "    kind = 'flat'\n"
            "    def search(self, queries, k):\n"
            "        return self._inner.raw_topk(queries, k)\n"
        )
        assert "RL201" in rules_of(src, path=ADAPTER_PATH)

    def test_searchresult_without_normalize_is_flagged(self):
        src = (
            "class FlatAnnIndex:\n"
            "    kind = 'flat'\n"
            "    def search(self, queries, k):\n"
            "        ids, dists = self._inner.raw_topk(queries, k)\n"
            "        return SearchResult(indices=ids, distances=dists)\n"
        )
        assert "RL201" in rules_of(src, path=ADAPTER_PATH)

    def test_contract_compliant_search_passes(self):
        src = (
            "class FlatAnnIndex:\n"
            "    kind = 'flat'\n"
            "    def search(self, queries, k):\n"
            "        ids, dists = self._inner.raw_topk(queries, k)\n"
            "        out_ids, out_dists = normalize_results(ids, dists)\n"
            "        return SearchResult(indices=out_ids, distances=out_dists)\n"
        )
        assert "RL201" not in rules_of(src, path=ADAPTER_PATH)

    def test_native_baseline_class_is_exempt(self):
        src = (
            "class HnswIndex:\n"
            "    def search(self, queries, k):\n"
            "        return self._ids, self._dists\n"
        )
        assert "RL201" not in rules_of(src, path="repro/baselines/hnsw.py")

    def test_out_of_scope_path_is_exempt(self):
        src = (
            "class FlatAnnIndex:\n"
            "    kind = 'flat'\n"
            "    def search(self, queries, k):\n"
            "        return self._inner.raw_topk(queries, k)\n"
        )
        assert "RL201" not in rules_of(src, path="repro/bench/mod.py")

    def test_waiver_suppresses(self):
        src = (
            "class FlatAnnIndex:\n"
            "    kind = 'flat'\n"
            "    def search(self, queries, k):\n"
            "        # repro-lint: disable=RL201 — legacy shim\n"
            "        return self._inner.raw_topk(queries, k)\n"
        )
        assert "RL201" not in rules_of(src, path=ADAPTER_PATH)


class TestRL202:
    def test_int64_ids_into_searchresult_are_flagged(self):
        src = (
            "import numpy as np\n"
            "class FlatAnnIndex:\n"
            "    kind = 'flat'\n"
            "    def search(self, queries, k):\n"
            "        ids = np.zeros((2, k), dtype=np.int64)\n"
            "        return SearchResult(indices=ids, distances=None)\n"
        )
        assert "RL202" in rules_of(src, path=ADAPTER_PATH)

    def test_normalized_ids_pass(self):
        src = (
            "import numpy as np\n"
            "class FlatAnnIndex:\n"
            "    kind = 'flat'\n"
            "    def search(self, queries, k):\n"
            "        ids = np.zeros((2, k), dtype=np.int64)\n"
            "        ids, dists = normalize_results(ids, ids)\n"
            "        return SearchResult(indices=ids, distances=dists)\n"
        )
        assert "RL202" not in rules_of(src, path=ADAPTER_PATH)

    def test_float_equality_on_result_path_is_flagged(self):
        src = (
            "class FlatAnnIndex:\n"
            "    kind = 'flat'\n"
            "    def search(self, queries, k):\n"
            "        ids, dists = normalize_results(*self._raw(queries, k))\n"
            "        mask = dists == 0.0\n"
            "        return SearchResult(indices=ids, distances=dists)\n"
        )
        assert "RL202" in rules_of(src, path=ADAPTER_PATH)

    def test_waiver_suppresses(self):
        src = (
            "import numpy as np\n"
            "class FlatAnnIndex:\n"
            "    kind = 'flat'\n"
            "    def search(self, queries, k):\n"
            "        ids = np.zeros((2, k), dtype=np.int64)\n"
            "        # repro-lint: disable=RL202 — ids proven < 2**31\n"
            "        return SearchResult(indices=ids, distances=None)\n"
        )
        assert "RL202" not in rules_of(src, path=ADAPTER_PATH)


# ----------------------------------------------------------------------
# committed fixtures through the CLI
# ----------------------------------------------------------------------
class TestFixturesThroughCli:
    @pytest.mark.parametrize(
        "fixtures, rule_id",
        [
            (CONCURRENCY_FIXTURES, "RL006"),
            (CONCURRENCY_FIXTURES, "RL101"),
            (CONCURRENCY_FIXTURES, "RL102"),
            (CONCURRENCY_FIXTURES, "RL103"),
            (CONCURRENCY_FIXTURES, "RL104"),
            (API_FIXTURES, "RL201"),
            (API_FIXTURES, "RL202"),
        ],
    )
    def test_each_fixture_fails_strict_lint(self, fixtures, rule_id, capsys):
        fixture = next(fixtures.glob(f"{rule_id.lower()}_*.py"))
        assert main(["lint", str(fixture), "--strict"]) == 1
        assert rule_id in capsys.readouterr().out


# ----------------------------------------------------------------------
# thread-sanitizer-lite (RL301 / RL302)
# ----------------------------------------------------------------------
def _run_thread(fn, name="worker"):
    thread = threading.Thread(target=fn, name=name)
    thread.start()
    thread.join()


class TestSanitizerDeadlock:
    def test_seeded_two_lock_cycle_is_flagged(self):
        with ThreadSanitizer() as sanitizer:
            a, b = threading.Lock(), threading.Lock()

            def order_ab():
                with a:
                    with b:
                        pass

            def order_ba():
                with b:
                    with a:
                        pass

            _run_thread(order_ab, "t-ab")
            _run_thread(order_ba, "t-ba")
        reports = [v for v in sanitizer.violations() if v.rule == "RL301"]
        assert len(reports) == 1
        assert "potential deadlock" in reports[0].message
        # both acquisition sites are named in the report
        assert reports[0].message.count(__file__.rsplit(os.sep, 1)[-1]) >= 1

    def test_consistent_order_is_clean(self):
        with ThreadSanitizer() as sanitizer:
            a, b = threading.Lock(), threading.Lock()

            def nested():
                with a:
                    with b:
                        pass

            _run_thread(nested, "t-1")
            _run_thread(nested, "t-2")
        assert sanitizer.violations() == []

    def test_lock_factory_is_restored_after_disable(self):
        original = threading.Lock
        with ThreadSanitizer():
            assert threading.Lock is not original
        assert threading.Lock is original

    def test_waiver_at_acquisition_site_suppresses(self, tmp_path):
        module = tmp_path / "seeded_deadlock_mod.py"
        module.write_text(
            "import threading\n"
            "def run():\n"
            "    a, b = threading.Lock(), threading.Lock()\n"
            "    def ab():\n"
            "        with a:\n"
            "            with b:\n"
            "                pass\n"
            "    def ba():\n"
            "        with b:\n"
            "            # repro-lint: disable=RL301 — seeded fixture\n"
            "            with a:\n"
            "                pass\n"
            "    for fn in (ab, ba):\n"
            "        t = threading.Thread(target=fn)\n"
            "        t.start()\n"
            "        t.join()\n"
        )
        sys.path.insert(0, str(tmp_path))
        try:
            import seeded_deadlock_mod

            with ThreadSanitizer() as sanitizer:
                seeded_deadlock_mod.run()
            assert sanitizer.violations() == []
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("seeded_deadlock_mod", None)


class TestSanitizerWriteRaces:
    def test_prefix_executor_stats_race_is_tagged(self):
        """Regression: the pre-fix ``stats.retries += 1`` pattern — two
        threads doing unlocked read-modify-write — must be tagged RL302."""
        from repro.parallel.executor import ExecutorStats

        with ThreadSanitizer() as sanitizer:
            stats = ExecutorStats()
            barrier = threading.Barrier(2)

            def hammer():
                barrier.wait()
                for _ in range(500):
                    stats.retries = stats.retries + 1

            threads = [
                threading.Thread(target=hammer, name=f"h{i}") for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        reports = [v for v in sanitizer.violations() if v.rule == "RL302"]
        assert len(reports) == 1
        assert "ExecutorStats.retries" in reports[0].message

    def test_fixed_increment_path_is_clean_and_consistent(self):
        from repro.parallel.executor import ExecutorStats

        with ThreadSanitizer() as sanitizer:
            stats = ExecutorStats()

            def hammer():
                for _ in range(500):
                    stats.increment("retries")

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert stats.retries == 2000
        assert sanitizer.violations() == []

    def test_single_thread_handoff_is_not_tagged(self):
        from repro.parallel.executor import ExecutorStats

        with ThreadSanitizer() as sanitizer:
            stats = ExecutorStats()

            def solo():
                for _ in range(100):
                    stats.completed = stats.completed + 1

            _run_thread(solo)
        assert sanitizer.violations() == []


class TestSanitizerCli:
    def _run_cli(self, tmp_path, test_source):
        test_file = tmp_path / "test_sanitize_target.py"
        test_file.write_text(test_source)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "--sanitize",
             str(test_file)],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_sanitize_flags_seeded_deadlock(self, tmp_path):
        proc = self._run_cli(tmp_path, (
            "import threading\n"
            "def test_lock_order_cycle():\n"
            "    a, b = threading.Lock(), threading.Lock()\n"
            "    def ab():\n"
            "        with a:\n"
            "            with b:\n"
            "                pass\n"
            "    def ba():\n"
            "        with b:\n"
            "            with a:\n"
            "                pass\n"
            "    for fn in (ab, ba):\n"
            "        t = threading.Thread(target=fn)\n"
            "        t.start()\n"
            "        t.join()\n"
        ))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "RL301" in proc.stdout

    def test_sanitize_clean_run_exits_zero(self, tmp_path):
        proc = self._run_cli(tmp_path, (
            "import threading\n"
            "def test_single_lock():\n"
            "    lock = threading.Lock()\n"
            "    with lock:\n"
            "        pass\n"
        ))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout
