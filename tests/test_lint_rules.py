"""Per-rule unit tests for the repro invariant linter (RL001-RL005).

Every rule gets at least one positive case (the violation is reported)
and one negative case (compliant code passes), plus waiver handling and
CLI exit-code checks over the committed fixture files.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import RULES, lint_source

FIXTURES = Path(__file__).parent / "fixtures" / "lint" / "core"


def rules_of(source: str, path: str = "repro/core/mod.py") -> set[str]:
    return {v.rule for v in lint_source(source, path)}


# ----------------------------------------------------------------------
# RL001 — PARENT_FLAG masking
# ----------------------------------------------------------------------
class TestRL001:
    def test_unmasked_index_is_flagged(self):
        src = (
            "from repro.core.graph import PARENT_FLAG\n"
            "def f(data, ids):\n"
            "    flagged = ids | PARENT_FLAG\n"
            "    return data[flagged]\n"
        )
        assert "RL001" in rules_of(src)

    def test_masked_index_passes(self):
        src = (
            "from repro.core.graph import PARENT_FLAG, INDEX_MASK\n"
            "def f(data, ids):\n"
            "    flagged = ids | PARENT_FLAG\n"
            "    return data[flagged & INDEX_MASK]\n"
        )
        assert "RL001" not in rules_of(src)

    def test_augassign_taints_and_alias_propagates(self):
        src = (
            "from repro.core.graph import PARENT_FLAG\n"
            "def f(data, ids, pos):\n"
            "    ids[pos] |= PARENT_FLAG\n"
            "    alias = ids\n"
            "    return data[alias]\n"
        )
        assert "RL001" in rules_of(src)

    def test_cleansing_reassignment_untaints(self):
        src = (
            "from repro.core.graph import PARENT_FLAG, INDEX_MASK\n"
            "def f(data, ids):\n"
            "    ids = ids | PARENT_FLAG\n"
            "    ids = ids & INDEX_MASK\n"
            "    return data[ids]\n"
        )
        assert "RL001" not in rules_of(src)

    def test_take_along_axis_index_argument(self):
        src = (
            "import numpy as np\n"
            "from repro.core.graph import PARENT_FLAG\n"
            "def f(data, ids):\n"
            "    flagged = ids | PARENT_FLAG\n"
            "    return np.take_along_axis(data, flagged, axis=1)\n"
        )
        assert "RL001" in rules_of(src)

    def test_tainted_value_argument_is_not_an_index(self):
        src = (
            "import numpy as np\n"
            "from repro.core.graph import PARENT_FLAG\n"
            "def f(buffer, pos, entries):\n"
            "    flagged = entries | PARENT_FLAG\n"
            "    np.put_along_axis(buffer, pos, flagged, axis=1)\n"
        )
        assert "RL001" not in rules_of(src)


# ----------------------------------------------------------------------
# RL002 — explicit id dtypes
# ----------------------------------------------------------------------
class TestRL002:
    def test_arange_without_dtype_is_flagged(self):
        assert "RL002" in rules_of("import numpy as np\nids = np.arange(10)\n")

    def test_arange_with_dtype_passes(self):
        src = "import numpy as np\nids = np.arange(10, dtype=np.uint32)\n"
        assert "RL002" not in rules_of(src)

    def test_non_id_names_are_ignored(self):
        assert "RL002" not in rules_of("import numpy as np\nscores = np.zeros(4)\n")

    def test_negative_literal_comparison_is_flagged(self):
        src = "def f(ids):\n    return ids == -1\n"
        assert "RL002" in rules_of(src)

    def test_nonnegative_comparison_passes(self):
        src = "def f(ids, n):\n    return ids >= n\n"
        assert "RL002" not in rules_of(src)


# ----------------------------------------------------------------------
# RL003 — explicit Generators
# ----------------------------------------------------------------------
class TestRL003:
    def test_np_random_seed_is_flagged(self):
        assert "RL003" in rules_of("import numpy as np\nnp.random.seed(0)\n")

    def test_legacy_distribution_call_is_flagged(self):
        assert "RL003" in rules_of("import numpy as np\nx = np.random.rand(3)\n")

    def test_stdlib_random_is_flagged(self):
        assert "RL003" in rules_of("import random\nrandom.shuffle([1, 2])\n")

    def test_from_random_import_is_flagged(self):
        assert "RL003" in rules_of("from random import shuffle\n")

    def test_time_based_seed_is_flagged(self):
        src = "import time\nimport numpy as np\nrng = np.random.default_rng(int(time.time()))\n"
        assert "RL003" in rules_of(src)

    def test_default_rng_with_seed_passes(self):
        src = (
            "import numpy as np\n"
            "def f(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.integers(0, 10, size=4, dtype=np.uint32)\n"
        )
        assert "RL003" not in rules_of(src)


# ----------------------------------------------------------------------
# RL004 — counted distance wrappers
# ----------------------------------------------------------------------
class TestRL004:
    def test_linalg_norm_in_core_is_flagged(self):
        src = "import numpy as np\ndef f(a, b):\n    return np.linalg.norm(a - b)\n"
        assert "RL004" in rules_of(src, path="repro/core/mod.py")

    def test_squared_diff_sum_is_flagged(self):
        src = "def f(a, b):\n    return ((a - b) ** 2).sum(axis=1)\n"
        assert "RL004" in rules_of(src, path="repro/baselines/mod.py")

    def test_matmul_is_flagged(self):
        src = "def f(a, b):\n    return -(a @ b.T)\n"
        assert "RL004" in rules_of(src, path="repro/core/mod.py")

    def test_self_dot_einsum_is_flagged(self):
        src = (
            "import numpy as np\n"
            "def f(d):\n"
            "    return np.einsum('ij,ij->i', d, d)\n"
        )
        assert "RL004" in rules_of(src, path="repro/core/mod.py")

    def test_out_of_scope_path_passes(self):
        src = "import numpy as np\ndef f(a, b):\n    return np.linalg.norm(a - b)\n"
        assert "RL004" not in rules_of(src, path="repro/bench/mod.py")

    def test_distances_module_is_exempt(self):
        src = "import numpy as np\ndef f(a, b):\n    return np.linalg.norm(a - b)\n"
        assert "RL004" not in rules_of(src, path="repro/core/distances.py")

    def test_counted_wrapper_usage_passes(self):
        src = (
            "from repro.core.distances import distances_to_query\n"
            "def f(data, q, ids, report):\n"
            "    d = distances_to_query(data, q, ids)\n"
            "    report.distance_computations += len(ids)\n"
            "    return d\n"
        )
        assert "RL004" not in rules_of(src, path="repro/core/mod.py")


# ----------------------------------------------------------------------
# RL005 — float equality / __all__ drift
# ----------------------------------------------------------------------
class TestRL005:
    def test_float_equality_on_distances_is_flagged(self):
        src = "def f(dists):\n    return dists == 0.0\n"
        assert "RL005" in rules_of(src)

    def test_isinf_sentinel_check_passes(self):
        src = "import numpy as np\ndef f(dists):\n    return np.isinf(dists)\n"
        assert "RL005" not in rules_of(src)

    def test_integer_counter_comparison_passes(self):
        src = "def f(report):\n    return report.distance_computations == 0\n"
        assert "RL005" not in rules_of(src)

    def test_phantom_export_is_flagged(self):
        src = "__all__ = ['missing']\n"
        assert "RL005" in rules_of(src)

    def test_public_def_missing_from_all_is_flagged(self):
        src = "__all__ = []\n\ndef forgotten():\n    return 1\n"
        assert "RL005" in rules_of(src)

    def test_consistent_module_passes(self):
        src = "__all__ = ['f']\n\ndef f():\n    return 1\n\ndef _private():\n    return 2\n"
        assert "RL005" not in rules_of(src)


# ----------------------------------------------------------------------
# waivers
# ----------------------------------------------------------------------
class TestWaivers:
    def test_same_line_waiver_suppresses(self):
        src = (
            "import numpy as np\n"
            "np.random.seed(0)  # repro-lint: disable=RL003 — fixture reason\n"
        )
        assert "RL003" not in rules_of(src)

    def test_preceding_line_waiver_suppresses(self):
        src = (
            "import numpy as np\n"
            "# repro-lint: disable=RL003 — fixture reason\n"
            "np.random.seed(0)\n"
        )
        assert "RL003" not in rules_of(src)

    def test_file_level_waiver_suppresses_everywhere(self):
        src = (
            "# repro-lint: disable-file=RL003\n"
            "import numpy as np\n\n\n"
            "np.random.seed(0)\n"
        )
        assert "RL003" not in rules_of(src)

    def test_waiver_only_covers_named_rule(self):
        src = (
            "import numpy as np\n"
            "np.random.seed(0)  # repro-lint: disable=RL001 — wrong rule\n"
        )
        assert "RL003" in rules_of(src)


# ----------------------------------------------------------------------
# RL007 — @hot_path functions stay array-parallel
# ----------------------------------------------------------------------
_HOT_PREAMBLE = (
    "def hot_path(fn):\n"
    "    fn.__hot_path__ = True\n"
    "    return fn\n\n\n"
)


class TestRL007:
    def test_per_query_range_loop_is_flagged(self):
        src = _HOT_PREAMBLE + (
            "@hot_path\n"
            "def step(queries, batch):\n"
            "    for i in range(batch):\n"
            "        queries[i] += 1\n"
        )
        assert "RL007" in rules_of(src)

    def test_direct_iteration_over_queries_is_flagged(self):
        src = _HOT_PREAMBLE + (
            "@hot_path\n"
            "def step(queries):\n"
            "    for q in queries:\n"
            "        q.sum()\n"
        )
        assert "RL007" in rules_of(src)

    def test_shape_zero_loop_is_flagged(self):
        src = _HOT_PREAMBLE + (
            "@hot_path\n"
            "def step(rows):\n"
            "    for i in range(rows.shape[0]):\n"
            "        rows[i] += 1\n"
        )
        assert "RL007" in rules_of(src)

    def test_fixed_size_lane_and_probe_loops_pass(self):
        src = _HOT_PREAMBLE + (
            "@hot_path\n"
            "def step(self, keys, queries):\n"
            "    for _ in range(self.size):\n"
            "        pass\n"
            "    for lane in range(keys.shape[1]):\n"
            "        pass\n"
        )
        assert "RL007" not in rules_of(src)

    def test_while_convergence_loop_passes(self):
        src = _HOT_PREAMBLE + (
            "@hot_path\n"
            "def step(live, max_iter):\n"
            "    iteration = 0\n"
            "    while iteration < max_iter and live.any():\n"
            "        iteration += 1\n"
        )
        assert "RL007" not in rules_of(src)

    def test_undecorated_function_is_exempt(self):
        src = (
            "def cold(queries):\n"
            "    for q in queries:\n"
            "        q.sum()\n"
        )
        assert "RL007" not in rules_of(src)

    def test_nested_function_scope_is_its_own_decision(self):
        src = _HOT_PREAMBLE + (
            "@hot_path\n"
            "def step(queries):\n"
            "    def reporter():\n"
            "        for q in queries:\n"
            "            q.sum()\n"
            "    return reporter\n"
        )
        assert "RL007" not in rules_of(src)

    def test_waiver_with_reason_is_honoured(self):
        src = _HOT_PREAMBLE + (
            "@hot_path\n"
            "def step(queries, batch):\n"
            "    for i in range(batch):  # repro-lint: disable=RL007 — tail path\n"
            "        queries[i] += 1\n"
        )
        assert "RL007" not in rules_of(src)

    def test_shipped_traversal_engine_is_clean(self):
        import repro.core.traversal as traversal

        source = Path(traversal.__file__).read_text(encoding="utf-8")
        rules = {
            v.rule for v in lint_source(source, "src/repro/core/traversal.py")
        }
        assert "RL007" not in rules


# ----------------------------------------------------------------------
# registry + CLI over the committed fixtures
# ----------------------------------------------------------------------
class TestRegistryAndCli:
    def test_all_rules_registered(self):
        assert sorted(RULES) == [
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
            "RL101", "RL102", "RL103", "RL104",
            "RL201", "RL202",
        ]

    @pytest.mark.parametrize(
        "rule_id", ["RL001", "RL002", "RL003", "RL004", "RL005", "RL007"]
    )
    def test_each_fixture_fails_strict_lint(self, rule_id, capsys):
        fixture = next(FIXTURES.glob(f"{rule_id.lower()}_*.py"))
        exit_code = main(["lint", str(fixture), "--strict"])
        out = capsys.readouterr().out
        assert exit_code != 0
        assert rule_id in out

    def test_json_format_is_parseable(self, capsys):
        fixture = next(FIXTURES.glob("rl003_*.py"))
        main(["lint", str(fixture), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] >= 1
        assert any(v["rule"] == "RL003" for v in payload["violations"])

    def test_non_strict_reports_but_exits_zero(self, capsys):
        fixture = next(FIXTURES.glob("rl001_*.py"))
        assert main(["lint", str(fixture)]) == 0
        assert "RL001" in capsys.readouterr().out

    def test_missing_path_is_an_error_not_a_clean_pass(self, capsys):
        # A typo'd path must not slip through a strict CI gate as
        # "clean: 0 violations in 0 file(s)".
        assert main(["lint", "/no/such/path.py"]) == 2
        assert "no such file" in capsys.readouterr().err
