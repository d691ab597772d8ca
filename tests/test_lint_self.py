"""Self-lint: the whole repro source tree must satisfy its own invariants.

Any new violation must be either fixed or carry an in-line
``# repro-lint: disable=RLxxx — reason`` waiver; this test is the CI gate
that keeps the dtype/flag/determinism/accounting contracts from drifting.
"""

from __future__ import annotations

from repro.cli import main
from repro.lint import default_root, format_text, lint_paths


def test_source_tree_is_lint_clean():
    result = lint_paths()
    assert result.files_checked > 30, "linter walked suspiciously few files"
    assert not result.parse_errors, result.parse_errors
    assert not result.violations, "\n" + format_text(
        result.violations, result.files_checked
    )


def test_default_root_is_the_src_tree():
    root = default_root()
    assert (root / "repro" / "core" / "search.py").exists()


def test_cli_strict_lint_exits_zero(capsys):
    assert main(["lint", "--strict"]) == 0
    assert "clean" in capsys.readouterr().out


def test_concurrency_hotspots_clean_under_rl1xx():
    """serve/ and parallel/ are the lock-heavy packages RL101–RL104 were
    written for; they must stay clean (or carry explicit waivers)."""
    root = default_root()
    result = lint_paths([
        str(root / "repro" / "serve"),
        str(root / "repro" / "parallel"),
        str(root / "repro" / "resilience"),
    ])
    assert result.files_checked >= 10
    assert not result.violations, "\n" + format_text(
        result.violations, result.files_checked
    )


def test_index_kinds_declared_once():
    """``repro.api.kinds.KINDS`` is the one declaration per index kind:
    under ``api/`` one codec function writes archives and one reads them,
    and no second registry (a builder table, a format list, per-kind
    isinstance helpers) has crept back."""
    import ast

    root = default_root() / "repro" / "api"
    sources = {path: path.read_text() for path in sorted(root.glob("*.py"))}
    for call in ("np.savez", "np.load"):
        owners = [
            f"{path.name}:{node.name}"
            for path, text in sources.items()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.FunctionDef)
            and any(
                isinstance(sub, ast.Call) and ast.unparse(sub.func).startswith(call)
                for sub in ast.walk(node)
            )
        ]
        assert len(owners) == 1 and owners[0].startswith("kinds.py"), (call, owners)
    for path, text in sources.items():
        for name in ("_BUILDERS", "INDEX_FORMATS", "_matches_"):
            assert name not in text, (path.name, name)


def test_linter_package_is_self_clean():
    root = default_root()
    result = lint_paths([str(root / "repro" / "lint")])
    assert result.files_checked >= 8
    assert not result.violations, "\n" + format_text(
        result.violations, result.files_checked
    )


def test_serving_tiers_share_one_percentile_implementation():
    """``latency_summary`` in ``serve/stats.py`` is the only place the
    serving tiers turn a latency sample into percentiles; no per-tier
    collector class or second field list has crept back either."""
    root = default_root() / "repro"
    sources = {
        path: path.read_text()
        for tier in ("serve", "router", "stream")
        for path in sorted((root / tier).glob("*.py"))
    }
    hits = [
        f"{path.relative_to(root)}:{lineno}"
        for path, text in sources.items()
        for lineno, line in enumerate(text.splitlines(), 1)
        if "np.percentile" in line
    ]
    assert len(hits) == 1 and hits[0].startswith("serve/stats.py"), hits
    for path, text in sources.items():
        assert "_SUMMED_FIELDS" not in text and "StatsCollector" not in text, path
        if path.name == "stats.py":
            assert "def record_" not in text, path


def test_load_generation_starts_threads_in_one_place():
    """``drive_schedule`` is the one load driver: no load shape spins up
    client threads of its own."""
    root = default_root() / "repro"
    hits = [
        f"{path.relative_to(root)}:{lineno}"
        for path in (root / tier / "loadgen.py" for tier in ("serve", "router", "stream"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "threading.Thread(" in line
    ]
    assert len(hits) == 1 and hits[0].startswith("serve/loadgen.py"), hits


def test_request_checks_live_in_one_place():
    """``validate_request`` owns the request checks: each of its messages
    is spelled once under ``src/repro`` (callers call it, nobody copies
    it)."""
    root = default_root() / "repro"
    sources = {path: path.read_text() for path in sorted(root.rglob("*.py"))}
    for literal in (
        "filter_mask must have one entry per dataset row",
        "filter_mask excludes every node",
        "does not match index dim",
        "contains NaN or inf",
    ):
        hits = [
            f"{path.relative_to(root)}:{lineno}"
            for path, text in sources.items()
            for lineno, line in enumerate(text.splitlines(), 1)
            # The build-time check on *indexed* rows is a different contract.
            if literal in line and "dataset row {" not in line
        ]
        assert len(hits) == 1 and hits[0].startswith("core/validation.py"), (literal, hits)


def test_search_draws_come_from_one_counter_function():
    """Every search-path random draw is ``rng_init.counter_draws``: no
    ``default_rng`` / ``np.random`` call in the traversal engine, the
    sequential spec or the GANNS / NSSG search functions, and no stream
    emulation regrowing in ``rng_init.py``."""
    import ast

    root = default_root() / "repro"

    def random_calls(node) -> list[int]:
        return [
            sub.lineno
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
            and ("default_rng" in ast.unparse(sub.func) or "np.random" in ast.unparse(sub.func))
        ]

    for name in ("core/traversal.py", "core/search.py"):
        assert not random_calls(ast.parse((root / name).read_text())), name
    for name, functions in (
        ("baselines/ganns.py", {"search"}),
        ("baselines/nssg.py", {"search", "nssg_search"}),
    ):
        found = [
            node
            for node in ast.walk(ast.parse((root / name).read_text()))
            if isinstance(node, ast.FunctionDef) and node.name in functions
        ]
        assert {node.name for node in found} == functions, name
        for node in found:
            assert not random_calls(node), (name, node.name)
    rng_init = root / "core" / "rng_init.py"
    assert not rng_init.exists() or len(rng_init.read_text().splitlines()) <= 60


def test_shard_tasks_have_one_body_per_operation():
    """The executor's state is how shard data reaches a worker: nothing
    under ``src/repro`` imports ``multiprocessing.shared_memory``, and
    ``repro.parallel.shards`` has exactly one build task body and one
    search task body, whatever the backend."""
    import ast

    root = default_root() / "repro"
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not any(
                name.startswith("multiprocessing.shared_memory") for name in names
            ), (str(path.relative_to(root)), names)

    tree = ast.parse((root / "parallel" / "shards.py").read_text())
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    bodies = {}
    for entry in ("build_shards", "search_shards"):
        bodies[entry] = {
            ast.unparse(call.args[0])
            for call in ast.walk(functions[entry])
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in ("map", "map_outcomes")
        }
        assert len(bodies[entry]) == 1, (entry, bodies[entry])
    takes_payload = {
        name
        for name, node in functions.items()
        if "payload" in [arg.arg for arg in node.args.args]
    }
    assert takes_payload == set().union(*bodies.values()), takes_payload


def test_baselines_search_on_the_traversal_engine():
    """One traversal for every index kind: the scalar ``beam_search``,
    ``HnswIndex._greedy_closest``, ``_insert`` and ``_search_layer`` are
    gone from ``repro``; the four baseline batch searches, GANNS's and
    HNSW's batch insertion and GGNN's linking each make one
    ``batched_beam_search`` call, in no loop but HNSW's loop over its
    layers and its pair (descend at beam 1, search at ``ef``)."""
    import ast

    root = default_root() / "repro"

    def call_name(node) -> str:
        func = node.func
        return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")

    gone = {"beam_search", "_greedy_closest", "_search_layer"}
    functions, defined = {}, []  # (file, class, function) -> FunctionDef
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        name = str(path.relative_to(root))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[(name, None, node.name)] = node
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        functions[(name, node.name, member.name)] = member
        defined += [
            (name, node.name) for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in gone
        ]
    assert not defined, defined
    assert ("baselines/hnsw.py", "HnswIndex", "_insert") not in functions
    for key in (
        ("baselines/hnsw.py", "HnswIndex", "search"),
        ("baselines/hnsw.py", "HnswIndex", "_insert_batch"),
        ("baselines/nssg.py", None, "nssg_search"),
        ("baselines/ggnn.py", "GgnnIndex", "search"),
        ("baselines/ggnn.py", "GgnnIndex", "build"),
        ("baselines/ganns.py", "GannsIndex", "search"),
        ("baselines/ganns.py", "GannsIndex", "build"),
    ):
        body = functions[key]
        looped = {
            id(call)
            for loop in ast.walk(body)
            if isinstance(loop, ast.For)
            and not isinstance(loop.iter, ast.Tuple)
            and "max_level" not in ast.unparse(loop.iter)
            for call in ast.walk(loop)
        }
        engine = [
            c for c in ast.walk(body)
            if isinstance(c, ast.Call) and call_name(c) == "batched_beam_search"
        ]
        assert len(engine) == 1 and id(engine[0]) not in looped, key
    nssg = functions[("baselines/nssg.py", "NssgIndex", "search")]
    assert any(call_name(c) == "nssg_search" for c in ast.walk(nssg) if isinstance(c, ast.Call))


def test_reverse_links_go_through_the_one_repair():
    """``core.graph.link_orphans`` is the one reachability repair, defined
    once, and the baselines plant no reverse link around it: no assignment
    in ``repro/baselines`` writes a row's last slot (``row[-1] = ...`` or
    ``rows[..., -1] = ...``), the write that can evict a target's last
    in-edge."""
    import ast

    root = default_root() / "repro"

    def last_slot(target) -> bool:
        if not isinstance(target, ast.Subscript):
            return False
        index = target.slice
        if isinstance(index, ast.Tuple) and index.elts:
            index = index.elts[-1]
        return ast.unparse(index) == "-1"

    definitions, writes = [], []
    for path in sorted(root.rglob("*.py")):
        name = str(path.relative_to(root))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "link_orphans":
                definitions.append(name)
            if name.startswith("baselines/") and isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                writes += [(name, node.lineno) for t in targets if last_slot(t)]
    assert definitions == ["core/graph.py"]
    assert not writes, writes


def test_one_occlusion_filter_called_per_block():
    """NSSG's angle test and HNSW's Algorithm 4 heuristic are one filter:
    ``_angular_prune``, ``_select_heuristic`` and ``HnswIndex._link`` are
    gone, ``occlusion_prune`` is defined once, and its only callers are
    NSSG's build and HNSW's select.  No call sits in a per-candidate loop:
    the one loop allowed around a call is NSSG's strided loop over blocks
    of nodes, and HNSW's select is called twice, in ``_link_layer``: once
    for a batch's new rows on a layer and once per round of the reverse
    links they overfill."""
    import ast

    root = default_root() / "repro"
    definitions, callers, select_calls = [], {}, []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        name = str(path.relative_to(root))
        scopes = [(None, node) for node in tree.body] + [
            (node.name, member)
            for node in tree.body if isinstance(node, ast.ClassDef)
            for member in node.body
        ]
        for owner, function in scopes:
            if not isinstance(function, ast.FunctionDef):
                continue
            assert function.name not in ("_angular_prune", "_select_heuristic"), (name, owner)
            assert (name, owner, function.name) != ("baselines/hnsw.py", "HnswIndex", "_link")
            if function.name == "occlusion_prune":
                definitions.append(name)
            loops = [
                node for node in ast.walk(function)
                if isinstance(node, (ast.For, ast.While, ast.comprehension))
            ]
            for call in ast.walk(function):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if called == "_select" and name == "baselines/hnsw.py":
                    select_calls.append((owner, function.name, call))
                if called != "occlusion_prune":
                    continue
                callers[(name, owner, function.name)] = function
                for loop in loops:
                    if any(node is call for node in ast.walk(loop)):
                        block_loop = (
                            isinstance(loop, ast.For)
                            and isinstance(loop.iter, ast.Call)
                            and getattr(loop.iter.func, "id", "") == "range"
                            and len(loop.iter.args) == 3
                        )
                        assert block_loop, (name, function.name, ast.unparse(loop)[:80])
    assert definitions == ["core/graph.py"]
    assert set(callers) == {
        ("baselines/nssg.py", "NssgIndex", "build"),
        ("baselines/hnsw.py", "HnswIndex", "_select"),
    }
    assert [(owner, fn) for owner, fn, _ in select_calls] == [("HnswIndex", "_link_layer")] * 2


def test_one_stepping_loop_behind_a_hot_seam():
    """The dense step lives inside the one loop: ``TraversalEngine._traverse``
    is the only ``while`` over ``max_iterations`` in ``repro/core`` besides
    the sequential specification it is pinned against
    (``search._greedy_core``, one query at a time); ``_merge_rows`` and
    ``_COMPACT_FRACTION`` are gone; and every per-step method of the
    visited / top-M seam carries ``@hot_path``, so RL007 checks it."""
    import ast

    root = default_root() / "repro" / "core"
    seam = {"probe", "candidates", "empty", "merge", "selectable", "mark_parents", "decode"}
    loops, hot, seam_classes = set(), {}, set()
    for path in sorted(root.glob("*.py")):
        source = path.read_text()
        assert "_COMPACT_FRACTION" not in source, path.name
        tree = ast.parse(source)
        scopes = [(None, node) for node in tree.body] + [
            (node.name, member)
            for node in tree.body if isinstance(node, ast.ClassDef)
            for member in node.body
        ]
        for owner, function in scopes:
            if not isinstance(function, ast.FunctionDef):
                continue
            assert function.name != "_merge_rows", (path.name, owner)
            for loop in ast.walk(function):
                if isinstance(loop, ast.While) and "max_iterations" in ast.unparse(loop.test):
                    loops.add((path.name, owner, function.name))
            if function.name in seam:
                seam_classes.add(owner)
                hot[(owner, function.name)] = any(
                    ast.unparse(d).split(".")[-1] == "hot_path" for d in function.decorator_list
                )
    assert loops == {
        ("traversal.py", "TraversalEngine", "_traverse"),
        ("search.py", None, "_greedy_core"),
    }, loops
    assert {"_PairBuffers", "_HashSlab", "_DenseVisited"} <= seam_classes, seam_classes
    assert all(hot.values()), sorted(key for key, marked in hot.items() if not marked)
