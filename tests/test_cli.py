"""Tests for the repro-cagra command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_build_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build"])

    def test_defaults(self):
        args = build_parser().parse_args(["build", "--out", "x.npz"])
        assert args.dataset == "deep-1m"
        assert args.reordering == "rank"
        assert args.dtype == "float32"

    def test_bench_hnsw_comparator_flags(self):
        args = build_parser().parse_args(["bench"])
        assert args.hnsw_m == 16 and args.hnsw_efc == 100  # seed defaults kept
        args = build_parser().parse_args(["bench", "--hnsw-m", "8", "--hnsw-efc", "40"])
        assert args.hnsw_m == 8 and args.hnsw_efc == 40

    def test_format_defaults_to_text(self):
        for command in (["search", "--index", "x.npz"], ["bench"], ["serve"]):
            assert build_parser().parse_args(command).format == "text"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.mode == "open"
        assert args.max_batch == 64
        assert args.max_wait_ms == 2.0
        assert args.timeout_ms == 0.0


class TestCommands:
    def test_info_lists_datasets(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for name in ("sift-1m", "gist-1m", "glove-200", "nytimes", "deep-1m"):
            assert name in out

    def test_build_and_search(self, tmp_path, capsys):
        index_path = str(tmp_path / "idx.npz")
        rc = main([
            "build", "--dataset", "deep-1m", "--scale", "400",
            "--degree", "8", "--out", index_path, "--queries", "5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "built CagraIndex" in out

        rc = main([
            "search", "--index", index_path, "--dataset", "deep-1m",
            "--scale", "400", "--queries", "10", "-k", "5", "--itopk", "32",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recall@5" in out

    def test_build_out_without_suffix_is_searchable(self, tmp_path, capsys):
        index_path = str(tmp_path / "idx")
        assert main(["build", "--dataset", "deep-1m", "--scale", "300",
                     "--degree", "8", "--out", index_path]) == 0
        assert f"saved to {index_path}" in capsys.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == ["idx"]
        assert main(["search", "--index", index_path, "--dataset", "deep-1m",
                     "--scale", "300", "--queries", "5", "-k", "5"]) == 0

    def test_build_fp16(self, tmp_path, capsys):
        index_path = str(tmp_path / "half.npz")
        rc = main([
            "build", "--dataset", "deep-1m", "--scale", "300",
            "--degree", "8", "--out", index_path, "--dtype", "float16",
        ])
        assert rc == 0

    def test_fvecs_input(self, tmp_path, capsys):
        from repro.datasets import write_fvecs

        data = np.random.default_rng(0).standard_normal((300, 16)).astype(np.float32)
        fvecs = str(tmp_path / "data.fvecs")
        write_fvecs(fvecs, data)
        index_path = str(tmp_path / "idx.npz")
        rc = main(["build", "--fvecs", fvecs, "--degree", "8", "--out", index_path])
        assert rc == 0


class TestBadIndexExitsTwo:
    """A missing or damaged ``--index`` is a usage error: one stderr line
    naming the path and exit code 2, not a traceback."""

    @pytest.mark.parametrize("command", ["search", "serve"])
    @pytest.mark.parametrize("damage", ["missing", "truncated"])
    def test_bad_index(self, tmp_path, capsys, command, damage):
        index_path = str(tmp_path / "idx.npz")
        if damage == "truncated":
            assert main(["build", "--dataset", "deep-1m", "--scale", "300",
                         "--degree", "8", "--out", index_path]) == 0
            with open(index_path, "rb") as handle:
                blob = handle.read()
            with open(index_path, "wb") as handle:
                handle.write(blob[: len(blob) // 2])
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main([command, "--index", index_path, "--dataset", "deep-1m",
                  "--scale", "300", "--queries", "5"])
        assert info.value.code == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and index_path in err


class TestValidateAndReport:
    def test_validate_command(self, tmp_path, capsys):
        index_path = str(tmp_path / "v.npz")
        main(["build", "--dataset", "deep-1m", "--scale", "400",
              "--degree", "8", "--out", index_path])
        capsys.readouterr()
        rc = main(["validate", "--index", index_path, "--sample", "100"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out
        assert "strong CC" in out

    def test_report_command_missing_dir(self, tmp_path, capsys):
        rc = main(["report", "--results", str(tmp_path / "nope")])
        assert rc == 1

    def test_report_command_reads_results(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig1.txt").write_text("hello table\n")
        rc = main(["report", "--results", str(results)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig1" in out
        assert "hello table" in out

    def test_search_fast_flag(self, tmp_path, capsys):
        index_path = str(tmp_path / "f.npz")
        main(["build", "--dataset", "deep-1m", "--scale", "400",
              "--degree", "8", "--out", index_path])
        rc = main(["search", "--index", index_path, "--dataset", "deep-1m",
                   "--scale", "400", "--queries", "10", "-k", "5", "--fast"])
        assert rc == 0
        assert "recall@5" in capsys.readouterr().out

    def test_search_json_format(self, tmp_path, capsys):
        import json

        index_path = str(tmp_path / "j.npz")
        main(["build", "--dataset", "deep-1m", "--scale", "400",
              "--degree", "8", "--out", index_path])
        capsys.readouterr()
        rc = main(["search", "--index", index_path, "--dataset", "deep-1m",
                   "--scale", "400", "--queries", "10", "-k", "5",
                   "--fast", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["queries"] == 10 and payload["k"] == 5
        assert payload["fast_path"] is True
        assert 0.0 <= payload["recall"] <= 1.0
        assert payload["distance_computations_per_query"] > 0


class TestServeCommand:
    def test_serve_smoke_text(self, capsys):
        rc = main(["serve", "--dataset", "deep-1m", "--scale", "300",
                   "--degree", "8", "--queries", "12", "--rate", "400",
                   "--requests", "60", "--max-batch", "8", "--itopk", "32"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "serving stats" in out
        assert "failed=0" in out
        assert "recall@10" in out

    def test_serve_json_closed_loop(self, capsys):
        import json

        rc = main(["serve", "--dataset", "deep-1m", "--scale", "300",
                   "--degree", "8", "--queries", "12", "--mode", "closed",
                   "--clients", "4", "--requests", "40", "--itopk", "32",
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "closed"
        assert payload["failed"] == 0
        assert payload["completed"] > 0
        assert payload["stats"]["batches"] > 0


class TestLintExitCodes:
    """The lint subcommand's exit-code contract: 0 clean (or violations
    without --strict), 1 violations under --strict, 2 internal error.
    The report is emitted in every case, including --format json."""

    CLEAN = '__all__ = ["add"]\n\n\ndef add(a, b):\n    return a + b\n'
    DIRTY = (
        "import threading\n\n"
        "__all__ = ['C']\n\n\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.total = 0\n\n"
        "    def add(self, n):\n"
        "        with self._lock:\n"
        "            self.total += n\n\n"
        "    def peek(self):\n"
        "        return self.total\n"
    )

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text(self.CLEAN)
        assert main(["lint", str(target), "--strict"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_without_strict_exit_zero(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text(self.DIRTY)
        assert main(["lint", str(target)]) == 0
        assert "RL101" in capsys.readouterr().out

    def test_violations_with_strict_exit_one(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text(self.DIRTY)
        assert main(["lint", str(target), "--strict"]) == 1
        assert "RL101" in capsys.readouterr().out

    def test_json_report_emitted_even_with_violations(self, tmp_path, capsys):
        import json as json_mod

        target = tmp_path / "dirty.py"
        target.write_text(self.DIRTY)
        assert main(["lint", str(target), "--strict", "--format", "json"]) == 1
        payload = json_mod.loads(capsys.readouterr().out)
        assert payload["count"] >= 1
        assert payload["parse_errors"] == []
        assert any(v["rule"] == "RL101" for v in payload["violations"])

    def test_missing_path_exits_two_with_json_report(self, capsys):
        import json as json_mod

        assert main(["lint", "/no/such/file.py", "--format", "json"]) == 2
        out = capsys.readouterr().out
        payload = json_mod.loads(out)
        assert payload["parse_errors"]

    def test_unparseable_file_exits_two(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def oops(:\n")
        assert main(["lint", str(target)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_internal_error_exits_two(self, tmp_path, monkeypatch, capsys):
        import repro.lint

        def explode(paths=None):
            raise RuntimeError("rule crashed")

        monkeypatch.setattr(repro.lint, "lint_paths", explode)
        assert main(["lint", str(tmp_path), "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert "rule crashed" in captured.out  # JSON error object
        assert "internal error" in captured.err


class TestSearchParamFlags:
    def test_sentinels_default_none(self):
        for command in (["search"], ["serve"], ["bench"], ["stream"]):
            args = build_parser().parse_args(command)
            assert args.itopk is None
            assert args.search_width is None
            assert args.max_iterations is None

    def test_flags_parse_everywhere(self):
        for command in ("search", "serve", "bench", "stream"):
            args = build_parser().parse_args([
                command, "--itopk", "96", "--search-width", "2",
                "--max-iterations", "40",
            ])
            assert (args.itopk, args.search_width, args.max_iterations) == (96, 2, 40)

    def test_profile_flag_where_supported(self):
        for command in ("search", "serve", "bench"):
            args = build_parser().parse_args([command, "--profile", "auto"])
            assert args.profile == "auto"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--profile", "auto"])

    def test_tune_defaults(self):
        args = build_parser().parse_args(["tune"])
        assert args.command == "tune"
        assert args.recall_target == 0.95
        assert args.batch == 10000
        assert args.out == ""


class TestTuneCommand:
    def test_tune_then_search_with_profile(self, tmp_path, capsys):
        profile_path = str(tmp_path / "tuned.json")
        common = ["--dataset", "deep-1m", "--scale", "400", "--queries", "16"]
        rc = main([
            "tune", *common, "--degree", "8", "-k", "5",
            "--itopk-grid", "8,64", "--width-grid", "1",
            "--recall-target", "0.8", "--out", profile_path,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chosen:" in out and profile_path in out

        rc = main([
            "search", *common, "-k", "5", "--index-kind", "cagra",
            "--profile", profile_path, "--fast", "--format", "json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tuned"] is True
        assert payload["itopk"] in (8, 64)

    def test_search_with_corrupt_profile_falls_back(self, tmp_path, capsys):
        from repro.tune import ProfileWarning

        profile_path = tmp_path / "corrupt.json"
        profile_path.write_text("{not json")
        with pytest.warns(ProfileWarning):
            rc = main([
                "search", "--dataset", "deep-1m", "--scale", "400",
                "--queries", "8", "-k", "5", "--index-kind", "cagra",
                "--profile", str(profile_path), "--format", "json",
            ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tuned"] is False
        assert payload["itopk"] == 64  # hard default restored

    def test_explicit_flags_beat_profile(self, tmp_path, capsys):
        profile_path = str(tmp_path / "tuned.json")
        common = ["--dataset", "deep-1m", "--scale", "400", "--queries", "12"]
        assert main([
            "tune", *common, "--degree", "8", "-k", "5",
            "--itopk-grid", "8", "--width-grid", "2",
            "--recall-target", "0.5", "--out", profile_path,
        ]) == 0
        capsys.readouterr()
        assert main([
            "search", *common, "-k", "5", "--index-kind", "cagra",
            "--profile", profile_path, "--itopk", "48", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["itopk"] == 48          # explicit flag wins
        assert payload["search_width"] == 2    # profile supplies the rest

    def test_bad_grid_exits(self):
        with pytest.raises(SystemExit):
            main(["tune", "--dataset", "deep-1m", "--scale", "400",
                  "--itopk-grid", "16,banana"])


_SMALL = ["--dataset", "deep-1m", "--scale", "300", "--degree", "8",
          "--queries", "12"]


def _json_run(capsys, argv):
    """Run ``main(argv + --format json)``; return (exit code, payload)."""
    rc = main([*argv, "--format", "json"])
    return rc, json.loads(capsys.readouterr().out)


class TestJsonPayloadKeys:
    """``--format json`` is an interface: pin each command's key set."""

    def test_search_keys(self, capsys):
        rc, payload = _json_run(capsys, ["search", *_SMALL, "--index-kind", "cagra"])
        assert rc == 0
        assert set(payload) == {
            "queries", "k", "itopk", "search_width", "max_iterations",
            "team_size", "precision", "profile", "tuned", "algo",
            "index_kind", "fast_path", "elapsed_seconds", "recall",
            "distance_computations_per_query", "degraded",
        }
        assert payload["index_kind"] == "cagra" and payload["degraded"] is False

    def test_bench_keys(self, capsys):
        rc, payload = _json_run(
            capsys, ["bench", *_SMALL, "--hnsw-m", "4", "--hnsw-efc", "20"]
        )
        assert rc == 0
        assert set(payload) == {
            "dataset", "n", "dim", "metric", "batch", "k", "index_kind",
            "profile", "search_width", "max_iterations", "hnsw", "curves",
            "speedup_vs_hnsw_at_recall", "stages",
        }
        assert [curve["method"] for curve in payload["curves"]] == ["CAGRA", "HNSW"]
        assert set(payload["curves"][0]["points"][0]) == {
            "param", "recall", "qps", "seconds", "distance_computations_per_query",
        }
        assert payload["stages"][0]["name"] == "build.cagra"

    def test_tune_keys(self, tmp_path, capsys):
        rc, payload = _json_run(capsys, [
            "tune", *_SMALL, "-k", "5", "--itopk-grid", "8,32",
            "--width-grid", "1", "--recall-target", "0.8",
            "--out", str(tmp_path / "tuned.json"),
        ])
        assert rc == 0
        assert set(payload) == {"path", "profile"}
        assert set(payload["profile"]) == {
            "version", "fingerprint", "index_kind", "k", "metric",
            "recall_target", "batch_size", "meets_target", "chosen",
            "baseline", "sweep", "created",
        }

    def test_serve_keys(self, capsys):
        rc, payload = _json_run(capsys, [
            "serve", *_SMALL, "--requests", "30", "--rate", "400", "--itopk", "32",
        ])
        assert rc == 0
        assert set(payload) == {
            "mode", "offered_rate_qps", "requests", "submitted", "completed",
            "rejected", "timed_out", "failed", "duration_seconds",
            "achieved_qps", "latency_ms", "recall", "stats", "health",
        }


class TestFailedRequestsExitOne:
    """A run that failed requests exits 1 and says so in its JSON: the
    failed requests used to kill their client threads unrecorded, so
    these runs reported ``failed=0`` and exited 0."""

    @staticmethod
    def _plan(point: str, times: int) -> str:
        spec = {"point": point, "kind": "raise", "after": 3, "times": times}
        return json.dumps({"specs": [spec]})

    def test_serve_closed_loop(self, capsys):
        rc, payload = _json_run(capsys, [
            "serve", *_SMALL, "--mode", "closed", "--clients", "2",
            "--requests", "40", "--max-batch", "1", "--itopk", "32",
            "--fault-plan", self._plan("serve.execute", 2),
        ])
        assert rc == 1 and payload["failed"] == 2
        assert payload["submitted"] == 40 == payload["completed"] + payload["failed"]

    def test_route(self, capsys):
        rc, payload = _json_run(capsys, [
            "route", *_SMALL, "--replicas", "2", "--requests", "40",
            "--clients", "2", "--itopk", "32",
            "--fault-plan", self._plan("router.dispatch", 10),
        ])
        assert rc == 1 and payload["failed"] > 0
        assert payload["ok"] + payload["failed"] == payload["requests"] == 40


class TestServeBaselineBackend:
    def test_serve_over_hnsw(self, capsys):
        rc, payload = _json_run(capsys, [
            "serve", *_SMALL, "--index-kind", "hnsw", "--requests", "30",
            "--rate", "400", "--max-batch", "8", "--itopk", "32",
        ])
        assert rc == 0
        assert payload["failed"] == 0 and payload["completed"] == 30
        assert payload["recall"] > 0.8


class TestRouteCommand:
    def test_route_quota_json(self, capsys):
        rc, payload = _json_run(capsys, [
            "route", *_SMALL, "--replicas", "2", "--requests", "80",
            "--clients", "2", "--tenants", "3", "--quota-rate", "50",
            "--itopk", "32",
        ])
        assert rc == 0
        assert set(payload) == {
            "replicas", "dispatch", "hedge", "requests", "tenants", "ok",
            "quota_rejected", "timed_out", "failed", "hedged", "hedge_wins",
            "duration_seconds", "latency_ms", "recall", "quota_check",
            "stats", "health",
        }
        assert payload["failed"] == 0
        assert payload["quota_check"]["exact_match"] is True
        # The schedule is seeded, so the token-bucket outcome is exact.
        assert payload["quota_rejected"] == 27 and payload["ok"] == 53
        assert payload["ok"] + payload["quota_rejected"] == payload["requests"] == 80
        assert payload["recall"] > 0.5  # batch-position seeding: noisy at this size

    def test_route_text_reports_quota_verdict(self, capsys):
        rc = main(["route", *_SMALL, "--replicas", "2", "--requests", "40",
                   "--clients", "2", "--quota-rate", "400", "--itopk", "32"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "routing over 2 replicas" in out
        assert "quota rejections vs token-bucket model: exact" in out


class TestStreamCommand:
    def test_stream_json(self, capsys):
        rc, payload = _json_run(capsys, [
            "stream", *_SMALL, "--ops", "80", "--clients", "2",
            "--itopk", "32", "--rebuild-min-rows", "8",
        ])
        assert rc == 0
        assert set(payload) == {
            "ops", "searches", "inserts", "deletes", "failures",
            "duration_seconds", "search_latency_ms",
            "final_recall_vs_live_oracle", "deleted_ids_served_after_run",
            "freshness", "decisions", "stats",
        }
        assert payload["failures"] == 0
        assert payload["deleted_ids_served_after_run"] == []
        assert payload["ops"] == 80
        assert payload["searches"] + payload["inserts"] + payload["deletes"] == 80
        assert payload["final_recall_vs_live_oracle"] > 0.9
        # 300 rows - 150-row insert pool, then the seeded writes; base vs
        # memtable rows depend on when the rebuilder promoted, the sum does not.
        assert payload["freshness"]["live_rows"] == (
            150 + payload["inserts"] - payload["deletes"]
        )

    def test_mutable_serve_writes_wal(self, tmp_path, capsys):
        wal_dir = tmp_path / "wal"
        rc, payload = _json_run(capsys, [
            "serve", *_SMALL, "--requests", "30", "--rate", "400",
            "--itopk", "32", "--mutable", "--wal-dir", str(wal_dir),
        ])
        assert rc == 0 and payload["failed"] == 0
        assert (wal_dir / "wal.jsonl").is_file()
        assert (wal_dir / "checkpoint.npz").is_file()


class TestServeFleetDelegation:
    """``serve --replicas N`` is ``route`` over the same flags: route's
    defaults, and nothing a fleet cannot honour is dropped silently."""

    FLEET = ["serve", *_SMALL, "--replicas", "2", "--requests", "30", "--itopk", "32"]

    @pytest.mark.parametrize("extra", [
        ["--mutable"], ["--wal-dir", "WAL"], ["--auto-rebuild"],
        ["--rebuild-interval-s", "0.1"], ["--rebuild-calibrate"],
        ["--mode", "closed"],
    ])
    def test_single_server_flags_refused_by_name(self, tmp_path, capsys, extra):
        extra = [str(tmp_path / "wal") if part == "WAL" else part for part in extra]
        with pytest.raises(SystemExit) as exit_info:
            main([*self.FLEET, *extra])
        assert exit_info.value.code == 2
        assert extra[0] in capsys.readouterr().err
        assert not (tmp_path / "wal").exists()

    def test_fleet_runs_with_route_defaults(self, capsys):
        rc, payload = _json_run(capsys, self.FLEET)
        assert rc == 0 and payload["failed"] == 0 and payload["replicas"] == 2
        route = build_parser().parse_args(["route"])
        # Fleet breakers are on at route's threshold (they were off: the
        # delegated run used to inherit serve's per-shard default of 0).
        assert route.breaker_threshold >= 1
        for replica in payload["health"]["replicas"].values():
            assert replica["breaker"] is not None
        assert payload["requests"] == 30 and payload["tenants"] == route.tenants

    def test_explicit_flags_still_reach_the_fleet(self, capsys):
        rc, payload = _json_run(capsys, [*self.FLEET, "--breaker-threshold", "0"])
        assert rc == 0
        assert all(r["breaker"] is None for r in payload["health"]["replicas"].values())


class TestSeedReachesEveryBuild:
    def test_serve_and_build_agree_on_the_graph(self, tmp_path, capsys, monkeypatch):
        """``serve`` used to build the seed-0 graph whatever ``--seed`` said
        (2.9 % of this graph's edges differ between build seeds 0 and 3)."""
        from repro.api import load_index
        from repro.cli import serving

        served = []
        index_from_args = serving.index_from_args

        def capture(*args, **kwargs):
            served.append(index_from_args(*args, **kwargs))
            return served[-1]

        monkeypatch.setattr(serving, "index_from_args", capture)
        path = str(tmp_path / "seed3.npz")
        assert main(["build", *_SMALL, "--seed", "3", "--out", path]) == 0
        assert main(["serve", *_SMALL, "--seed", "3", "--requests", "10",
                     "--itopk", "32"]) == 0
        capsys.readouterr()
        assert np.array_equal(
            served[0].inner.graph.neighbors, load_index(path).graph.neighbors
        )
