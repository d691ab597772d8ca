"""Verdicts of compare.py and the gates of aa.py on made-up runs."""

import json

import aa
import compare
import spec

LATENCY = spec.BY_NAME["build_s"]  # lower is better, bound 25 %
UNGATED = spec.BY_NAME["serve.r50.p50_ms"]
RATE = spec.BY_NAME["batch_wall_qps"]  # higher is better
MODELLED = spec.BY_NAME["modelled_gpu_qps"]

STEADY = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]


def test_unchanged_within_noise():
    row = compare.verdict(LATENCY, STEADY, [v * 1.01 for v in STEADY])
    assert row["verdict"] == "unchanged"


def test_regressed_beyond_the_bound():
    row = compare.verdict(LATENCY, STEADY, [v * 1.4 for v in STEADY])
    assert row["verdict"] == "regressed"
    assert compare.verdict(RATE, STEADY, [v * 0.6 for v in STEADY])["verdict"] == "regressed"


def test_improved_needs_nine_wins_in_ten_and_more_than_the_parents_spread():
    better = [v * 0.8 for v in STEADY]
    row = compare.verdict(LATENCY, STEADY, better)
    assert row["verdict"] == "improved" and row["wins"] == 10
    assert abs(row["ratio"] - 0.8) < 1e-9
    mixed = better[:7] + [v * 1.05 for v in STEADY[7:]]
    assert compare.verdict(LATENCY, STEADY, mixed)["verdict"] == "unchanged"


def test_unresolved_when_the_parent_is_noisier_than_the_bound_and_runs_overlap():
    noisy = [6.0, 14.0, 8.0, 13.0, 7.0, 12.0, 9.0, 15.0, 6.5, 11.0]
    assert compare.verdict(LATENCY, noisy, [v * 1.3 for v in noisy])["verdict"] == "unresolved"
    # ... unless every run of the change is on one side of every parent run.
    assert compare.verdict(LATENCY, noisy, [v + 20 for v in noisy])["verdict"] == "regressed"


def test_ungated_diagnostics_are_judged_but_never_fail_the_tools(tmp_path, capsys):
    assert compare.verdict(UNGATED, STEADY, [v * 1.4 for v in STEADY])["verdict"] == "regressed"
    wide = aa.summarize(UNGATED, [[5.0, 10.0, 15.0, 20.0, 25.0]] * 2)
    assert wide["problems"] == [] and wide["bound"] is None

    def report(scale):
        rows = {
            m.name: {"values": [[v * (scale if m is UNGATED else 1.0) for v in STEADY]]}
            for m in spec.END_TO_END + spec.DIAGNOSTICS
        }
        return {"workloads": {"online": rows}}

    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    parent.write_text(json.dumps(report(1.0)))
    change.write_text(json.dumps(report(1.4)))
    assert compare.main([str(parent), str(change)]) == 0
    out = capsys.readouterr().out
    assert "serve.r50.p50_ms" in out and "regressed (ungated)" in out


def test_aa_flags_spread_drift_and_inexact_counts():
    assert aa.summarize(LATENCY, [STEADY[:5], STEADY[5:]])["problems"] == []
    wide = aa.summarize(LATENCY, [[5.0, 10.0, 15.0, 20.0, 25.0]] * 2)
    assert "spread exceeds bound" in wide["problems"]
    drift = aa.summarize(LATENCY, [STEADY[:5], [v * 1.5 for v in STEADY[:5]]])
    assert any("later set" in p for p in drift["problems"])
    exact = aa.summarize(MODELLED, [[1.0, 1.01], [1.0, 1.01]])
    assert exact["problems"] == []
    inexact = aa.summarize(MODELLED, [[1.0, 1.01], [1.0, 1.010001]])
    assert any("identical" in p for p in inexact["problems"])
    # setup_s is gated on set-to-set worsening only.
    setup = aa.summarize(spec.BY_NAME["setup_s"], [[4.0, 9.0, 5.0, 10.0, 6.0]] * 2)
    assert setup["problems"] == []
