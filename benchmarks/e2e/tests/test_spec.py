"""BENCHMARK.json against the contract and against spec.py."""

import json
import re

import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_generated_from_the_spec():
    assert json.loads(spec.BENCHMARK_JSON.read_text()) == spec.benchmark_json()


def test_contract_limits():
    doc = spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert 1 <= doc["run_seconds"] <= 60 and isinstance(doc["run_seconds"], int)
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(json.dumps(doc)) < 64 * 1024


def test_every_metric_names_a_known_clock():
    assert all(m.clock in spec.CLOCKS for m in spec.END_TO_END + spec.PER_LAYER)
