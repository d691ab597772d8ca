"""A/A noise tool: run the same code several times and compare it to itself.

    python3 benchmarks/e2e/aa.py --sets 2 --runs 5 [--out baseline/aa.json]

Each set runs every workload ``--runs`` times, run ``i`` on seed
``SEED_BASE + i`` (the same seeds in every set), on the bench profile for
``spec.RUN_SECONDS``.  Per workload and end-to-end metric it
prints the pooled median and quartiles, the spread (inter-quartile
distance / median, what the acceptance driver gates), the range
((max - min) / median) and the bound, and how far a later set's median
is worse than the first set's.  Exits non-zero when a spread or a
set-to-set worsening exceeds the metric's bound, when a ``modelled`` or
``count`` metric differs between two runs of one seed, or when a run
fails.  ``setup_s`` is exempt from the spread rule only (as in the
acceptance driver): it contains the first-touch page faults of the cold
build.  The ungated ``spec.DIAGNOSTICS`` are listed too (bound ``-``) and
never fail the tool.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from stats import quartiles, spread  # noqa: E402

EXACT_CLOCKS = ("modelled", "count")
SEED_BASE = 100


def run_once(workload: str, seed: int) -> dict:
    """One ``run.py`` process; returns its result document."""
    with tempfile.TemporaryDirectory(dir=HERE / "out", prefix="aa-") as scratch:
        out = Path(scratch) / "result.json"
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(spec.RUN_SECONDS), "--trace", "0",
            "--out", str(out),
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=600)
        if done.returncode != 0 or not out.exists():
            raise RuntimeError(
                f"{' '.join(command)} exited {done.returncode}:\n"
                f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
            )
        return json.loads(out.read_text())


def worsening(metric: spec.Metric, first: float, later: float) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``
    (negative when it is better)."""
    change = (later - first) / abs(first)
    return change if metric.better == "lower" else -change


def summarize(metric: spec.Metric, sets: list[list[float]]) -> dict:
    pooled = [value for values in sets for value in values]
    q1, q2, q3 = quartiles(pooled)
    set_medians = [quartiles(values)[1] for values in sets]
    drift = max(
        (worsening(metric, set_medians[0], later) for later in set_medians[1:]),
        default=0.0,
    )
    row = {
        "values": sets,
        "median": q2,
        "q1": q1,
        "q3": q3,
        "spread": spread(pooled),
        "range": (max(pooled) - min(pooled)) / abs(q2),
        "bound": metric.bound,
        "set_medians": set_medians,
        "worst_set_worsening": drift,
    }
    problems = []
    gated = metric.bound is not None
    if gated and metric.name != "setup_s" and row["spread"] > metric.bound:
        problems.append("spread exceeds bound")
    if gated and drift > metric.bound:
        problems.append("a later set is worse than the first by more than the bound")
    if metric.clock in EXACT_CLOCKS and any(
        len({values[i] for values in sets}) > 1 for i in range(len(sets[0]))
    ):
        problems.append("not identical across runs of one seed")
    row["problems"] = problems
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    (HERE / "out").mkdir(exist_ok=True)
    report = {"sets": args.sets, "runs": args.runs, "seed_base": SEED_BASE,
              "provenance": None, "run_wall_s": [], "workloads": {}}
    failed = False
    for workload in spec.WORKLOADS:
        metrics = spec.END_TO_END + spec.DIAGNOSTICS
        values = {m.name: [[] for _ in range(args.sets)] for m in metrics}
        # Sets interleave (set 0 run i, set 1 run i, ...) so that slow
        # drift of the machine lands on every set alike.
        for i in range(args.runs):
            for s in range(args.sets):
                document = run_once(workload, SEED_BASE + i)
                report["provenance"] = report["provenance"] or document["provenance"]
                report["run_wall_s"].append(document["run_wall_s"])
                for name in values:
                    values[name][s].append(document["metrics"][name]["value"])
                print(f"  {workload} set {s} seed {SEED_BASE + i}: "
                      f"{document['run_wall_s']:.1f} s", file=sys.stderr)
        rows = {m.name: summarize(m, values[m.name]) for m in metrics}
        report["workloads"][workload] = rows
        print(f"\n{workload}")
        print(f"  {'metric':<32}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>8}{'range':>8}{'bound':>7}{'set drift':>10}")
        for name, row in rows.items():
            flag = "  <-- " + "; ".join(row["problems"]) if row["problems"] else ""
            failed = failed or bool(row["problems"])
            bound = "-" if row["bound"] is None else f"{row['bound']:g}"
            print(f"  {name:<32}{row['median']:>12.5g}{row['q1']:>12.5g}"
                  f"{row['q3']:>12.5g}{row['spread']:>8.3f}{row['range']:>8.3f}"
                  f"{bound:>7}{row['worst_set_worsening']:>10.3f}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
