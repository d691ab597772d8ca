"""Compare two ``aa.py`` reports: a parent commit and a change.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

One row per workload and end-to-end metric: both medians with their
quartiles, the ratio change / parent *with its base* (the parent median
and unit), and a verdict:

* ``regressed``  — the change's median is worse than the parent's by more
  than the metric's bound;
* ``improved``   — it is better by more than the parent's own
  inter-quartile distance *and* the change wins at least nine tenths of
  the run pairs (ties count for neither);
* ``unresolved`` — the parent's own spread exceeds the bound and the two
  sets of runs overlap, so neither of the above can be told from noise;
* ``unchanged``  — otherwise.

Exits non-zero when any gated row regressed.  The ungated
``spec.DIAGNOSTICS`` get the same rows, judged against the widest bound
(25 %) and marked ``(ungated)``; they never change the exit code.  Both
reports must come from the same benchmark code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from stats import quartiles  # noqa: E402


def _better(metric: spec.Metric, a: float, b: float) -> bool:
    """Is ``a`` strictly better than ``b``?"""
    return a < b if metric.better == "lower" else a > b


#: Bound used to judge metrics that have none of their own.
UNGATED_BOUND = 0.25


def verdict(metric: spec.Metric, parent: list[float], change: list[float]) -> dict:
    bound = UNGATED_BOUND if metric.bound is None else metric.bound
    p1, p2, p3 = quartiles(parent)
    c1, c2, c3 = quartiles(change)
    worse_by = (c2 - p2) / abs(p2) * (1 if metric.better == "lower" else -1)
    # Pair run i with run i when the counts match (alternating A/B runs),
    # otherwise every parent run with every change run.
    pairs = (
        list(zip(parent, change)) if len(parent) == len(change)
        else [(p, c) for p in parent for c in change]
    )
    wins = sum(_better(metric, c, p) for p, c in pairs)
    # The two sets overlap unless every run of one side beats every run of
    # the other.
    overlap = not (
        all(_better(metric, c, p) for p in parent for c in change)
        or all(_better(metric, p, c) for p in parent for c in change)
    )
    noisy = (p3 - p1) / abs(p2) > bound
    if noisy and overlap:
        result = "unresolved"
    elif worse_by > bound:
        result = "regressed"
    elif (
        _better(metric, c2, p2)
        and abs(c2 - p2) > (p3 - p1)
        and wins >= 0.9 * len(pairs)
    ):
        result = "improved"
    else:
        result = "unchanged"
    return {
        "parent": (p1, p2, p3), "change": (c1, c2, c3), "ratio": c2 / p2,
        "wins": wins, "pairs": len(pairs), "verdict": result,
    }


def _pooled(report: dict, workload: str, name: str) -> list[float]:
    return [v for values in report["workloads"][workload][name]["values"] for v in values]


def compare(parent: dict, change: dict) -> dict:
    rows = {}
    for workload in parent["workloads"]:
        if workload not in change["workloads"]:
            continue
        rows[workload] = {
            m.name: verdict(m, _pooled(parent, workload, m.name),
                            _pooled(change, workload, m.name))
            for m in spec.END_TO_END + spec.DIAGNOSTICS
            if m.name in parent["workloads"][workload]
            and m.name in change["workloads"][workload]
        }
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(parent, change)
    regressed = False
    for workload, metrics in rows.items():
        print(f"\n{workload}")
        print(f"  {'metric':<32}{'parent q1/med/q3':>34}{'change q1/med/q3':>34}"
              f"  ratio (base)                wins  verdict")
        for name, row in metrics.items():
            metric = spec.BY_NAME[name]
            gated = metric.bound is not None
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            base = f"{row['ratio']:.3f} x {row['parent'][1]:.4g} {metric.unit}"
            print(f"  {name:<32}{fmt(row['parent']):>34}{fmt(row['change']):>34}"
                  f"  {base:<28}{row['wins']:>2}/{row['pairs']:<3} {row['verdict']}"
                  f"{'' if gated else ' (ungated)'}")
            regressed = regressed or (gated and row["verdict"] == "regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
