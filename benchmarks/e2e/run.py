"""One benchmark for the whole stack.

    python3 benchmarks/e2e/run.py --workload <name> [--seed N] [--seconds S]
                                  [--trace 0|1] [--profile bench|smoke] [--out FILE]

Builds its inputs from the seed, walks build -> offline search -> serving
-> router -> stream against the public API only, checks every output, and
prints every metric by name with unit, clock, direction and sample count.
The last line of stdout is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics, or with ``--trace 1``
the per-layer metrics of a run that also records spans to
``benchmarks/e2e/out/trace-<workload>.jsonl``.  See README.md.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # before the heavy imports: they are set-up

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: glibc ``mallopt`` parameters (malloc.h).
_M_TRIM_THRESHOLD, _M_TOP_PAD, _M_MMAP_MAX = -1, -2, -4


def _pin_malloc() -> bool:
    """Keep freed memory in the heap: no block is ever mmapped
    (``M_MMAP_MAX`` 0) and the heap top is never trimmed.

    ``CagraIndex.build`` churns through ~600 MB of temporaries, most in
    blocks over 32 MiB.  By default each is mmapped, faulted in (2 MiB at
    a time: numpy asks for huge pages) and unmapped again; on this VM that
    is 50-75 % of a build's wall time and swings 2.7-6.9 s of system time
    for identical work, which no bound of 25 % survives.  Pinned, pages
    are touched once (the cold build in set-up) and a timed build takes a
    few hundred small faults at most instead of 15-24 thousand huge ones
    (the result file's ``timed_build_minor_faults``), so timed phases
    measure the Python/numpy work.  Returns False where there is no glibc.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return all([
        mallopt(_M_MMAP_MAX, 0),
        mallopt(_M_TRIM_THRESHOLD, 2**31 - 1),
        mallopt(_M_TOP_PAD, 64 << 20),
    ])


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--profile", default="bench")
    parser.add_argument("--out", type=Path, default=None,
                        help="result file (default: out/result-<workload>.json)")
    return parser.parse_args(argv)


def _provenance(args, profile, malloc_pinned: bool) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the acceptance checkout is not a repository
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "load_average_at_start": list(os.getloadavg()),
        "seed": args.seed,
        "profile": profile.name,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "malloc_pinned": malloc_pinned,
    }


def _print_table(values: dict) -> None:
    width = max(len(name) for name in values)
    print(f"{'metric':<{width}}  {'value':>14}  {'unit':<8} {'clock':<9}"
          f"{'better':<7} samples")
    for name, row in values.items():
        print(f"{name:<{width}}  {row['value']:>14.6g}  {row['unit']:<8} "
              f"{row['clock']:<9}{row['better']:<7} {row['samples']}")


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    malloc_pinned = _pin_malloc()  # before numpy allocates anything

    sys.path.insert(0, str(ROOT / "src"))
    import sizing
    import spec
    from group_build import BuildGroup
    from group_offline import OfflineGroup
    from group_online import OnlineGroup
    from group_stream import StreamGroup
    from harness import Context, prepare
    from spans import Tracer

    if args.workload not in spec.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{list(spec.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec.RUN_SECONDS)
    profile = sizing.PROFILES[args.profile]
    trace = bool(args.trace)
    provenance = _provenance(args, profile, malloc_pinned)

    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    ctx = Context(
        profile=profile, workload=args.workload, seed=args.seed,
        trace=trace, seconds=sizing.allocate(args.seconds, trace),
        out_dir=scratch, tracer=Tracer(enabled=trace),
    )
    put = ctx.results.put
    try:
        prepare(ctx)
        with ExitStack() as stack:
            build, offline, online, stream = groups = [
                stack.enter_context(group(ctx))
                for group in (BuildGroup, OfflineGroup, OnlineGroup, StreamGroup)
            ]
            # Everything above is set-up: dataset, cold build, ground truth,
            # engine/server/router warm-up, WAL attach.
            put("setup_s", time.perf_counter() - _STARTED)

            build.timed_build()
            if trace:
                build.sharded_build()
            rounds = sizing.TRACE_ROUNDS if trace else sizing.ROUNDS
            for _ in range(rounds):
                for group in groups:
                    group.lap(rounds)
            # Offline first: the others check their recall against its.
            for group in (offline, online, stream, build):
                group.finish()
            if trace:
                for group in groups:
                    group.sweeps()
            for group in groups:
                group.report()
        # (value, queries scored); the timed rebuilds were checked equal to
        # the index searched, so the built graph's recall is offline's.
        offline_recall = (ctx.offline_recall, profile.num_queries)
        recall, scored = {
            "offline_batch": offline_recall,
            "build": offline_recall,
            "online": (online.served_recall, len(online.served)),
            "stream_mixed": (stream.oracle_recall, profile.oracle_queries),
        }[args.workload]
        put("recall_at_10", recall, samples=scored)
        put("peak_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if trace:
            ctx.tracer.write(OUT / f"trace-{args.workload}.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wanted = spec.PER_LAYER if trace else spec.END_TO_END
    missing = ctx.results.missing(wanted)
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    checks = ctx.checks
    correct = checks.failed == 0
    document = {
        "workload": args.workload,
        "provenance": provenance,
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.messages,
        "phase_seconds": ctx.phase_seconds,
        "run_wall_s": time.perf_counter() - _STARTED,
        "timed_build_minor_faults": build.minor_faults,
        # A traced run's end-to-end values are kept for reference only:
        # end-to-end metrics are read from untraced runs.
        "metrics": ctx.results.values,
    }
    suffix = "-trace" if trace else ""
    out_path = args.out or OUT / f"result-{args.workload}{suffix}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(document, indent=1) + "\n")

    _print_table(ctx.results.values)
    for message in checks.messages:
        print(f"CHECK FAILED: {message}")
    print(f"phase seconds: "
          + ", ".join(f"{k}={v:.2f}" for k, v in ctx.phase_seconds.items()))
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            m.name: {"value": ctx.results.values[m.name]["value"], "unit": m.unit}
            for m in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
